/**
 * @file
 * Before/after throughput for the codec kernel rewrite: the frozen
 * pre-optimization implementations (tests/support/codec_reference.*)
 * against the table-driven, allocation-free kernels in src/ecc/, on
 * the exact shapes the hot loops use -- GF(2^8) multiply, RS(18,16)
 * and RS(36,32) decode with errors and erasures, CRC-8 ATM encode and
 * syndrome, and batched (72,64) detection. Results are written as
 * BENCH_codecs.json with per-kernel ops/sec and the geomean speedups
 * for the RS-decode and CRC-8 groups.
 *
 * Batched detection is pinned to the campaign shard geometry (512
 * words per detectMany call, the batchSize in campaign/runner.cc) so
 * the reported rate is the rate the shards actually see, and the
 * detect kernels are additionally swept across every SIMD dispatch
 * level the host can execute (simd_levels in the JSON).
 *
 * Knobs: XED_CODEC_OPS scales the per-kernel operation count (default
 * 150000 RS decodes; the cheaper kernels run multiples of it),
 * XED_BENCH_REPEATS (default 3) controls the best-of repetition
 * count, and XED_BENCH_OUT overrides the JSON output path (empty
 * string suppresses the file, e.g. for the perf-smoke ctest label).
 * --simd=scalar|neon|avx2|avx512 forces the dispatch level for the
 * whole run (strict parse; a level the host cannot execute fails).
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/build_info.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "ecc/crc8atm.hh"
#include "ecc/error_patterns.hh"
#include "ecc/gf256.hh"
#include "ecc/hamming7264.hh"
#include "ecc/reed_solomon.hh"
#include "tests/support/codec_reference.hh"

using namespace xed;
using namespace xed::ecc;

namespace
{

/** Defeats dead-code elimination across all timed loops. */
volatile std::uint64_t sink;

/** Best-of-@p repeats wall time of one full pass of @p fn. */
template <typename F>
double
bestSeconds(unsigned repeats, F &&fn)
{
    fn(); // warm up: tables, caches, branch predictors
    double best = 1e300;
    for (unsigned r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

struct KernelResult
{
    std::string kernel;
    std::string group;
    double beforeRate;
    double afterRate;

    double speedup() const { return afterRate / beforeRate; }
};

/** One pre-damaged received word for the RS decode kernels. */
struct RsCase
{
    std::array<std::uint8_t, RsScratch::maxN> received;
    std::array<unsigned, RsScratch::maxR> erasures;
    unsigned numErasures;
};

constexpr std::size_t poolSize = 256;

/** Words per detectMany call: the campaign shard batch geometry
 *  (campaign/runner.cc batchSize), pinned so BENCH_codecs.json rates
 *  are comparable run to run and match what the shards execute. */
constexpr std::size_t detectBatchWords = 512;

/** Pool of codewords with @p errors random errors + @p erased
 *  erasures at distinct positions (all within capacity). */
std::vector<RsCase>
makeRsPool(const ReedSolomon &rs, unsigned errors, unsigned erased,
           std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<RsCase> pool(poolSize);
    std::vector<std::uint8_t> data(rs.k());
    for (RsCase &c : pool) {
        for (auto &symbol : data)
            symbol = static_cast<std::uint8_t>(rng.below(256));
        const auto codeword = rs.encode(data);
        std::copy(codeword.begin(), codeword.end(), c.received.begin());
        bool used[RsScratch::maxN] = {};
        c.numErasures = 0;
        for (unsigned i = 0; i < errors + erased; ++i) {
            unsigned pos;
            do
                pos = static_cast<unsigned>(rng.below(rs.n()));
            while (used[pos]);
            used[pos] = true;
            c.received[pos] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
            if (i >= errors)
                c.erasures[c.numErasures++] = pos;
        }
    }
    return pool;
}

/** RS decode, legacy heap decoder vs. scratch kernel. */
KernelResult
benchRsDecode(const std::string &kernel, unsigned n, unsigned k,
              unsigned errors, unsigned erased, std::uint64_t ops,
              unsigned repeats)
{
    const ReedSolomon rs(n, k);
    const legacy::ReedSolomon ref(n, k);
    const auto pool =
        makeRsPool(rs, errors, erased, 0xBE9C4 + n + errors * 8 + erased);

    const double beforeSec = bestSeconds(repeats, [&] {
        std::vector<std::uint8_t> word(n);
        std::vector<unsigned> erasures;
        std::uint64_t corrected = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const RsCase &c = pool[i % poolSize];
            word.assign(c.received.begin(), c.received.begin() + n);
            erasures.assign(c.erasures.begin(),
                            c.erasures.begin() + c.numErasures);
            corrected += static_cast<unsigned>(
                ref.decode(word, erasures).status);
        }
        sink = sink + corrected;
    });

    const double afterSec = bestSeconds(repeats, [&] {
        RsScratch scratch;
        std::array<std::uint8_t, RsScratch::maxN> word;
        std::uint64_t corrected = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const RsCase &c = pool[i % poolSize];
            std::copy(c.received.begin(), c.received.begin() + n,
                      word.begin());
            corrected += static_cast<unsigned>(
                rs.decode(std::span<std::uint8_t>(word.data(), n),
                          std::span<const unsigned>(c.erasures.data(),
                                                    c.numErasures),
                          scratch)
                    .status);
        }
        sink = sink + corrected;
    });

    return {kernel, "rs_decode", ops / beforeSec, ops / afterSec};
}

/** Pool of (72,64) words: mostly corrupted, some clean. */
std::vector<Word72>
makeWordPool(const Secded7264 &code, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Word72> pool(4096);
    const Word72 clean = code.encode(0x0123456789ABCDEFull);
    for (Word72 &word : pool) {
        word = clean;
        if (rng.bernoulli(0.7))
            word ^= randomPattern(rng, 1 + rng.below(8));
    }
    return pool;
}

/** Every SIMD level this host can execute, Scalar first. */
std::vector<SimdLevel>
executableLevels()
{
    std::vector<SimdLevel> levels;
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Neon, SimdLevel::Avx2,
          SimdLevel::Avx512})
        if (simdLevelSupported(level))
            levels.push_back(level);
    return levels;
}

} // namespace

int
main(int argc, char **argv)
try {
    // Strict flag parsing: --simd=LEVEL is the only flag, anything
    // else (including a malformed level) is a usage error.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string prefix = "--simd=";
        if (arg.rfind(prefix, 0) != 0) {
            std::fprintf(stderr,
                         "codec_throughput: unknown argument \"%s\" "
                         "(usage: codec_throughput "
                         "[--simd=scalar|neon|avx2|avx512])\n",
                         arg.c_str());
            return 2;
        }
        const auto level = parseSimdLevel(arg.substr(prefix.size()));
        if (!level) {
            std::fprintf(stderr,
                         "codec_throughput: %s: expected "
                         "--simd=scalar, neon, avx2 or avx512\n",
                         arg.c_str());
            return 2;
        }
        simdForceLevel(*level, arg); // throws if not executable here
    }
    // Captured before the per-level sweep forces other levels, so the
    // provenance block reflects the level the main table ran at.
    const json::Value buildJson = buildInfoJson();

    const std::uint64_t baseOps =
        bench::envScale("XED_CODEC_OPS", 150000);
    const unsigned repeats = static_cast<unsigned>(
        bench::envScale("XED_BENCH_REPEATS", 3));

    std::string outPath = "BENCH_codecs.json";
    if (const char *env = std::getenv("XED_BENCH_OUT"))
        outPath = env;

    std::vector<KernelResult> results;

    // --- GF(2^8) multiply: log/exp with zero branch and % 255 vs. the
    // full 64 KB product table.
    {
        const GF256 &gf = GF256::instance();
        const std::uint64_t ops = baseOps * 200;
        const double beforeSec = bestSeconds(repeats, [&] {
            std::uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
            for (std::uint64_t i = 0; i < ops; ++i) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                acc ^= legacy::gfMul(static_cast<std::uint8_t>(x >> 16),
                                     static_cast<std::uint8_t>(x >> 40));
            }
            sink = sink + acc;
        });
        const double afterSec = bestSeconds(repeats, [&] {
            std::uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
            for (std::uint64_t i = 0; i < ops; ++i) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                acc ^= gf.mul(static_cast<std::uint8_t>(x >> 16),
                              static_cast<std::uint8_t>(x >> 40));
            }
            sink = sink + acc;
        });
        results.push_back(
            {"gf256_mul", "gf", ops / beforeSec, ops / afterSec});
    }

    // --- RS decode on the controller shapes: XED-on-Chipkill decodes
    // RS(18,16) per beat (errors or catch-word erasures); the sweep
    // and DDR3-style configs use RS(36,32).
    results.push_back(benchRsDecode("rs1816_decode_1err", 18, 16, 1, 0,
                                    baseOps, repeats));
    results.push_back(benchRsDecode("rs1816_decode_2era", 18, 16, 0, 2,
                                    baseOps, repeats));
    results.push_back(benchRsDecode("rs3632_decode_2err", 36, 32, 2, 0,
                                    baseOps, repeats));

    // --- CRC-8 ATM: byte-at-a-time dependent chain vs. slice-by-8.
    const Crc8Atm crc;
    {
        const std::uint64_t ops = baseOps * 50;
        const double beforeSec = bestSeconds(repeats, [&] {
            std::uint64_t x = 0xC4C4C4C4C4C4C4C4ull, acc = 0;
            for (std::uint64_t i = 0; i < ops; ++i) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                acc ^= legacy::crc8(x);
            }
            sink = sink + acc;
        });
        const double afterSec = bestSeconds(repeats, [&] {
            std::uint64_t x = 0xC4C4C4C4C4C4C4C4ull, acc = 0;
            for (std::uint64_t i = 0; i < ops; ++i) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                acc ^= crc.crc(x);
            }
            sink = sink + acc;
        });
        results.push_back(
            {"crc8_crc", "crc8", ops / beforeSec, ops / afterSec});
    }
    {
        const auto pool = makeWordPool(crc, 0xC8C8);
        const std::uint64_t ops = baseOps * 50;
        const double beforeSec = bestSeconds(repeats, [&] {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < ops; ++i)
                acc += legacy::crcSyndrome(pool[i & 4095]);
            sink = sink + acc;
        });
        const double afterSec = bestSeconds(repeats, [&] {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < ops; ++i)
                acc += crc.syndrome(pool[i & 4095]);
            sink = sink + acc;
        });
        results.push_back(
            {"crc8_syndrome", "crc8", ops / beforeSec, ops / afterSec});
    }

    // --- Batched detection: the pre-PR shard loop (one virtual
    // isValidCodeword per word) vs. detectMany in the pinned shard
    // geometry (detectBatchWords per call).
    const auto detectManyRate = [&](const Secded7264 &code,
                                    std::span<const Word72> span,
                                    std::uint64_t rounds) {
        const double sec = bestSeconds(repeats, [&] {
            std::uint64_t detected = 0;
            for (std::uint64_t r = 0; r < rounds; ++r)
                for (std::size_t at = 0; at < span.size();
                     at += detectBatchWords)
                    detected += code.detectMany(
                        span.subspan(at, detectBatchWords));
            sink = sink + detected;
        });
        return static_cast<double>(rounds * span.size()) / sec;
    };
    const auto benchDetect = [&](const std::string &kernel,
                                 const Secded7264 &code,
                                 const std::vector<Word72> &pool) {
        const std::uint64_t rounds = (baseOps * 50) / pool.size();
        const std::uint64_t ops = rounds * pool.size();
        const std::span<const Word72> span(pool);
        const double beforeSec = bestSeconds(repeats, [&] {
            std::uint64_t detected = 0;
            for (std::uint64_t r = 0; r < rounds; ++r)
                for (const Word72 &word : span)
                    detected += !code.isValidCodeword(word);
            sink = sink + detected;
        });
        results.push_back({kernel, "detect", ops / beforeSec,
                           detectManyRate(code, span, rounds)});
    };
    const Hamming7264 hamming;
    const auto hammingPool = makeWordPool(hamming, 0x4A11);
    const auto crcPool = makeWordPool(crc, 0xC4C4);
    static_assert(4096 % detectBatchWords == 0,
                  "word pool must hold whole detect batches");
    benchDetect("hamming_detect_batch", hamming, hammingPool);
    benchDetect("crc8_detect_batch", crc, crcPool);

    // --- Per-dispatch-level detect rates: the same pinned-geometry
    // loop forced to every level this host can execute, so one report
    // shows what each kernel generation is worth on this machine.
    struct LevelRate
    {
        SimdLevel level;
        double hammingRate;
        double crcRate;
    };
    std::vector<LevelRate> levelRates;
    {
        const SimdLevel resolved = simdLevel();
        const std::uint64_t rounds = (baseOps * 50) / 4096;
        for (const SimdLevel level : executableLevels()) {
            simdForceLevel(level, "--simd sweep");
            levelRates.push_back(
                {level, detectManyRate(hamming, hammingPool, rounds),
                 detectManyRate(crc, crcPool, rounds)});
        }
        simdForceLevel(resolved, "--simd sweep");
    }

    // --- Report.
    std::printf("Codec kernel throughput (base %llu ops, best of %u)\n",
                static_cast<unsigned long long>(baseOps), repeats);
    std::printf("%-22s %14s %14s %9s\n", "kernel", "before ops/s",
                "after ops/s", "speedup");
    auto jsonResults = json::Value::array();
    for (const KernelResult &r : results) {
        std::printf("%-22s %14.4g %14.4g %8.2fx\n", r.kernel.c_str(),
                    r.beforeRate, r.afterRate, r.speedup());
        auto entry = json::Value::object();
        entry.set("kernel", r.kernel);
        entry.set("group", r.group);
        entry.set("before_ops_per_sec", r.beforeRate);
        entry.set("after_ops_per_sec", r.afterRate);
        entry.set("speedup", r.speedup());
        jsonResults.push(std::move(entry));
    }

    const auto geomean = [&](const std::string &group) {
        double logSum = 0;
        unsigned count = 0;
        for (const KernelResult &r : results) {
            if (group.empty() || r.group == group) {
                logSum += std::log(r.speedup());
                ++count;
            }
        }
        return std::exp(logSum / count);
    };
    const double rsGeomean = geomean("rs_decode");
    const double crcGeomean = geomean("crc8");
    const double overallGeomean = geomean("");
    std::printf("geomean speedup: rs_decode %.2fx, crc8 %.2fx, "
                "overall %.2fx\n",
                rsGeomean, crcGeomean, overallGeomean);

    std::printf("batch words/s by SIMD level (%zu-word batches):\n",
                detectBatchWords);
    auto jsonLevels = json::Value::array();
    for (const LevelRate &lr : levelRates) {
        std::printf("  %-8s hamming %12.4g  crc8 %12.4g\n",
                    simdLevelName(lr.level), lr.hammingRate, lr.crcRate);
        auto entry = json::Value::object();
        entry.set("level", simdLevelName(lr.level));
        entry.set("hamming_detect_batch_ops_per_sec", lr.hammingRate);
        entry.set("crc8_detect_batch_ops_per_sec", lr.crcRate);
        jsonLevels.push(std::move(entry));
    }

    if (!outPath.empty()) {
        auto doc = json::Value::object();
        doc.set("bench", "codec_throughput");
        doc.set("base_ops", baseOps);
        doc.set("repeats", repeats);
        doc.set("detect_batch_words", detectBatchWords);
        doc.set("build", buildJson);
        doc.set("results", std::move(jsonResults));
        doc.set("simd_levels", std::move(jsonLevels));
        auto geo = json::Value::object();
        geo.set("rs_decode", rsGeomean);
        geo.set("crc8", crcGeomean);
        geo.set("overall", overallGeomean);
        doc.set("geomean_speedup", std::move(geo));
        std::ofstream out(outPath, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "codec_throughput: cannot write %s\n",
                         outPath.c_str());
            return 1;
        }
        out << json::dump(doc) << "\n";
        std::printf("-> %s\n", outPath.c_str());
    }
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "codec_throughput: %s\n", e.what());
    return 1;
}
