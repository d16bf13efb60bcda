/**
 * @file
 * The SIMD dispatch layer and the per-level byte-identity contract
 * (DESIGN.md section 4i): level names and strict parsing, host support
 * probing, forced overrides, and -- for every level the host can
 * execute -- GF(2^8) constant rows, the detection lane tables'
 * linearity fence, the Monte-Carlo zero-fault filter and its survivor
 * hand-off, and full-engine McResult identity against the per-system
 * reference in tests/support. RS decode and the detection lanes are covered
 * per level by tests/ecc/test_codec_equivalence.cc.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "ecc/crc8atm.hh"
#include "ecc/detect_lanes.hh"
#include "ecc/gf256.hh"
#include "ecc/hamming7264.hh"
#include "faultsim/engine.hh"
#include "faultsim/zero_filter.hh"
#include "tests/support/engine_reference.hh"
#include "tests/support/simd_levels.hh"

namespace xed
{
namespace
{

constexpr SimdLevel allLevels[] = {SimdLevel::Scalar, SimdLevel::Neon,
                                   SimdLevel::Avx2, SimdLevel::Avx512};

TEST(SimdDispatch, LevelNamesRoundTrip)
{
    for (const SimdLevel level : allLevels) {
        const auto parsed = parseSimdLevel(simdLevelName(level));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, level);
    }
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Neon), "neon");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx512), "avx512");
}

TEST(SimdDispatch, ParseIsStrict)
{
    // Strict means strict: no case folding, no whitespace trimming, no
    // prefixes, no aliases.
    for (const char *bad : {"", "AVX2", "Scalar", " scalar", "scalar ",
                            "avx", "avx-512", "sse2", "auto", "native",
                            "0", "neon64"})
        EXPECT_FALSE(parseSimdLevel(bad).has_value()) << bad;
}

TEST(SimdDispatch, ScalarAlwaysExecutable)
{
    EXPECT_TRUE(simdLevelSupported(SimdLevel::Scalar));
    EXPECT_TRUE(simdLevelSupported(simdDetectedLevel()));
    EXPECT_TRUE(simdLevelSupported(simdLevel()));
}

TEST(SimdDispatch, NeonAndAvxAreMutuallyExclusive)
{
    // One ISA per host: a level that is not executable must exist on
    // every machine, which is what keeps ForceRejects... non-vacuous.
    EXPECT_FALSE(simdLevelSupported(SimdLevel::Neon) &&
                 simdLevelSupported(SimdLevel::Avx2));
}

TEST(SimdDispatch, ForceRejectsUnexecutableLevel)
{
    const SimdLevel original = simdLevel();
    bool sawUnsupported = false;
    for (const SimdLevel level : allLevels) {
        if (simdLevelSupported(level))
            continue;
        sawUnsupported = true;
        EXPECT_THROW(simdForceLevel(level, "test"),
                     std::runtime_error)
            << simdLevelName(level);
    }
    EXPECT_TRUE(sawUnsupported);
    // A rejected force must leave the resolved level untouched.
    EXPECT_EQ(simdLevel(), original);
}

TEST(SimdDispatch, ForceSetsLevelAndRecordsOrigin)
{
    const SimdLevel original = simdLevel();
    simdForceLevel(SimdLevel::Scalar, "forced-scalar");
    EXPECT_EQ(simdLevel(), SimdLevel::Scalar);
    EXPECT_EQ(simdOverride(), "forced-scalar");
    simdForceLevel(original, "test");
    EXPECT_EQ(simdLevel(), original);
    EXPECT_EQ(simdOverride(), "test");
}

TEST(SimdGf256, MulConstMatchesScalarRowAtEveryLevel)
{
    const ecc::GF256 &gf = ecc::GF256::instance();
    Rng rng(0x6F256);
    constexpr std::size_t sizes[] = {0,  1,  7,   15,  16,  17,  31,
                                     32, 33, 63,  64,  65,  100, 127,
                                     128, 129, 255, 256, 257};
    constexpr std::size_t maxSize = 257;
    constexpr std::size_t maxOffset = 3;
    std::vector<std::uint8_t> src(maxSize + maxOffset);
    for (auto &symbol : src)
        symbol = static_cast<std::uint8_t>(rng.below(256));

    for (unsigned c = 0; c < 256; c += 7) {
        const std::uint8_t *row =
            gf.mulRowPtr(static_cast<std::uint8_t>(c));
        for (const std::size_t size : sizes) {
            const std::size_t offset = rng.below(maxOffset + 1);
            std::vector<std::uint8_t> expectedXor(size);
            for (std::size_t i = 0; i < size; ++i)
                expectedXor[i] =
                    static_cast<std::uint8_t>(0xA5 ^ row[src[offset + i]]);
            for (const SimdLevel level : executableLevels()) {
                const ScopedSimdLevel forced(level);
                std::vector<std::uint8_t> acc(size, 0xA5);
                gf.mulConstXorInto(static_cast<std::uint8_t>(c),
                                   src.data() + offset, acc.data(),
                                   size);
                ASSERT_EQ(acc, expectedXor)
                    << simdLevelName(level) << " c=" << c
                    << " n=" << size;
            }
        }
    }
}

/** Hamming whose syndrome of one word is bent off linearity: the word
 *  with 0x33 in byte lane 4. */
class BentHamming final : public ecc::Hamming7264
{
  public:
    std::uint8_t
    syndrome(const ecc::Word72 &received) const override
    {
        const std::uint8_t s = Hamming7264::syndrome(received);
        return received == ecc::Word72{0x33ull << 32, 0}
                   ? static_cast<std::uint8_t>(s ^ 1)
                   : s;
    }
};

TEST(SimdDetect, LaneTablesRejectNonLinearCode)
{
    EXPECT_NO_THROW(ecc::DetectTables{ecc::Hamming7264()});
    EXPECT_NO_THROW(ecc::DetectTables{ecc::Crc8Atm()});
    // One non-linear syndrome must be rejected: the lane kernel XORs
    // columns, so it would silently miscount every pattern over it.
    EXPECT_THROW(ecc::DetectTables{BentHamming()}, std::logic_error);
}

TEST(SimdZeroFilter, MaskMatchesRngReplayAtEveryLevel)
{
    // Independent replay of the contract: system first + i survives
    // iff one of the first `channels` draws of its stream has
    // (next() >> 11) > zeroMax, and the block then holds the state
    // after the first such draw, the draw and its channel.
    const std::uint64_t zeroMaxes[] = {
        0,
        0x1DCCCCCCCCCCCCCull, // ~ exp(-lambda) = 0.93 in 53-bit form
        (1ull << 53) - 1,
    };
    const std::uint64_t mixedSeed = Rng::mixSeed(61799);
    for (const std::uint64_t zeroMax : zeroMaxes) {
        for (const std::uint64_t first :
             {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{12345},
              std::uint64_t{1} << 40}) {
            for (const unsigned channels : {1u, 2u, 4u, 5u}) {
                for (const unsigned count : {64u, 61u, 13u, 8u, 1u}) {
                    faultsim::SurvivorBlock want;
                    want.survivors = 0;
                    for (unsigned i = 0; i < count; ++i) {
                        Rng rng = Rng::streamMixed(mixedSeed, first + i);
                        for (unsigned ch = 0; ch < channels; ++ch) {
                            const std::uint64_t draw = rng.next() >> 11;
                            if (draw <= zeroMax)
                                continue;
                            want.survivors |= std::uint64_t{1} << i;
                            for (unsigned w = 0; w < 4; ++w)
                                want.state[w][i] = rng.state()[w];
                            want.draw[i] = draw;
                            want.channel[i] = ch;
                            break;
                        }
                    }
                    for (const SimdLevel level : executableLevels()) {
                        faultsim::SurvivorBlock got;
                        faultsim::screenBlock(level, mixedSeed, first,
                                              count, channels, zeroMax,
                                              got);
                        ASSERT_EQ(got.survivors, want.survivors)
                            << simdLevelName(level) << " first=" << first
                            << " channels=" << channels
                            << " count=" << count;
                        for (std::uint64_t rest = want.survivors; rest;
                             rest &= rest - 1) {
                            const int i = std::countr_zero(rest);
                            for (unsigned w = 0; w < 4; ++w)
                                ASSERT_EQ(got.state[w][i], want.state[w][i])
                                    << simdLevelName(level) << " lane " << i;
                            ASSERT_EQ(got.draw[i], want.draw[i])
                                << simdLevelName(level) << " lane " << i;
                            ASSERT_EQ(got.channel[i], want.channel[i])
                                << simdLevelName(level) << " lane " << i;
                        }
                    }
                }
            }
        }
    }
}

/**
 * A scheme that logs every evaluation -- the stream state it is handed
 * and each field of each event, in order -- and then defers to a real
 * scheme, whose draws (escape and scaling Bernoullis) thus still move
 * the stream. The log is in evaluation order: every level evaluates
 * its survivors in ascending system order, as the reference does.
 */
class LoggingScheme final : public faultsim::Scheme
{
  public:
    explicit LoggingScheme(const faultsim::Scheme &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    faultsim::DimmShape dimmShape() const override
    {
        return inner_.dimmShape();
    }

    std::optional<faultsim::SchemeFailure>
    evaluateDimm(std::span<const faultsim::FaultEvent> events,
                 const faultsim::AddressLayout &layout, Rng &rng,
                 faultsim::EvalScratch &scratch) const override
    {
        std::vector<std::uint64_t> entry;
        for (const std::uint64_t word : rng.state())
            entry.push_back(word);
        for (const faultsim::FaultEvent &e : events) {
            entry.push_back(e.rank);
            entry.push_back(e.chip);
            entry.push_back(static_cast<std::uint64_t>(e.kind));
            entry.push_back(e.transient);
            entry.push_back(std::bit_cast<std::uint64_t>(e.timeHours));
            entry.push_back(std::bit_cast<std::uint64_t>(e.expiresHours));
            entry.push_back(e.range.addr);
            entry.push_back(e.range.mask);
        }
        log_.push_back(std::move(entry));
        return inner_.evaluateDimm(events, layout, rng, scratch);
    }

    /** The log so far, and cleared. */
    std::vector<std::vector<std::uint64_t>>
    take() const
    {
        std::vector<std::vector<std::uint64_t>> log = std::move(log_);
        log_.clear();
        return log;
    }

  private:
    const faultsim::Scheme &inner_;
    mutable std::vector<std::vector<std::uint64_t>> log_;
};

TEST(SimdEngine, McResultIdenticalAcrossLevels)
{
    // The whole engine at every level against the per-system reference
    // in tests/support: every scheme, on-die ECC absent and present,
    // scaling faults, scrubbing and several channel counts, under a FIT
    // table scaled x40 so that multi-event DIMMs, multi-rank twins,
    // evaluation draws and pair/triple overlaps are common. Each run
    // is cut into shards at points that are not multiples of 8 or 64,
    // and every evaluation's events and stream are compared too.
    constexpr faultsim::SchemeKind kinds[] = {
        faultsim::SchemeKind::NonEcc,
        faultsim::SchemeKind::Secded,
        faultsim::SchemeKind::Xed,
        faultsim::SchemeKind::Chipkill,
        faultsim::SchemeKind::ChipkillX8Lockstep,
        faultsim::SchemeKind::DoubleChipkill,
        faultsim::SchemeKind::XedChipkill,
        faultsim::SchemeKind::DoubleChipkillLockstep,
        faultsim::SchemeKind::XedChipkillLockstep,
    };
    constexpr std::uint64_t cuts[] = {0, 5, 77, 141, 300};
    faultsim::McConfig config;
    config.seed = 61799;
    config.threads = 1;
    for (faultsim::FitEntry &rate : config.fit.rates) {
        rate.transient *= 40;
        rate.permanent *= 40;
    }
    config.systems = cuts[std::size(cuts) - 1];

    std::uint64_t failures = 0;
    std::uint64_t evaluations = 0;
    for (const faultsim::SchemeKind kind : kinds) {
        for (const bool present : {false, true}) {
            for (const double scalingRate : {0.0, 1e-4}) {
                // 168 h boundaries are exact integers; 10.1 h ones
                // round, so a fused (floor(t/s) + 1) * s shows.
                for (const double scrub : {0.0, 168.0, 10.1}) {
                    for (const unsigned channels : {1u, 4u, 5u}) {
                        faultsim::OnDieOptions onDie;
                        onDie.present = present;
                        onDie.scalingRate = scalingRate;
                        const auto inner = faultsim::makeScheme(kind, onDie);
                        const LoggingScheme scheme(*inner);
                        config.scrubIntervalHours = scrub;
                        config.channels = channels;
                        const std::string where =
                            std::string(faultsim::schemeKindName(kind)) +
                            (present ? " on-die" : " no-on-die") +
                            " scaling=" + std::to_string(scalingRate) +
                            " scrub=" + std::to_string(scrub) +
                            " channels=" + std::to_string(channels);

                        const faultsim::McResult want =
                            faultsim::referenceMonteCarloShard(
                                scheme, config, 0, config.systems);
                        const auto wantLog = scheme.take();
                        failures += want.failByYear[7].successes();
                        evaluations += wantLog.size();
                        for (const SimdLevel level : executableLevels()) {
                            const ScopedSimdLevel forced(level);
                            faultsim::McResult got;
                            for (std::size_t c = 0; c + 1 < std::size(cuts);
                                 ++c)
                                got.merge(faultsim::runMonteCarloShard(
                                    scheme, config, cuts[c], cuts[c + 1]));
                            ASSERT_EQ(faultsim::mcResultDifference(got, want),
                                      "")
                                << simdLevelName(level) << " " << where;
                            ASSERT_TRUE(scheme.take() == wantLog)
                                << simdLevelName(level) << " " << where;
                            ASSERT_EQ(faultsim::mcResultDifference(
                                          faultsim::runMonteCarlo(scheme,
                                                                  config),
                                          want),
                                      "")
                                << simdLevelName(level) << " whole " << where;
                            scheme.take();
                        }
                    }
                }
            }
        }
    }
    // The comparison means something only if systems fail and DIMMs
    // are evaluated in numbers.
    EXPECT_GT(failures, 10000u);
    EXPECT_GT(evaluations, 100000u);
}

} // namespace
} // namespace xed
