/**
 * @file
 * Counting-allocator proof of the codec layer's allocation contract:
 * once a code object exists, the hot paths -- RS scratch decode with
 * errors and erasures, CRC/Hamming decode, batched detection, a
 * detection lane group, and a whole campaign detection shard --
 * perform ZERO steady-state heap allocations. Same technique as
 * tests/faultsim/test_alloc.cc: global operator new is replaced with
 * a counting forwarder.
 *
 * This binary must stay separate from test_ecc: the global operator
 * new replacement applies process-wide.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/spec.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "obs/trace.hh"
#include "ecc/crc8atm.hh"
#include "ecc/detect_lanes.hh"
#include "ecc/error_patterns.hh"
#include "ecc/hamming7264.hh"
#include "ecc/reed_solomon.hh"
#include "tests/support/pattern_reference.hh"
#include "xed/chipkill_controller.hh"
#include "xed/controller.hh"

namespace
{

std::atomic<std::uint64_t> allocationCount{0};

void *
countedAlloc(std::size_t size)
{
    ++allocationCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

std::uint64_t
allocations()
{
    return allocationCount.load(std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace xed::ecc
{
namespace
{

/** Corrupt a codeword in place: @p errors random symbols plus @p
 *  erased symbols whose indices go into @p erasures. */
template <std::size_t N>
unsigned
damage(Rng &rng, std::span<std::uint8_t> word, unsigned errors,
       unsigned erased, std::array<unsigned, N> &erasures)
{
    const unsigned n = static_cast<unsigned>(word.size());
    bool used[RsScratch::maxN] = {};
    unsigned numErasures = 0;
    for (unsigned i = 0; i < errors + erased; ++i) {
        unsigned pos;
        do
            pos = static_cast<unsigned>(rng.below(n));
        while (used[pos]);
        used[pos] = true;
        word[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        if (i >= errors)
            erasures[numErasures++] = pos;
    }
    return numErasures;
}

TEST(CodecAllocation, RsScratchDecodeIsAllocationFree)
{
    // RS(18,16) with one error, RS(18,16) with two erasures
    // (XED-on-Chipkill), RS(36,32) with errors+erasures: every decode
    // configuration the controllers use, on stack scratch.
    struct Config
    {
        unsigned n, k, errors, erased;
    };
    const Config configs[] = {
        {18, 16, 0, 0}, {18, 16, 1, 0}, {18, 16, 0, 2},
        {36, 32, 2, 0}, {36, 32, 1, 2}, {36, 32, 0, 4},
    };
    for (const Config &config : configs) {
        const ReedSolomon rs(config.n, config.k);
        Rng rng(0xA110C + config.n + config.errors * 8 +
                config.erased);
        std::array<std::uint8_t, RsScratch::maxN> data{};
        std::array<std::uint8_t, RsScratch::maxN> codeword;
        std::array<std::uint8_t, RsScratch::maxN> received;
        std::array<unsigned, RsScratch::maxR> erasures;
        for (unsigned i = 0; i < config.k; ++i)
            data[i] = static_cast<std::uint8_t>(rng.below(256));
        rs.encode(std::span<const std::uint8_t>(data.data(), config.k),
                  std::span<std::uint8_t>(codeword.data(), config.n));
        RsScratch scratch;

        const std::uint64_t before = allocations();
        for (unsigned trial = 0; trial < 2000; ++trial) {
            std::copy(codeword.begin(), codeword.begin() + config.n,
                      received.begin());
            const std::span<std::uint8_t> word(received.data(),
                                               config.n);
            const unsigned numErasures = damage(
                rng, word, config.errors, config.erased, erasures);
            const RsResult result = rs.decode(
                word,
                std::span<const unsigned>(erasures.data(), numErasures),
                scratch);
            // Within capacity, so decode must land on the codeword.
            ASSERT_NE(static_cast<int>(result.status),
                      static_cast<int>(RsStatus::Failure));
            ASSERT_TRUE(rs.isValidCodeword(word));
        }
        EXPECT_EQ(allocations() - before, 0u)
            << "RS(" << config.n << "," << config.k << ") with "
            << config.errors << " errors + " << config.erased
            << " erasures allocated in steady state";
    }
}

template <typename Code>
void
checkSecdedDecodeAllocationFree(std::uint64_t seed)
{
    const Code code;
    Rng rng(seed);
    const Word72 clean = code.encode(0x0123456789ABCDEFull);
    std::array<Word72, 256> batch;

    const std::uint64_t before = allocations();
    std::uint64_t observed = 0;
    for (unsigned trial = 0; trial < 20000; ++trial) {
        Word72 word = clean;
        if (rng.bernoulli(0.75))
            word ^= reference::randomPattern(rng, 1 + rng.below(8));
        observed += code.decode(word).errorObserved();
    }
    randomPatternsInto(rng, 4, std::span<Word72>(batch));
    for (Word72 &word : batch)
        word = clean ^ word;
    observed += code.detectMany(std::span<const Word72>(batch));
    EXPECT_EQ(allocations() - before, 0u)
        << observed << " errors observed; decode/detectMany allocated";
}

TEST(CodecAllocation, HammingDecodeIsAllocationFree)
{
    checkSecdedDecodeAllocationFree<Hamming7264>(0x4A11);
}

TEST(CodecAllocation, Crc8DecodeIsAllocationFree)
{
    checkSecdedDecodeAllocationFree<Crc8Atm>(0xC4C4);
}

TEST(CodecAllocation, BatchKernelsAllocationFreeAtEveryLevel)
{
    // The SIMD batch kernels (detection lane groups, GF constant rows)
    // must stay allocation-free at EVERY dispatch level, not just the
    // detected one. Level forcing, the lane tables and all buffers live
    // outside the counted window (simdForceLevel stores the origin
    // string).
    std::vector<SimdLevel> levels;
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Neon, SimdLevel::Avx2,
          SimdLevel::Avx512})
        if (simdLevelSupported(level))
            levels.push_back(level);
    const SimdLevel original = simdLevel();

    const DetectTables hamming{Hamming7264()};
    const DetectTables crc{Crc8Atm()};
    const GF256 &gf = GF256::instance();
    Rng rng(0x51A110C);

    std::array<DetectLane, maxDetectLanes> lanes;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        lanes[i].rng = Rng::stream(0x51A110C, i);
        lanes[i].trials = 500 + 37 * i;
    }

    std::vector<std::uint8_t> gfSrc(513), gfDst(513);
    for (auto &symbol : gfSrc)
        symbol = static_cast<std::uint8_t>(rng.below(256));

    for (const SimdLevel level : levels) {
        simdForceLevel(level, "test");
        const std::uint64_t before = allocations();
        std::uint64_t observed = 0;
        detectLanes(hamming, false, 4, lanes);
        observed += lanes[0].detected;
        detectLanes(crc, true, 8, std::span(lanes).first(5));
        observed += lanes[4].detected;
        gf.mulConstXorInto(0xA7, gfSrc.data(), gfDst.data(),
                           gfSrc.size());
        observed += gfDst[0];
        EXPECT_EQ(allocations() - before, 0u)
            << simdLevelName(level) << " batch kernels allocated ("
            << observed << " observed)";
    }
    simdForceLevel(original, "test");
}

TEST(CodecAllocation, ChipkillReadPathSteadyStateIsAllocationFree)
{
    // The functional read path end to end: XED-on-Chipkill reads with
    // catch-word erasures decode 8 RS beats per line on scratch.
    // Setup (controller, chips, counter-map keys) allocates; steady
    // state must not, so a longer run costs exactly the same.
    auto readAllocations = [](unsigned reads) {
        ChipkillConfig config;
        config.useCatchWordErasures = true;
        ChipkillController controller(config);
        const dram::WordAddr addr{0, 3, 7};
        std::vector<std::uint64_t> line(config.dataChips, 0xA5A5A5A5ull);
        controller.writeLine(addr, line);
        dram::Fault fault;
        fault.granularity = dram::FaultGranularity::SingleWord;
        fault.permanent = true;
        fault.addr = addr;
        fault.seed = 9;
        controller.chip(2).faults().add(fault);
        const std::uint64_t before = allocations();
        std::uint64_t corrected = 0;
        for (unsigned i = 0; i < reads; ++i) {
            const auto result = controller.readLine(addr);
            corrected += result.outcome != ChipkillOutcome::Uncorrectable;
        }
        const std::uint64_t after = allocations();
        EXPECT_LE(corrected, reads);
        return after - before;
    };
    const std::uint64_t shortRun = readAllocations(200);
    const std::uint64_t longRun = readAllocations(2000);
    EXPECT_EQ(shortRun, longRun)
        << (longRun - shortRun)
        << " steady-state allocations leaked into 1800 extra reads";
}

TEST(CodecAllocation, ControllerReadLineSteadyStateIsAllocationFree)
{
    // Both controllers' read paths over a 96-line block with one faulty
    // line each: a warm-up pass registers the counter keys; after that,
    // readLine() on clean and faulty lines alike must not allocate.
    using dram::WordAddr;
    {
        XedController controller;
        std::vector<WordAddr> addrs;
        for (unsigned i = 0; i < 96; ++i)
            addrs.push_back({0, 5 + i / 64, i % 64});
        dram::Fault fault;
        fault.granularity = dram::FaultGranularity::SingleBit;
        fault.permanent = true;
        fault.addr = addrs[10];
        fault.bitPos = 5;
        controller.chip(2).faults().add(fault);
        for (const WordAddr &addr : addrs)
            controller.readLine(addr);
        const std::uint64_t before = allocations();
        std::uint64_t clean = 0;
        for (unsigned round = 0; round < 50; ++round)
            for (const WordAddr &addr : addrs)
                clean += controller.readLine(addr).outcome ==
                         ReadOutcome::Clean;
        EXPECT_EQ(allocations() - before, 0u)
            << "XedController::readLine allocated in steady state ("
            << clean << " clean)";
    }
    {
        ChipkillConfig config;
        config.useCatchWordErasures = true;
        ChipkillController controller(config);
        std::vector<WordAddr> addrs;
        for (unsigned i = 0; i < 96; ++i)
            addrs.push_back({1, 7 + i / 64, i % 64});
        std::vector<std::uint64_t> line(config.dataChips,
                                        0x5A5A5A5Aull);
        for (const WordAddr &addr : addrs)
            controller.writeLine(addr, line);
        dram::Fault fault;
        fault.granularity = dram::FaultGranularity::SingleWord;
        fault.permanent = true;
        fault.addr = addrs[20];
        fault.seed = 17;
        controller.chip(4).faults().add(fault);
        for (const WordAddr &addr : addrs)
            controller.readLine(addr);
        const std::uint64_t before = allocations();
        std::uint64_t clean = 0;
        for (unsigned round = 0; round < 50; ++round)
            for (const WordAddr &addr : addrs)
                clean += controller.readLine(addr).outcome ==
                         ChipkillOutcome::Clean;
        EXPECT_EQ(allocations() - before, 0u)
            << "ChipkillController::readLine allocated in steady state"
            << " (" << clean << " clean)";
    }
}

} // namespace
} // namespace xed::ecc

namespace xed::campaign
{
namespace
{

/** Allocations performed by one detection shard of @p trials. */
std::uint64_t
shardAllocations(const CampaignSpec &spec, std::uint64_t trials)
{
    ShardTask task;
    task.index = 0;
    task.point = 0;
    task.cell = 0;
    task.begin = 0;
    task.end = trials;
    const std::uint64_t before = allocations();
    const ShardResult result = runDetectionShard(spec, task, nullptr);
    const std::uint64_t after = allocations();
    EXPECT_LE(result.detected, result.trials);
    return after - before;
}

TEST(CodecAllocation, DetectionShardSteadyStateIsAllocationFree)
{
    // A full runDetectionShard cell: the result is the only possible
    // allocation (the code tables are built once per process), so
    // quadrupling the trial count must not change the total.
    for (const char *code : {"hamming7264", "crc8atm"}) {
        for (const bool burst : {false, true}) {
            CampaignSpec spec;
            spec.name = "alloc-probe";
            spec.kind = CampaignKind::Detection;
            spec.seed = 2738;
            spec.codes = {code};
            spec.patterns = {burst ? "burst" : "random"};
            spec.maxWeight = 4;
            spec.trials = 40000;
            spec.shardTrials = 40000;
            const std::uint64_t shortRun =
                shardAllocations(spec, 10000);
            const std::uint64_t longRun = shardAllocations(spec, 40000);
            EXPECT_EQ(shortRun, longRun)
                << code << (burst ? " burst" : " random") << ": "
                << (longRun - shortRun)
                << " steady-state allocations leaked into 30000 extra "
                << "trials";
        }
    }
}

TEST(CodecAllocation, TracedDetectionShardSteadyStateIsAllocationFree)
{
    // Same contract with the span recorder enabled: the shard's
    // detection-group span is a struct store into the thread's
    // preallocated ring, so quadrupling the trial count must not
    // change the allocation total after the ring is registered.
    CampaignSpec spec;
    spec.name = "alloc-probe-traced";
    spec.kind = CampaignKind::Detection;
    spec.seed = 2738;
    spec.codes = {"hamming7264"};
    spec.patterns = {"random"};
    spec.maxWeight = 4;
    spec.trials = 40000;
    spec.shardTrials = 40000;

    auto &recorder = obs::TraceRecorder::instance();
    recorder.setEnabled(true);
    shardAllocations(spec, 10000); // ring registration warm-up

    const std::uint64_t shortRun = shardAllocations(spec, 10000);
    const std::uint64_t longRun = shardAllocations(spec, 40000);
    recorder.setEnabled(false);
    EXPECT_EQ(shortRun, longRun)
        << (longRun - shortRun)
        << " steady-state allocations leaked into 30000 extra traced "
        << "trials";
}

} // namespace
} // namespace xed::campaign
