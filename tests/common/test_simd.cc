/**
 * @file
 * The SIMD dispatch layer and the per-level byte-identity contract
 * (DESIGN.md section 4i): level names and strict parsing, host support
 * probing, forced overrides, and -- for every level the host can
 * execute -- GF(2^8) constant rows, the detection lane tables'
 * linearity fence, the Monte-Carlo zero-fault filter, and full-engine
 * McResult identity. RS decode and the detection lanes are covered
 * per level by tests/ecc/test_codec_equivalence.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "ecc/crc8atm.hh"
#include "ecc/detect_lanes.hh"
#include "ecc/gf256.hh"
#include "ecc/hamming7264.hh"
#include "faultsim/engine.hh"
#include "faultsim/zero_filter.hh"
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

TEST(SimdZeroFilter, WidthIsZeroOrServedByTheMaskKernels)
{
    EXPECT_EQ(faultsim::zeroFilterWidth(SimdLevel::Scalar), 0u);
    for (const SimdLevel level : executableLevels()) {
        const unsigned width = faultsim::zeroFilterWidth(level);
        EXPECT_TRUE(width == 0 || width == 8)
            << simdLevelName(level);
    }
}

TEST(SimdZeroFilter, MaskMatchesRngReplayAtEveryLevel)
{
    // Independent replay of the contract: lane i is zero-fault iff the
    // first `channels` draws of stream (mixedSeed, firstSystem + i)
    // all satisfy (next() >> 11) <= zeroMax.
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
            for (const unsigned channels : {1u, 2u, 4u}) {
                std::uint32_t expected = 0;
                for (unsigned i = 0; i < 8; ++i) {
                    Rng rng = Rng::streamMixed(mixedSeed, first + i);
                    bool zero = true;
                    for (unsigned ch = 0; ch < channels; ++ch)
                        zero = zero &&
                               (rng.next() >> 11) <= zeroMax;
                    expected |= static_cast<std::uint32_t>(zero) << i;
                }
                for (const SimdLevel level : executableLevels()) {
                    ASSERT_EQ(faultsim::zeroFaultMask(
                                  level, mixedSeed, first, 8, channels,
                                  zeroMax),
                              expected)
                        << simdLevelName(level) << " first=" << first
                        << " channels=" << channels;
                    // Sub-width counts always have a correct path too.
                    ASSERT_EQ(faultsim::zeroFaultMask(
                                  level, mixedSeed, first, 4, channels,
                                  zeroMax),
                              expected & 0xFu)
                        << simdLevelName(level);
                }
            }
        }
    }
}

TEST(SimdEngine, McResultIdenticalAcrossLevels)
{
    // Full engine run per level: the zero-fault filter must change
    // nothing observable -- same per-year counts, same trial totals,
    // same forensic exemplars in the same order.
    const auto scheme =
        faultsim::makeScheme(faultsim::SchemeKind::Secded, {});
    faultsim::McConfig config;
    config.systems = 4000;
    config.seed = 61799;
    config.threads = 1;

    std::vector<faultsim::McResult> results;
    for (const SimdLevel level : executableLevels()) {
        const ScopedSimdLevel forced(level);
        results.push_back(faultsim::runMonteCarlo(*scheme, config));
    }
    const faultsim::McResult &scalar = results.front();
    // Secded at 4000 systems fails often enough to make the
    // comparison meaningful.
    ASSERT_GT(scalar.failByYear[7].successes(), 0u);
    for (std::size_t r = 1; r < results.size(); ++r) {
        const faultsim::McResult &other = results[r];
        for (unsigned y = 1; y <= 7; ++y) {
            ASSERT_EQ(other.failByYear[y].successes(),
                      scalar.failByYear[y].successes())
                << "level " << r << " year " << y;
            ASSERT_EQ(other.failByYear[y].trials(),
                      scalar.failByYear[y].trials());
        }
        ASSERT_EQ(other.autopsy.size(), scalar.autopsy.size());
        for (std::size_t i = 0; i < scalar.autopsy.size(); ++i) {
            ASSERT_EQ(other.autopsy[i].system,
                      scalar.autopsy[i].system);
            ASSERT_EQ(other.autopsy[i].timeHours,
                      scalar.autopsy[i].timeHours);
            ASSERT_STREQ(other.autopsy[i].type,
                         scalar.autopsy[i].type);
            ASSERT_EQ(other.autopsy[i].kindsMask,
                      scalar.autopsy[i].kindsMask);
        }
    }
}

} // namespace
} // namespace xed
