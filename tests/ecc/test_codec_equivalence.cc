/**
 * @file
 * Randomized equivalence suite for the codec kernel rewrite: the
 * table-driven, allocation-free scratch/batched kernels must return
 * byte-identical results to the frozen pre-optimization implementations
 * in tests/support/codec_reference.* -- same statuses, same corrected
 * words, same syndromes, same RNG draw order for the batched pattern
 * generators. The per-level suites force every dispatch level the
 * host can execute (DESIGN.md section 4i) through the real dispatch
 * and demand the same bytes from each: RS decode against the Scalar
 * level, and the detection lanes against the per-trial loop over the
 * reference generators of tests/support/pattern_reference. Together
 * with the golden_table2 stdout fixtures this pins the codec layer's
 * bit-identicality contract.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "ecc/crc8atm.hh"
#include "ecc/detect_lanes.hh"
#include "ecc/error_patterns.hh"
#include "ecc/hamming7264.hh"
#include "ecc/reed_solomon.hh"
#include "tests/support/codec_reference.hh"
#include "tests/support/pattern_reference.hh"
#include "tests/support/simd_levels.hh"

namespace xed::ecc
{
namespace
{

struct RsShape
{
    unsigned n;
    unsigned k;
};

constexpr RsShape shapes[] = {{18, 16}, {36, 32}, {15, 11}};

/** One random received word: codeword + random/burst/erasure damage. */
struct RsCase
{
    std::vector<std::uint8_t> received;
    std::vector<unsigned> erasures;
};

RsCase
makeCase(Rng &rng, const ReedSolomon &rs)
{
    const unsigned n = rs.n();
    const unsigned r = rs.numCheck();
    std::vector<std::uint8_t> data(rs.k());
    for (auto &symbol : data)
        symbol = static_cast<std::uint8_t>(rng.below(256));
    RsCase out;
    out.received = rs.encode(data);

    // Damage model: 0..r+1 corrupted symbols, placed randomly or as a
    // consecutive burst; a subset (sometimes superset) of the corrupted
    // positions is declared erased, so the suite exercises clean
    // words, errors-only, erasures-only, errors+erasures, mismatched
    // erasure declarations and beyond-capacity failures.
    const unsigned corrupt = static_cast<unsigned>(rng.below(r + 2));
    const bool burst = rng.bernoulli(0.5);
    const unsigned start =
        burst ? static_cast<unsigned>(rng.below(n)) : 0;
    for (unsigned c = 0; c < corrupt; ++c) {
        const unsigned pos =
            burst ? (start + c) % n
                  : static_cast<unsigned>(rng.below(n));
        out.received[pos] ^= static_cast<std::uint8_t>(rng.below(256));
        if (rng.bernoulli(0.5) && out.erasures.size() < r)
            out.erasures.push_back(pos);
    }
    if (rng.bernoulli(0.1) && out.erasures.size() < r)
        out.erasures.push_back(static_cast<unsigned>(rng.below(n)));
    return out;
}

TEST(CodecEquivalence, RsDecodeMatchesLegacyByteForByte)
{
    // >= 10^5 fuzz trials across the three shapes; every trial runs
    // the frozen legacy decoder, the vector wrapper and the explicit
    // scratch kernel and demands identical results from all three.
    for (const RsShape shape : shapes) {
        const ReedSolomon rs(shape.n, shape.k);
        const legacy::ReedSolomon ref(shape.n, shape.k);
        ASSERT_TRUE(rs.fitsScratch());
        Rng rng(0xEC0DEC + shape.n);
        RsScratch scratch;
        for (unsigned trial = 0; trial < 34000; ++trial) {
            const RsCase c = makeCase(rng, rs);

            std::vector<std::uint8_t> legacyWord = c.received;
            const RsResult legacyResult =
                ref.decode(legacyWord, c.erasures);

            std::vector<std::uint8_t> vectorWord = c.received;
            const RsResult vectorResult =
                rs.decode(vectorWord, c.erasures);

            std::vector<std::uint8_t> scratchWord = c.received;
            const RsResult scratchResult = rs.decode(
                std::span<std::uint8_t>(scratchWord),
                std::span<const unsigned>(c.erasures), scratch);

            ASSERT_EQ(static_cast<int>(vectorResult.status),
                      static_cast<int>(legacyResult.status));
            ASSERT_EQ(static_cast<int>(scratchResult.status),
                      static_cast<int>(legacyResult.status));
            ASSERT_EQ(vectorResult.numErrors, legacyResult.numErrors);
            ASSERT_EQ(scratchResult.numErrors, legacyResult.numErrors);
            ASSERT_EQ(vectorResult.numErasures,
                      legacyResult.numErasures);
            ASSERT_EQ(scratchResult.numErasures,
                      legacyResult.numErasures);
            ASSERT_EQ(vectorWord, legacyWord);
            ASSERT_EQ(scratchWord, legacyWord);
        }
    }
}

TEST(CodecEquivalence, RsEncodeMatchesLegacy)
{
    for (const RsShape shape : shapes) {
        const ReedSolomon rs(shape.n, shape.k);
        const legacy::ReedSolomon ref(shape.n, shape.k);
        Rng rng(0x5EED + shape.n);
        std::vector<std::uint8_t> data(shape.k);
        std::vector<std::uint8_t> spanOut(shape.n);
        for (unsigned trial = 0; trial < 5000; ++trial) {
            for (auto &symbol : data)
                symbol = static_cast<std::uint8_t>(rng.below(256));
            const auto expected = ref.encode(data);
            ASSERT_EQ(rs.encode(data), expected);
            rs.encode(std::span<const std::uint8_t>(data),
                      std::span<std::uint8_t>(spanOut));
            ASSERT_EQ(spanOut, expected);
        }
    }
}

TEST(CodecEquivalence, RsIsValidCodewordMatchesSyndromeDefinition)
{
    const ReedSolomon rs(18, 16);
    const legacy::ReedSolomon ref(18, 16);
    Rng rng(0x15C0DE);
    for (unsigned trial = 0; trial < 20000; ++trial) {
        std::vector<std::uint8_t> word(rs.n());
        if (rng.bernoulli(0.5)) {
            // Half the probes are true codewords (possibly damaged).
            std::vector<std::uint8_t> data(rs.k());
            for (auto &symbol : data)
                symbol = static_cast<std::uint8_t>(rng.below(256));
            word = rs.encode(data);
            if (rng.bernoulli(0.5))
                word[rng.below(rs.n())] ^=
                    static_cast<std::uint8_t>(rng.below(256));
        } else {
            for (auto &symbol : word)
                symbol = static_cast<std::uint8_t>(rng.below(256));
        }
        ASSERT_EQ(rs.isValidCodeword(std::span<const std::uint8_t>(word)),
                  ref.isCodeword(word));
        ASSERT_EQ(rs.isCodeword(word), ref.isCodeword(word));
    }
}

TEST(CodecEquivalence, CrcSliceTablesMatchByteAtATimeChain)
{
    const Crc8Atm code;
    Rng rng(0xC8C8C8);
    for (unsigned trial = 0; trial < 100000; ++trial) {
        const std::uint64_t data = rng.next();
        ASSERT_EQ(code.crc(data), legacy::crc8(data));
        Word72 word;
        word.lo = rng.next();
        word.hi = static_cast<std::uint8_t>(rng.next());
        ASSERT_EQ(code.syndrome(word), legacy::crcSyndrome(word));
    }
}

/** detectMany == a scalar isValidCodeword loop, for both on-die codes. */
template <typename Code>
void
checkDetectMany(std::uint64_t seed)
{
    const Code code;
    Rng rng(seed);
    const Word72 clean = code.encode(0x0123456789ABCDEFull);
    std::array<Word72, 257> batch; // odd size: exercises partial tails
    for (unsigned round = 0; round < 200; ++round) {
        for (Word72 &word : batch) {
            // Mix clean words, lightly corrupted words and noise.
            word = clean;
            if (rng.bernoulli(0.7))
                word ^= reference::randomPattern(rng, 1 + rng.below(8));
        }
        std::size_t expected = 0;
        for (const Word72 &word : batch)
            expected += !code.isValidCodeword(word);
        ASSERT_EQ(code.detectMany(std::span<const Word72>(batch)),
                  expected);
    }
}

TEST(CodecEquivalence, DetectManyMatchesScalarLoopHamming)
{
    checkDetectMany<Hamming7264>(0x4A11);
}

TEST(CodecEquivalence, DetectManyMatchesScalarLoopCrc8)
{
    checkDetectMany<Crc8Atm>(0xC4C4);
}

/**
 * One detection shard by the per-trial loop: the reference generator's
 * patterns from @p rng's stream, each XORed onto a codeword and
 * counted unless isValidCodeword().
 */
std::uint64_t
perTrialDetected(const Secded7264 &code, Rng rng, bool burst,
                 unsigned weight, std::uint64_t trials)
{
    const Word72 clean = code.encode(0xFEEDFACECAFEBEEFull);
    std::uint64_t detected = 0;
    for (std::uint64_t t = 0; t < trials; ++t) {
        const Word72 pattern =
            burst ? reference::solidBurstPattern(rng, weight)
                  : reference::randomPattern(rng, weight);
        detected += !code.isValidCodeword(clean ^ pattern);
    }
    return detected;
}

/**
 * detectLanes through the real dispatch at every executable level, for
 * random weights 1..9, 36 and 72 and burst lengths 1..8 and 72, in
 * groups of 1..8 lanes with unequal trial counts (lane 2 has none):
 * every lane's count must be the per-trial loop's over its stream.
 */
template <typename Code>
void
checkDetectLanesAcrossLevels(std::uint64_t seed)
{
    const Code code;
    const DetectTables tables(code);
    std::vector<std::pair<bool, unsigned>> cells;
    for (const unsigned weight : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 36u,
                                  72u})
        cells.emplace_back(false, weight);
    for (const unsigned length : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 72u})
        cells.emplace_back(true, length);
    Rng draw(seed);
    for (const auto &[burst, weight] : cells) {
        const std::uint64_t maxTrials = !burst && weight >= 36 ? 40 : 600;
        for (std::size_t size = 1; size <= maxDetectLanes; ++size) {
            std::array<DetectLane, maxDetectLanes> lanes;
            std::array<std::uint64_t, maxDetectLanes> expected{};
            for (std::size_t i = 0; i < size; ++i) {
                lanes[i].rng = Rng::stream(seed, draw.next());
                lanes[i].trials = i == 2 ? 0 : 1 + draw.below(maxTrials);
                expected[i] = perTrialDetected(code, lanes[i].rng, burst,
                                               weight, lanes[i].trials);
            }
            for (const SimdLevel level : executableLevels()) {
                const ScopedSimdLevel forced(level);
                for (DetectLane &lane : lanes)
                    lane.detected = ~std::uint64_t{0};
                detectLanes(tables, burst, weight,
                            std::span(lanes).first(size));
                for (std::size_t i = 0; i < size; ++i)
                    ASSERT_EQ(lanes[i].detected, expected[i])
                        << simdLevelName(level)
                        << (burst ? " burst " : " random ") << weight
                        << " lanes " << size << " lane " << i;
            }
        }
    }
}

TEST(CodecEquivalence, DetectLanesMatchPerTrialLoopAtEveryLevelHamming)
{
    checkDetectLanesAcrossLevels<Hamming7264>(0x51AD1);
}

TEST(CodecEquivalence, DetectLanesMatchPerTrialLoopAtEveryLevelCrc8)
{
    checkDetectLanesAcrossLevels<Crc8Atm>(0x51AD2);
}

TEST(CodecEquivalence, DetectLanesRejectBadGroups)
{
    const DetectTables tables{Hamming7264()};
    std::array<DetectLane, maxDetectLanes + 1> lanes;
    EXPECT_THROW(detectLanes(tables, false, 4, lanes),
                 std::invalid_argument);
    const std::span<DetectLane> one = std::span(lanes).first(1);
    EXPECT_THROW(detectLanes(tables, false, 0, one), std::invalid_argument);
    EXPECT_THROW(detectLanes(tables, true, 73, one), std::invalid_argument);
    EXPECT_NO_THROW(detectLanes(tables, true, 72, one));
}

/**
 * RS decode (the Chien search runs on the GF(2^8) mulConstXorInto
 * batch kernels) must return byte-identical words and statuses at
 * every dispatch level.
 */
TEST(CodecEquivalence, RsDecodeIdenticalAcrossSimdLevels)
{
    for (const RsShape shape : shapes) {
        const ReedSolomon rs(shape.n, shape.k);
        RsScratch scratch;
        Rng rng(0x51D5 + shape.n);
        std::vector<RsCase> cases;
        for (unsigned trial = 0; trial < 4000; ++trial)
            cases.push_back(makeCase(rng, rs));

        std::vector<std::vector<std::uint8_t>> scalarWords;
        std::vector<RsResult> scalarResults;
        {
            const ScopedSimdLevel forced(SimdLevel::Scalar);
            for (const RsCase &c : cases) {
                std::vector<std::uint8_t> word = c.received;
                scalarResults.push_back(rs.decode(
                    std::span<std::uint8_t>(word),
                    std::span<const unsigned>(c.erasures), scratch));
                scalarWords.push_back(std::move(word));
            }
        }
        for (const SimdLevel level : executableLevels()) {
            if (level == SimdLevel::Scalar)
                continue;
            const ScopedSimdLevel forced(level);
            for (std::size_t i = 0; i < cases.size(); ++i) {
                std::vector<std::uint8_t> word = cases[i].received;
                const RsResult result = rs.decode(
                    std::span<std::uint8_t>(word),
                    std::span<const unsigned>(cases[i].erasures),
                    scratch);
                ASSERT_EQ(static_cast<int>(result.status),
                          static_cast<int>(scalarResults[i].status))
                    << simdLevelName(level) << " case " << i;
                ASSERT_EQ(result.numErrors, scalarResults[i].numErrors);
                ASSERT_EQ(result.numErasures,
                          scalarResults[i].numErasures);
                ASSERT_EQ(word, scalarWords[i])
                    << simdLevelName(level) << " case " << i;
            }
        }
    }
}

/** Batched pattern fills must consume the RNG in scalar draw order. */
TEST(CodecEquivalence, BatchedPatternsPreserveDrawOrder)
{
    for (unsigned weight = 1; weight <= 8; ++weight) {
        Rng scalarRng(0xBA7C4 + weight);
        Rng batchRng(0xBA7C4 + weight);
        std::array<Word72, 777> batch;

        randomPatternsInto(batchRng, weight, std::span<Word72>(batch));
        for (const Word72 &pattern : batch)
            ASSERT_EQ(pattern, reference::randomPattern(scalarRng, weight));
        ASSERT_EQ(batchRng.next(), scalarRng.next());

        solidBurstPatternsInto(batchRng, weight,
                               std::span<Word72>(batch));
        for (const Word72 &pattern : batch)
            ASSERT_EQ(pattern,
                      reference::solidBurstPattern(scalarRng, weight));
        ASSERT_EQ(batchRng.next(), scalarRng.next());

        if (weight >= 2) {
            reference::burstPatternsInto(batchRng, weight,
                                         std::span<Word72>(batch));
            for (const Word72 &pattern : batch)
                ASSERT_EQ(pattern,
                          reference::burstPattern(scalarRng, weight));
            ASSERT_EQ(batchRng.next(), scalarRng.next());
        }
    }
}

} // namespace
} // namespace xed::ecc
