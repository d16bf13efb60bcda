/**
 * @file
 * Randomized equivalence suite for the codec kernel rewrite: the
 * table-driven, allocation-free scratch/batched kernels must return
 * byte-identical results to the frozen pre-optimization implementations
 * in tests/support/codec_reference.* -- same statuses, same corrected
 * words, same syndromes, same RNG draw order for the batched pattern
 * generators. The AcrossSimdLevels suites force every dispatch level
 * the host can execute (DESIGN.md section 4i) through the real
 * dispatch and demand the same bytes from each. Together with the
 * golden_table2 stdout fixture this pins the PR's bit-identicality
 * contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "ecc/crc8atm.hh"
#include "ecc/error_patterns.hh"
#include "ecc/hamming7264.hh"
#include "ecc/reed_solomon.hh"
#include "tests/support/codec_reference.hh"

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

/** The SoA batch kernels also run on the widest r = 2 shape. */
constexpr RsShape soaShapes[] = {{18, 16}, {36, 32}, {15, 11}, {36, 34}};

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
                word ^= randomPattern(rng, 1 + rng.below(8));
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

/** Force a dispatch level for one scope; restores the previous one. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level) : prev_(simdLevel())
    {
        simdForceLevel(level, "test");
    }
    ~ScopedSimdLevel() { simdForceLevel(prev_, "test"); }
    ScopedSimdLevel(const ScopedSimdLevel &) = delete;
    ScopedSimdLevel &operator=(const ScopedSimdLevel &) = delete;

  private:
    SimdLevel prev_;
};

/**
 * detectMany through the real dispatch at every executable level, for
 * every batch size 1..513 and every element offset 0..3 into the pool
 * (word alignment 16 bytes, so offsets cover all head misalignments
 * relative to the 32/64-byte vector blocks). The reference count comes
 * from per-word isValidCodeword(), independent of any batch kernel.
 */
template <typename Code>
void
checkDetectManyAcrossLevels(std::uint64_t seed)
{
    const Code code;
    Rng rng(seed);
    constexpr std::size_t maxBatch = 513;
    constexpr std::size_t maxOffset = 3;
    std::vector<Word72> pool(maxBatch + maxOffset);
    const Word72 clean = code.encode(0xFEEDFACECAFEBEEFull);
    for (Word72 &word : pool) {
        word = clean;
        if (rng.bernoulli(0.6))
            word ^= randomPattern(rng, 1 + rng.below(8));
    }
    for (std::size_t offset = 0; offset <= maxOffset; ++offset) {
        // prefix[i] = invalid words among pool[offset .. offset+i).
        std::vector<std::size_t> prefix(maxBatch + 1, 0);
        for (std::size_t i = 0; i < maxBatch; ++i)
            prefix[i + 1] =
                prefix[i] + !code.isValidCodeword(pool[offset + i]);
        for (const SimdLevel level : executableLevels()) {
            const ScopedSimdLevel forced(level);
            for (std::size_t size = 1; size <= maxBatch; ++size)
                ASSERT_EQ(code.detectMany(std::span<const Word72>(
                              pool.data() + offset, size)),
                          prefix[size])
                    << simdLevelName(level) << " offset " << offset
                    << " size " << size;
        }
    }
}

TEST(CodecEquivalence, DetectManyIdenticalAcrossSimdLevelsHamming)
{
    checkDetectManyAcrossLevels<Hamming7264>(0x51AD1);
}

TEST(CodecEquivalence, DetectManyIdenticalAcrossSimdLevelsCrc8)
{
    checkDetectManyAcrossLevels<Crc8Atm>(0x51AD2);
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

/**
 * The RS SoA batch kernels (DESIGN.md section 4j) against the scalar
 * definition, through the real dispatch at every executable level: for
 * every block width 1..513 and head misalignment 0..3,
 * syndromesManySoa() must write the same bytes as per-word syndromes
 * (width-1 calls), and isValidCodewordMany() must reproduce a per-word
 * isValidCodeword() loop flag for flag and in its invalid count.
 */
TEST(CodecEquivalence, RsSoaKernelsIdenticalAcrossSimdLevels)
{
    for (const RsShape shape : soaShapes) {
        const ReedSolomon rs(shape.n, shape.k);
        const unsigned n = shape.n;
        const unsigned r = rs.numCheck();
        Rng rng(0x50AF + shape.n);
        constexpr std::size_t maxBatch = 513;
        constexpr std::size_t maxOffset = 3;
        const std::size_t poolSize = maxBatch + maxOffset;

        // AoS pool: codewords, most lightly damaged.
        std::vector<std::vector<std::uint8_t>> pool;
        pool.reserve(poolSize);
        std::vector<std::uint8_t> data(shape.k);
        for (std::size_t w = 0; w < poolSize; ++w) {
            for (auto &symbol : data)
                symbol = static_cast<std::uint8_t>(rng.below(256));
            std::vector<std::uint8_t> word = rs.encode(data);
            const unsigned corrupt =
                static_cast<unsigned>(rng.below(r + 2));
            for (unsigned c = 0; c < corrupt; ++c)
                word[rng.below(n)] ^=
                    static_cast<std::uint8_t>(rng.below(256));
            pool.push_back(std::move(word));
        }

        // Per-word references: validity flags from the public scalar
        // check, syndrome bytes from width-1 SoA calls at Scalar.
        std::vector<std::uint8_t> flagPool(poolSize);
        std::vector<std::uint8_t> synPool(poolSize * r);
        {
            const ScopedSimdLevel forced(SimdLevel::Scalar);
            for (std::size_t w = 0; w < poolSize; ++w) {
                flagPool[w] =
                    rs.isValidCodeword(
                        std::span<const std::uint8_t>(pool[w]))
                        ? 1
                        : 0;
                rs.syndromesManySoa(
                    std::span<const std::uint8_t>(pool[w]), 1,
                    std::span<std::uint8_t>(synPool.data() + w * r, r));
                bool zero = true;
                for (unsigned j = 0; j < r; ++j)
                    zero = zero && synPool[w * r + j] == 0;
                ASSERT_EQ(zero, flagPool[w] == 1) << "word " << w;
            }
        }

        std::vector<std::uint8_t> soaBuf, expectedSyn, syn, valid;
        for (std::size_t headOff = 0; headOff <= maxOffset; ++headOff) {
            for (std::size_t size = 1; size <= maxBatch; ++size) {
                soaBuf.assign(n * size + headOff, 0);
                std::uint8_t *soa = soaBuf.data() + headOff;
                for (std::size_t c = 0; c < size; ++c)
                    for (unsigned i = 0; i < n; ++i)
                        soa[i * size + c] = pool[headOff + c][i];
                expectedSyn.assign(static_cast<std::size_t>(r) * size,
                                   0);
                std::size_t expectedInvalid = 0;
                for (std::size_t c = 0; c < size; ++c) {
                    for (unsigned j = 0; j < r; ++j)
                        expectedSyn[j * size + c] =
                            synPool[(headOff + c) * r + j];
                    expectedInvalid += flagPool[headOff + c] == 0;
                }
                const std::span<const std::uint8_t> soaSpan(soa,
                                                            n * size);
                for (const SimdLevel level : executableLevels()) {
                    const ScopedSimdLevel forced(level);
                    syn.assign(expectedSyn.size(), 0xAA);
                    rs.syndromesManySoa(soaSpan, size,
                                        std::span<std::uint8_t>(syn));
                    ASSERT_EQ(syn, expectedSyn)
                        << simdLevelName(level) << " RS(" << n << ","
                        << shape.k << ") offset " << headOff
                        << " width " << size;
                    valid.assign(size, 0xAA);
                    ASSERT_EQ(rs.isValidCodewordMany(
                                  soaSpan, size,
                                  std::span<std::uint8_t>(valid)),
                              expectedInvalid);
                    ASSERT_TRUE(std::equal(valid.begin(), valid.end(),
                                           flagPool.begin() + headOff))
                        << simdLevelName(level) << " offset " << headOff
                        << " width " << size;
                }
            }
        }
    }
}

/**
 * RsWordBlock staging (both the push() and the openColumn()/setSymbol()
 * gather order) against the flat SoA overloads: the plane stride is the
 * capacity, not the size, so every partially filled block exercises the
 * strided kernel cores at every dispatch level.
 */
TEST(CodecEquivalence, RsWordBlockStagingMatchesFlatSoa)
{
    for (const RsShape shape : shapes) {
        const ReedSolomon rs(shape.n, shape.k);
        const unsigned n = shape.n;
        const unsigned r = rs.numCheck();
        Rng rng(0xB10C + shape.n);
        constexpr std::size_t capacity = 192;
        RsWordBlock pushed(n, capacity);
        RsWordBlock columns(n, capacity);
        ASSERT_EQ(pushed.stride(), capacity);
        for (const std::size_t size :
             {std::size_t{1}, std::size_t{7}, std::size_t{64},
              std::size_t{191}, capacity}) {
            pushed.clear();
            columns.clear();
            std::vector<std::vector<std::uint8_t>> words;
            words.reserve(size);
            for (std::size_t c = 0; c < size; ++c) {
                std::vector<std::uint8_t> word(n);
                if (rng.bernoulli(0.3)) {
                    // A true codeword, so valid lanes appear too.
                    std::vector<std::uint8_t> data(shape.k);
                    for (auto &symbol : data)
                        symbol =
                            static_cast<std::uint8_t>(rng.below(256));
                    word = rs.encode(data);
                } else {
                    for (auto &symbol : word)
                        symbol =
                            static_cast<std::uint8_t>(rng.below(256));
                }
                ASSERT_EQ(pushed.push(
                              std::span<const std::uint8_t>(word)),
                          c);
                ASSERT_EQ(columns.openColumn(), c);
                for (unsigned i = 0; i < n; ++i)
                    columns.setSymbol(i, c, word[i]);
                words.push_back(std::move(word));
            }
            ASSERT_EQ(pushed.size(), size);
            ASSERT_EQ(columns.size(), size);
            for (std::size_t c = 0; c < size; ++c)
                for (unsigned i = 0; i < n; ++i) {
                    ASSERT_EQ(pushed.symbol(i, c), words[c][i]);
                    ASSERT_EQ(columns.symbol(i, c), words[c][i]);
                }

            // Flat SoA reference, computed once at the Scalar level.
            std::vector<std::uint8_t> soa(n * size);
            for (std::size_t c = 0; c < size; ++c)
                for (unsigned i = 0; i < n; ++i)
                    soa[i * size + c] = words[c][i];
            std::vector<std::uint8_t> expectedSyn(
                static_cast<std::size_t>(r) * size);
            std::vector<std::uint8_t> expectedValid(size);
            std::size_t expectedInvalid = 0;
            {
                const ScopedSimdLevel forced(SimdLevel::Scalar);
                rs.syndromesManySoa(
                    std::span<const std::uint8_t>(soa), size,
                    std::span<std::uint8_t>(expectedSyn));
                expectedInvalid = rs.isValidCodewordMany(
                    std::span<const std::uint8_t>(soa), size,
                    std::span<std::uint8_t>(expectedValid));
            }

            std::vector<std::uint8_t> syn(expectedSyn.size());
            std::vector<std::uint8_t> valid(size);
            for (const SimdLevel level : executableLevels()) {
                const ScopedSimdLevel forced(level);
                for (const RsWordBlock *block : {&pushed, &columns}) {
                    syn.assign(expectedSyn.size(), 0xAA);
                    rs.syndromesManySoa(*block,
                                        std::span<std::uint8_t>(syn));
                    ASSERT_EQ(syn, expectedSyn)
                        << simdLevelName(level) << " RS(" << n << ","
                        << shape.k << ") size " << size;
                    valid.assign(size, 0xAA);
                    ASSERT_EQ(rs.isValidCodewordMany(
                                  *block,
                                  std::span<std::uint8_t>(valid)),
                              expectedInvalid);
                    ASSERT_EQ(valid, expectedValid);
                }
            }
        }
    }
}

/**
 * The batched catch-word syndrome kernel over transposed byte planes
 * (DESIGN.md section 4j) against the per-word syndrome() definition:
 * every width 1..513, head misalignments 0..3 and a plane stride wider
 * than any batch, at every executable dispatch level.
 */
template <typename Code>
void
checkSyndromeManySoaAcrossLevels(std::uint64_t seed)
{
    const Code code;
    Rng rng(seed);
    constexpr std::size_t maxBatch = 513;
    constexpr std::size_t maxOffset = 3;
    constexpr std::size_t stride = maxBatch + maxOffset;
    std::vector<std::uint8_t> planes(9 * stride);
    std::vector<std::uint8_t> expected(stride);
    const Word72 clean = code.encode(0xFEEDFACECAFEBEEFull);
    for (std::size_t c = 0; c < stride; ++c) {
        Word72 word = clean;
        if (rng.bernoulli(0.6))
            word ^= randomPattern(rng, 1 + rng.below(8));
        for (unsigned b = 0; b < 8; ++b)
            planes[b * stride + c] =
                static_cast<std::uint8_t>(word.lo >> (8 * b));
        planes[8 * stride + c] = word.hi;
        expected[c] = code.syndrome(word);
    }
    std::vector<std::uint8_t> out(maxBatch);
    for (std::size_t offset = 0; offset <= maxOffset; ++offset)
        for (const SimdLevel level : executableLevels()) {
            const ScopedSimdLevel forced(level);
            for (std::size_t size = 1; size <= maxBatch; ++size) {
                out.assign(size, 0xAA);
                code.syndromeManySoa(planes.data() + offset, stride,
                                     size, out.data());
                ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                       expected.begin() + offset))
                    << simdLevelName(level) << " offset " << offset
                    << " size " << size;
            }
        }
}

TEST(CodecEquivalence, CatchWordSyndromeSoaIdenticalAcrossSimdLevelsCrc8)
{
    checkSyndromeManySoaAcrossLevels<Crc8Atm>(0x50AC1);
}

TEST(CodecEquivalence,
     CatchWordSyndromeSoaIdenticalAcrossSimdLevelsHamming)
{
    checkSyndromeManySoaAcrossLevels<Hamming7264>(0x50AC2);
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
            ASSERT_EQ(pattern, randomPattern(scalarRng, weight));
        ASSERT_EQ(batchRng.next(), scalarRng.next());

        solidBurstPatternsInto(batchRng, weight,
                               std::span<Word72>(batch));
        for (const Word72 &pattern : batch)
            ASSERT_EQ(pattern, solidBurstPattern(scalarRng, weight));
        ASSERT_EQ(batchRng.next(), scalarRng.next());

        if (weight >= 2) {
            burstPatternsInto(batchRng, weight, std::span<Word72>(batch));
            for (const Word72 &pattern : batch)
                ASSERT_EQ(pattern, burstPattern(scalarRng, weight));
            ASSERT_EQ(batchRng.next(), scalarRng.next());
        }
    }
}

} // namespace
} // namespace xed::ecc
