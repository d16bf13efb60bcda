#include "faultsim/zero_filter.hh"

#include <array>
#include <cassert>

#include "common/rng.hh"
#include "common/rng_lanes.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace xed::faultsim
{

namespace
{

// splitmix64 / stream-derivation constants, kept textually in sync
// with Rng (rng.hh); the per-level equivalence tests pin the match.
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kMix1 = 0xBF58476D1CE4E5B9ull;
constexpr std::uint64_t kMix2 = 0x94D049BB133111EBull;
constexpr std::uint64_t kStream = 0xD2B74407B1CE6E93ull;

/** Replay each stream with an Rng (Scalar and Neon). */
void
screenScalar(std::uint64_t mixedSeed, std::uint64_t first, unsigned count,
             unsigned channels, std::uint64_t zeroMax, SurvivorBlock &block)
{
    for (unsigned i = 0; i < count; ++i) {
        Rng rng = Rng::streamMixed(mixedSeed, first + i);
        for (unsigned ch = 0; ch < channels; ++ch) {
            const std::uint64_t draw = rng.next() >> 11;
            if (draw <= zeroMax)
                continue;
            const std::array<std::uint64_t, 4> state = rng.state();
            for (unsigned w = 0; w < 4; ++w)
                block.state[w][i] = state[w];
            block.draw[i] = draw;
            block.channel[i] = ch;
            block.survivors |= std::uint64_t{1} << i;
            break;
        }
    }
}

#if defined(__x86_64__)

// Vector helpers are free functions: a lambda inside a
// target-attributed function does NOT inherit the target, so GCC
// refuses to inline the intrinsics into it.

/** 64x64 multiply via the classic three-vpmuludq emulation. */
__attribute__((target("avx2"))) inline __m256i
mul64Avx2(__m256i a, __m256i b)
{
    const __m256i hi = _mm256_add_epi64(
        _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
        _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
    return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                            _mm256_slli_epi64(hi, 32));
}

/** splitmix64 finalizer (without the kGolden add), 4 lanes. */
__attribute__((target("avx2"))) inline __m256i
mixAvx2(__m256i z)
{
    z = mul64Avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                  _mm256_set1_epi64x(static_cast<long long>(kMix1)));
    z = mul64Avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                  _mm256_set1_epi64x(static_cast<long long>(kMix2)));
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/**
 * Systems [first + at, first + at + 4) on AVX2; returns their 4-bit
 * survivor mask. The 64x64 multiplies (splitmix64 seeding only; the
 * xoshiro step needs none) use the classic three-vpmuludq emulation;
 * everything else is shifts, adds and xors, so each value is computed
 * with exactly the scalar semantics -- the compare threshold and the
 * draw are both below 2^53, which keeps the signed 64-bit compare
 * valid.
 */
__attribute__((target("avx2"))) unsigned
screen4Avx2(std::uint64_t mixedSeed, std::uint64_t first, unsigned at,
            unsigned channels, std::uint64_t zeroMax, SurvivorBlock &block)
{
    // seed = mixedSeed ^ mix64(~index * kStream); mix64 adds kGolden
    // before finalizing.
    const __m256i idx = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(first + at)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    __m256i z = mul64Avx2(_mm256_xor_si256(idx, _mm256_set1_epi64x(-1)),
                      _mm256_set1_epi64x(static_cast<long long>(kStream)));
    z = mixAvx2(_mm256_add_epi64(
        z, _mm256_set1_epi64x(static_cast<long long>(kGolden))));
    __m256i x = _mm256_xor_si256(
        _mm256_set1_epi64x(static_cast<long long>(mixedSeed)), z);

    // Rng constructor: four splitmix64 expansions of the seed.
    __m256i s[4];
    for (int w = 0; w < 4; ++w) {
        x = _mm256_add_epi64(
            x, _mm256_set1_epi64x(static_cast<long long>(kGolden)));
        s[w] = mixAvx2(x);
    }

    const __m256i zeroMaxV =
        _mm256_set1_epi64x(static_cast<long long>(zeroMax));
    __m256i found = _mm256_setzero_si256();
    __m256i h[4] = {found, found, found, found};
    __m256i hDraw = found, hChannel = found;
    for (unsigned ch = 0; ch < channels; ++ch) {
        const __m256i draw = _mm256_srli_epi64(lanes::nextAvx2(s), 11);

        // Lanes whose first nonzero draw this is keep the state after
        // it, the draw and the channel.
        const __m256i fresh = _mm256_andnot_si256(
            found, _mm256_cmpgt_epi64(draw, zeroMaxV));
        for (int w = 0; w < 4; ++w)
            h[w] = _mm256_blendv_epi8(h[w], s[w], fresh);
        hDraw = _mm256_blendv_epi8(hDraw, draw, fresh);
        hChannel = _mm256_blendv_epi8(
            hChannel, _mm256_set1_epi64x(static_cast<long long>(ch)),
            fresh);
        found = _mm256_or_si256(found, fresh);
    }
    for (int w = 0; w < 4; ++w)
        _mm256_store_si256(
            reinterpret_cast<__m256i *>(block.state[w] + at), h[w]);
    _mm256_store_si256(reinterpret_cast<__m256i *>(block.draw + at),
                       hDraw);
    _mm256_store_si256(reinterpret_cast<__m256i *>(block.channel + at),
                       hChannel);
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(found)));
}

// _mm512_undefined_epi32() inside the GCC intrinsic headers trips
// -Wuninitialized; the value is fully overwritten, known false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/** splitmix64 finalizer (without the kGolden add), 8 lanes. */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
inline __m512i
mixAvx512(__m512i z)
{
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
        _mm512_set1_epi64(static_cast<long long>(kMix1)));
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
        _mm512_set1_epi64(static_cast<long long>(kMix2)));
    return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/** Systems [first + at, first + at + 8) on AVX-512 (F+DQ: vpmullq
 *  does the 64-bit multiplies); returns their survivor mask. */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
unsigned
screen8Avx512(std::uint64_t mixedSeed, std::uint64_t first, unsigned at,
              unsigned channels, std::uint64_t zeroMax,
              SurvivorBlock &block)
{
    const __m512i idx = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(first + at)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    __m512i z = _mm512_mullo_epi64(
        _mm512_xor_si512(idx, _mm512_set1_epi64(-1)),
        _mm512_set1_epi64(static_cast<long long>(kStream)));
    z = mixAvx512(_mm512_add_epi64(
        z, _mm512_set1_epi64(static_cast<long long>(kGolden))));
    __m512i x = _mm512_xor_si512(
        _mm512_set1_epi64(static_cast<long long>(mixedSeed)), z);

    __m512i s[4];
    for (int w = 0; w < 4; ++w) {
        x = _mm512_add_epi64(
            x, _mm512_set1_epi64(static_cast<long long>(kGolden)));
        s[w] = mixAvx512(x);
    }

    const __m512i zeroMaxV =
        _mm512_set1_epi64(static_cast<long long>(zeroMax));
    __mmask8 found = 0;
    __m512i h[4], hDraw, hChannel;
    h[0] = h[1] = h[2] = h[3] = hDraw = hChannel = _mm512_setzero_si512();
    for (unsigned ch = 0; ch < channels; ++ch) {
        const __m512i draw = _mm512_srli_epi64(lanes::nextAvx512(s), 11);

        const __mmask8 fresh = static_cast<__mmask8>(
            _mm512_cmpgt_epu64_mask(draw, zeroMaxV) & ~found);
        for (int w = 0; w < 4; ++w)
            h[w] = _mm512_mask_mov_epi64(h[w], fresh, s[w]);
        hDraw = _mm512_mask_mov_epi64(hDraw, fresh, draw);
        hChannel = _mm512_mask_mov_epi64(
            hChannel, fresh, _mm512_set1_epi64(static_cast<long long>(ch)));
        found = static_cast<__mmask8>(found | fresh);
    }
    for (int w = 0; w < 4; ++w)
        _mm512_store_si512(block.state[w] + at, h[w]);
    _mm512_store_si512(block.draw + at, hDraw);
    _mm512_store_si512(block.channel + at, hChannel);
    return found;
}
#pragma GCC diagnostic pop

#endif // __x86_64__

} // namespace

void
screenBlock(SimdLevel level, std::uint64_t mixedSeed, std::uint64_t first,
            unsigned count, unsigned channels, std::uint64_t zeroMax,
            SurvivorBlock &block)
{
    assert(count <= blockSystems);
    block.survivors = 0;
#if defined(__x86_64__)
    // Lanes past count screen systems beyond the block; their bits are
    // dropped, so they cost time and change nothing.
    const std::uint64_t inBlock =
        count == blockSystems ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << count) - 1;
    if (level == SimdLevel::Avx512) {
        for (unsigned at = 0; at < count; at += 8)
            block.survivors |= static_cast<std::uint64_t>(screen8Avx512(
                                   mixedSeed, first, at, channels,
                                   zeroMax, block))
                               << at;
        block.survivors &= inBlock;
        return;
    }
    if (level == SimdLevel::Avx2) {
        for (unsigned at = 0; at < count; at += 4)
            block.survivors |= static_cast<std::uint64_t>(screen4Avx2(
                                   mixedSeed, first, at, channels,
                                   zeroMax, block))
                               << at;
        block.survivors &= inBlock;
        return;
    }
#else
    (void)level;
#endif
    screenScalar(mixedSeed, first, count, channels, zeroMax, block);
}

} // namespace xed::faultsim
