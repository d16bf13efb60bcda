/**
 * @file
 * Rng on 64-bit vector lanes: xoshiro256** steps and below() for the
 * kernels that run several streams side by side (the detection lanes
 * in ecc/ and the zero-fault filter in faultsim/).
 * Each lane computes exactly the scalar Rng's values. A stream's four
 * state words sit in s[0..3], one lane per stream, as loaded from
 * Rng::state(). x86-64 only; callers carry the matching target
 * attribute so the helpers inline.
 */

#ifndef XED_COMMON_RNG_LANES_HH
#define XED_COMMON_RNG_LANES_HH

#if defined(__x86_64__)

#include <immintrin.h>

namespace xed::lanes
{

__attribute__((target("avx2"))) inline __m256i
rotlAvx2(__m256i x, int k)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, k),
                           _mm256_srli_epi64(x, 64 - k));
}

/** Rng::next() on 4 lanes: each lane's draw, its state stepped;
 *  *5 and *9 are shift-adds. */
__attribute__((target("avx2"))) inline __m256i
nextAvx2(__m256i (&s)[4])
{
    __m256i r =
        rotlAvx2(_mm256_add_epi64(s[1], _mm256_slli_epi64(s[1], 2)), 7);
    r = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
    const __m256i t = _mm256_slli_epi64(s[1], 17);
    s[2] = _mm256_xor_si256(s[2], s[0]);
    s[3] = _mm256_xor_si256(s[3], s[1]);
    s[1] = _mm256_xor_si256(s[1], s[2]);
    s[0] = _mm256_xor_si256(s[0], s[3]);
    s[2] = _mm256_xor_si256(s[2], t);
    s[3] = rotlAvx2(s[3], 45);
    return r;
}

/** Rng::below(bound) of a raw draw on 4 lanes, bound < 2^32:
 *  (u·b) >> 64 equals ((u >> 32)·b + ((u mod 2^32)·b >> 32)) >> 32
 *  exactly. */
__attribute__((target("avx2"))) inline __m256i
belowAvx2(__m256i u, __m256i bound)
{
    const __m256i high = _mm256_mul_epu32(_mm256_srli_epi64(u, 32), bound);
    const __m256i low = _mm256_srli_epi64(_mm256_mul_epu32(u, bound), 32);
    return _mm256_srli_epi64(_mm256_add_epi64(high, low), 32);
}

// _mm512_undefined_epi32() inside the GCC intrinsic headers trips
// -Wuninitialized; the value is fully overwritten, known false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/** nextAvx2() on 8 lanes. */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) inline __m512i
nextAvx512(__m512i (&s)[4])
{
    __m512i r = _mm512_rol_epi64(
        _mm512_add_epi64(s[1], _mm512_slli_epi64(s[1], 2)), 7);
    r = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
    const __m512i t = _mm512_slli_epi64(s[1], 17);
    s[2] = _mm512_xor_si512(s[2], s[0]);
    s[3] = _mm512_xor_si512(s[3], s[1]);
    s[1] = _mm512_xor_si512(s[1], s[2]);
    s[0] = _mm512_xor_si512(s[0], s[3]);
    s[2] = _mm512_xor_si512(s[2], t);
    s[3] = _mm512_rol_epi64(s[3], 45);
    return r;
}

/** belowAvx2() on 8 lanes. */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) inline __m512i
belowAvx512(__m512i u, __m512i bound)
{
    const __m512i high = _mm512_mul_epu32(_mm512_srli_epi64(u, 32), bound);
    const __m512i low = _mm512_srli_epi64(_mm512_mul_epu32(u, bound), 32);
    return _mm512_srli_epi64(_mm512_add_epi64(high, low), 32);
}

#pragma GCC diagnostic pop

} // namespace xed::lanes

#endif // __x86_64__

#endif // XED_COMMON_RNG_LANES_HH
