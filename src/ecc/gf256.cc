#include "ecc/gf256.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace xed::ecc
{

namespace
{

/** Scalar tail shared by every kernel: the nibble split is exact, so
 *  this matches both the mulRowPtr() loop and the vector bodies. */
inline void
mulConstXorTail(const std::uint8_t *lo, const std::uint8_t *hi,
                const std::uint8_t *src, std::uint8_t *dst, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t b = src[i];
        dst[i] ^= static_cast<std::uint8_t>(lo[b & 0x0F] ^ hi[b >> 4]);
    }
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void
mulConstXorAvx2(const std::uint8_t *lo, const std::uint8_t *hi,
                const std::uint8_t *src, std::uint8_t *dst, std::size_t n)
{
    const __m256i tlo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(lo)));
    const __m256i thi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(hi)));
    const __m256i mask = _mm256_set1_epi8(0x0F);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        __m256i p = _mm256_xor_si256(
            _mm256_shuffle_epi8(tlo, _mm256_and_si256(v, mask)),
            _mm256_shuffle_epi8(
                thi, _mm256_and_si256(_mm256_srli_epi16(v, 4), mask)));
        p = _mm256_xor_si256(
            p, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(dst + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), p);
    }
    mulConstXorTail(lo, hi, src + i, dst + i, n - i);
}

// _mm512_undefined_epi32() inside the GCC intrinsic headers trips
// -Wuninitialized; the value is fully overwritten, known false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) void
mulConstXorAvx512(const std::uint8_t *lo, const std::uint8_t *hi,
                  const std::uint8_t *src, std::uint8_t *dst, std::size_t n)
{
    const __m512i tlo = _mm512_broadcast_i32x4(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(lo)));
    const __m512i thi = _mm512_broadcast_i32x4(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(hi)));
    const __m512i mask = _mm512_set1_epi8(0x0F);
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const __m512i v = _mm512_loadu_si512(
            reinterpret_cast<const void *>(src + i));
        __m512i p = _mm512_xor_si512(
            _mm512_shuffle_epi8(tlo, _mm512_and_si512(v, mask)),
            _mm512_shuffle_epi8(
                thi, _mm512_and_si512(_mm512_srli_epi16(v, 4), mask)));
        p = _mm512_xor_si512(
            p, _mm512_loadu_si512(reinterpret_cast<const void *>(dst + i)));
        _mm512_storeu_si512(reinterpret_cast<void *>(dst + i), p);
    }
    mulConstXorTail(lo, hi, src + i, dst + i, n - i);
}
#pragma GCC diagnostic pop

#elif defined(__aarch64__)

void
mulConstXorNeon(const std::uint8_t *lo, const std::uint8_t *hi,
                const std::uint8_t *src, std::uint8_t *dst, std::size_t n)
{
    const uint8x16_t tlo = vld1q_u8(lo);
    const uint8x16_t thi = vld1q_u8(hi);
    const uint8x16_t mask = vdupq_n_u8(0x0F);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint8x16_t v = vld1q_u8(src + i);
        uint8x16_t p = veorq_u8(vqtbl1q_u8(tlo, vandq_u8(v, mask)),
                                vqtbl1q_u8(thi, vshrq_n_u8(v, 4)));
        p = veorq_u8(p, vld1q_u8(dst + i));
        vst1q_u8(dst + i, p);
    }
    mulConstXorTail(lo, hi, src + i, dst + i, n - i);
}

#endif

} // namespace

GF256::GF256()
{
    unsigned x = 1;
    for (unsigned i = 0; i < groupOrder; ++i) {
        exp_[i] = static_cast<std::uint8_t>(x);
        log_[x] = i;
        x <<= 1;
        if (x & 0x100)
            x ^= fieldPoly;
    }
    exp_[groupOrder] = exp_[0];
    log_[0] = 0; // unused; callers must not take log of zero

    // Full product table from the log/exp pair. Row 0 and column 0
    // stay zero from value-initialization.
    for (unsigned a = 1; a < 256; ++a)
        for (unsigned b = 1; b < 256; ++b)
            mul_[a][b] = exp_[(log_[a] + log_[b]) % groupOrder];

    // Split-nibble rows for the vector constant-multiplier kernels.
    for (unsigned c = 0; c < 256; ++c)
        for (unsigned v = 0; v < 16; ++v) {
            nibLo_[c][v] = mul_[c][v];
            nibHi_[c][v] = mul_[c][v << 4];
        }
}

void
GF256::mulConstXorInto(std::uint8_t c, const std::uint8_t *src,
                       std::uint8_t *dst, std::size_t n) const
{
    const std::uint8_t *lo = nibLo_[c].data();
    const std::uint8_t *hi = nibHi_[c].data();
    switch (simdLevel()) {
#if defined(__x86_64__)
    case SimdLevel::Avx512:
        mulConstXorAvx512(lo, hi, src, dst, n);
        return;
    case SimdLevel::Avx2:
        mulConstXorAvx2(lo, hi, src, dst, n);
        return;
#elif defined(__aarch64__)
    case SimdLevel::Neon:
        mulConstXorNeon(lo, hi, src, dst, n);
        return;
#endif
    default:
        break;
    }
    const std::uint8_t *row = mulRowPtr(c);
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= row[src[i]];
}

const GF256 &
GF256::instance()
{
    static const GF256 field;
    return field;
}

} // namespace xed::ecc
