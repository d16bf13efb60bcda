#include "ecc/detect_simd.hh"

#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace xed::ecc::detail
{

namespace
{

// The vector loads read Word72s as raw 16-byte blocks: positions 0..7
// are the lo bytes, position 8 is hi, positions 9..15 are padding the
// kernels transpose but never look up.
static_assert(sizeof(Word72) == 16,
              "detect kernels assume a 16-byte Word72 layout");
static_assert(offsetof(Word72, lo) == 0 && offsetof(Word72, hi) == 8,
              "detect kernels assume lo at offset 0, hi at offset 8");

/** Scalar loop over the nibble tables (tails + the Scalar level).
 *  Bit-identical to the byte-table loop: the split is exact. */
std::size_t
detectScalar(const SecdedNibbleTables &t, const Word72 *words,
             std::size_t n)
{
    std::size_t invalid = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t lo = words[i].lo;
        std::uint8_t s = 0;
        for (unsigned lane = 0; lane < 8; ++lane) {
            const unsigned b = static_cast<unsigned>(lo & 0xFF);
            s ^= t.lo[lane][b & 0x0F] ^ t.hi[lane][b >> 4];
            lo >>= 8;
        }
        const unsigned b = words[i].hi;
        s ^= t.lo[8][b & 0x0F] ^ t.hi[8][b >> 4];
        invalid += s != 0;
    }
    return invalid;
}

#if defined(__x86_64__)

/**
 * AVX2: 32 words (512 bytes) per block. A 4-layer unpack network
 * turns 16 row registers into nine 32-byte slice registers (slice s =
 * byte s of 32 words, in a permutation that is identical across
 * slices and irrelevant to the count); each slice then costs two
 * vpshufb nibble lookups, and one cmpeq+movemask+popcount counts the
 * zero syndromes. @p n must be a multiple of 32.
 */
__attribute__((target("avx2"))) std::size_t
detectBlocksAvx2(const SecdedNibbleTables &t, const Word72 *words,
                 std::size_t n)
{
    __m256i tabLo[9], tabHi[9];
    for (int s = 0; s < 9; ++s) {
        tabLo[s] = _mm256_broadcastsi128_si256(
            _mm_load_si128(reinterpret_cast<const __m128i *>(t.lo[s])));
        tabHi[s] = _mm256_broadcastsi128_si256(
            _mm_load_si128(reinterpret_cast<const __m128i *>(t.hi[s])));
    }
    const __m256i nibMask = _mm256_set1_epi8(0x0F);
    const __m256i zero = _mm256_setzero_si256();

    std::size_t invalid = 0;
    for (std::size_t i = 0; i < n; i += 32) {
        const unsigned char *base =
            reinterpret_cast<const unsigned char *>(words + i);
        __m256i a[16];
        for (int j = 0; j < 16; ++j)
            a[j] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(base + 32 * j));

        // Each 128-bit lane of a[j] is one word's 16 bytes: byte k
        // carries position tag k (8 = hi, 9..15 = padding). Every
        // unpack below interleaves two registers with identical tag
        // patterns, so tags pair up layer by layer until each
        // register holds a single tag -- one full byte slice.
        __m256i l1lo[8], l1hi[8];
        for (int j = 0; j < 8; ++j) {
            l1lo[j] = _mm256_unpacklo_epi8(a[2 * j], a[2 * j + 1]);
            l1hi[j] = _mm256_unpackhi_epi8(a[2 * j], a[2 * j + 1]);
        }
        // l2[0..3] tags 0..3, l2[4..7] tags 4..7, l2[8..11] tags 8..11
        // (the 12..15 side is padding and never computed).
        __m256i l2[12];
        for (int j = 0; j < 4; ++j) {
            l2[j] = _mm256_unpacklo_epi16(l1lo[2 * j], l1lo[2 * j + 1]);
            l2[4 + j] =
                _mm256_unpackhi_epi16(l1lo[2 * j], l1lo[2 * j + 1]);
            l2[8 + j] =
                _mm256_unpacklo_epi16(l1hi[2 * j], l1hi[2 * j + 1]);
        }
        __m256i l3[10];
        for (int g = 0; g < 2; ++g) {
            l3[4 * g + 0] =
                _mm256_unpacklo_epi32(l2[4 * g + 0], l2[4 * g + 1]);
            l3[4 * g + 1] =
                _mm256_unpacklo_epi32(l2[4 * g + 2], l2[4 * g + 3]);
            l3[4 * g + 2] =
                _mm256_unpackhi_epi32(l2[4 * g + 0], l2[4 * g + 1]);
            l3[4 * g + 3] =
                _mm256_unpackhi_epi32(l2[4 * g + 2], l2[4 * g + 3]);
        }
        l3[8] = _mm256_unpacklo_epi32(l2[8], l2[9]);
        l3[9] = _mm256_unpacklo_epi32(l2[10], l2[11]);
        __m256i slice[9];
        slice[0] = _mm256_unpacklo_epi64(l3[0], l3[1]);
        slice[1] = _mm256_unpackhi_epi64(l3[0], l3[1]);
        slice[2] = _mm256_unpacklo_epi64(l3[2], l3[3]);
        slice[3] = _mm256_unpackhi_epi64(l3[2], l3[3]);
        slice[4] = _mm256_unpacklo_epi64(l3[4], l3[5]);
        slice[5] = _mm256_unpackhi_epi64(l3[4], l3[5]);
        slice[6] = _mm256_unpacklo_epi64(l3[6], l3[7]);
        slice[7] = _mm256_unpackhi_epi64(l3[6], l3[7]);
        slice[8] = _mm256_unpacklo_epi64(l3[8], l3[9]);

        __m256i acc = zero;
        for (int s = 0; s < 9; ++s) {
            const __m256i loNib = _mm256_and_si256(slice[s], nibMask);
            const __m256i hiNib = _mm256_and_si256(
                _mm256_srli_epi16(slice[s], 4), nibMask);
            acc = _mm256_xor_si256(
                acc,
                _mm256_xor_si256(_mm256_shuffle_epi8(tabLo[s], loNib),
                                 _mm256_shuffle_epi8(tabHi[s], hiNib)));
        }
        const unsigned valid = static_cast<unsigned>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(acc, zero)));
        invalid += 32u - static_cast<unsigned>(__builtin_popcount(valid));
    }
    return invalid;
}

/**
 * AVX-512 (F+BW+DQ+VL): the same network at 64 words (1 KiB) per
 * block -- the unpacks and vpshufb operate per 128-bit lane, so the
 * tag algebra is unchanged -- with the zero count taken straight from
 * the cmpeq mask register. @p n must be a multiple of 64.
 */
// GCC's _mm512_undefined_epi32() (used inside the unpack intrinsics)
// trips -Wmaybe-uninitialized; the value is overwritten by the masked
// builtin, so the warning is a known header false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
std::size_t
detectBlocksAvx512(const SecdedNibbleTables &t, const Word72 *words,
                   std::size_t n)
{
    __m512i tabLo[9], tabHi[9];
    for (int s = 0; s < 9; ++s) {
        tabLo[s] = _mm512_broadcast_i32x4(
            _mm_load_si128(reinterpret_cast<const __m128i *>(t.lo[s])));
        tabHi[s] = _mm512_broadcast_i32x4(
            _mm_load_si128(reinterpret_cast<const __m128i *>(t.hi[s])));
    }
    const __m512i nibMask = _mm512_set1_epi8(0x0F);
    const __m512i zero = _mm512_setzero_si512();

    std::size_t invalid = 0;
    for (std::size_t i = 0; i < n; i += 64) {
        const unsigned char *base =
            reinterpret_cast<const unsigned char *>(words + i);
        __m512i a[16];
        for (int j = 0; j < 16; ++j)
            a[j] = _mm512_loadu_si512(
                reinterpret_cast<const void *>(base + 64 * j));

        __m512i l1lo[8], l1hi[8];
        for (int j = 0; j < 8; ++j) {
            l1lo[j] = _mm512_unpacklo_epi8(a[2 * j], a[2 * j + 1]);
            l1hi[j] = _mm512_unpackhi_epi8(a[2 * j], a[2 * j + 1]);
        }
        __m512i l2[12];
        for (int j = 0; j < 4; ++j) {
            l2[j] = _mm512_unpacklo_epi16(l1lo[2 * j], l1lo[2 * j + 1]);
            l2[4 + j] =
                _mm512_unpackhi_epi16(l1lo[2 * j], l1lo[2 * j + 1]);
            l2[8 + j] =
                _mm512_unpacklo_epi16(l1hi[2 * j], l1hi[2 * j + 1]);
        }
        __m512i l3[10];
        for (int g = 0; g < 2; ++g) {
            l3[4 * g + 0] =
                _mm512_unpacklo_epi32(l2[4 * g + 0], l2[4 * g + 1]);
            l3[4 * g + 1] =
                _mm512_unpacklo_epi32(l2[4 * g + 2], l2[4 * g + 3]);
            l3[4 * g + 2] =
                _mm512_unpackhi_epi32(l2[4 * g + 0], l2[4 * g + 1]);
            l3[4 * g + 3] =
                _mm512_unpackhi_epi32(l2[4 * g + 2], l2[4 * g + 3]);
        }
        l3[8] = _mm512_unpacklo_epi32(l2[8], l2[9]);
        l3[9] = _mm512_unpacklo_epi32(l2[10], l2[11]);
        __m512i slice[9];
        slice[0] = _mm512_unpacklo_epi64(l3[0], l3[1]);
        slice[1] = _mm512_unpackhi_epi64(l3[0], l3[1]);
        slice[2] = _mm512_unpacklo_epi64(l3[2], l3[3]);
        slice[3] = _mm512_unpackhi_epi64(l3[2], l3[3]);
        slice[4] = _mm512_unpacklo_epi64(l3[4], l3[5]);
        slice[5] = _mm512_unpackhi_epi64(l3[4], l3[5]);
        slice[6] = _mm512_unpacklo_epi64(l3[6], l3[7]);
        slice[7] = _mm512_unpackhi_epi64(l3[6], l3[7]);
        slice[8] = _mm512_unpacklo_epi64(l3[8], l3[9]);

        __m512i acc = zero;
        for (int s = 0; s < 9; ++s) {
            const __m512i loNib = _mm512_and_si512(slice[s], nibMask);
            const __m512i hiNib = _mm512_and_si512(
                _mm512_srli_epi16(slice[s], 4), nibMask);
            acc = _mm512_xor_si512(
                acc,
                _mm512_xor_si512(_mm512_shuffle_epi8(tabLo[s], loNib),
                                 _mm512_shuffle_epi8(tabHi[s], hiNib)));
        }
        const __mmask64 valid = _mm512_cmpeq_epi8_mask(acc, zero);
        invalid += 64u - static_cast<unsigned>(__builtin_popcountll(
                             static_cast<std::uint64_t>(valid)));
    }
    return invalid;
}
#pragma GCC diagnostic pop

#elif defined(__aarch64__)

/**
 * NEON: 16 words per block, one q-register per word (tags 0..15), the
 * same 4-layer network with full-width zips, tbl nibble lookups and a
 * horizontal add of the zero-syndrome lanes. @p n must be a multiple
 * of 16.
 */
std::size_t
detectBlocksNeon(const SecdedNibbleTables &t, const Word72 *words,
                 std::size_t n)
{
    uint8x16_t tabLo[9], tabHi[9];
    for (int s = 0; s < 9; ++s) {
        tabLo[s] = vld1q_u8(t.lo[s]);
        tabHi[s] = vld1q_u8(t.hi[s]);
    }
    const uint8x16_t nibMask = vdupq_n_u8(0x0F);

    const auto zip1b16 = [](uint8x16_t a, uint8x16_t b) {
        return vreinterpretq_u8_u16(vzip1q_u16(
            vreinterpretq_u16_u8(a), vreinterpretq_u16_u8(b)));
    };
    const auto zip2b16 = [](uint8x16_t a, uint8x16_t b) {
        return vreinterpretq_u8_u16(vzip2q_u16(
            vreinterpretq_u16_u8(a), vreinterpretq_u16_u8(b)));
    };
    const auto zip1b32 = [](uint8x16_t a, uint8x16_t b) {
        return vreinterpretq_u8_u32(vzip1q_u32(
            vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b)));
    };
    const auto zip2b32 = [](uint8x16_t a, uint8x16_t b) {
        return vreinterpretq_u8_u32(vzip2q_u32(
            vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b)));
    };
    const auto zip1b64 = [](uint8x16_t a, uint8x16_t b) {
        return vreinterpretq_u8_u64(vzip1q_u64(
            vreinterpretq_u64_u8(a), vreinterpretq_u64_u8(b)));
    };
    const auto zip2b64 = [](uint8x16_t a, uint8x16_t b) {
        return vreinterpretq_u8_u64(vzip2q_u64(
            vreinterpretq_u64_u8(a), vreinterpretq_u64_u8(b)));
    };

    std::size_t invalid = 0;
    for (std::size_t i = 0; i < n; i += 16) {
        const std::uint8_t *base =
            reinterpret_cast<const std::uint8_t *>(words + i);
        uint8x16_t a[16];
        for (int j = 0; j < 16; ++j)
            a[j] = vld1q_u8(base + 16 * j);

        uint8x16_t l1lo[8], l1hi[8];
        for (int j = 0; j < 8; ++j) {
            l1lo[j] = vzip1q_u8(a[2 * j], a[2 * j + 1]);
            l1hi[j] = vzip2q_u8(a[2 * j], a[2 * j + 1]);
        }
        uint8x16_t l2[12];
        for (int j = 0; j < 4; ++j) {
            l2[j] = zip1b16(l1lo[2 * j], l1lo[2 * j + 1]);
            l2[4 + j] = zip2b16(l1lo[2 * j], l1lo[2 * j + 1]);
            l2[8 + j] = zip1b16(l1hi[2 * j], l1hi[2 * j + 1]);
        }
        uint8x16_t l3[10];
        for (int g = 0; g < 2; ++g) {
            l3[4 * g + 0] = zip1b32(l2[4 * g + 0], l2[4 * g + 1]);
            l3[4 * g + 1] = zip1b32(l2[4 * g + 2], l2[4 * g + 3]);
            l3[4 * g + 2] = zip2b32(l2[4 * g + 0], l2[4 * g + 1]);
            l3[4 * g + 3] = zip2b32(l2[4 * g + 2], l2[4 * g + 3]);
        }
        l3[8] = zip1b32(l2[8], l2[9]);
        l3[9] = zip1b32(l2[10], l2[11]);
        uint8x16_t slice[9];
        slice[0] = zip1b64(l3[0], l3[1]);
        slice[1] = zip2b64(l3[0], l3[1]);
        slice[2] = zip1b64(l3[2], l3[3]);
        slice[3] = zip2b64(l3[2], l3[3]);
        slice[4] = zip1b64(l3[4], l3[5]);
        slice[5] = zip2b64(l3[4], l3[5]);
        slice[6] = zip1b64(l3[6], l3[7]);
        slice[7] = zip2b64(l3[6], l3[7]);
        slice[8] = zip1b64(l3[8], l3[9]);

        uint8x16_t acc = vdupq_n_u8(0);
        for (int s = 0; s < 9; ++s) {
            const uint8x16_t loNib = vandq_u8(slice[s], nibMask);
            const uint8x16_t hiNib = vshrq_n_u8(slice[s], 4);
            acc = veorq_u8(
                acc, veorq_u8(vqtbl1q_u8(tabLo[s], loNib),
                              vqtbl1q_u8(tabHi[s], hiNib)));
        }
        const uint8x16_t zeroLanes = vshrq_n_u8(vceqzq_u8(acc), 7);
        invalid += 16u - vaddvq_u8(zeroLanes);
    }
    return invalid;
}

#endif

} // namespace

SecdedNibbleTables
makeNibbleTables(
    const std::array<std::array<std::uint8_t, 256>, 9> &lanes)
{
    SecdedNibbleTables t;
    for (unsigned s = 0; s < 9; ++s) {
        for (unsigned v = 0; v < 16; ++v) {
            t.lo[s][v] = lanes[s][v];
            t.hi[s][v] = lanes[s][v << 4];
        }
        for (unsigned b = 0; b < 256; ++b)
            if (static_cast<std::uint8_t>(t.lo[s][b & 0x0F] ^
                                          t.hi[s][b >> 4]) != lanes[s][b])
                throw std::logic_error(
                    "makeNibbleTables: lane table is not GF(2)-linear");
    }
    return t;
}

std::size_t
detectManySimd(SimdLevel level, const SecdedNibbleTables &t,
               std::span<const Word72> received)
{
    const Word72 *words = received.data();
    const std::size_t n = received.size();
    std::size_t blocked = 0;
    std::size_t invalid = 0;
    switch (level) {
#if defined(__x86_64__)
    case SimdLevel::Avx512:
        blocked = n & ~static_cast<std::size_t>(63);
        invalid = detectBlocksAvx512(t, words, blocked);
        break;
    case SimdLevel::Avx2:
        blocked = n & ~static_cast<std::size_t>(31);
        invalid = detectBlocksAvx2(t, words, blocked);
        break;
#elif defined(__aarch64__)
    case SimdLevel::Neon:
        blocked = n & ~static_cast<std::size_t>(15);
        invalid = detectBlocksNeon(t, words, blocked);
        break;
#endif
    default:
        break;
    }
    return invalid + detectScalar(t, words + blocked, n - blocked);
}

} // namespace xed::ecc::detail
