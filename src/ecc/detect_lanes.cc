#include "ecc/detect_lanes.hh"

#include <stdexcept>

#include "common/simd.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace xed::ecc
{

DetectTables::DetectTables(const Secded7264 &code)
{
    for (unsigned pos = 0; pos < codeLength; ++pos) {
        Word72 single;
        single.setBitTo(pos, 1);
        column_[pos] = code.syndrome(single);
    }
    for (unsigned lane = 0; lane < 9; ++lane) {
        for (unsigned value = 0; value < 256; ++value) {
            Word72 word;
            std::uint8_t expected = 0;
            for (unsigned bit = 0; bit < 8; ++bit) {
                if ((value >> bit) & 1) {
                    word.setBitTo(8 * lane + bit, 1);
                    expected ^= column_[8 * lane + bit];
                }
            }
            if (code.syndrome(word) != expected)
                throw std::logic_error(
                    code.name() +
                    ": a syndrome is not the XOR of its columns");
        }
    }
    // A burst is the burst one bit shorter plus the column after it.
    for (unsigned length = 1; length <= codeLength; ++length)
        for (unsigned start = 0; start + length <= codeLength; ++start)
            burst_[(length - 1) * codeLength + start] =
                static_cast<std::uint8_t>(
                    (length > 1 ? bursts(length - 1)[start] : 0) ^
                    column_[start + length - 1]);
}

namespace
{

/** The per-trial loop, one lane after another (Scalar and Neon). */
void
detectScalar(const DetectTables &tables, bool burst, unsigned weight,
             std::span<DetectLane> lanes)
{
    const std::uint8_t *column = tables.columns();
    const std::uint8_t *bursts = tables.bursts(weight);
    const unsigned starts = codeLength - weight + 1;
    for (DetectLane &lane : lanes) {
        Rng rng = lane.rng;
        std::uint64_t detected = 0;
        for (std::uint64_t t = 0; t < lane.trials; ++t) {
            std::uint8_t syndrome = 0;
            if (burst) {
                syndrome = bursts[rng.below(starts)];
            } else {
                unsigned __int128 bits = 0;
                for (unsigned placed = 0; placed < weight;) {
                    const unsigned pos =
                        static_cast<unsigned>(rng.below(codeLength));
                    const unsigned __int128 mask =
                        static_cast<unsigned __int128>(1) << pos;
                    if (!(bits & mask)) {
                        bits |= mask;
                        syndrome ^= column[pos];
                        ++placed;
                    }
                }
            }
            detected += syndrome != 0;
        }
        lane.detected = detected;
    }
}

#if defined(__x86_64__)

/** The lanes' stream states (one array per state word), trial counts
 *  and results. Lanes past the group keep an all-zero state, which
 *  draws zeros, and no trials. */
struct LaneBlock
{
    alignas(64) std::uint64_t state[4][maxDetectLanes] = {};
    alignas(64) std::uint64_t trials[maxDetectLanes] = {};
    alignas(64) std::uint64_t detected[maxDetectLanes] = {};

    explicit LaneBlock(std::span<const DetectLane> lanes)
    {
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            const std::array<std::uint64_t, 4> words = lanes[i].rng.state();
            for (unsigned w = 0; w < 4; ++w)
                state[w][i] = words[w];
            trials[i] = lanes[i].trials;
        }
    }
};

// Vector helpers are free functions: a lambda inside a
// target-attributed function does not inherit the target.

__attribute__((target("avx2"))) inline __m256i
rotlAvx2(__m256i x, int k)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, k),
                           _mm256_srli_epi64(x, 64 - k));
}

/** Rng::next() on 4 lanes; *5 and *9 are shift-adds. */
__attribute__((target("avx2"))) inline __m256i
nextAvx2(__m256i &s0, __m256i &s1, __m256i &s2, __m256i &s3)
{
    __m256i r =
        rotlAvx2(_mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2)), 7);
    r = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotlAvx2(s3, 45);
    return r;
}

/** Rng::below(bound) on 4 lanes, bound < 2^32: (u·b) >> 64 equals
 *  ((u >> 32)·b + ((u mod 2^32)·b >> 32)) >> 32 exactly. */
__attribute__((target("avx2"))) inline __m256i
belowAvx2(__m256i u, __m256i bound)
{
    const __m256i high = _mm256_mul_epu32(_mm256_srli_epi64(u, 32), bound);
    const __m256i low = _mm256_srli_epi64(_mm256_mul_epu32(u, bound), 32);
    return _mm256_srli_epi64(_mm256_add_epi64(high, low), 32);
}

__attribute__((target("avx2"))) inline __m256i
loadAvx2(const std::uint64_t *words)
{
    return _mm256_load_si256(reinterpret_cast<const __m256i *>(words));
}

/** Count each lane of @p finished that had trials left and whose
 *  @p syndrome is nonzero, and take those lanes' trials. */
__attribute__((target("avx2"))) inline void
countAvx2(__m256i finished, __m256i syndrome, __m256i &left,
          __m256i &detected)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i counted =
        _mm256_andnot_si256(_mm256_cmpeq_epi64(left, zero),
                            _mm256_and_si256(finished, _mm256_set1_epi64x(1)));
    const __m256i silent = _mm256_cmpeq_epi64(
        _mm256_and_si256(syndrome, _mm256_set1_epi64x(0xFF)), zero);
    detected = _mm256_add_epi64(detected, _mm256_andnot_si256(silent, counted));
    left = _mm256_sub_epi64(left, counted);
}

/** Lanes [first, first + 4) of @p block. */
__attribute__((target("avx2"))) void
detectAvx2(const DetectTables &tables, bool burst, unsigned weight,
           LaneBlock &block, std::size_t first)
{
    __m256i s0 = loadAvx2(block.state[0] + first);
    __m256i s1 = loadAvx2(block.state[1] + first);
    __m256i s2 = loadAvx2(block.state[2] + first);
    __m256i s3 = loadAvx2(block.state[3] + first);
    __m256i left = loadAvx2(block.trials + first);
    const __m256i zero = _mm256_setzero_si256();
    __m256i detected = zero;
    if (burst) {
        const long long *row =
            reinterpret_cast<const long long *>(tables.bursts(weight));
        const __m256i starts = _mm256_set1_epi64x(codeLength - weight + 1);
        const __m256i all = _mm256_set1_epi64x(-1);
        while (!_mm256_testz_si256(left, left)) {
            const __m256i start =
                belowAvx2(nextAvx2(s0, s1, s2, s3), starts);
            countAvx2(all, _mm256_i64gather_epi64(row, start, 1), left,
                      detected);
        }
    } else {
        const long long *column =
            reinterpret_cast<const long long *>(tables.columns());
        const __m256i length = _mm256_set1_epi64x(codeLength);
        const __m256i target = _mm256_set1_epi64x(weight);
        const __m256i one = _mm256_set1_epi64x(1);
        const __m256i sixtyFour = _mm256_set1_epi64x(64);
        __m256i lo = zero, hi = zero, syndrome = zero, placed = zero;
        while (!_mm256_testz_si256(left, left)) {
            const __m256i pos = belowAvx2(nextAvx2(s0, s1, s2, s3), length);
            // A count of 64 or more shifts the bit out, so each lane
            // sets exactly one of the two.
            const __m256i bitLo = _mm256_sllv_epi64(one, pos);
            const __m256i bitHi =
                _mm256_sllv_epi64(one, _mm256_sub_epi64(pos, sixtyFour));
            // A position already set is drawn again.
            const __m256i fresh = _mm256_cmpeq_epi64(
                _mm256_or_si256(_mm256_and_si256(lo, bitLo),
                                _mm256_and_si256(hi, bitHi)),
                zero);
            lo = _mm256_or_si256(lo, bitLo);
            hi = _mm256_or_si256(hi, bitHi);
            syndrome = _mm256_xor_si256(
                syndrome, _mm256_and_si256(
                              fresh, _mm256_i64gather_epi64(column, pos, 1)));
            placed = _mm256_sub_epi64(placed, fresh);
            const __m256i done = _mm256_cmpeq_epi64(placed, target);
            if (_mm256_testz_si256(done, done))
                continue;
            countAvx2(done, syndrome, left, detected);
            lo = _mm256_andnot_si256(done, lo);
            hi = _mm256_andnot_si256(done, hi);
            syndrome = _mm256_andnot_si256(done, syndrome);
            placed = _mm256_andnot_si256(done, placed);
        }
    }
    _mm256_store_si256(reinterpret_cast<__m256i *>(block.detected + first),
                       detected);
}

// _mm512_undefined_epi32() inside the GCC intrinsic headers trips
// -Wuninitialized; the value is fully overwritten, known false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/** Rng::next() on 8 lanes. */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) inline __m512i
nextAvx512(__m512i &s0, __m512i &s1, __m512i &s2, __m512i &s3)
{
    __m512i r = _mm512_rol_epi64(
        _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2)), 7);
    r = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_rol_epi64(s3, 45);
    return r;
}

/** Rng::below(bound) on 8 lanes, exactly as belowAvx2(). */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) inline __m512i
belowAvx512(__m512i u, __m512i bound)
{
    const __m512i high = _mm512_mul_epu32(_mm512_srli_epi64(u, 32), bound);
    const __m512i low = _mm512_srli_epi64(_mm512_mul_epu32(u, bound), 32);
    return _mm512_srli_epi64(_mm512_add_epi64(high, low), 32);
}

/** All 8 lanes of @p block. */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) void
detectAvx512(const DetectTables &tables, bool burst, unsigned weight,
             LaneBlock &block)
{
    __m512i s0 = _mm512_load_si512(block.state[0]);
    __m512i s1 = _mm512_load_si512(block.state[1]);
    __m512i s2 = _mm512_load_si512(block.state[2]);
    __m512i s3 = _mm512_load_si512(block.state[3]);
    __m512i left = _mm512_load_si512(block.trials);
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i lowByte = _mm512_set1_epi64(0xFF);
    __m512i detected = _mm512_setzero_si512();
    __mmask8 active = _mm512_test_epi64_mask(left, left);
    const std::uint8_t *table =
        burst ? tables.bursts(weight) : tables.columns();
    if (burst) {
        const __m512i starts = _mm512_set1_epi64(codeLength - weight + 1);
        while (active) {
            const __m512i start =
                belowAvx512(nextAvx512(s0, s1, s2, s3), starts);
            detected = _mm512_mask_add_epi64(
                detected,
                _mm512_mask_test_epi64_mask(
                    active, _mm512_i64gather_epi64(start, table, 1), lowByte),
                detected, one);
            left = _mm512_mask_sub_epi64(left, active, left, one);
            active = _mm512_test_epi64_mask(left, left);
        }
    } else {
        const __m512i length = _mm512_set1_epi64(codeLength);
        const __m512i target = _mm512_set1_epi64(weight);
        const __m512i sixtyFour = _mm512_set1_epi64(64);
        __m512i lo = _mm512_setzero_si512(), hi = lo, syndrome = lo,
                placed = lo;
        while (active) {
            const __m512i pos =
                belowAvx512(nextAvx512(s0, s1, s2, s3), length);
            const __m512i bitLo = _mm512_sllv_epi64(one, pos);
            const __m512i bitHi =
                _mm512_sllv_epi64(one, _mm512_sub_epi64(pos, sixtyFour));
            const __mmask8 fresh = _mm512_mask_testn_epi64_mask(
                _mm512_testn_epi64_mask(lo, bitLo), hi, bitHi);
            lo = _mm512_or_si512(lo, bitLo);
            hi = _mm512_or_si512(hi, bitHi);
            syndrome = _mm512_mask_xor_epi64(
                syndrome, fresh, syndrome,
                _mm512_i64gather_epi64(pos, table, 1));
            placed = _mm512_mask_add_epi64(placed, fresh, placed, one);
            const __mmask8 done = _mm512_cmpeq_epi64_mask(placed, target);
            if (!done)
                continue;
            const __mmask8 counted = done & active;
            detected = _mm512_mask_add_epi64(
                detected,
                _mm512_mask_test_epi64_mask(counted, syndrome, lowByte),
                detected, one);
            left = _mm512_mask_sub_epi64(left, counted, left, one);
            active = _mm512_test_epi64_mask(left, left);
            const __mmask8 keep = static_cast<__mmask8>(~done);
            lo = _mm512_maskz_mov_epi64(keep, lo);
            hi = _mm512_maskz_mov_epi64(keep, hi);
            syndrome = _mm512_maskz_mov_epi64(keep, syndrome);
            placed = _mm512_maskz_mov_epi64(keep, placed);
        }
    }
    _mm512_store_si512(block.detected, detected);
}
#pragma GCC diagnostic pop

#endif // __x86_64__

} // namespace

void
detectLanes(const DetectTables &tables, bool burst, unsigned weight,
            std::span<DetectLane> lanes)
{
    if (weight < 1 || weight > codeLength)
        throw std::invalid_argument("detectLanes: weight outside [1, 72]");
    if (lanes.size() > maxDetectLanes)
        throw std::invalid_argument("detectLanes: more than 8 lanes");
#if defined(__x86_64__)
    const SimdLevel level = simdLevel();
    if (level == SimdLevel::Avx512 || level == SimdLevel::Avx2) {
        LaneBlock block(lanes);
        if (level == SimdLevel::Avx512)
            detectAvx512(tables, burst, weight, block);
        else
            for (std::size_t first = 0; first < lanes.size(); first += 4)
                detectAvx2(tables, burst, weight, block, first);
        for (std::size_t i = 0; i < lanes.size(); ++i)
            lanes[i].detected = block.detected[i];
        return;
    }
#endif
    detectScalar(tables, burst, weight, lanes);
}

} // namespace xed::ecc
