/**
 * @file
 * Vectorized (72,64) batch detection shared by Hamming7264 and
 * Crc8Atm.
 *
 * Both codes compute an 8-bit syndrome as the XOR of nine per-byte
 * table lookups (synTable_ lanes / slice-by-8 tables), and both
 * tables are GF(2)-linear in the byte: T[b] = T[b & 0x0F] ^
 * T[b & 0xF0]. That splits each 256-entry lane into two 16-entry
 * nibble tables -- exactly the shape vpshufb (x86) and tbl (NEON)
 * look up 32/64/16 bytes at a time. The kernels transpose a block of
 * Word72s into nine byte-slice vectors with an unpack network, XOR
 * the eighteen nibble lookups, and count the nonzero syndromes with
 * one compare + popcount per block.
 *
 * Every level returns exactly the count the scalar table loop
 * returns: the nibble split is exact (linearity is verified when the
 * tables are built), the transpose only permutes which lane holds
 * which word, and the result is an order-independent count.
 */

#ifndef XED_ECC_DETECT_SIMD_HH
#define XED_ECC_DETECT_SIMD_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/simd.hh"
#include "ecc/word72.hh"

namespace xed::ecc::detail
{

/**
 * Split-nibble syndrome tables: lo[s][v] = lane table s at byte v,
 * hi[s][v] = lane table s at byte v << 4, so the full lane lookup is
 * lo[s][b & 15] ^ hi[s][b >> 4]. Slot s = 8 covers Word72::hi.
 */
struct SecdedNibbleTables
{
    alignas(64) std::uint8_t lo[9][16];
    alignas(64) std::uint8_t hi[9][16];
};

/**
 * Derive the nibble tables from nine 256-entry byte-lane tables.
 * Throws std::logic_error unless every lane is GF(2)-linear (both
 * on-die codes are by construction; the check keeps a future
 * non-linear table from silently corrupting the vector path).
 */
SecdedNibbleTables makeNibbleTables(
    const std::array<std::array<std::uint8_t, 256>, 9> &lanes);

/**
 * Number of words in @p received with a nonzero syndrome, computed
 * with the kernels of @p level (Scalar runs the nibble-table loop).
 * Any span size and alignment; the sub-block tail runs scalar.
 */
std::size_t detectManySimd(SimdLevel level, const SecdedNibbleTables &t,
                           std::span<const Word72> received);

} // namespace xed::ecc::detail

#endif // XED_ECC_DETECT_SIMD_HH
