/**
 * @file
 * (72,64) CRC8-ATM code: g(x) = x^8 + x^2 + x + 1 (the ATM HEC
 * polynomial, ITU-T I.432.1). The paper recommends this code for On-Die
 * ECC (Section V-E): it provides the same SECDED capability as Hamming
 * (single-bit correction via a syndrome lookup) but detects *all* burst
 * errors of length <= 8 and ~99.22% of random even-weight errors, since
 * (x+1) divides g(x).
 *
 * Codeword layout (polynomial convention): data bit 63 is the
 * highest-degree coefficient (codeword position 71), the 8 CRC bits
 * occupy positions 7..0.
 *
 * The syndrome is computed with slice-by-8 tables: slice_[k][b] is the
 * remainder of b(x) * x^{8k} mod g(x), so the 72-bit remainder is the
 * XOR of 9 independent table lookups (one per byte lane) instead of a
 * dependent 8-step byte-at-a-time chain.
 */

#ifndef XED_ECC_CRC8ATM_HH
#define XED_ECC_CRC8ATM_HH

#include <array>
#include <cstdint>

#include "ecc/code.hh"

namespace xed::ecc
{

class Crc8Atm : public Secded7264
{
  public:
    /** The ATM HEC generator polynomial, x^8+x^2+x+1, low byte. */
    static constexpr std::uint8_t poly = 0x07;

    Crc8Atm();

    std::string name() const override { return "(72,64) CRC8-ATM"; }
    Word72 encode(std::uint64_t data) const override;
    DecodeResult decode(const Word72 &received) const override;

    std::uint64_t
    extractData(const Word72 &word) const override
    {
        return (static_cast<std::uint64_t>(word.hi) << 56) | (word.lo >> 8);
    }

    std::size_t detectMany(std::span<const Word72> received) const override;

    /** Remainder of the received polynomial mod g (0 iff valid). */
    std::uint8_t
    syndrome(const Word72 &received) const override
    {
        // Codeword byte lane j sits at degrees 8j..8j+7: lo bytes cover
        // lanes 0..7 (lane 0 being the check byte), hi is lane 8. Nine
        // independent loads, no carried dependency.
        const std::uint64_t lo = received.lo;
        return static_cast<std::uint8_t>(
            slice_[0][lo & 0xFF] ^ slice_[1][(lo >> 8) & 0xFF] ^
            slice_[2][(lo >> 16) & 0xFF] ^ slice_[3][(lo >> 24) & 0xFF] ^
            slice_[4][(lo >> 32) & 0xFF] ^ slice_[5][(lo >> 40) & 0xFF] ^
            slice_[6][(lo >> 48) & 0xFF] ^ slice_[7][lo >> 56] ^
            slice_[8][received.hi]);
    }

    /** CRC of the 64 data bits (the check byte of the codeword). */
    std::uint8_t
    crc(std::uint64_t data) const
    {
        // data(x) * x^8 mod g: data byte lane k contributes at degree
        // 8k + 8, i.e. through slice k+1.
        return static_cast<std::uint8_t>(
            slice_[1][data & 0xFF] ^ slice_[2][(data >> 8) & 0xFF] ^
            slice_[3][(data >> 16) & 0xFF] ^ slice_[4][(data >> 24) & 0xFF] ^
            slice_[5][(data >> 32) & 0xFF] ^ slice_[6][(data >> 40) & 0xFF] ^
            slice_[7][(data >> 48) & 0xFF] ^ slice_[8][data >> 56]);
    }

  private:
    /** Byte-at-a-time CRC table: table_[b] = (b(x) * x^8) mod g(x). */
    std::array<std::uint8_t, 256> table_{};
    /** Slice tables: slice_[k][b] = (b(x) * x^{8k}) mod g(x). */
    std::array<std::array<std::uint8_t, 256>, 9> slice_{};
    /** syndrome -> codeword position + 1, or 0 if not a 1-bit pattern. */
    std::array<std::uint8_t, 256> singleBitPos_{};
};

} // namespace xed::ecc

#endif // XED_ECC_CRC8ATM_HH
