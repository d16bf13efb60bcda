/**
 * @file
 * (72,64) extended Hamming SECDED code with *natural column ordering*:
 * the parity-check column of codeword position p (0-based) is the 7-bit
 * value p+1 plus an all-ones overall-parity row.
 *
 * Natural ordering matters for reproducing Table II of the paper: with
 * columns laid out as consecutive integers, any aligned burst of four
 * consecutive bit flips XORs to a zero syndrome about half the time,
 * which is exactly the ~50.7% burst-error detection rate the paper
 * reports for Hamming and the motivation for preferring CRC8-ATM.
 */

#ifndef XED_ECC_HAMMING7264_HH
#define XED_ECC_HAMMING7264_HH

#include <array>
#include <cstdint>

#include "ecc/code.hh"
#include "ecc/detect_simd.hh"

namespace xed::ecc
{

class Hamming7264 : public Secded7264
{
  public:
    Hamming7264();

    std::string name() const override { return "(72,64) Hamming"; }
    Word72 encode(std::uint64_t data) const override;
    DecodeResult decode(const Word72 &received) const override;
    bool isValidCodeword(const Word72 &received) const override;
    std::uint64_t extractData(const Word72 &word) const override;
    std::size_t detectMany(std::span<const Word72> received) const override;

    /** 8-bit syndrome of a received word (0 iff valid). */
    std::uint8_t syndrome(const Word72 &received) const;

  private:
    /** Parity-check column of position p: (p+1) | overall-parity row. */
    static std::uint8_t
    column(unsigned p)
    {
        return static_cast<std::uint8_t>(((p + 1) & 0x7F) | 0x80);
    }

    /** Codeword positions that hold check bits (columns independent). */
    std::array<unsigned, checkLength> checkPos_{};
    /** Codeword positions that hold data bits, LSB-first. */
    std::array<unsigned, dataLength> dataPos_{};
    /** syndrome -> check-bit byte that cancels it (c = M^-1 s). */
    std::array<std::uint8_t, 256> solve_{};
    /** syndrome -> corrected codeword position + 1, or 0 if none. */
    std::array<std::uint8_t, 256> singleBitPos_{};
    /** Per-byte syndrome tables: 9 byte lanes x 256 values. */
    std::array<std::array<std::uint8_t, 256>, 9> synTable_{};
    /** Split-nibble form of synTable_ for the vector detect kernels. */
    detail::SecdedNibbleTables nib_{};
};

} // namespace xed::ecc

#endif // XED_ECC_HAMMING7264_HH
