/**
 * @file
 * Abstract interface for the (72,64) SECDED codes used as On-Die ECC
 * (Section V-E of the paper compares Hamming and CRC8-ATM behind this
 * interface).
 */

#ifndef XED_ECC_CODE_HH
#define XED_ECC_CODE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "ecc/word72.hh"

namespace xed::ecc
{

/** Outcome of decoding one 72-bit received word. */
enum class DecodeStatus
{
    /** Syndrome zero: the received word is a valid codeword. */
    NoError,
    /** Syndrome matched a single-bit pattern; that bit was flipped back.
     *  A multi-bit error aliasing to a single-bit syndrome shows up here
     *  as a silent mis-correction; XED still transmits a catch-word. */
    CorrectedSingle,
    /** Invalid codeword that matches no single-bit syndrome. */
    DetectedUncorrectable,
};

/** Result of decoding: status plus the (possibly corrected) data. */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::NoError;
    /** Corrected 64-bit data (valid unless DetectedUncorrectable). */
    std::uint64_t data = 0;
    /** Position corrected, or -1. */
    int correctedBit = -1;

    /** True iff the decoder saw anything other than a valid codeword.
     *  This is exactly the condition under which XED's DC-Mux transmits
     *  the catch-word instead of data. */
    bool
    errorObserved() const
    {
        return status != DecodeStatus::NoError;
    }
};

/** A systematic (72,64) single-error-correcting code. */
class Secded7264
{
  public:
    virtual ~Secded7264() = default;

    /** Human-readable code name ("(72,64) Hamming", "(72,64) CRC8-ATM"). */
    virtual std::string name() const = 0;

    /** Encode 64 data bits into a 72-bit codeword. */
    virtual Word72 encode(std::uint64_t data) const = 0;

    /** Decode a received 72-bit word. */
    virtual DecodeResult decode(const Word72 &received) const = 0;

    /** 8-bit syndrome of a received word (0 iff valid). */
    virtual std::uint8_t syndrome(const Word72 &received) const = 0;

    /** True iff @p received has a zero syndrome. */
    bool
    isValidCodeword(const Word72 &received) const
    {
        return syndrome(received) == 0;
    }

    /** Extract the data bits of a codeword without decoding. */
    virtual std::uint64_t extractData(const Word72 &word) const = 0;

    /**
     * Batched detection: the number of words in @p received that are
     * NOT valid codewords. Semantically identical to looping
     * isValidCodeword(), as one branch-light syndrome table loop. No
     * allocation.
     */
    virtual std::size_t
    detectMany(std::span<const Word72> received) const = 0;
};

} // namespace xed::ecc

#endif // XED_ECC_CODE_HH
