/**
 * @file
 * Frozen pre-optimization codec implementations: the reference of the
 * randomized equivalence suites (tests/ecc/test_codec_equivalence,
 * tests/ecc/test_rs_param_sweep), which prove the table-driven scratch
 * kernels return byte-identical results to these originals.
 *
 * These are deliberate verbatim copies of the algorithms as they stood
 * before the kernel rewrite (log/exp multiply with the zero branch and
 * `% 255`, heap-based RS decode, byte-at-a-time dependent-chain CRC).
 * Do not "clean them up" into the optimized forms -- their value is
 * being the old code.
 */

#ifndef XED_TESTS_SUPPORT_CODEC_REFERENCE_HH
#define XED_TESTS_SUPPORT_CODEC_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "ecc/reed_solomon.hh"
#include "ecc/word72.hh"

namespace xed::ecc::legacy
{

/** The original byte-at-a-time CRC8-ATM: an 8-step dependent chain. */
std::uint8_t crc8(std::uint64_t data);

/** The original CRC syndrome: crc(extracted data) ^ check byte. */
std::uint8_t crcSyndrome(const Word72 &received);

/**
 * The original heap-based RS(n, k) implementation (vector polynomials
 * throughout). Statuses and corrected words define the bit-identical
 * contract the scratch kernel is tested against.
 */
class ReedSolomon
{
  public:
    ReedSolomon(unsigned n, unsigned k);

    unsigned n() const { return n_; }
    unsigned k() const { return k_; }
    unsigned numCheck() const { return n_ - k_; }

    std::vector<std::uint8_t> encode(
        const std::vector<std::uint8_t> &data) const;

    RsResult decode(std::vector<std::uint8_t> &received,
                    const std::vector<unsigned> &erasures = {}) const;

    bool isCodeword(const std::vector<std::uint8_t> &received) const;

  private:
    unsigned degreeOf(unsigned index) const { return n_ - 1 - index; }

    std::vector<std::uint8_t> syndromes(
        const std::vector<std::uint8_t> &received) const;

    unsigned n_;
    unsigned k_;
    std::vector<std::uint8_t> gen_;
};

} // namespace xed::ecc::legacy

#endif // XED_TESTS_SUPPORT_CODEC_REFERENCE_HH
