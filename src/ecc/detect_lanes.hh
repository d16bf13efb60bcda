/**
 * @file
 * Table II's detection trials, several shards side by side.
 *
 * A linear code detects an error pattern iff its syndrome, the XOR of
 * the parity-check columns of its positions, is nonzero (BEER's view
 * of an on-die code), whatever codeword it lands on. So a random
 * pattern XORs in the column of each new position as it draws it, and
 * a solid burst looks its syndrome up by start position.
 *
 * detectLanes() runs up to eight shards of one cell at once, one per
 * vector lane (DESIGN.md section 4i): 8 lanes on AVX-512, 4 on AVX2,
 * one shard after another on Scalar and Neon. Each lane draws its own
 * shard's stream exactly as randomPatternsInto() and
 * solidBurstPatternsInto() do (below() computed exactly from 32-bit
 * halves), so each shard's count is the per-trial loop's at every
 * level. A lane that has finished keeps drawing from its own stream
 * until the group ends; those draws are discarded.
 */

#ifndef XED_ECC_DETECT_LANES_HH
#define XED_ECC_DETECT_LANES_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hh"
#include "ecc/code.hh"

namespace xed::ecc
{

/** Most shards one detectLanes() call runs side by side. */
constexpr std::size_t maxDetectLanes = 8;

/** A (72,64) code in column form: the syndrome of every single-bit
 *  error and of every solid burst. Build one per code and reuse it. */
class DetectTables
{
  public:
    /** Tables of @p code. Throws std::logic_error unless the syndrome
     *  of every byte-lane value is the XOR of its positions' columns:
     *  linearity for a syndrome of XORed per-byte lookups, as both
     *  on-die codes' are, which the lane kernel counts on. */
    explicit DetectTables(const Secded7264 &code);

    /** Column syndromes by position; 8 readable bytes follow. */
    const std::uint8_t *columns() const { return column_.data(); }

    /** Syndromes of the solid bursts of @p length (1..72) by start
     *  position (73 - length of them); 8 readable bytes follow. */
    const std::uint8_t *
    bursts(unsigned length) const
    {
        return burst_.data() + (length - 1) * codeLength;
    }

  private:
    // The vector kernels gather 8 bytes at each looked-up index, so
    // both tables end with 8 bytes of padding.
    std::array<std::uint8_t, codeLength + 8> column_{};
    std::array<std::uint8_t, codeLength * codeLength + 8> burst_{};
};

/** One shard of a lane group: its stream and trial count, and after
 *  detectLanes() its number of detected patterns. */
struct DetectLane
{
    Rng rng;
    std::uint64_t trials = 0;
    std::uint64_t detected = 0;
};

/**
 * Run every lane's trials of one cell -- random patterns of @p weight
 * bits, or solid bursts of @p weight flips when @p burst -- and set
 * each lane's detected count. The lanes' Rngs are read, not advanced.
 * Throws std::invalid_argument unless @p weight is in [1, 72] and
 * there are at most maxDetectLanes lanes. No allocation.
 */
void detectLanes(const DetectTables &tables, bool burst, unsigned weight,
                 std::span<DetectLane> lanes);

} // namespace xed::ecc

#endif // XED_ECC_DETECT_LANES_HH
