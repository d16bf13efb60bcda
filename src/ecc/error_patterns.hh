/**
 * @file
 * Error-pattern fills for the detection-rate study (Table II):
 * exact-weight random patterns and solid bursts over a 72-bit word.
 */

#ifndef XED_ECC_ERROR_PATTERNS_HH
#define XED_ECC_ERROR_PATTERNS_HH

#include <span>

#include "common/rng.hh"
#include "ecc/word72.hh"

namespace xed::ecc
{

/** Fill @p out with random patterns of exactly @p weight bits among
 *  72, each drawing rng.below(72) until @p weight distinct positions
 *  are set. No allocation. */
void randomPatternsInto(Rng &rng, unsigned weight, std::span<Word72> out);

/** Fill @p out with solid bursts of @p length flips at a start drawn
 *  as rng.below(73 - length), the adversarial case for the naturally
 *  ordered Hamming code. No allocation. */
void solidBurstPatternsInto(Rng &rng, unsigned length,
                            std::span<Word72> out);

} // namespace xed::ecc

#endif // XED_ECC_ERROR_PATTERNS_HH
