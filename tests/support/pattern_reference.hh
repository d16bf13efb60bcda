/**
 * @file
 * Per-trial error-pattern generators: one Word72 per call, built bit
 * by bit. They are the reference the batched fills (ecc/error_patterns)
 * and the detection lane kernel (ecc/detect_lanes) are held to: the
 * same patterns from the same draws of the same stream.
 */

#ifndef XED_TESTS_SUPPORT_PATTERN_REFERENCE_HH
#define XED_TESTS_SUPPORT_PATTERN_REFERENCE_HH

#include <span>

#include "common/rng.hh"
#include "ecc/word72.hh"

namespace xed::ecc::reference
{

/** A random pattern with exactly @p weight bits set among 72. */
Word72 randomPattern(Rng &rng, unsigned weight);

/**
 * A burst pattern of span exactly @p length: a uniformly random window
 * start, the first and last bits of the window flipped, interior bits
 * flipped independently with probability 1/2. For length <= 2 this is a
 * solid flip of the whole window.
 */
Word72 burstPattern(Rng &rng, unsigned length);

/**
 * A solid burst: @p length consecutive bit flips at a random start.
 * This is the adversarial case for naturally-ordered Hamming codes
 * (about half of all aligned 4-bursts have a zero syndrome).
 */
Word72 solidBurstPattern(Rng &rng, unsigned length);

/** burstPattern() into every element of @p out, in order. */
void burstPatternsInto(Rng &rng, unsigned length, std::span<Word72> out);

} // namespace xed::ecc::reference

#endif // XED_TESTS_SUPPORT_PATTERN_REFERENCE_HH
