/**
 * @file
 * The scaled-down Monte-Carlo checks printed beside the closed forms
 * of Figure 6 (collision.hh) and Table III (multi_catchword.hh). Each
 * scans one RNG stream on XED_MC_THREADS workers (scanStream,
 * common/stream_scan.hh) and returns what the benches' old serial
 * loops returned, at any thread count (DESIGN.md section 4b). They
 * live apart from the closed forms, so binaries that use only those
 * do not link the scan.
 */

#ifndef XED_ANALYSIS_CATCHWORD_MC_HH
#define XED_ANALYSIS_CATCHWORD_MC_HH

#include <cstdint>

#include "common/rng.hh"

namespace xed::analysis
{

/**
 * Figure 6: draw a 16-bit catch-word from Rng(@p seed), then, @p trials
 * times, count 16-bit writes from the same stream up to and including
 * the first that equals it. Returns the writes summed over the trials;
 * their mean must be near 2^16.
 */
std::uint64_t monteCarloWritesToCollision(std::uint64_t seed,
                                          std::uint64_t trials);

/**
 * Table III: @p accesses accesses, each drawing
 * rng.bernoulli(probWordHasScalingFault(@p scalingRate)) for one of
 * the 9 chips after another until two chips send a catch-word or all
 * 9 have been drawn. Returns the accesses that got two catch-words and
 * leaves @p rng after the draws the accesses used, as the serial loop
 * does.
 */
std::uint64_t monteCarloMultiCatchWordAccesses(Rng &rng,
                                               double scalingRate,
                                               std::uint64_t accesses);

} // namespace xed::analysis

#endif // XED_ANALYSIS_CATCHWORD_MC_HH
