/**
 * @file
 * The serial Monte-Carlo loops of Figure 6 and Table III as the
 * benches ran them before they moved onto scanStream
 * (common/stream_scan.hh), kept as the reference half of its
 * byte-identity contract: tests/analysis/test_stream_scan.cc requires
 * monteCarloWritesToCollision and monteCarloMultiCatchWordAccesses to
 * equal these loops at every worker count.
 *
 * This is a deliberate verbatim copy. Do not "optimize" it -- its
 * value is being the old loop.
 */

#ifndef XED_TESTS_SUPPORT_CATCHWORD_REFERENCE_HH
#define XED_TESTS_SUPPORT_CATCHWORD_REFERENCE_HH

#include <cstdint>

#include "common/rng.hh"

namespace xed::analysis::reference
{

/** Figure 6's loop: the writes to collision summed over @p trials. */
double writesToCollisionSum(std::uint64_t seed, std::uint64_t trials);

/** Table III's loop for one rate: the accesses that got two or more
 *  catch-words. @p rng advances by every draw the loop made. */
std::uint64_t multiCatchWordAccesses(Rng &rng, double rate,
                                     std::uint64_t accesses);

} // namespace xed::analysis::reference

#endif // XED_TESTS_SUPPORT_CATCHWORD_REFERENCE_HH
