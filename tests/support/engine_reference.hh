/**
 * @file
 * The Monte-Carlo engine's per-system body as it ran before the
 * zero-fault filter handed its survivors on mid-stream (DESIGN.md
 * section 4j): every system derives its stream, draws each
 * channel's count, samples and evaluates its faults on the scalar
 * path, and books a failure at once. The per-level tests hold
 * runMonteCarlo() and runMonteCarloShard() McResult-identical to it.
 */

#ifndef XED_TESTS_SUPPORT_ENGINE_REFERENCE_HH
#define XED_TESTS_SUPPORT_ENGINE_REFERENCE_HH

#include <cstdint>
#include <string>

#include "faultsim/engine.hh"

namespace xed::faultsim
{

/** Systems [begin, end) of @p config, one after another. */
McResult referenceMonteCarloShard(const Scheme &scheme,
                                  const McConfig &config,
                                  std::uint64_t begin, std::uint64_t end);

/** The first field in which @p a and @p b differ -- per-year counts,
 *  failure types, attribution, autopsy exemplars in order -- or an
 *  empty string when the results are identical. */
std::string mcResultDifference(const McResult &a, const McResult &b);

} // namespace xed::faultsim

#endif // XED_TESTS_SUPPORT_ENGINE_REFERENCE_HH
