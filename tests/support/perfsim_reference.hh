/**
 * @file
 * The per-cycle simulation loop simulate() used before it became
 * wake-up driven, kept as the reference half of the perfsim
 * bit-identity contract: ModeProperty.MatchesPerCycleReference* in
 * tests/perfsim/test_perf_properties.cc requires every RunResult field
 * of simulate() to equal this loop's, bit for bit, across the paper
 * matrix and stress configurations.
 *
 * This is a deliberate verbatim copy: the memory system and every core
 * are ticked on every cycle through the same public tick() calls. Do
 * not "optimize" it -- its value is being the old loop.
 */

#ifndef XED_TESTS_SUPPORT_PERFSIM_REFERENCE_HH
#define XED_TESTS_SUPPORT_PERFSIM_REFERENCE_HH

#include "perfsim/system.hh"

namespace xed::perfsim::reference
{

/** simulate(), ticking every component on every cycle. */
RunResult simulate(const Workload &workload, ProtectionMode mode,
                   const PerfConfig &config);

/**
 * gtest-expect every RunResult field equal: labels, cycles, all nine
 * MemStats counters and the four power terms, doubles compared as bit
 * patterns.
 */
void expectBitIdentical(const RunResult &got, const RunResult &want);

} // namespace xed::perfsim::reference

#endif // XED_TESTS_SUPPORT_PERFSIM_REFERENCE_HH
