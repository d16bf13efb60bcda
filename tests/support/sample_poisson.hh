/**
 * @file
 * Reference Poisson sampler: Knuth's product-of-uniforms method with
 * exp(-lambda) recomputed per call, exactly as the engine drew fault
 * counts before SampleContext hoisted the limit and added the integer
 * zero-draw fast path. Tests hold SampleContext::sampleFaultCount()
 * draw-for-draw identical to it.
 */

#ifndef XED_TESTS_SUPPORT_SAMPLE_POISSON_HH
#define XED_TESTS_SUPPORT_SAMPLE_POISSON_HH

#include <cmath>

#include "common/rng.hh"

namespace xed::faultsim
{

/** Sample a Poisson variate: k + 1 uniform draws for a count of k. */
inline unsigned
samplePoisson(Rng &rng, double lambda)
{
    const double limit = std::exp(-lambda);
    unsigned k = 0;
    double p = 1.0;
    do {
        ++k;
        p *= rng.uniform();
    } while (p > limit);
    return k - 1;
}

} // namespace xed::faultsim

#endif // XED_TESTS_SUPPORT_SAMPLE_POISSON_HH
