/**
 * @file
 * Vectorized zero-fault filter for the Monte-Carlo engine, and the
 * hand-off of its survivors to the engine's fault sampling.
 *
 * Under the Knuth Poisson sampler, a channel lifetime is zero-fault
 * iff its single count draw satisfies (next() >> 11) <= zeroMax
 * (SampleContext's integer form of u <= exp(-lambda)), and a
 * zero-fault channel consumes exactly that one draw. So a whole
 * system is zero-fault iff the FIRST `channels` raw draws of its
 * stream each pass the compare. That makes the filter a pure function
 * of (mixedSeed, system index): the kernels run splitmix64 seeding
 * plus `channels` xoshiro256** steps across 8 lanes of 64-bit
 * vectors. At Table I rates >= 93% of channels are zero-fault, so
 * this is the dominant branch of the engine loop.
 *
 * A system that fails the compare on some channel (a survivor) does
 * not start over: with masked blends in the same channel loop the
 * kernels keep its stream state just after its first nonzero draw,
 * that draw and its channel, which is exactly where the scalar body
 * stands after SampleContext::sampleFaultCount() has drawn u0 > zeroMax
 * on that channel. The engine continues each survivor's stream from
 * there. Every level returns the same block.
 */

#ifndef XED_FAULTSIM_ZERO_FILTER_HH
#define XED_FAULTSIM_ZERO_FILTER_HH

#include <cstdint>

#include "common/simd.hh"

namespace xed::faultsim
{

/** Systems one screenBlock() call covers: one 64-bit survivor mask. */
constexpr unsigned blockSystems = 64;

/**
 * The systems of one block that drew a fault, and where each one's
 * stream stands. Entries of systems that are not survivors are
 * unspecified.
 */
struct SurvivorBlock
{
    /** Bit i set iff system first + i drew a fault on some channel. */
    std::uint64_t survivors = 0;
    /** xoshiro256** state words just after the first nonzero draw. */
    alignas(64) std::uint64_t state[4][blockSystems];
    /** That draw, already shifted to 53 bits (> zeroMax). */
    alignas(64) std::uint64_t draw[blockSystems];
    /** The channel it was drawn for. */
    alignas(64) std::uint64_t channel[blockSystems];
};

/**
 * Screen systems [first, first + count) with @p count <= blockSystems:
 * system first + i is a survivor iff one of the first @p channels
 * draws of stream (mixedSeed, first + i) has (draw >> 11) > zeroMax,
 * and its entries hold the state after the first such draw, the draw
 * and its channel. AVX-512 and AVX2 screen 8 systems per step (4x2 on
 * AVX2); the other levels replay each stream with an Rng.
 */
void screenBlock(SimdLevel level, std::uint64_t mixedSeed,
                 std::uint64_t first, unsigned count, unsigned channels,
                 std::uint64_t zeroMax, SurvivorBlock &block);

} // namespace xed::faultsim

#endif // XED_FAULTSIM_ZERO_FILTER_HH
