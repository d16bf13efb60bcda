/**
 * @file
 * Deterministic pseudo-random number generation for the simulators.
 *
 * All Monte-Carlo components take an explicit Rng so that every experiment
 * is reproducible from a seed. The generator is xoshiro256**, which is far
 * faster than std::mt19937_64 and has no measurable bias for the uses in
 * this project (fault arrival sampling, address selection, error-pattern
 * injection).
 */

#ifndef XED_COMMON_RNG_HH
#define XED_COMMON_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace xed
{

/** xoshiro256** by Blackman & Vigna, seeded via splitmix64. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
    {
        // splitmix64 seeding avoids correlated low-entropy states.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9E3779B97F4A7C15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            word = z ^ (z >> 31);
        }
    }

    /** Next uniformly distributed 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire's multiply-shift. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Rejection-free for our purposes: bias is < 2^-64 * bound.
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /**
     * Exponentially distributed variate with the given rate
     * (mean 1/rate). Used for fault inter-arrival times.
     */
    double
    exponential(double rate)
    {
        // 1 - uniform() is in (0, 1], avoiding log(0).
        return -std::log(1.0 - uniform()) / rate;
    }

    /**
     * Counter-based stream derivation: a deterministic, independent
     * stream for (seed, index) that does NOT depend on how many values
     * any other stream has consumed. The Monte-Carlo engine gives
     * system s the stream Rng::stream(config.seed, s), which makes the
     * results bit-identical for any worker-thread count (including 1).
     *
     * Contrast with fork(): forking advances the parent generator, so
     * the stream a system receives would depend on how many draws every
     * system before it made -- fine for a fixed serial order, useless
     * for reproducible sharding.
     */
    static Rng
    stream(std::uint64_t seed, std::uint64_t index)
    {
        // Two independent splitmix64 passes decorrelate seed and index
        // before the constructor's own splitmix64 expansion.
        return streamMixed(mixSeed(seed), index);
    }

    /**
     * The seed half of stream()'s derivation, hoisted: callers looping
     * over many stream indices (the Monte-Carlo system loop) mix the
     * seed once and derive each stream with streamMixed(). For any
     * seed, streamMixed(mixSeed(seed), i) == stream(seed, i).
     */
    static std::uint64_t mixSeed(std::uint64_t seed)
    {
        return mix64(seed);
    }

    static Rng
    streamMixed(std::uint64_t mixedSeed, std::uint64_t index)
    {
        return Rng(mixedSeed ^ mix64(~index * 0xD2B74407B1CE6E93ull));
    }

    /**
     * Fork an independent stream by drawing from this generator.
     * Suitable for handing a child component its own RNG at a fixed
     * point in a serial program; NOT suitable for per-system
     * parallelism (see stream()).
     */
    Rng
    fork()
    {
        return Rng(next() ^ 0xD2B74407B1CE6E93ull);
    }

    /**
     * Advance the state by @p draws calls of next() in O(log draws)
     * GF(2) polynomial steps plus 256 state updates (rng.cc), so a
     * worker can start scanning one stream at any offset and the scan
     * still sees the draws a serial loop would (DESIGN.md section 4b).
     */
    void jump(std::uint64_t draws);

    /** The raw xoshiro256** state, for kernels that step several
     *  streams side by side (ecc/detect_lanes.cc). */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {state_[0], state_[1], state_[2], state_[3]};
    }

  private:
    /** splitmix64 finalizer (Steele, Lea & Flood). */
    static std::uint64_t
    mix64(std::uint64_t z)
    {
        z += 0x9E3779B97F4A7C15ull;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace xed

#endif // XED_COMMON_RNG_HH
