/**
 * @file
 * Atomic counters and histograms for live run telemetry.
 *
 * The campaign runner's threads bump them on the hot path (shards
 * committed, per-cell failures, shard times) while a progress thread
 * samples them once a second and emits machine-readable status lines
 * (campaign/telemetry.hh). Every update is a single relaxed atomic op.
 */

#ifndef XED_COMMON_METRICS_HH
#define XED_COMMON_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>

namespace xed
{

/** Monotonically increasing atomic counter. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t get() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Log-bucketed concurrent histogram for latency/rate distributions
 * (shard wall times, systems/sec). Positive values map to one of 8
 * linear sub-buckets per power-of-two octave over [2^-32, 2^32), so a
 * bucket's relative width is at most 1/8 (quantile estimates are
 * within ~6.25% of the true sample quantile); zero, negative and
 * non-finite values land in a dedicated underflow bucket and values
 * beyond either edge clamp to the edge buckets.
 *
 * update() is a single relaxed fetch_add on the bucket counter, safe
 * from any number of threads. merge() folds another histogram in by
 * plain integer addition, so it is exact, associative and commutative
 * -- the same merge discipline as RunningStat::merge, letting
 * per-worker histograms reduce to the same result in any order.
 */
class Histogram
{
  public:
    static constexpr unsigned subBuckets = 8; ///< per octave
    /** frexp-exponent range of the real buckets: octave e covers
     *  [2^(e-1), 2^e), so values span [2^-32 ~ 2.3e-10, 2^32 ~ 4.3e9). */
    static constexpr int minExponent = -31;
    static constexpr int maxExponent = 33;
    static constexpr unsigned bucketCount =
        1 + static_cast<unsigned>(maxExponent - minExponent) *
                subBuckets;

    void update(double value)
    {
        buckets_[bucketIndex(value)].fetch_add(
            1, std::memory_order_relaxed);
    }

    /** Add @p count samples directly to bucket @p index (< bucketCount).
     *  The telemetry wire codec (obs/telemetry.hh) replays serialized
     *  buckets through this so a decode-and-merge is exactly
     *  Histogram::merge, with no value-to-index re-derivation. */
    void addCount(unsigned index, std::uint64_t count)
    {
        buckets_[index].fetch_add(count, std::memory_order_relaxed);
    }

    /** Fold @p other in (relaxed reads; exact integer addition). */
    void merge(const Histogram &other);

    std::uint64_t count() const;

    /**
     * Approximate q-quantile (q in [0, 1]): the representative value
     * (the arithmetic mean of the bucket's edges) of the bucket holding
     * the ceil(q * count)-th smallest sample. Returns 0 when empty.
     */
    double quantile(double q) const;

    /** The bucket a value lands in (exposed for the property tests). */
    static unsigned bucketIndex(double value);
    /** Representative (midpoint) value of a bucket. */
    static double bucketValue(unsigned index);

    std::uint64_t bucket(unsigned index) const
    {
        return buckets_[index].load(std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::uint64_t>, bucketCount> buckets_{};
};

} // namespace xed

#endif // XED_COMMON_METRICS_HH
