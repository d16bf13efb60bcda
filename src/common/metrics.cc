#include "common/metrics.hh"

#include <cmath>

namespace xed
{

unsigned
Histogram::bucketIndex(double value)
{
    if (!(value > 0.0) || !std::isfinite(value))
        return 0;
    int exp = 0;
    // frexp: value = frac * 2^exp with frac in [0.5, 1).
    double frac = std::frexp(value, &exp);
    if (exp < minExponent)
        return 1; // underflow clamps to the smallest real bucket
    // Octave exp spans [2^(exp-1), 2^exp): the last real bucket ends
    // at 2^(maxExponent-1), so exp == maxExponent already overflows.
    if (exp >= maxExponent)
        return bucketCount - 1;
    auto sub = static_cast<unsigned>((frac - 0.5) * 2.0 * subBuckets);
    if (sub >= subBuckets)
        sub = subBuckets - 1;
    return 1 +
           static_cast<unsigned>(exp - minExponent) * subBuckets + sub;
}

double
Histogram::bucketValue(unsigned index)
{
    if (index == 0 || index >= bucketCount)
        return 0.0;
    unsigned linear = index - 1;
    int exp = minExponent + static_cast<int>(linear / subBuckets);
    unsigned sub = linear % subBuckets;
    double lo = std::ldexp(
        0.5 + 0.5 * static_cast<double>(sub) / subBuckets, exp);
    double hi = std::ldexp(
        0.5 + 0.5 * static_cast<double>(sub + 1) / subBuckets, exp);
    return 0.5 * (lo + hi);
}

void
Histogram::merge(const Histogram &other)
{
    for (unsigned i = 0; i < bucketCount; ++i) {
        std::uint64_t n =
            other.buckets_[i].load(std::memory_order_relaxed);
        if (n)
            buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t total = 0;
    for (const auto &b : buckets_)
        total += b.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::quantile(double q) const
{
    std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * total));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < bucketCount; ++i) {
        seen += buckets_[i].load(std::memory_order_relaxed);
        if (seen >= rank)
            return bucketValue(i);
    }
    return bucketValue(bucketCount - 1);
}

} // namespace xed
