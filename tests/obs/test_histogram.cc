/**
 * @file
 * Tests for the log-bucketed concurrent Histogram (common/metrics.hh):
 * bucket-index goldens, the 1/16-relative-width quantile accuracy
 * bound, the exact/associative/commutative merge contract, and a
 * many-thread update race (also exercised under TSan by
 * scripts/check.sh tsan via `ctest -L obs`).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/metrics.hh"

namespace xed
{
namespace
{

TEST(Histogram, UnderflowBucketCatchesUnusableValues)
{
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(-1.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::numeric_limits<double>::quiet_NaN()),
              0u);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::numeric_limits<double>::infinity()),
              0u);
}

TEST(Histogram, BucketIndexGoldens)
{
    // 1.0 = 0.5 * 2^1: the first sub-bucket of the exponent-1 octave.
    const unsigned octave1 =
        1 +
        static_cast<unsigned>(1 - Histogram::minExponent) *
            Histogram::subBuckets;
    EXPECT_EQ(Histogram::bucketIndex(1.0), octave1);
    EXPECT_EQ(Histogram::bucketIndex(1.5), octave1 + 4);
    EXPECT_EQ(Histogram::bucketIndex(1.999), octave1 + 7);
    EXPECT_EQ(Histogram::bucketIndex(2.0),
              octave1 + Histogram::subBuckets);
    // Values outside the tracked [2^-32, 2^32) range clamp to the
    // edge buckets -- update() must never index past the array.
    EXPECT_EQ(Histogram::bucketIndex(1e-12), 1u);
    EXPECT_EQ(Histogram::bucketIndex(5e9),
              Histogram::bucketCount - 1);
    EXPECT_EQ(Histogram::bucketIndex(1e12),
              Histogram::bucketCount - 1);
    EXPECT_EQ(Histogram::bucketCount, 513u);
}

TEST(Histogram, BucketIndexIsMonotonic)
{
    unsigned last = 0;
    for (double v = 1e-10; v < 1e10; v *= 1.05) {
        const unsigned index = Histogram::bucketIndex(v);
        EXPECT_GE(index, last) << "v=" << v;
        last = index;
    }
    EXPECT_LT(last, Histogram::bucketCount);
}

TEST(Histogram, BucketValueIsWithinRelativeWidth)
{
    // Within the tracked range the representative (midpoint) of a
    // value's bucket is within half the bucket width, i.e. 1/16 of
    // the value -- the advertised quantile error bound.
    for (double v = 1e-9; v < 4e9; v *= 1.37) {
        const unsigned index = Histogram::bucketIndex(v);
        const double rep = Histogram::bucketValue(index);
        EXPECT_NEAR(rep, v, v / 16.0) << "v=" << v;
    }
}

TEST(Histogram, QuantileGoldens)
{
    Histogram empty;
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.quantile(0.5), 0.0);

    Histogram single;
    single.update(4.0);
    const double rep =
        Histogram::bucketValue(Histogram::bucketIndex(4.0));
    EXPECT_EQ(single.quantile(0.0), rep);
    EXPECT_EQ(single.quantile(0.5), rep);
    EXPECT_EQ(single.quantile(1.0), rep);

    Histogram uniform;
    for (int i = 1; i <= 100; ++i)
        uniform.update(static_cast<double>(i));
    EXPECT_EQ(uniform.count(), 100u);
    EXPECT_NEAR(uniform.quantile(0.50), 50.0, 50.0 / 16.0);
    EXPECT_NEAR(uniform.quantile(0.90), 90.0, 90.0 / 16.0);
    EXPECT_NEAR(uniform.quantile(0.99), 99.0, 99.0 / 16.0);
    EXPECT_NEAR(uniform.quantile(1.00), 100.0, 100.0 / 16.0);
}

/** Deterministic pseudo-random fill spanning ~12 octaves around 1. */
void
fill(Histogram &histogram, std::uint64_t seed, unsigned n)
{
    std::uint64_t state = seed;
    for (unsigned i = 0; i < n; ++i) {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        const double frac =
            1.0 + static_cast<double>(state >> 40) * 0x1p-24;
        histogram.update(
            std::ldexp(frac, static_cast<int>(state % 12) - 6));
    }
}

void
expectEqualBuckets(const Histogram &a, const Histogram &b)
{
    for (unsigned i = 0; i < Histogram::bucketCount; ++i)
        ASSERT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
}

TEST(Histogram, MergeMatchesPooledUpdates)
{
    Histogram pooled;
    fill(pooled, 11, 500);
    fill(pooled, 23, 700);

    Histogram a;
    Histogram b;
    fill(a, 11, 500);
    fill(b, 23, 700);
    a.merge(b);

    EXPECT_EQ(a.count(), 1200u);
    expectEqualBuckets(a, pooled);
}

TEST(Histogram, MergeIsAssociativeAndCommutative)
{
    Histogram a;
    Histogram b;
    Histogram c;
    fill(a, 1, 400);
    fill(b, 2, 300);
    fill(c, 3, 200);

    Histogram leftFold; // (a + b) + c
    leftFold.merge(a);
    leftFold.merge(b);
    leftFold.merge(c);

    Histogram bc; // a + (b + c)
    bc.merge(b);
    bc.merge(c);
    Histogram rightFold;
    rightFold.merge(a);
    rightFold.merge(bc);

    Histogram reversed; // c + b + a
    reversed.merge(c);
    reversed.merge(b);
    reversed.merge(a);

    EXPECT_EQ(leftFold.count(), 900u);
    expectEqualBuckets(leftFold, rightFold);
    expectEqualBuckets(leftFold, reversed);
}

TEST(Histogram, ConcurrentUpdatesAreLossless)
{
    constexpr unsigned threads = 8;
    constexpr std::uint64_t perThread = 20000;
    Histogram shared;
    std::vector<Histogram> own(threads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&shared, &own, t] {
            for (std::uint64_t i = 0; i < perThread; ++i) {
                shared.update(0.001 * static_cast<double>(1 + i % 997));
                if (i % 1024 == 0)
                    own[t].update(1.0);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    EXPECT_EQ(shared.count(), threads * perThread);
    // The per-thread histograms reduce exactly.
    Histogram total;
    for (const Histogram &histogram : own)
        total.merge(histogram);
    EXPECT_EQ(total.count(), threads * (1 + (perThread - 1) / 1024));
}

// ---- Fleet-scale accumulation ------------------------------------
// A million-DIMM fleet campaign pushes per-epoch event counts through
// these histograms for years of simulated time, so the counters must
// be exact well past 2^32. Direct updates at that scale are too slow
// for a unit test; repeated self-merge doubles the buckets exactly
// (merge loads the addend before fetch_add, so merge(self) is 2x).

/** @p doublings exact doublings of @p h via self-merge. */
void
doubleHistogram(Histogram &h, unsigned doublings)
{
    for (unsigned i = 0; i < doublings; ++i)
        h.merge(h);
}

TEST(Histogram, CountsAccumulatePastUint32Exactly)
{
    Histogram h;
    h.update(1.0);
    h.update(1.0);
    h.update(1.0);
    doubleHistogram(h, 33);
    const std::uint64_t expected = 3ull << 33; // ~2.6e10 > 2^32
    EXPECT_EQ(h.count(), expected);
    EXPECT_EQ(h.bucket(Histogram::bucketIndex(1.0)), expected);
    // A subsequent single update still lands exactly.
    h.update(1.0);
    EXPECT_EQ(h.count(), expected + 1);
}

TEST(Histogram, QuantilesInterpolateAtFleetScaleCounts)
{
    // 2^33 samples at 0.5 and 3 * 2^33 at 256.0: the quartile boundary
    // sits exactly on the low bucket's last sample.
    Histogram low, high;
    low.update(0.5);
    doubleHistogram(low, 33);
    high.update(256.0);
    high.update(256.0);
    high.update(256.0);
    doubleHistogram(high, 33);
    Histogram all;
    all.merge(low);
    all.merge(high);
    ASSERT_EQ(all.count(), 4ull << 33);

    const double lowValue =
        Histogram::bucketValue(Histogram::bucketIndex(0.5));
    const double highValue =
        Histogram::bucketValue(Histogram::bucketIndex(256.0));
    EXPECT_EQ(all.quantile(0.10), lowValue);
    EXPECT_EQ(all.quantile(0.25), lowValue);
    EXPECT_EQ(all.quantile(0.26), highValue);
    EXPECT_EQ(all.quantile(0.90), highValue);
    EXPECT_EQ(all.quantile(1.0), highValue);
}

TEST(Histogram, MergeIsAssociativeAcrossShards)
{
    // Three shard histograms with overlapping but distinct
    // distributions, reduced in every association/order: identical
    // buckets everywhere -- the property the distributed merge and
    // the fleet per-cohort reductions rely on.
    Histogram a, b, c;
    for (unsigned i = 1; i <= 60; ++i) {
        a.update(0.001 * i);
        if (i % 2 == 0)
            b.update(0.5 * i);
        if (i % 3 == 0)
            c.update(16.0 * i);
    }
    doubleHistogram(a, 30);
    doubleHistogram(b, 31);
    doubleHistogram(c, 32);

    Histogram leftFold; // (a + b) + c
    leftFold.merge(a);
    leftFold.merge(b);
    leftFold.merge(c);
    Histogram rightFold; // a + (b + c)
    Histogram bc;
    bc.merge(b);
    bc.merge(c);
    rightFold.merge(a);
    rightFold.merge(bc);
    Histogram reversed; // c + b + a
    reversed.merge(c);
    reversed.merge(b);
    reversed.merge(a);

    EXPECT_GT(leftFold.count(),
              std::uint64_t{1} << 32); // fleet-scale totals
    for (unsigned i = 0; i < Histogram::bucketCount; ++i) {
        EXPECT_EQ(leftFold.bucket(i), rightFold.bucket(i)) << i;
        EXPECT_EQ(leftFold.bucket(i), reversed.bucket(i)) << i;
    }
    EXPECT_EQ(leftFold.quantile(0.5), rightFold.quantile(0.5));
    EXPECT_EQ(leftFold.quantile(0.5), reversed.quantile(0.5));
}

} // namespace
} // namespace xed
