/**
 * @file
 * Tests for the telemetry counters and histograms: basic semantics and
 * concurrent hot-path updates (also exercised under TSan by the
 * campaign smoke flow).
 */

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "common/metrics.hh"

using namespace xed;

TEST(Metrics, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.get(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.get(), 42u);
}

TEST(Metrics, HistogramBasics)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0); // empty: no estimate
    h.update(1.0);
    h.update(2.0);
    h.update(4.0);
    EXPECT_EQ(h.count(), 3u);
    // The median of {1, 2, 4} sits in 2.0's bucket.
    EXPECT_EQ(h.quantile(0.5),
              Histogram::bucketValue(Histogram::bucketIndex(2.0)));
}

TEST(Metrics, ConcurrentUpdatesAreLossless)
{
    constexpr unsigned threads = 8;
    constexpr std::uint64_t perThread = 20000;
    Counter shared;
    std::array<Counter, threads> own;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&shared, &own, t] {
            for (std::uint64_t i = 0; i < perThread; ++i) {
                shared.add();
                if (i % 1024 == 0)
                    own[t].add();
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(shared.get(), threads * perThread);
    for (const Counter &counter : own)
        EXPECT_EQ(counter.get(), 1 + (perThread - 1) / 1024);
}
