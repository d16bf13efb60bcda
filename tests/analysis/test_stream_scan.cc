/**
 * @file
 * scanStream (common/stream_scan.hh) against serial loops over the
 * same stream, at 1 to 7 workers: every match in stream order, an
 * early stop at the match the caller declines, no thread for a scan
 * that ends in the first chunk, and Figure 6's and Table III's
 * Monte-Carlo equal to the old serial loops in tests/support/.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "analysis/catchword_mc.hh"
#include "common/rng.hh"
#include "common/stream_scan.hh"
#include "tests/support/catchword_reference.hh"
#include "tests/support/scoped_threads_env.hh"

namespace xed
{
namespace
{

const char *const workerCounts[] = {"1", "2", "3", "4", "5", "6", "7"};

/** About one draw in 1024 matches: ~1k matches per chunk. */
bool
rareDraw(Rng &r)
{
    return (r.next() & 0x3FF) == 0x155;
}

/** Offsets of rareDraw matches among the first @p draws of @p start. */
std::vector<std::uint64_t>
serialMatches(Rng rng, std::uint64_t draws)
{
    std::vector<std::uint64_t> offsets;
    for (std::uint64_t i = 0; i < draws; ++i)
        if (rareDraw(rng))
            offsets.push_back(i);
    return offsets;
}

TEST(StreamScan, FindsEveryMatchInOrderAtAnyWorkerCount)
{
    // Four chunks after the serial first one, the last one partial.
    const std::uint64_t limit = 4 * scanChunkDraws + 12345;
    const Rng start(0x5CA9);
    const auto want = serialMatches(start, limit);
    ASSERT_GT(want.size(), 4000u);
    for (const char *threads : workerCounts) {
        SCOPED_TRACE(threads);
        const ScopedThreadsEnv env(threads);
        std::vector<std::uint64_t> got;
        scanStream(start, limit, rareDraw, [&](std::uint64_t offset) {
            got.push_back(offset);
            return true;
        });
        EXPECT_EQ(got, want);
    }
}

TEST(StreamScan, StopsAtTheDeclinedMatch)
{
    const Rng start(0x5CA9);
    const auto all = serialMatches(start, 4 * scanChunkDraws);
    // The stop lands in the third chunk; no offset after it arrives.
    const std::size_t stopAt = all.size() * 5 / 8;
    for (const char *threads : workerCounts) {
        SCOPED_TRACE(threads);
        const ScopedThreadsEnv env(threads);
        std::vector<std::uint64_t> got;
        scanStream(start, ~std::uint64_t{0}, rareDraw,
                   [&](std::uint64_t offset) {
                       got.push_back(offset);
                       return got.size() <= stopAt;
                   });
        ASSERT_EQ(got.size(), stopAt + 1);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), all.begin()));
    }
}

TEST(StreamScan, ScansThatEndInTheFirstChunkStartNoThread)
{
    const ScopedThreadsEnv env("4");
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> elsewhere{false};
    const auto match = [&](Rng &r) {
        if (std::this_thread::get_id() != caller)
            elsewhere = true;
        return rareDraw(r);
    };
    const auto always = [](std::uint64_t) { return true; };
    const auto firstOnly = [](std::uint64_t) { return false; };

    scanStream(Rng(1), scanChunkDraws, match, always);
    scanStream(Rng(1), ~std::uint64_t{0}, match, firstOnly);
    EXPECT_FALSE(elsewhere);
    // ...while a longer scan does use the workers.
    scanStream(Rng(1), 3 * scanChunkDraws, match, always);
    EXPECT_TRUE(elsewhere);
}

TEST(StreamScan, Fig06MatchesSerialLoopAtAnyWorkerCount)
{
    // 150 trials draw ~9.8M values: the first chunk and ~9 more.
    for (const std::uint64_t seed : {0xC0117ull, 0x1234ull}) {
        for (const std::uint64_t trials : {0ull, 1ull, 7ull, 150ull}) {
            const double want =
                analysis::reference::writesToCollisionSum(seed, trials);
            for (const char *threads : workerCounts) {
                SCOPED_TRACE(std::to_string(seed) + " " +
                             std::to_string(trials) + " " + threads);
                const ScopedThreadsEnv env(threads);
                EXPECT_EQ(static_cast<double>(
                              analysis::monteCarloWritesToCollision(
                                  seed, trials)),
                          want);
            }
        }
    }
}

TEST(StreamScan, Table3MatchesSerialLoopAtAnyWorkerCount)
{
    // 400k accesses scan up to 3.6M draws per rate, so every rate
    // crosses chunks; at 1e-2 most accesses stop early, at 1e-6 few
    // draws match at all. One stream runs through all the rates, so a
    // wrong advance shows in the next rate and in the draw after.
    const double rates[] = {1e-2, 1e-3, 1e-4, 1e-6};
    for (const std::uint64_t accesses : {0ull, 1ull, 400000ull}) {
        Rng reference(0x7AB3);
        std::vector<std::uint64_t> want;
        for (const double rate : rates)
            want.push_back(analysis::reference::multiCatchWordAccesses(
                reference, rate, accesses));
        const std::uint64_t nextWant = reference.next();
        for (const char *threads : workerCounts) {
            SCOPED_TRACE(std::to_string(accesses) + " " + threads);
            const ScopedThreadsEnv env(threads);
            Rng rng(0x7AB3);
            std::vector<std::uint64_t> got;
            for (const double rate : rates)
                got.push_back(analysis::monteCarloMultiCatchWordAccesses(
                    rng, rate, accesses));
            EXPECT_EQ(got, want);
            EXPECT_EQ(rng.next(), nextWant);
        }
    }
}

} // namespace
} // namespace xed
