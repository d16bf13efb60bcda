/**
 * @file
 * runOrdered (common/ordered_pool.hh), the pool behind the stream
 * scans, the store loaders, the campaign runner and the perfsim run
 * matrix, at 0 to 7 workers with random produce times: items reach the
 * consumer in index order, no more than the window is ever claimed and
 * unreleased, a run's slots stay put until consume returns, a stop
 * joins every worker, exceptions arrive in index order or not at all,
 * a false claim ends the input and no worker means no thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/ordered_pool.hh"

namespace xed
{
namespace
{

constexpr unsigned maxWorkers = 7;
constexpr std::uint64_t items = 120;

/** A value no other item of a run shares. */
std::uint64_t
payload(std::uint64_t k)
{
    return k * 0x9E3779B97F4A7C15ull + 1;
}

/** Sleep 0-150 us, pseudo-randomly per (item, salt), so workers finish
 *  out of order. */
void
randomPause(std::uint64_t k, std::uint64_t salt = 0)
{
    std::uint64_t h = (k + 1) * 0xBF58476D1CE4E5B9ull ^ salt;
    h ^= h >> 31;
    std::this_thread::sleep_for(std::chrono::microseconds(h % 151));
}

/** Threads of this process, or 0 where /proc does not list them. */
std::size_t
threadsInProcess()
{
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/task", ec);
    if (ec)
        return 0;
    std::size_t count = 0;
    for (; it != std::filesystem::directory_iterator(); ++it)
        ++count;
    return count;
}

struct Slot
{
    std::uint64_t value = 0;
    std::atomic<bool> inConsume{false};
};

TEST(OrderedPool, ConsumesEveryItemInIndexOrder)
{
    for (unsigned workers = 0; workers <= maxWorkers; ++workers) {
        for (const std::uint64_t window : {1u, 2u, 5u, 16u}) {
            SCOPED_TRACE(std::to_string(workers) + " workers, window " +
                         std::to_string(window));
            std::vector<std::uint64_t> seen;
            runOrdered<Slot>(
                workers, window,
                [](std::uint64_t k, Slot &) { return k < items; },
                [workers](std::uint64_t k, Slot &slot) {
                    randomPause(k, workers);
                    slot.value = payload(k);
                },
                [&](const OrderedRun<Slot> &run) {
                    EXPECT_EQ(run.begin, seen.size());
                    EXPECT_LT(run.begin, run.end);
                    EXPECT_LE(run.end - run.begin, workers ? window : 1);
                    for (std::uint64_t k = run.begin; k < run.end; ++k) {
                        EXPECT_EQ(run[k].value, payload(k));
                        seen.push_back(k);
                    }
                    return true;
                });
            ASSERT_EQ(seen.size(), items);
        }
    }
}

TEST(OrderedPool, ClaimsNoMoreThanTheWindowAhead)
{
    for (unsigned workers = 1; workers <= maxWorkers; ++workers) {
        for (const std::uint64_t window : {1u, 3u, 8u}) {
            SCOPED_TRACE(std::to_string(workers) + " workers, window " +
                         std::to_string(window));
            // Items consumed, counted before the pool releases them:
            // never fewer than the pool's released count.
            std::atomic<std::uint64_t> consumed{0};
            runOrdered<Slot>(
                workers, window,
                [](std::uint64_t k, Slot &) { return k < items; },
                [&](std::uint64_t k, Slot &) {
                    // Items 0..k are claimed, and the first `consumed`
                    // of them released at most.
                    EXPECT_LE(k + 1 - consumed.load(), window)
                        << "item " << k;
                    randomPause(k, window);
                },
                [&](const OrderedRun<Slot> &run) {
                    randomPause(run.begin, 7);
                    consumed += run.end - run.begin;
                    return true;
                });
            EXPECT_EQ(consumed.load(), items);
        }
    }
}

TEST(OrderedPool, ARunsSlotsAreNotReusedBeforeConsumeReturns)
{
    for (unsigned workers = 1; workers <= maxWorkers; ++workers) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        std::uint64_t total = 0;
        runOrdered<Slot>(
            workers, 2 * std::uint64_t{workers},
            [](std::uint64_t k, Slot &slot) {
                EXPECT_FALSE(slot.inConsume.load()) << "item " << k;
                return k < items;
            },
            [](std::uint64_t k, Slot &slot) {
                EXPECT_FALSE(slot.inConsume.load()) << "item " << k;
                randomPause(k);
                slot.value = payload(k);
            },
            [&](const OrderedRun<Slot> &run) {
                for (std::uint64_t k = run.begin; k < run.end; ++k)
                    run[k].inConsume = true;
                // The workers run on meanwhile; none may refill a slot
                // of this run.
                randomPause(run.begin, 3);
                for (std::uint64_t k = run.begin; k < run.end; ++k) {
                    EXPECT_EQ(run[k].value, payload(k));
                    run[k].inConsume = false;
                }
                total += run.end - run.begin;
                return true;
            });
        EXPECT_EQ(total, items);
    }
}

TEST(OrderedPool, AStopJoinsEveryWorkerParkedOnesIncluded)
{
    // A sanitizer runtime starts a helper thread with the first thread.
    std::thread([] {}).join();
    for (unsigned workers = 1; workers <= maxWorkers; ++workers) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        const std::size_t before = threadsInProcess();
        std::atomic<bool> returned{false};
        std::atomic<std::uint64_t> produced{0};
        std::size_t during = 0;
        // A window of two: item 0 takes long, so the workers that find
        // no claimable item park on the window until the stop.
        runOrdered<Slot>(
            workers, 2,
            [&](std::uint64_t, Slot &) {
                EXPECT_FALSE(returned.load());
                return true; // an endless input
            },
            [&](std::uint64_t k, Slot &) {
                EXPECT_FALSE(returned.load());
                if (k == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                ++produced;
            },
            [&](const OrderedRun<Slot> &run) {
                EXPECT_EQ(run.begin, 0u);
                during = threadsInProcess();
                return false;
            });
        returned = true;
        EXPECT_LE(produced.load(), 2u);
        if (before == 0)
            continue; // no /proc: the return itself shows the joins
        EXPECT_EQ(during, before + workers);
        // A joined thread may linger in /proc for a moment.
        std::size_t after = threadsInProcess();
        for (int i = 0; i < 200 && after != before; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            after = threadsInProcess();
        }
        EXPECT_EQ(after, before);
    }
}

TEST(OrderedPool, AnExceptionArrivesAfterEveryEarlierItemOrNotAtAll)
{
    constexpr std::uint64_t failing = 37;
    for (unsigned workers = 0; workers <= maxWorkers; ++workers) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        for (const bool inClaim : {false, true}) {
            SCOPED_TRACE(inClaim ? "claim throws" : "produce throws");
            const auto claim = [&](std::uint64_t k, Slot &) {
                if (inClaim && k == failing)
                    throw std::runtime_error("item 37");
                // Window 4: nothing past item 40 is ever claimed.
                EXPECT_LE(k, failing + 3);
                return k < items;
            };
            const auto produce = [&](std::uint64_t k, Slot &slot) {
                randomPause(k, workers);
                if (!inClaim && k == failing)
                    throw std::runtime_error("item 37");
                slot.value = payload(k);
            };
            // Every item before the failing one arrives, then the
            // exception.
            std::vector<std::uint64_t> seen;
            const auto record = [&](const OrderedRun<Slot> &run) {
                for (std::uint64_t k = run.begin; k < run.end; ++k) {
                    EXPECT_EQ(run[k].value, payload(k));
                    seen.push_back(k);
                }
                return true;
            };
            EXPECT_THROW(runOrdered<Slot>(workers, 4, claim, produce, record),
                         std::runtime_error);
            ASSERT_EQ(seen.size(), failing);
            for (std::uint64_t k = 0; k < failing; ++k)
                EXPECT_EQ(seen[k], k);

            // A consumer that stops before the failing item, at it or
            // earlier, never sees the exception.
            for (const std::uint64_t stopAt : {failing - 1, std::uint64_t{9}}) {
                seen.clear();
                EXPECT_NO_THROW(runOrdered<Slot>(
                    workers, 4, claim, produce,
                    [&](const OrderedRun<Slot> &run) {
                        for (std::uint64_t k = run.begin; k < run.end; ++k)
                            seen.push_back(k);
                        return run.end <= stopAt;
                    }));
                EXPECT_GT(seen.size(), stopAt);
                EXPECT_LE(seen.size(), failing);
            }
        }
    }
}

TEST(OrderedPool, ClaimReturningFalseEndsTheInput)
{
    // A sequential input, read in claim order under the pool's lock.
    std::string text;
    for (std::uint64_t k = 0; k < items; ++k)
        text += std::to_string(payload(k)) + "\n";
    for (unsigned workers = 0; workers <= maxWorkers; ++workers) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        std::istringstream in(text);
        std::vector<std::uint64_t> claims; // guarded by the pool's lock
        std::uint64_t consumed = 0;
        runOrdered<Slot>(
            workers, 3,
            [&](std::uint64_t k, Slot &slot) {
                claims.push_back(k);
                return static_cast<bool>(in >> slot.value);
            },
            [](std::uint64_t k, Slot &) { randomPause(k, 5); },
            [&](const OrderedRun<Slot> &run) {
                for (std::uint64_t k = run.begin; k < run.end; ++k)
                    EXPECT_EQ(run[k].value, payload(consumed++));
                return true;
            });
        EXPECT_EQ(consumed, items);
        // Every item claimed once, in order, and the end once.
        ASSERT_EQ(claims.size(), items + 1);
        for (std::uint64_t k = 0; k <= items; ++k)
            EXPECT_EQ(claims[k], k);
    }
}

TEST(OrderedPool, NoWorkersStartNoThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    const std::size_t before = threadsInProcess();
    std::vector<std::string> events;
    const auto onCaller = [&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(threadsInProcess(), before);
    };
    runOrdered<Slot>(
        0, 8,
        [&](std::uint64_t k, Slot &) {
            onCaller();
            events.push_back("claim " + std::to_string(k));
            return k < 3;
        },
        [&](std::uint64_t k, Slot &) {
            onCaller();
            events.push_back("produce " + std::to_string(k));
        },
        [&](const OrderedRun<Slot> &run) {
            onCaller();
            EXPECT_EQ(run.end, run.begin + 1);
            events.push_back("consume " + std::to_string(run.begin));
            return true;
        });
    // Each item is claimed, produced and consumed before the next.
    EXPECT_EQ(events, (std::vector<std::string>{
                          "claim 0", "produce 0", "consume 0", "claim 1",
                          "produce 1", "consume 1", "claim 2", "produce 2",
                          "consume 2", "claim 3"}));
}

} // namespace
} // namespace xed
