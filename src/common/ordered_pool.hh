/**
 * @file
 * Produce numbered items on worker threads and consume them on the
 * calling thread in index order: the one pool behind the stream scans
 * (Figure 6, Table III), the store and sidecar loaders, the campaign
 * runner and the perfsim run matrix (DESIGN.md section 4b).
 *
 * Each of those jobs has parallel work that must reach one consumer in
 * order. runOrdered() decides, for all of them, how workers claim
 * items, how far they run ahead of the consumer, how an exception
 * reaches the caller and how the workers stop; a caller only says what
 * an item is.
 */

#ifndef XED_COMMON_ORDERED_POOL_HH
#define XED_COMMON_ORDERED_POOL_HH

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace xed
{

/** Consecutive produced items [begin, end), as runOrdered() hands them
 *  to its consumer. */
template <class Slot>
struct OrderedRun
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::span<Slot> slots;

    /** The slot holding item @p k, for begin <= k < end. */
    Slot &
    operator[](std::uint64_t k) const
    {
        return slots[k % slots.size()];
    }
};

/**
 * Run items k = 0, 1, 2, ... through @p window reused slots (Slot is
 * default-constructed once per slot):
 *
 * - claim(k, Slot &) runs under the pool's lock, once for each k in
 *   order, and returns false when there is no item k; no later item is
 *   then claimed. A sequential input (an istream) can so be read in
 *   claim order.
 * - produce(k, Slot &) runs on one worker, outside the lock.
 * - consume(const OrderedRun<Slot> &) runs on the calling thread. It
 *   receives each maximal run of consecutive produced items, starting
 *   at the next unconsumed one, in index order, and returns false to
 *   stop.
 *
 * A worker claims item k only while fewer than @p window items are
 * claimed and not yet released. A run's slots are released when
 * consume returns, so no worker refills a slot that consume reads.
 *
 * An exception thrown by claim(k) or produce(k) is rethrown here when
 * consumption reaches k, after every earlier item; no item after k is
 * claimed, and nothing is thrown if consumption stops first. However
 * the call ends -- at the end of the input, at a stop or by an
 * exception -- every worker is stopped and joined before it returns.
 *
 * With @p workers == 0 the calling thread claims, produces and consumes
 * each item in turn and starts no thread.
 */
template <class Slot, class Claim, class Produce, class Consume>
void
runOrdered(unsigned workers, std::uint64_t window, Claim claim,
           Produce produce, Consume consume)
{
    if (workers == 0) {
        Slot slot;
        for (std::uint64_t k = 0; claim(k, slot); ++k) {
            produce(k, slot);
            if (!consume(OrderedRun<Slot>{k, k + 1, std::span(&slot, 1)}))
                return;
        }
        return;
    }

    // Item k lives in slots[k % window] from its claim until the run
    // that holds it is released. Claimed, unreleased items never number
    // more than `window`, so no two of them share a slot.
    window = std::max<std::uint64_t>(window, 1);
    std::vector<Slot> slots(window);
    std::mutex mutex;
    std::condition_variable claimable; ///< workers: the window moved
    std::condition_variable produced;  ///< caller: item `released` is in
    std::vector<char> ready(window, 0);               ///< guarded
    std::vector<std::exception_ptr> thrown(window);   ///< guarded
    std::uint64_t claimed = 0;  ///< items claimed; guarded by mutex
    std::uint64_t released = 0; ///< items consumed; guarded by mutex
    bool ended = false; ///< no item after `claimed`; guarded by mutex
    bool stop = false;  ///< guarded by mutex

    const auto work = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            claimable.wait(lock, [&] {
                return stop || ended || claimed < released + window;
            });
            if (stop || ended)
                return;
            const std::uint64_t k = claimed;
            Slot &slot = slots[k % window];
            std::exception_ptr error;
            try {
                if (!claim(k, slot)) {
                    ended = true;
                    claimable.notify_all();
                    produced.notify_one();
                    return;
                }
            } catch (...) {
                error = std::current_exception();
            }
            ++claimed;
            if (!error) {
                lock.unlock();
                try {
                    produce(k, slot);
                } catch (...) {
                    error = std::current_exception();
                }
                lock.lock();
            }
            ready[k % window] = 1;
            thrown[k % window] = error;
            if (error) {
                ended = true;
                claimable.notify_all();
            }
            if (k == released)
                produced.notify_one();
        }
    };

    // However consumption ends, `release` stops the workers -- parked
    // ones included -- before the pool, declared before it, joins them.
    struct Release
    {
        std::mutex &mutex;
        std::condition_variable &claimable;
        bool &stop;
        ~Release()
        {
            {
                const std::lock_guard<std::mutex> lock(mutex);
                stop = true;
            }
            claimable.notify_all();
        }
    };
    std::vector<std::jthread> pool;
    const Release release{mutex, claimable, stop};
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(work);

    for (std::uint64_t next = 0;;) {
        std::uint64_t end = next;
        {
            std::unique_lock<std::mutex> lock(mutex);
            produced.wait(lock, [&] {
                return ready[next % window] || (ended && claimed == next);
            });
            if (!ready[next % window])
                return; // every item consumed
            if (thrown[next % window])
                std::rethrow_exception(thrown[next % window]);
            while (end < claimed && ready[end % window] &&
                   !thrown[end % window])
                ++end;
        }
        if (!consume(OrderedRun<Slot>{next, end, slots}))
            return;
        {
            const std::lock_guard<std::mutex> lock(mutex);
            for (std::uint64_t k = next; k < end; ++k)
                ready[k % window] = 0;
            released = end;
        }
        claimable.notify_all();
        next = end;
    }
}

} // namespace xed

#endif // XED_COMMON_ORDERED_POOL_HH
