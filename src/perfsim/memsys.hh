/**
 * @file
 * USIMM-style DDR3 memory system: per-channel FR-FCFS scheduling over
 * per-bank state machines with JEDEC timing (tRCD/tRP/tCL/tCWL/tRRD/
 * tFAW/tWR/tRTP/tCCD/tRFC/tREFI), a write buffer with watermark-based
 * draining, and periodic refresh. serve() does not enforce tRAS or tRC
 * (only the power model reads them), and there is no write-to-read
 * turnaround (tWTR); all three wait for ROADMAP.md item 1(b).
 *
 * Protection modes shape the system through ModeEffects: rank lockstep
 * reduces the number of independent ranks, channel ganging halves the
 * independent channels, extra-burst/extra-transaction modes stretch the
 * data-bus occupancy, and LOT-ECC spawns additional parity writes.
 */

#ifndef XED_PERFSIM_MEMSYS_HH
#define XED_PERFSIM_MEMSYS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/inline_vec.hh"
#include "common/rng.hh"
#include "perfsim/ddr_timing.hh"
#include "perfsim/protection.hh"
#include "perfsim/request.hh"

namespace xed::perfsim
{

struct MemStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    /** Activate events in x8-rank-equivalents (power accounting). */
    double rankActivates = 0;
    /** Bank-activate commands issued (scheduling statistic). */
    std::uint64_t bankActivates = 0;
    /** Data-bus cycles consumed by reads / writes (per physical bus). */
    std::uint64_t readBusCycles = 0;
    std::uint64_t writeBusCycles = 0;
    /** Per-rank refresh events. */
    std::uint64_t refreshes = 0;
    /** Extra writes injected by LOT-ECC parity updates. */
    std::uint64_t extraWrites = 0;
};

class MemorySystem
{
  public:
    MemorySystem(const TimingParams &timing, const ModeEffects &mode,
                 std::uint64_t seed = 0x9E);

    unsigned channels() const { return mode_.effectiveChannels; }

    bool canAcceptRead(unsigned channel) const;
    bool canAcceptWrite(unsigned channel) const;

    /**
     * Hand a read to the controller; completion lands in req, which
     * must stay at its address until then. Throws std::logic_error
     * when the channel's read queue is full (see canAcceptRead).
     */
    void enqueueRead(MemRequest *req);
    /**
     * Posted write (no completion notification needed). Throws
     * std::logic_error when the channel's write queue is full (see
     * canAcceptWrite).
     */
    void enqueueWrite(const Address &addr);

    /**
     * Advance one memory cycle: refresh + issue per channel. Returns
     * true when a request left a queue, which frees queue space and,
     * for a read, sets its doneCycle. A channel whose wake cached by
     * nextEvent is fresh and later than @p now is skipped, since its
     * tick would be a no-op; a tick or an enqueue makes a channel's
     * wake stale, so a caller that never calls nextEvent ticks every
     * channel on every cycle.
     */
    bool tick(std::uint64_t now);

    /**
     * The first cycle after @p now whose tick can change state (a
     * refresh falls due, a write issues, or a queued read's bank
     * becomes ready), or neverCycle. Valid until the next tick or
     * enqueue. Recomputes and caches the wake of each stale channel;
     * a fresh one's state has not changed since its wake was cached.
     * Also commits the write-drain hysteresis the next tick would
     * compute from the current queue sizes, so ticks skipped until
     * then cannot lose a drain-mode change.
     */
    std::uint64_t nextEvent(std::uint64_t now);

    /** True when every queue is empty. */
    bool drained() const;

    const MemStats &stats() const { return stats_; }
    const ModeEffects &mode() const { return mode_; }

  private:
    static constexpr unsigned banksPerRank = 8;
    static constexpr std::size_t readQueueCap = 32;
    static constexpr std::size_t writeQueueCap = 64;
    static constexpr std::size_t drainHigh = 40;
    static constexpr std::size_t drainLow = 16;
    /** Channel::wake once a tick or an enqueue outdates it. A cached
     *  wake is later than the cycle it was computed at, so never 0. */
    static constexpr std::uint64_t staleWake = 0;

    struct Bank
    {
        std::int64_t openRow = -1;
        /** Earliest cycle the next CAS may issue (tCCD-limited). */
        std::uint64_t nextCasAt = 0;
        /** Earliest cycle the row may be precharged (tRTP / tWR). */
        std::uint64_t prechargeableAt = 0;

        bool isOpen(unsigned row) const
        {
            return openRow == static_cast<std::int64_t>(row);
        }
    };

    struct RankState
    {
        /** tFAW history; negative sentinel = no prior activate. */
        std::int64_t actWindow[4] = {-(1 << 20), -(1 << 20), -(1 << 20),
                                     -(1 << 20)};
        unsigned actPtr = 0;
        std::int64_t lastActivate = -(1 << 20);
        std::uint64_t refreshUntil = 0;
        std::uint64_t nextRefreshAt = 0;
    };

    /** A queued read with its bank index and row beside it, so the
     *  FR-FCFS picks and the wake scan never dereference req. */
    struct QueuedRead
    {
        MemRequest *req = nullptr;
        unsigned bank = 0; ///< index into Channel::banks
        unsigned row = 0;
    };

    struct Channel
    {
        InlineVec<QueuedRead, readQueueCap> readQ;
        InlineVec<Address, writeQueueCap> writeQ;
        std::vector<Bank> banks;  ///< ranks x banksPerRank
        std::vector<RankState> ranks;
        std::uint64_t busFreeAt = 0;
        bool draining = false;
        /** nextEvent's cached wake for this channel, or staleWake. */
        std::uint64_t wake = staleWake;
    };

    static unsigned
    bankIndex(const Address &a)
    {
        return a.rank * banksPerRank + a.bank;
    }
    void refreshTick(Channel &ch, std::uint64_t now);
    /** Update the drain hysteresis; true when the channel writes now. */
    static bool writeTurn(Channel &ch);
    /** Issue one request on the channel if possible; true if it did. */
    bool issueTick(Channel &ch, std::uint64_t now);
    /** nextEvent for one channel; commits its drain hysteresis. */
    static std::uint64_t channelWake(Channel &ch, std::uint64_t now);
    /** Reserve timing for an access; returns data-done cycle. */
    std::uint64_t serve(Channel &ch, const Address &addr, bool isWrite,
                        std::uint64_t now);

    TimingParams timing_;
    ModeEffects mode_;
    Rng rng_;
    std::vector<Channel> channels_;
    MemStats stats_;
};

} // namespace xed::perfsim

#endif // XED_PERFSIM_MEMSYS_HH
