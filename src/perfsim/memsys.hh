/**
 * @file
 * USIMM-style DDR3 memory system: per-channel FR-FCFS scheduling over
 * per-bank state machines with JEDEC timing (tRCD/tRP/tCL/tRAS/tRRD/
 * tFAW/tWR/tRFC/tREFI), a write buffer with watermark-based draining,
 * and periodic refresh.
 *
 * Protection modes shape the system through ModeEffects: rank lockstep
 * reduces the number of independent ranks, channel ganging halves the
 * independent channels, extra-burst/extra-transaction modes stretch the
 * data-bus occupancy, and LOT-ECC spawns additional parity writes.
 */

#ifndef XED_PERFSIM_MEMSYS_HH
#define XED_PERFSIM_MEMSYS_HH

#include <cstdint>
#include <deque>
#include <vector>

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

    /** Hand a read to the controller; completion lands in req. */
    void enqueueRead(MemRequest *req);
    /** Posted write (no completion notification needed). */
    void enqueueWrite(const Address &addr);

    /**
     * Advance one memory cycle: refresh + issue per channel. Returns
     * true when a request left a queue, which frees queue space and,
     * for a read, sets its doneCycle.
     */
    bool tick(std::uint64_t now);

    /**
     * The first cycle after @p now whose tick can change state (a
     * refresh falls due, a write issues, or a queued read's bank
     * becomes ready), or neverCycle. Valid until the next tick or
     * enqueue. Also commits the write-drain hysteresis the next tick
     * would compute from the current queue sizes, so ticks skipped
     * until then cannot lose a drain-mode change.
     */
    std::uint64_t nextEvent(std::uint64_t now);

    /** True when every queue is empty. */
    bool drained() const;

    const MemStats &stats() const { return stats_; }
    const ModeEffects &mode() const { return mode_; }

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        /** Earliest cycle the next CAS may issue (tCCD-limited). */
        std::uint64_t nextCasAt = 0;
        /** Earliest cycle the row may be precharged (tRTP / tWR). */
        std::uint64_t prechargeableAt = 0;
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

    struct PendingWrite
    {
        Address addr;
        std::uint64_t arrival = 0;
    };

    struct Channel
    {
        std::deque<MemRequest *> readQ;
        std::deque<PendingWrite> writeQ;
        std::vector<Bank> banks;  ///< ranks x banksPerRank
        std::vector<RankState> ranks;
        std::uint64_t busFreeAt = 0;
        bool draining = false;
    };

    Bank &bankOf(Channel &ch, const Address &a);
    void refreshTick(Channel &ch, std::uint64_t now);
    /** Update the drain hysteresis; true when the channel writes now. */
    static bool writeTurn(Channel &ch);
    /** Issue one request on the channel if possible; true if it did. */
    bool issueTick(Channel &ch, std::uint64_t now);
    /** Reserve timing for an access; returns data-done cycle. */
    std::uint64_t serve(Channel &ch, const Address &addr, bool isWrite,
                        std::uint64_t now);

    static constexpr unsigned banksPerRank = 8;
    static constexpr std::size_t readQueueCap = 32;
    static constexpr std::size_t writeQueueCap = 64;
    static constexpr std::size_t drainHigh = 40;
    static constexpr std::size_t drainLow = 16;

    TimingParams timing_;
    ModeEffects mode_;
    Rng rng_;
    std::vector<Channel> channels_;
    MemStats stats_;
};

} // namespace xed::perfsim

#endif // XED_PERFSIM_MEMSYS_HH
