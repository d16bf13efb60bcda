/**
 * @file
 * ROB-limited core model (USIMM-style front end, Table V: 160-entry
 * ROB, 4-wide retire, 3.2GHz).
 *
 * Each core consumes its trace in program order. Non-memory
 * instructions retire at 4 per CPU cycle; reads are issued to the
 * memory system and the core stalls when its achievable memory-level
 * parallelism (bounded by the ROB and by the workload's dependence
 * structure) is exhausted; writes are posted through the write buffer
 * and never stall retirement.
 */

#ifndef XED_PERFSIM_CORE_HH
#define XED_PERFSIM_CORE_HH

#include <cstdint>
#include <memory>

#include "perfsim/ddr_timing.hh"
#include "perfsim/memsys.hh"
#include "perfsim/tracegen.hh"

namespace xed::perfsim
{

class Core
{
  public:
    /** Throws std::invalid_argument when params.maxMlp is 0: such a
     *  core could never have a read outstanding. */
    Core(const Workload &workload, const CoreParams &params,
         const TraceGen::AddressSpace &space, std::uint64_t memOpBudget,
         std::uint64_t seed, unsigned cpuCyclesPerMemCycle);

    /** Advance one memory cycle. */
    void tick(std::uint64_t now, MemorySystem &memory);

    /**
     * After tick(@p now): the first later cycle whose tick can change
     * this core's state, or neverCycle when only a memory-system event
     * (a request leaving a queue) can. Ticks before it are no-ops.
     */
    std::uint64_t nextWake(std::uint64_t now) const;

    bool finished() const { return finished_; }
    std::uint64_t finishCycle() const { return finishCycle_; }
    std::uint64_t opsIssued() const { return opsIssued_; }

  private:
    /** The pending op's preceding compute is not done by @p now. */
    bool computeBound(std::uint64_t now) const;
    /** The head read's completion cycle, neverCycle while queued. */
    std::uint64_t headDoneCycle() const;

    CoreParams params_;
    TraceGen gen_;
    std::uint64_t memOpBudget_;
    unsigned cpuPerMem_;
    /** Outstanding-read limit: min(workload MLP, core cap). */
    unsigned window_;

    /**
     * Outstanding reads in program order: a ring of window_ slots, the
     * oldest at head_. Memory holds a slot's address from enqueueRead
     * until it sets the slot's doneCycle, and a slot is reused only
     * after its read retires, so the address stays fixed meanwhile.
     */
    std::unique_ptr<MemRequest[]> ring_;
    unsigned head_ = 0;
    unsigned outstanding_ = 0;
    MemOp pending_{};
    bool hasPending_ = false;
    double computeReadyCpu_ = 0; ///< CPU cycle the next op is ready
    std::uint64_t opsIssued_ = 0;
    bool finished_ = false;
    std::uint64_t finishCycle_ = 0;
};

} // namespace xed::perfsim

#endif // XED_PERFSIM_CORE_HH
