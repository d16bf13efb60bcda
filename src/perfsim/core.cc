#include "perfsim/core.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace xed::perfsim
{

Core::Core(const Workload &workload, const CoreParams &params,
           const TraceGen::AddressSpace &space, std::uint64_t memOpBudget,
           std::uint64_t seed, unsigned cpuCyclesPerMemCycle)
    : params_(params), gen_(workload, space, seed),
      memOpBudget_(memOpBudget), cpuPerMem_(cpuCyclesPerMemCycle),
      window_(std::min(params.maxMlp, std::max(1u, workload.mlp)))
{
    if (window_ == 0)
        throw std::invalid_argument("perfsim: coreParams.maxMlp is 0");
    ring_ = std::make_unique<MemRequest[]>(window_);
}

void
Core::tick(std::uint64_t now, MemorySystem &memory)
{
    if (finished_)
        return;
    const double cpuNow = static_cast<double>(now * cpuPerMem_);

    // Retire completed reads in program order (ROB head semantics).
    while (outstanding_ > 0 && ring_[head_].done() &&
           ring_[head_].doneCycle <= static_cast<std::int64_t>(now)) {
        head_ = (head_ + 1) % window_;
        --outstanding_;
    }

    // Issue as much of the in-order stream as this cycle allows.
    for (unsigned issued = 0; issued < params_.retireWidth; ++issued) {
        if (!hasPending_) {
            if (opsIssued_ >= memOpBudget_)
                break;
            pending_ = gen_.next();
            // The preceding non-memory instructions execute at the
            // sustained non-memory IPC.
            computeReadyCpu_ =
                std::max(computeReadyCpu_, cpuNow) +
                static_cast<double>(pending_.gapInstrs) /
                    params_.nonMemIpc;
            hasPending_ = true;
        }
        if (computeBound(now))
            break; // still chewing through compute
        if (pending_.isWrite) {
            if (!memory.canAcceptWrite(pending_.addr.channel))
                break; // write buffer back-pressure
            memory.enqueueWrite(pending_.addr);
        } else {
            if (outstanding_ >= window_)
                break; // ROB / MLP limit
            if (!memory.canAcceptRead(pending_.addr.channel))
                break;
            MemRequest &slot = ring_[(head_ + outstanding_) % window_];
            slot = MemRequest{pending_.addr};
            memory.enqueueRead(&slot);
            ++outstanding_;
        }
        hasPending_ = false;
        ++opsIssued_;
    }

    if (opsIssued_ >= memOpBudget_ && !hasPending_ && outstanding_ == 0) {
        finished_ = true;
        finishCycle_ = std::max(
            now, static_cast<std::uint64_t>(
                     std::ceil(computeReadyCpu_ / cpuPerMem_)));
    }
}

bool
Core::computeBound(std::uint64_t now) const
{
    const double cpuNow = static_cast<double>(now * cpuPerMem_);
    return computeReadyCpu_ > cpuNow + cpuPerMem_ - 1;
}

std::uint64_t
Core::headDoneCycle() const
{
    const MemRequest &head = ring_[head_];
    return head.done() ? static_cast<std::uint64_t>(head.doneCycle)
                       : neverCycle;
}

std::uint64_t
Core::nextWake(std::uint64_t now) const
{
    if (finished_)
        return neverCycle;
    if (!hasPending_) {
        // Issue slots ran out this cycle: the next op is drawn at the
        // next tick. Otherwise the budget is spent and the core waits
        // for its last reads to retire.
        return opsIssued_ < memOpBudget_ ? now + 1 : headDoneCycle();
    }
    if (computeBound(now)) {
        // The first cycle n with !computeBound(n): estimate it, then
        // settle it with the exact test tick() uses.
        const double estimate = std::ceil(
            (computeReadyCpu_ - (cpuPerMem_ - 1)) / cpuPerMem_);
        if (!(estimate < 0x1p62))
            return neverCycle;
        std::uint64_t wake =
            std::max(now + 1, static_cast<std::uint64_t>(estimate));
        while (wake > now + 1 && !computeBound(wake - 1))
            --wake;
        while (computeBound(wake))
            ++wake;
        return wake;
    }
    if (!pending_.isWrite && outstanding_ >= window_)
        return headDoneCycle(); // ROB / MLP window
    // Blocked on queue space: only a request leaving it frees a slot.
    return neverCycle;
}

} // namespace xed::perfsim
