#include "perfsim/system.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "obs/trace.hh"

namespace xed::perfsim
{

RunResult
simulate(const Workload &workload, ProtectionMode mode,
         const PerfConfig &config)
{
    XED_TRACE_SPAN_ARG("perfsim.simulate", "perfsim", "memOpsPerCore",
                       config.memOpsPerCore);
    const ModeEffects fx = modeEffects(mode);
    MemorySystem memory(config.timing, fx, config.seed ^ 0xBEEF);

    TraceGen::AddressSpace space;
    space.channels = fx.effectiveChannels;
    space.ranks = fx.effectiveRanks;

    std::vector<std::unique_ptr<Core>> cores;
    for (unsigned c = 0; c < config.cores; ++c) {
        cores.push_back(std::make_unique<Core>(
            workload, config.coreParams, space, config.memOpsPerCore,
            config.seed + 1000003ull * (c + 1),
            config.timing.cpuCyclesPerMemCycle));
    }

    // Wake-up-driven ticking (DESIGN.md section 4l): each component is
    // ticked only on a cycle at which its tick can change state, in the
    // per-cycle order (memory, then cores by index). Every skipped
    // tick is a no-op, so the result equals ticking every cycle.
    std::vector<std::uint64_t> coreWake(cores.size(), 0);
    std::uint64_t memoryWake = 0;
    std::uint64_t cycle = 0;
    std::uint64_t lastFinish = 0;
    while (cycle < config.maxCycles) {
        bool memoryChanged = memoryWake <= cycle;
        // A request leaving a queue frees space and may give a read its
        // doneCycle: the events a core waiting on memory (neverCycle)
        // needs to re-evaluate.
        const bool popped = memoryChanged && memory.tick(cycle);
        bool allDone = true;
        std::uint64_t next = config.maxCycles;
        for (std::size_t c = 0; c < cores.size(); ++c) {
            Core &core = *cores[c];
            if (coreWake[c] <= cycle ||
                (popped && coreWake[c] == neverCycle)) {
                const std::uint64_t issued = core.opsIssued();
                core.tick(cycle, memory);
                memoryChanged |= core.opsIssued() != issued;
                coreWake[c] = core.nextWake(cycle);
            }
            allDone &= core.finished();
            next = std::min(next, coreWake[c]);
        }
        if (allDone && memory.drained()) {
            for (const auto &core : cores)
                lastFinish = std::max(lastFinish, core->finishCycle());
            break;
        }
        // Only a tick or an enqueue changes what memory can do next.
        if (memoryChanged)
            memoryWake = memory.nextEvent(cycle);
        cycle = std::min(next, memoryWake);
    }
    if (lastFinish == 0)
        lastFinish = cycle;

    RunResult result;
    result.mode = fx.label;
    result.workload = workload.name;
    result.cycles = std::max(lastFinish, cycle);
    result.seconds =
        static_cast<double>(result.cycles) * config.timing.tCkSeconds;
    result.stats = memory.stats();

    PowerConfig pc;
    pc.timing = config.timing;
    pc.currents = config.currents;
    pc.ioEnergyScale = fx.ioEnergyScale;
    result.power = computeMemoryPower(result.stats, result.cycles, pc);
    return result;
}

std::vector<RunResult>
simulateAll(const std::vector<RunCell> &cells, const PerfConfig &config)
{
    // Distinct cells in first-seen order; runOf[i] indexes cell i's.
    std::vector<const RunCell *> distinct;
    std::vector<std::size_t> runOf;
    runOf.reserve(cells.size());
    for (const RunCell &cell : cells) {
        std::size_t d = 0;
        while (d < distinct.size() && !(*distinct[d] == cell))
            ++d;
        if (d == distinct.size())
            distinct.push_back(&cell);
        runOf.push_back(d);
    }

    // Workers pull distinct cells from a shared index; the calling
    // thread is one of them. The first failure stops the pull and is
    // rethrown once every worker has joined.
    std::vector<RunResult> runs(distinct.size());
    std::atomic<std::size_t> next{0};
    std::mutex failureMutex;
    std::exception_ptr failure; ///< guarded by failureMutex
    const auto work = [&] {
        try {
            for (std::size_t d; (d = next.fetch_add(1)) < distinct.size();)
                runs[d] = simulate(distinct[d]->workload, distinct[d]->mode,
                                   config);
        } catch (...) {
            next = distinct.size();
            const std::lock_guard<std::mutex> lock(failureMutex);
            if (!failure)
                failure = std::current_exception();
        }
    };
    const unsigned pool = resolveWorkerThreads(0, distinct.size());
    {
        std::vector<std::jthread> workers; // joined at scope exit
        workers.reserve(pool - 1);
        for (unsigned t = 1; t < pool; ++t)
            workers.emplace_back(work);
        work();
    }
    if (failure)
        std::rethrow_exception(failure);

    std::vector<RunResult> results;
    results.reserve(cells.size());
    for (const std::size_t d : runOf)
        results.push_back(runs[d]);
    return results;
}

NormalizedResult
normalizedAgainstBaseline(const Workload &workload, ProtectionMode mode,
                          const PerfConfig &config)
{
    const auto baseline =
        simulate(workload, ProtectionMode::SecdedBaseline, config);
    const auto run = simulate(workload, mode, config);
    NormalizedResult out;
    out.execTime = static_cast<double>(run.cycles) /
                   static_cast<double>(baseline.cycles);
    out.memoryPower =
        run.memoryPowerWatts() / baseline.memoryPowerWatts();
    return out;
}

} // namespace xed::perfsim
