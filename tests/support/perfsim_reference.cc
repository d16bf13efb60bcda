#include "tests/support/perfsim_reference.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace xed::perfsim::reference
{

RunResult
simulate(const Workload &workload, ProtectionMode mode,
         const PerfConfig &config)
{
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

    std::uint64_t cycle = 0;
    std::uint64_t lastFinish = 0;
    for (; cycle < config.maxCycles; ++cycle) {
        memory.tick(cycle);
        bool allDone = true;
        for (auto &core : cores) {
            core->tick(cycle, memory);
            allDone &= core->finished();
        }
        if (allDone && memory.drained()) {
            for (const auto &core : cores)
                lastFinish = std::max(lastFinish, core->finishCycle());
            break;
        }
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

void
expectBitIdentical(const RunResult &got, const RunResult &want)
{
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    EXPECT_EQ(got.mode, want.mode);
    EXPECT_EQ(got.workload, want.workload);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(bits(got.seconds), bits(want.seconds));
    EXPECT_EQ(got.stats.reads, want.stats.reads);
    EXPECT_EQ(got.stats.writes, want.stats.writes);
    EXPECT_EQ(got.stats.rowHits, want.stats.rowHits);
    EXPECT_EQ(bits(got.stats.rankActivates), bits(want.stats.rankActivates));
    EXPECT_EQ(got.stats.bankActivates, want.stats.bankActivates);
    EXPECT_EQ(got.stats.readBusCycles, want.stats.readBusCycles);
    EXPECT_EQ(got.stats.writeBusCycles, want.stats.writeBusCycles);
    EXPECT_EQ(got.stats.refreshes, want.stats.refreshes);
    EXPECT_EQ(got.stats.extraWrites, want.stats.extraWrites);
    EXPECT_EQ(bits(got.power.background), bits(want.power.background));
    EXPECT_EQ(bits(got.power.activate), bits(want.power.activate));
    EXPECT_EQ(bits(got.power.readWrite), bits(want.power.readWrite));
    EXPECT_EQ(bits(got.power.refresh), bits(want.power.refresh));
}

} // namespace xed::perfsim::reference
