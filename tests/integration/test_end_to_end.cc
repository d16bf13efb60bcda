/**
 * End-to-end integration tests spanning the subsystems: the functional
 * XED data path under realistic mixed fault loads, the consistency of
 * the functional model with the Monte-Carlo scheme rules, and a full
 * perfsim+power run for every paper configuration.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "common/rng.hh"
#include "common/units.hh"
#include "faultsim/engine.hh"
#include "perfsim/system.hh"
#include "tests/support/random_range.hh"
#include "xed/chipkill_controller.hh"
#include "xed/controller.hh"

namespace xed
{
namespace
{

using dram::Fault;
using dram::FaultGranularity;
using dram::WordAddr;

TEST(EndToEnd, MixedFaultSoakOnXedController)
{
    // Soak the functional controller with a mix of fault types across
    // many addresses: a permanent column fault, a permanent row fault
    // in another chip/bank, and scattered single-bit scaling faults,
    // then verify every line of a working set reads back correctly.
    XedController ctrl;
    Rng rng(0xE2E0);

    Fault column;
    column.granularity = FaultGranularity::SingleColumn;
    column.permanent = true;
    column.addr = {1, 0, 40};
    column.bitPos = 5;
    ctrl.chip(2).faults().add(column);

    Fault row;
    row.granularity = FaultGranularity::SingleRow;
    row.permanent = true;
    row.addr = {3, 77, 0};
    row.seed = 99;
    ctrl.chip(6).faults().add(row);

    for (unsigned i = 0; i < 20; ++i) {
        Fault bit;
        bit.granularity = FaultGranularity::SingleBit;
        bit.permanent = true;
        bit.addr = {static_cast<unsigned>(rng.below(8)),
                    static_cast<unsigned>(rng.below(32768)),
                    static_cast<unsigned>(rng.below(128))};
        bit.bitPos = static_cast<unsigned>(rng.below(72));
        ctrl.chip(static_cast<unsigned>(rng.below(9)))
            .faults()
            .add(bit);
    }

    std::map<std::uint64_t, std::array<std::uint64_t, 8>> written;
    for (int i = 0; i < 300; ++i) {
        WordAddr addr{static_cast<unsigned>(rng.below(8)),
                      static_cast<unsigned>(rng.below(32768)),
                      static_cast<unsigned>(rng.below(128))};
        if (i % 3 == 0)
            addr = {1, static_cast<unsigned>(rng.below(32768)), 40};
        if (i % 3 == 1)
            addr = {3, 77, static_cast<unsigned>(rng.below(128))};
        std::array<std::uint64_t, 8> line{};
        for (auto &w : line)
            w = rng.next();
        ctrl.writeLine(addr, line);
        written[packWordAddr(ctrl.chip(0).geometry(), addr)] = line;
    }
    unsigned verified = 0;
    for (const auto &[packed, line] : written) {
        const auto addr =
            dram::unpackWordAddr(ctrl.chip(0).geometry(), packed);
        const auto r = ctrl.readLine(addr);
        ASSERT_NE(r.outcome, ReadOutcome::DetectedUncorrectable);
        EXPECT_EQ(r.data, line);
        ++verified;
    }
    EXPECT_GE(verified, 250u);
}

TEST(EndToEnd, FunctionalModelAgreesWithSchemeRuleOnSingleChip)
{
    // The Monte-Carlo XED rule says: any single-chip permanent fault
    // is corrected. Cross-check the *functional* model on every
    // granularity the rule covers.
    const auto scheme =
        faultsim::makeScheme(faultsim::SchemeKind::Xed, {});
    dram::ChipGeometry g;
    faultsim::AddressLayout layout(g);
    Rng rng(0xE2E1);

    for (const auto granularity :
         {FaultGranularity::SingleBit, FaultGranularity::SingleWord,
          FaultGranularity::SingleColumn, FaultGranularity::SingleRow,
          FaultGranularity::SingleBank, FaultGranularity::Chip}) {
        // Scheme rule: no failure for one chip.
        faultsim::FaultEvent ev;
        ev.rank = 0;
        ev.chip = 4;
        ev.kind = granularity == FaultGranularity::Chip
                      ? faultsim::FaultKind::MultiBank
                      : static_cast<faultsim::FaultKind>(
                            static_cast<int>(granularity));
        ev.transient = false;
        ev.timeHours = 10;
        ev.range = randomRange(rng, layout, ev.kind);
        EXPECT_FALSE(
            scheme->evaluateDimm({ev}, layout, rng).has_value());

        // Functional model: the same class of fault is corrected.
        XedController ctrl;
        const WordAddr addr{2, 123, 45};
        std::array<std::uint64_t, 8> line{};
        for (auto &w : line)
            w = rng.next();
        ctrl.writeLine(addr, line);
        Fault f;
        f.granularity = granularity;
        f.permanent = true;
        f.addr = addr;
        f.bitPos = 7;
        f.seed = rng.next();
        ctrl.chip(4).faults().add(f);
        const auto r = ctrl.readLine(addr);
        EXPECT_NE(r.outcome, ReadOutcome::DetectedUncorrectable);
        EXPECT_EQ(r.data, line);
    }
}

TEST(EndToEnd, XedOnChipkillHandlesChipPlusScalingAcrossBeats)
{
    // Section IX data path: one hard-failed chip plus a scaling-faulted
    // chip, both signalled by catch-words, rebuilt via two erasures in
    // every beat.
    ChipkillConfig cfg;
    cfg.useCatchWordErasures = true;
    ChipkillController ctrl(cfg);
    Rng rng(0xE2E2);
    const WordAddr addr{5, 55, 5};
    std::vector<std::uint64_t> line(16);
    for (auto &w : line)
        w = rng.next();
    ctrl.writeLine(addr, line);

    Fault hard;
    hard.granularity = FaultGranularity::SingleBank;
    hard.permanent = true;
    hard.addr = {5, 0, 0};
    hard.seed = 1;
    ctrl.chip(2).faults().add(hard);

    Fault scaling;
    scaling.granularity = FaultGranularity::SingleBit;
    scaling.permanent = true;
    scaling.addr = addr;
    scaling.bitPos = 33;
    ctrl.chip(9).faults().add(scaling);

    const auto r = ctrl.readLine(addr);
    EXPECT_EQ(r.outcome, ChipkillOutcome::Corrected);
    EXPECT_EQ(r.data, line);
    EXPECT_EQ(r.catchWordChips.size(), 2u);
}

TEST(EndToEnd, ReliabilityAndPerformanceStoryIsConsistent)
{
    // The paper's pitch in one test: XED must (a) beat Chipkill's
    // reliability and (b) cost nothing over the SECDED baseline, while
    // Chipkill costs >15% on a memory-intensive workload.
    faultsim::McConfig mc;
    mc.systems = 120000;
    mc.seed = 0xE2E3;
    const auto xedRel = faultsim::runMonteCarlo(
        *faultsim::makeScheme(faultsim::SchemeKind::Xed, {}), mc);
    const auto ckRel = faultsim::runMonteCarlo(
        *faultsim::makeScheme(faultsim::SchemeKind::Chipkill, {}), mc);
    EXPECT_LT(xedRel.probFailure(), ckRel.probFailure());

    perfsim::PerfConfig pc;
    pc.memOpsPerCore = 5000;
    const auto &w = perfsim::workloadByName("bwaves");
    const auto base = perfsim::simulate(
        w, perfsim::ProtectionMode::SecdedBaseline, pc);
    const auto xedPerf =
        perfsim::simulate(w, perfsim::ProtectionMode::Xed, pc);
    const auto ckPerf =
        perfsim::simulate(w, perfsim::ProtectionMode::Chipkill, pc);
    EXPECT_EQ(xedPerf.cycles, base.cycles);
    EXPECT_GT(static_cast<double>(ckPerf.cycles) /
                  static_cast<double>(base.cycles),
              1.15);
}

} // namespace
} // namespace xed
