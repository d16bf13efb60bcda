#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "perfsim/memsys.hh"

namespace xed::perfsim
{
namespace
{

class MemsysTest : public ::testing::Test
{
  protected:
    MemsysTest()
        : fx(modeEffects(ProtectionMode::SecdedBaseline)),
          mem(timing, fx)
    {
    }

    /** Run until the request completes; returns its done cycle. */
    std::int64_t
    runUntilDone(MemRequest &req, std::uint64_t start = 0)
    {
        for (std::uint64_t c = start; c < start + 100000; ++c) {
            mem.tick(c);
            if (req.done())
                return req.doneCycle;
        }
        return -1;
    }

    TimingParams timing;
    ModeEffects fx;
    MemorySystem mem;
};

TEST_F(MemsysTest, ClosedBankReadLatency)
{
    MemRequest req;
    req.addr = {0, 0, 0, 100, 5};
    mem.enqueueRead(&req);
    const auto done = runUntilDone(req);
    // ACT at cycle 0, CAS at tRCD, data done tCL + tBurst later.
    EXPECT_EQ(done, static_cast<std::int64_t>(timing.tRCD + timing.tCL +
                                              timing.tBurst));
    EXPECT_EQ(mem.stats().reads, 1u);
    EXPECT_EQ(mem.stats().bankActivates, 1u);
    EXPECT_EQ(mem.stats().rowHits, 0u);
}

TEST_F(MemsysTest, RowHitReadIsFaster)
{
    MemRequest first;
    first.addr = {0, 0, 0, 100, 5};
    mem.enqueueRead(&first);
    const auto t1 = runUntilDone(first);
    ASSERT_GT(t1, 0);

    MemRequest hit;
    hit.addr = {0, 0, 0, 100, 6};
    mem.enqueueRead(&hit);
    const auto start = static_cast<std::uint64_t>(t1) + 1;
    const auto t2 = runUntilDone(hit, start);
    EXPECT_EQ(t2, static_cast<std::int64_t>(start + timing.tCL +
                                            timing.tBurst));
    EXPECT_EQ(mem.stats().rowHits, 1u);
    EXPECT_EQ(mem.stats().bankActivates, 1u);
}

TEST_F(MemsysTest, RowConflictPaysPrecharge)
{
    MemRequest first;
    first.addr = {0, 0, 0, 100, 5};
    mem.enqueueRead(&first);
    const auto t1 = runUntilDone(first);
    ASSERT_GT(t1, 0);

    MemRequest conflict;
    conflict.addr = {0, 0, 0, 200, 5}; // same bank, other row
    mem.enqueueRead(&conflict);
    // Bank must respect tRTP after the read, then tRP + tRCD + tCL.
    const auto t2 = runUntilDone(conflict,
                                 static_cast<std::uint64_t>(t1) + 1);
    EXPECT_GT(t2, t1 + static_cast<std::int64_t>(timing.tRP +
                                                 timing.tRCD +
                                                 timing.tCL));
    EXPECT_EQ(mem.stats().bankActivates, 2u);
}

TEST_F(MemsysTest, IndependentBanksOverlap)
{
    MemRequest a, b;
    a.addr = {0, 0, 0, 100, 5};
    b.addr = {0, 0, 1, 100, 5};
    mem.enqueueRead(&a);
    mem.enqueueRead(&b);
    for (std::uint64_t c = 0; c < 1000 && !(a.done() && b.done()); ++c)
        mem.tick(c);
    ASSERT_TRUE(a.done() && b.done());
    // b's activation overlaps a's; b completes one burst after a
    // (bus-serialized), far sooner than a serial ACT+CAS would allow.
    EXPECT_LE(b.doneCycle, a.doneCycle + static_cast<std::int64_t>(
                                             timing.tBurst + timing.tRRD));
}

TEST_F(MemsysTest, FrFcfsPrefersRowHit)
{
    // Open row 100, then enqueue a conflict (older) and a hit (younger)
    // together: the hit must complete first.
    MemRequest opener;
    opener.addr = {0, 0, 0, 100, 0};
    mem.enqueueRead(&opener);
    const auto t1 = runUntilDone(opener);
    ASSERT_GT(t1, 0);

    MemRequest conflict, hit;
    conflict.addr = {0, 0, 0, 300, 0};
    hit.addr = {0, 0, 0, 100, 9};
    mem.enqueueRead(&conflict);
    mem.enqueueRead(&hit);
    for (std::uint64_t c = static_cast<std::uint64_t>(t1) + 1;
         c < 100000 && !(conflict.done() && hit.done()); ++c)
        mem.tick(c);
    ASSERT_TRUE(conflict.done() && hit.done());
    EXPECT_LT(hit.doneCycle, conflict.doneCycle);
}

TEST_F(MemsysTest, WritesDrainEventually)
{
    for (int i = 0; i < 10; ++i)
        mem.enqueueWrite({0, 0, static_cast<unsigned>(i % 8), 50, 0});
    EXPECT_FALSE(mem.drained());
    for (std::uint64_t c = 0; c < 100000 && !mem.drained(); ++c)
        mem.tick(c);
    EXPECT_TRUE(mem.drained());
    EXPECT_EQ(mem.stats().writes, 10u);
}

TEST_F(MemsysTest, RefreshHappensEveryTrefi)
{
    for (std::uint64_t c = 0; c < 3 * timing.tREFI + 10; ++c)
        mem.tick(c);
    // 4 channels x 2 ranks, ~3 refreshes each (x ranksPerAccess = 1).
    EXPECT_GE(mem.stats().refreshes, 4u * 2u * 2u);
    EXPECT_LE(mem.stats().refreshes, 4u * 2u * 4u);
}

TEST_F(MemsysTest, LockstepModeUsesLongBursts)
{
    const auto ck = modeEffects(ProtectionMode::Chipkill);
    MemorySystem ckMem(timing, ck);
    MemRequest req;
    req.addr = {0, 0, 0, 100, 5};
    ckMem.enqueueRead(&req);
    for (std::uint64_t c = 0; c < 1000 && !req.done(); ++c)
        ckMem.tick(c);
    ASSERT_TRUE(req.done());
    EXPECT_EQ(ckMem.stats().readBusCycles, 8u);
    EXPECT_DOUBLE_EQ(ckMem.stats().rankActivates,
                     ck.activateRankEquivalents);
    EXPECT_EQ(ckMem.stats().bankActivates, 1u);
}

TEST_F(MemsysTest, LotEccSpawnsExtraWrites)
{
    const auto lot = modeEffects(ProtectionMode::LotEcc);
    MemorySystem lotMem(timing, lot, 99);
    for (int i = 0; i < 2000; ++i) {
        lotMem.enqueueWrite({0, 0, 0, static_cast<unsigned>(i % 32768),
                             0});
        // Two ticks serve the data write and any parity write, so no
        // parity write finds the queue full.
        lotMem.tick(2 * i);
        lotMem.tick(2 * i + 1);
    }
    // ~10% of writes spawn a parity update.
    EXPECT_GT(lotMem.stats().extraWrites, 120u);
    EXPECT_LT(lotMem.stats().extraWrites, 280u);
}

TEST_F(MemsysTest, DroppedParityWritesAreNotCounted)
{
    // Every write spawns a parity write; one that finds the queue full
    // is dropped and must not count, or reads + writes - extraWrites
    // stops equalling the data ops served.
    ModeEffects always = modeEffects(ProtectionMode::LotEcc);
    always.extraWriteProb = 1.0;
    MemorySystem lotMem(timing, always, 99);
    const Address addr{0, 0, 0, 100, 0};
    unsigned dataWrites = 0;
    for (; dataWrites < 32; ++dataWrites)
        lotMem.enqueueWrite(addr); // 32 data + 32 parity: a full queue
    EXPECT_FALSE(lotMem.canAcceptWrite(0));
    lotMem.tick(0); // drain mode: one write leaves, 63 remain
    ASSERT_TRUE(lotMem.canAcceptWrite(0));
    lotMem.enqueueWrite(addr); // fills the last slot; parity dropped
    ++dataWrites;
    for (std::uint64_t c = 1; c < 100000 && !lotMem.drained(); ++c)
        lotMem.tick(c);
    ASSERT_TRUE(lotMem.drained());
    EXPECT_EQ(lotMem.stats().writes - lotMem.stats().extraWrites,
              dataWrites);
}

TEST_F(MemsysTest, QueueCapacityEnforced)
{
    std::vector<std::unique_ptr<MemRequest>> reqs;
    unsigned accepted = 0;
    while (mem.canAcceptRead(0)) {
        reqs.push_back(std::make_unique<MemRequest>());
        reqs.back()->addr = {0, 0, 0, accepted, 0};
        mem.enqueueRead(reqs.back().get());
        ++accepted;
    }
    EXPECT_EQ(accepted, 32u);
}

TEST_F(MemsysTest, EnqueueIntoFullReadQueueThrows)
{
    std::vector<MemRequest> reqs(33);
    for (unsigned i = 0; i < 32; ++i) {
        reqs[i].addr = {1, 0, 0, i, 0};
        mem.enqueueRead(&reqs[i]);
    }
    ASSERT_FALSE(mem.canAcceptRead(1));
    reqs[32].addr = {1, 0, 0, 32, 0};
    EXPECT_THROW(mem.enqueueRead(&reqs[32]), std::logic_error);
    // Another channel's queue is unaffected.
    reqs[32].addr.channel = 2;
    EXPECT_NO_THROW(mem.enqueueRead(&reqs[32]));
}

TEST_F(MemsysTest, EnqueueIntoFullWriteQueueThrows)
{
    for (unsigned i = 0; i < 64; ++i)
        mem.enqueueWrite({3, 0, 0, i, 0});
    ASSERT_FALSE(mem.canAcceptWrite(3));
    EXPECT_THROW(mem.enqueueWrite({3, 0, 0, 64, 0}), std::logic_error);
    EXPECT_NO_THROW(mem.enqueueWrite({0, 0, 0, 64, 0}));
}

TEST_F(MemsysTest, CachedWakesSkipOnlyNoOpTicks)
{
    // The same request stream into two LOT-ECC systems: one ticked on
    // every cycle and never asked for nextEvent, so every channel ticks
    // every cycle; one also asked after every cycle, so its tick skips
    // the channels whose cached wake is later. Every completion and
    // every counter must agree.
    const auto lot = modeEffects(ProtectionMode::LotEcc);
    MemorySystem plain(timing, lot, 5);
    MemorySystem cached(timing, lot, 5);
    std::vector<MemRequest> plainReqs(384), cachedReqs(384);
    std::size_t reads = 0;
    unsigned skips = 0;
    for (std::uint64_t c = 0; c < 5 * timing.tREFI; ++c) {
        plain.tick(c);
        cached.tick(c);
        const unsigned ch = static_cast<unsigned>(c / 500 % 4);
        if (c % 500 == 0 && reads < plainReqs.size()) {
            // Reads to one bank, so row hits and conflicts queue behind
            // each other.
            for (unsigned i = 0; i < 16; ++i, ++reads) {
                const Address a{ch, 0, 0, i % 3 * 64, i};
                plainReqs[reads].addr = a;
                cachedReqs[reads].addr = a;
                plain.enqueueRead(&plainReqs[reads]);
                cached.enqueueRead(&cachedReqs[reads]);
            }
        } else if (c % 500 == 5) {
            // Writes past the drain watermark while those reads wait:
            // the next tick must switch to draining.
            for (unsigned i = 0; i < 48 && plain.canAcceptWrite(ch); ++i) {
                const Address a{ch, 1, i % 8, i, 0};
                plain.enqueueWrite(a);
                cached.enqueueWrite(a);
            }
        }
        if (cached.nextEvent(c) > c + 1)
            ++skips;
    }
    ASSERT_TRUE(plain.drained());
    EXPECT_TRUE(cached.drained());
    EXPECT_GT(skips, 0u);
    for (std::size_t i = 0; i < plainReqs.size(); ++i)
        EXPECT_EQ(cachedReqs[i].doneCycle, plainReqs[i].doneCycle) << i;
    const MemStats &p = plain.stats();
    const MemStats &q = cached.stats();
    EXPECT_EQ(q.reads, p.reads);
    EXPECT_EQ(q.writes, p.writes);
    EXPECT_EQ(q.rowHits, p.rowHits);
    EXPECT_EQ(q.bankActivates, p.bankActivates);
    EXPECT_EQ(q.readBusCycles, p.readBusCycles);
    EXPECT_EQ(q.writeBusCycles, p.writeBusCycles);
    EXPECT_EQ(q.refreshes, p.refreshes);
    EXPECT_EQ(q.extraWrites, p.extraWrites);
}

} // namespace
} // namespace xed::perfsim
