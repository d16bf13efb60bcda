#include "perfsim/memsys.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace xed::perfsim
{

MemorySystem::MemorySystem(const TimingParams &timing,
                           const ModeEffects &mode, std::uint64_t seed)
    : timing_(timing), mode_(mode), rng_(seed)
{
    channels_.resize(mode_.effectiveChannels);
    for (auto &ch : channels_) {
        ch.banks.resize(mode_.effectiveRanks * banksPerRank);
        ch.ranks.resize(mode_.effectiveRanks);
        // Stagger refresh across ranks to avoid artificial alignment.
        for (unsigned r = 0; r < mode_.effectiveRanks; ++r)
            ch.ranks[r].nextRefreshAt =
                (r + 1) * timing_.tREFI / (mode_.effectiveRanks + 1);
    }
}

bool
MemorySystem::canAcceptRead(unsigned channel) const
{
    return channels_[channel].readQ.size() < readQueueCap;
}

bool
MemorySystem::canAcceptWrite(unsigned channel) const
{
    return channels_[channel].writeQ.size() < writeQueueCap;
}

void
MemorySystem::enqueueRead(MemRequest *req)
{
    const Address &addr = req->addr;
    assert(addr.channel < channels_.size());
    if (!canAcceptRead(addr.channel))
        throw std::logic_error("MemorySystem::enqueueRead: queue full");
    auto &ch = channels_[addr.channel];
    ch.readQ.push_back({req, bankIndex(addr), addr.row});
    ch.wake = staleWake;
}

void
MemorySystem::enqueueWrite(const Address &addr)
{
    assert(addr.channel < channels_.size());
    if (!canAcceptWrite(addr.channel))
        throw std::logic_error("MemorySystem::enqueueWrite: queue full");
    auto &ch = channels_[addr.channel];
    ch.writeQ.push_back(addr);
    ch.wake = staleWake;
    if (mode_.extraWriteProb > 0 &&
        rng_.bernoulli(mode_.extraWriteProb)) {
        // LOT-ECC second-tier parity update: a write to a different row
        // of the same bank (the T2EC region).
        Address parity = addr;
        parity.row = (addr.row ^ 0x5555u) % 32768u;
        // A full queue drops the parity write; count only what will
        // be served.
        if (ch.writeQ.size() < writeQueueCap) {
            ch.writeQ.push_back(parity);
            ++stats_.extraWrites;
        }
    }
}

void
MemorySystem::refreshTick(Channel &ch, std::uint64_t now)
{
    for (unsigned r = 0; r < ch.ranks.size(); ++r) {
        auto &rank = ch.ranks[r];
        if (now < rank.nextRefreshAt)
            continue;
        rank.refreshUntil = now + timing_.tRFC;
        rank.nextRefreshAt += timing_.tREFI;
        stats_.refreshes += mode_.ranksPerAccess;
        for (unsigned b = 0; b < banksPerRank; ++b) {
            auto &bank = ch.banks[r * banksPerRank + b];
            bank.openRow = -1; // refresh closes all rows
            bank.nextCasAt = std::max<std::uint64_t>(bank.nextCasAt,
                                                     rank.refreshUntil);
            bank.prechargeableAt = std::max<std::uint64_t>(
                bank.prechargeableAt, rank.refreshUntil);
        }
    }
}

std::uint64_t
MemorySystem::serve(Channel &ch, const Address &addr, bool isWrite,
                    std::uint64_t now)
{
    auto &bank = ch.banks[bankIndex(addr)];
    auto &rank = ch.ranks[addr.rank];
    const bool hit = bank.isOpen(addr.row);

    std::uint64_t cas;
    if (!hit) {
        std::uint64_t start =
            std::max({now, bank.prechargeableAt, rank.refreshUntil});
        if (bank.openRow >= 0)
            start += timing_.tRP; // precharge the conflicting row
        const std::uint64_t act = static_cast<std::uint64_t>(std::max(
            {static_cast<std::int64_t>(start),
             rank.lastActivate + timing_.tRRD,
             rank.actWindow[rank.actPtr] + timing_.tFAW}));
        rank.actWindow[rank.actPtr] = static_cast<std::int64_t>(act);
        rank.actPtr = (rank.actPtr + 1) % 4;
        rank.lastActivate = static_cast<std::int64_t>(act);
        stats_.rankActivates += mode_.activateRankEquivalents;
        ++stats_.bankActivates;
        bank.openRow = addr.row;
        cas = act + timing_.tRCD;
    } else {
        cas = std::max({now, bank.nextCasAt, rank.refreshUntil});
        ++stats_.rowHits;
    }

    const unsigned casLatency = isWrite ? timing_.tCWL : timing_.tCL;
    const unsigned burst =
        isWrite ? mode_.writeBurstCycles : mode_.readBurstCycles;
    std::uint64_t dataStart = std::max(cas + casLatency, ch.busFreeAt);
    ch.busFreeAt = dataStart + burst;
    const std::uint64_t dataDone = dataStart + burst;

    bank.nextCasAt = cas + std::max(timing_.tCCD, burst);
    bank.prechargeableAt =
        isWrite ? dataDone + timing_.tWR : cas + timing_.tRTP;
    if (isWrite) {
        ++stats_.writes;
        stats_.writeBusCycles += burst * mode_.gangedBuses;
    } else {
        ++stats_.reads;
        stats_.readBusCycles += burst * mode_.gangedBuses;
    }
    return dataDone;
}

bool
MemorySystem::writeTurn(Channel &ch)
{
    // Write-drain hysteresis.
    if (ch.writeQ.size() >= drainHigh)
        ch.draining = true;
    else if (ch.writeQ.size() <= drainLow)
        ch.draining = false;
    return !ch.writeQ.empty() && (ch.draining || ch.readQ.empty());
}

bool
MemorySystem::issueTick(Channel &ch, std::uint64_t now)
{
    if (writeTurn(ch)) {
        // FR-FCFS over the write queue: prefer a row hit that can
        // start now, else the oldest request.
        std::size_t pick = 0;
        for (std::size_t i = 0; i < ch.writeQ.size(); ++i) {
            const Address &a = ch.writeQ[i];
            const Bank &bank = ch.banks[bankIndex(a)];
            if (bank.isOpen(a.row) && bank.nextCasAt <= now) {
                pick = i;
                break;
            }
        }
        serve(ch, ch.writeQ[pick], true, now);
        ch.writeQ.erase(pick);
        return true;
    }

    // FR-FCFS over the read queue: the oldest row hit whose CAS may
    // issue now, else the oldest request whose bank may precharge now,
    // else nothing (every bank is busy this cycle).
    const std::size_t none = ch.readQ.size();
    std::size_t hit = none;
    std::size_t ready = none;
    for (std::size_t i = 0; i < ch.readQ.size(); ++i) {
        const QueuedRead &r = ch.readQ[i];
        const Bank &bank = ch.banks[r.bank];
        if (bank.isOpen(r.row) && bank.nextCasAt <= now) {
            hit = i;
            break;
        }
        if (ready == none && bank.prechargeableAt <= now)
            ready = i;
    }
    const std::size_t pick = hit != none ? hit : ready;
    if (pick == none)
        return false;
    MemRequest *req = ch.readQ[pick].req;
    ch.readQ.erase(pick);
    req->doneCycle =
        static_cast<std::int64_t>(serve(ch, req->addr, false, now));
    return true;
}

bool
MemorySystem::tick(std::uint64_t now)
{
    bool popped = false;
    for (auto &ch : channels_) {
        if (ch.wake > now)
            continue; // fresh and not due: the tick would be a no-op
        ch.wake = staleWake;
        refreshTick(ch, now);
        popped |= issueTick(ch, now);
    }
    return popped;
}

std::uint64_t
MemorySystem::channelWake(Channel &ch, std::uint64_t now)
{
    // Commit the drain hysteresis the next issueTick would apply: the
    // queue sizes cannot change before the next tick or enqueue, so
    // the update the skipped ticks would make is this one.
    if (writeTurn(ch))
        return now + 1; // a write turn always issues
    std::uint64_t wake = neverCycle;
    for (const auto &rank : ch.ranks)
        wake = std::min(wake, rank.nextRefreshAt);
    // issueTick's read picks: a row hit whose CAS may issue, else any
    // request whose bank may precharge.
    for (const QueuedRead &r : ch.readQ) {
        const Bank &bank = ch.banks[r.bank];
        wake = std::min(wake, bank.prechargeableAt);
        if (bank.isOpen(r.row))
            wake = std::min(wake, bank.nextCasAt);
    }
    return std::max(wake, now + 1);
}

std::uint64_t
MemorySystem::nextEvent(std::uint64_t now)
{
    std::uint64_t next = neverCycle;
    for (auto &ch : channels_) {
        if (ch.wake == staleWake)
            ch.wake = channelWake(ch, now);
        next = std::min(next, ch.wake);
    }
    return std::max(next, now + 1);
}

bool
MemorySystem::drained() const
{
    for (const auto &ch : channels_)
        if (!ch.readQ.empty() || !ch.writeQ.empty())
            return false;
    return true;
}

} // namespace xed::perfsim
