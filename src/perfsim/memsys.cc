#include "perfsim/memsys.hh"

#include <algorithm>
#include <cassert>

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

MemorySystem::Bank &
MemorySystem::bankOf(Channel &ch, const Address &a)
{
    return ch.banks[a.rank * banksPerRank + a.bank];
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
    assert(req->addr.channel < channels_.size());
    channels_[req->addr.channel].readQ.push_back(req);
}

void
MemorySystem::enqueueWrite(const Address &addr)
{
    auto &ch = channels_[addr.channel];
    ch.writeQ.push_back({addr, 0});
    if (mode_.extraWriteProb > 0 &&
        rng_.bernoulli(mode_.extraWriteProb)) {
        // LOT-ECC second-tier parity update: a write to a different row
        // of the same bank (the T2EC region).
        Address parity = addr;
        parity.row = (addr.row ^ 0x5555u) % 32768u;
        // A full queue drops the parity write; count only what will
        // be served.
        if (ch.writeQ.size() < writeQueueCap) {
            ch.writeQ.push_back({parity, 0});
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
    auto &bank = bankOf(ch, addr);
    auto &rank = ch.ranks[addr.rank];
    const bool hit = bank.openRow == static_cast<std::int64_t>(addr.row);

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
        bool found = false;
        for (std::size_t i = 0; i < ch.writeQ.size(); ++i) {
            const auto &a = ch.writeQ[i].addr;
            const auto &bank = ch.banks[a.rank * banksPerRank + a.bank];
            if (bank.openRow == static_cast<std::int64_t>(a.row) &&
                bank.nextCasAt <= now) {
                pick = i;
                found = true;
                break;
            }
        }
        if (!found)
            pick = 0;
        serve(ch, ch.writeQ[pick].addr, true, now);
        ch.writeQ.erase(ch.writeQ.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        return true;
    }

    if (ch.readQ.empty())
        return false;
    std::size_t pick = 0;
    bool found = false;
    for (std::size_t i = 0; i < ch.readQ.size(); ++i) {
        const auto &a = ch.readQ[i]->addr;
        const auto &bank = ch.banks[a.rank * banksPerRank + a.bank];
        if (bank.openRow == static_cast<std::int64_t>(a.row) &&
            bank.nextCasAt <= now) {
            pick = i;
            found = true;
            break;
        }
    }
    if (!found) {
        // Oldest-first among requests whose bank is ready; fall back to
        // the oldest overall so the queue cannot deadlock.
        for (std::size_t i = 0; i < ch.readQ.size(); ++i) {
            const auto &a = ch.readQ[i]->addr;
            const auto &bank = ch.banks[a.rank * banksPerRank + a.bank];
            if (bank.prechargeableAt <= now) {
                pick = i;
                found = true;
                break;
            }
        }
    }
    if (!found)
        return false; // every bank is busy this cycle
    MemRequest *req = ch.readQ[pick];
    ch.readQ.erase(ch.readQ.begin() + static_cast<std::ptrdiff_t>(pick));
    req->doneCycle =
        static_cast<std::int64_t>(serve(ch, req->addr, false, now));
    return true;
}

bool
MemorySystem::tick(std::uint64_t now)
{
    bool popped = false;
    for (auto &ch : channels_) {
        refreshTick(ch, now);
        popped |= issueTick(ch, now);
    }
    return popped;
}

std::uint64_t
MemorySystem::nextEvent(std::uint64_t now)
{
    std::uint64_t next = neverCycle;
    for (auto &ch : channels_) {
        for (const auto &rank : ch.ranks)
            next = std::min(next, rank.nextRefreshAt);
        // Every channel commits its hysteresis, even once next is
        // settled: the queue sizes cannot change before the next tick
        // or enqueue, so the update the skipped ticks would make is
        // this one.
        if (writeTurn(ch)) {
            next = std::min(next, now + 1); // a write turn always issues
            continue;
        }
        // issueTick's read picks: a row hit whose CAS may issue, else
        // any request whose bank may precharge.
        for (const MemRequest *req : ch.readQ) {
            const auto &a = req->addr;
            const auto &bank = ch.banks[a.rank * banksPerRank + a.bank];
            next = std::min(next, bank.prechargeableAt);
            if (bank.openRow == static_cast<std::int64_t>(a.row))
                next = std::min(next, bank.nextCasAt);
        }
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
