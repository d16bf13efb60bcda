#include "fleet/fleet.hh"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/rng.hh"
#include "dram/geometry.hh"
#include "faultsim/fault_range.hh"
#include "obs/trace.hh"

namespace xed::fleet
{

namespace
{

using faultsim::FaultEvent;
using faultsim::SampleContext;

constexpr double noEvent = std::numeric_limits<double>::infinity();

/** See engine.cc: expected faults per DIMM lifetime is ~0.07, so 64
 *  events is far beyond the high-water mark; reserving makes the
 *  steady-state slot loop allocation-free. */
constexpr std::size_t eventReserve = 64;

/**
 * Per-shard immutable state of one cohort, built once and shared by
 * every slot of the cohort in the shard: the scheme evaluator, the
 * DIMM shape, and a lazily filled SampleContext per install epoch
 * (the remaining-lifetime window shrinks as replacements happen, so
 * each install epoch needs its own context).
 */
struct CohortRuntime
{
    const FleetCohort *cohort = nullptr;
    std::unique_ptr<faultsim::Scheme> scheme;
    faultsim::DimmShape shape;
    std::vector<std::unique_ptr<SampleContext>> contexts; ///< by epoch

    const SampleContext &
    contextFor(unsigned epoch, const FleetConfig &config,
               const faultsim::AddressLayout &layout)
    {
        auto &slot = contexts[epoch];
        if (!slot) {
            const double remaining =
                config.horizonHours() -
                static_cast<double>(epoch) * config.setup.epochHours;
            slot = std::make_unique<SampleContext>(
                cohort->fit, layout, shape, remaining,
                cohort->scrubIntervalHours);
        }
        return *slot;
    }
};

/** Time of the n-th earliest permanent fault in @p events, or
 *  noEvent when fewer than @p n are permanent. @p times is reusable
 *  scratch. */
double
nthPermanentFaultTime(const std::vector<FaultEvent> &events, unsigned n,
                      std::vector<double> &times)
{
    times.clear();
    for (const FaultEvent &ev : events)
        if (!ev.transient)
            times.push_back(ev.timeHours);
    if (times.size() < n)
        return noEvent;
    std::nth_element(times.begin(), times.begin() + (n - 1),
                     times.end());
    return times[n - 1];
}

} // namespace

void
CohortSeries::merge(const CohortSeries &other)
{
    const auto mergeInto = [](std::vector<std::uint64_t> &into,
                              const std::vector<std::uint64_t> &from) {
        if (into.size() < from.size())
            into.resize(from.size(), 0);
        for (std::size_t i = 0; i < from.size(); ++i)
            into[i] += from[i];
    };
    mergeInto(installs, other.installs);
    mergeInto(removals, other.removals);
    mergeInto(due, other.due);
    mergeInto(sdc, other.sdc);
    mergeInto(replacements, other.replacements);
    mergeInto(retirements, other.retirements);
    attribution.merge(other.attribution);
}

namespace
{
std::uint64_t
sumOf(const std::vector<std::uint64_t> &values)
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : values)
        total += v;
    return total;
}
} // namespace

std::uint64_t CohortSeries::totalDue() const { return sumOf(due); }
std::uint64_t CohortSeries::totalSdc() const { return sumOf(sdc); }
std::uint64_t CohortSeries::totalInstalls() const
{
    return sumOf(installs);
}
std::uint64_t CohortSeries::totalReplacements() const
{
    return sumOf(replacements);
}
std::uint64_t CohortSeries::totalRetirements() const
{
    return sumOf(retirements);
}

void
FleetResult::merge(const FleetResult &other)
{
    if (cohorts.size() < other.cohorts.size())
        cohorts.resize(other.cohorts.size());
    for (std::size_t c = 0; c < other.cohorts.size(); ++c)
        cohorts[c].merge(other.cohorts[c]);
}

FleetResult
runFleetShard(const FleetConfig &config, std::uint64_t begin,
              std::uint64_t end, faultsim::McProgress *progress)
{
    const FleetSetup &setup = config.setup;
    const unsigned epochs = config.epochs();
    const double epochHours = setup.epochHours;
    const FleetPolicies &policies = setup.policies;
    const faultsim::AddressLayout layout{dram::ChipGeometry{}};

    FleetResult result;
    result.cohorts.resize(setup.cohorts.size());
    for (auto &series : result.cohorts)
        series.resize(epochs);
    if (begin >= end || epochs == 0)
        return result;

    // Progress flushes in batches: one relaxed fetch_add per
    // progressBatch slots, mirroring the engine's discipline.
    constexpr std::uint64_t progressBatch = 256;
    std::uint64_t batchedSlots = 0;
    std::uint64_t batchedFailures = 0;
    const auto flushProgress = [&] {
        if (progress && batchedSlots) {
            progress->systemsDone.fetch_add(batchedSlots,
                                            std::memory_order_relaxed);
            progress->failedSystems.fetch_add(
                batchedFailures, std::memory_order_relaxed);
            batchedSlots = batchedFailures = 0;
        }
    };

    // Reusable per-shard buffers: the steady-state slot loop (a
    // zero-fault lifetime, >= 93% of installations at Table I rates)
    // costs one RNG draw and one integer compare, nothing else.
    std::vector<FaultEvent> events;
    events.reserve(eventReserve);
    faultsim::EvalScratch scratch;
    scratch.reserve(eventReserve);
    std::vector<double> permanentTimes;
    permanentTimes.reserve(eventReserve);

    const std::uint64_t mixedSeed = Rng::mixSeed(config.seed);

    // Walk the cohort segments overlapping [begin, end): cohorts
    // occupy consecutive slot ranges in declaration order.
    std::uint64_t cohortFirst = 0;
    for (std::size_t c = 0; c < setup.cohorts.size(); ++c) {
        const FleetCohort &cohort = setup.cohorts[c];
        const std::uint64_t cohortLast = cohortFirst + cohort.dimms;
        const std::uint64_t lo = std::max(begin, cohortFirst);
        const std::uint64_t hi = std::min(end, cohortLast);
        cohortFirst = cohortLast;
        if (lo >= hi || cohort.deployEpoch >= epochs)
            continue;

        XED_TRACE_SPAN_ARG("fleet.cohort", "fleet", "slots", hi - lo);
        CohortRuntime runtime;
        runtime.cohort = &cohort;
        runtime.scheme = makeScheme(cohort.scheme, config.onDie);
        runtime.shape = runtime.scheme->dimmShape();
        runtime.contexts.resize(epochs);
        CohortSeries &series = result.cohorts[c];

        for (std::uint64_t slot = lo; slot < hi; ++slot) {
            Rng rng = Rng::streamMixed(mixedSeed, slot);
            unsigned epoch = cohort.deployEpoch;
            ++series.installs[epoch];
            // One iteration per installation of this slot; each
            // replacement continues drawing from the slot's stream.
            for (;;) {
                const SampleContext &ctx =
                    runtime.contextFor(epoch, config, layout);
                const unsigned count = ctx.sampleFaultCount(rng);
                if (count == 0)
                    break; // fault-free to the horizon
                sampleDimmFaultsInto(rng, ctx, count, events);
                const auto failure = runtime.scheme->evaluateDimm(
                    events, layout, rng, scratch);
                const double failAt =
                    failure ? failure->timeHours : noEvent;
                const double retireAt =
                    policies.retireAfterPermanentFaults
                        ? nthPermanentFaultTime(
                              events,
                              policies.retireAfterPermanentFaults,
                              permanentTimes)
                        : noEvent;
                if (failAt == noEvent && retireAt == noEvent)
                    break; // faults present but never actionable

                // Event times are relative to this installation; map
                // the earliest actionable one to its absolute epoch.
                const double installHours =
                    static_cast<double>(epoch) * epochHours;
                const auto epochOf = [&](double t) {
                    const double abs = installHours + t;
                    const auto e = static_cast<std::uint64_t>(
                        abs / epochHours);
                    return static_cast<unsigned>(std::min<std::uint64_t>(
                        std::max<std::uint64_t>(e, epoch), epochs - 1));
                };

                bool pulled = false;
                unsigned pulledAt = 0;
                if (failAt < retireAt) {
                    const unsigned failEpoch = epochOf(failAt);
                    series.attribution.record(failure->cls,
                                              failure->kindsMask,
                                              failure->outcome);
                    ++batchedFailures;
                    if (failure->cls == obs::FailureClass::Due)
                        ++series.due[failEpoch];
                    else
                        ++series.sdc[failEpoch];
                    // An SDC is silent, and a DUE without the
                    // replace-on-DUE policy stays racked: either way
                    // this installation's processing ends here (the
                    // earliest-actionable-event model, DESIGN 4h).
                    if (failure->cls != obs::FailureClass::Due ||
                        !policies.replaceOnDue)
                        break;
                    pulled = true;
                    pulledAt = failEpoch;
                } else {
                    // Retirement wins ties: the threshold pull is
                    // scheduled maintenance, the failure is not.
                    const unsigned retireEpoch = epochOf(retireAt);
                    ++series.retirements[retireEpoch];
                    pulled = true;
                    pulledAt = retireEpoch;
                }

                if (!pulled)
                    break;
                // The DIMM served epoch pulledAt (the event happened
                // during it) and is out of service from the next
                // epoch's start.
                if (pulledAt + 1 >= epochs)
                    break; // pulled at the horizon; nothing re-enters
                ++series.removals[pulledAt + 1];
                const std::uint64_t reinstall =
                    static_cast<std::uint64_t>(pulledAt) + 1 +
                    policies.replacementLagEpochs;
                if (reinstall >= epochs)
                    break; // replacement would land past the horizon
                epoch = static_cast<unsigned>(reinstall);
                ++series.installs[epoch];
                ++series.replacements[epoch];
            }
            if (++batchedSlots == progressBatch)
                flushProgress();
        }
    }
    flushProgress();
    return result;
}

std::vector<std::uint64_t>
inServiceSeries(const CohortSeries &series)
{
    std::vector<std::uint64_t> inService(series.epochs(), 0);
    std::uint64_t level = 0;
    for (unsigned e = 0; e < series.epochs(); ++e) {
        level += series.installs[e];
        level -= series.removals[e];
        inService[e] = level;
    }
    return inService;
}

std::optional<unsigned>
canaryAlertEpoch(const CohortSeries &series, std::uint64_t dimms,
                 double threshold)
{
    if (threshold <= 0 || dimms == 0)
        return std::nullopt;
    // ceil(threshold * dimms), but at least one DUE: an alert should
    // never fire on a cohort that has seen nothing.
    const double scaled =
        std::ceil(threshold * static_cast<double>(dimms));
    const std::uint64_t needed = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(scaled));
    std::uint64_t seen = 0;
    for (unsigned e = 0; e < series.epochs(); ++e) {
        seen += series.due[e];
        if (seen >= needed)
            return e;
    }
    return std::nullopt;
}

} // namespace xed::fleet
