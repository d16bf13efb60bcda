/**
 * @file
 * Fleet-lifetime simulation: a population of heterogeneous DIMMs on
 * one shared timeline (ROADMAP item 5, DESIGN.md Section 4h).
 *
 * Where the Monte-Carlo engine treats each "system" as an independent
 * 7-year lifetime, fleet mode asks the deployment-team question: what
 * availability and SDC curves does a *population* of mixed-scheme,
 * mixed-vendor DIMMs trace over time under real maintenance policies?
 * A fleet is declared as cohorts -- count x {scheme, vendor FIT
 * profile, deployment epoch, scrub schedule, canary flag} -- plus
 * fleet-wide policies (replace-on-DUE with a replacement lag, DIMM
 * retirement after accumulated permanent faults, canary DUE alert
 * thresholds). Time advances in fixed epochs (monthly by default) and
 * results are per-cohort, per-epoch integer delta series that merge
 * exactly, plus the standard obs::FailureAttribution breakdown.
 *
 * Determinism contract (what makes fleet runs shard-cut invariant,
 * byte-identical across thread counts, and mergeable over the
 * distributed queue):
 *
 *  - Every fleet SLOT (a physical socket that holds a succession of
 *    DIMMs as replacements happen) owns the counter-based RNG stream
 *    Rng::stream(seed, slot). All installations of that slot draw
 *    sequentially from this one stream, and a slot's entire multi-
 *    year history is simulated by whichever shard covers its index --
 *    so results are a pure function of (config, slot), independent of
 *    how [0, totalDimms) is cut into shards.
 *  - Policy resolution within an installation is ordered: the
 *    earliest of (scheme failure, retirement threshold) is the one
 *    actionable event; ties resolve to retirement. An SDC, or a DUE
 *    with replace-on-DUE disabled, is recorded once and ends the
 *    installation's event processing (the DIMM stays in service to
 *    the horizon). See DESIGN.md Section 4h for the rationale.
 *  - Per-epoch accounting is pure integer deltas (installs, removals,
 *    DUE/SDC observations, replacements, retirements), so merging
 *    shard results is exact, associative and order-insensitive; all
 *    derived series (in-service counts, availability, scrub traffic)
 *    are computed from the merged deltas at summary time.
 */

#ifndef XED_FLEET_FLEET_HH
#define XED_FLEET_FLEET_HH

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hh"
#include "faultsim/engine.hh"
#include "faultsim/fault_model.hh"
#include "faultsim/fit_rates.hh"
#include "faultsim/scheme.hh"
#include "obs/forensics.hh"

namespace xed::fleet
{

/** One homogeneous slice of the fleet: @p dimms identical slots. */
struct FleetCohort
{
    /** Cohort label, [A-Za-z0-9_.-]; unique within a fleet. */
    std::string name;
    faultsim::SchemeKind scheme = faultsim::SchemeKind::Secded;
    /** Number of slots (sockets); each holds one DIMM at a time. */
    std::uint64_t dimms = 0;
    /** First epoch this cohort is in service (staged rollouts). */
    unsigned deployEpoch = 0;
    /** Canary cohorts are observational: they never feed back into
     *  the simulation (that would couple shards), but the summary
     *  derives a deterministic alert epoch from their DUE series. */
    bool canary = false;
    /** Patrol-scrub period for this cohort's DIMMs; 0 disables.
     *  Scrub phase restarts at each installation. */
    double scrubIntervalHours = 0;
    /** Vendor FIT profile; defaults to Table I. */
    faultsim::FitTable fit{};
};

/** Fleet-wide maintenance policies. */
struct FleetPolicies
{
    /** Pull a DIMM after a DUE and install a replacement. */
    bool replaceOnDue = true;
    /** Epochs between pulling a DIMM and its replacement entering
     *  service (procurement / datacenter-visit lag). */
    unsigned replacementLagEpochs = 1;
    /** Retire (pull) a DIMM once it has accumulated this many
     *  permanent faults, before they combine into a failure.
     *  0 disables retirement. */
    unsigned retireAfterPermanentFaults = 0;
    /** Cumulative-DUE fraction of a canary cohort that raises the
     *  fleet alert (summary-time derivation); 0 disables. */
    double canaryDueThreshold = 0;
};

/** The declarative part of a fleet (cohorts + policies + epoch). */
struct FleetSetup
{
    /** Epoch length; the default is one month of the 365.25-day
     *  year, so 12 epochs per simulated year. */
    double epochHours = hoursPerYear / 12.0;
    FleetPolicies policies;
    std::vector<FleetCohort> cohorts;

    /** Total slots; cohorts occupy consecutive slot-index ranges in
     *  declaration order, so slot -> cohort is a prefix-sum lookup. */
    std::uint64_t
    totalDimms() const
    {
        std::uint64_t total = 0;
        for (const auto &cohort : cohorts)
            total += cohort.dimms;
        return total;
    }

    /** First slot index of cohort @p index. */
    std::uint64_t
    cohortBegin(std::size_t index) const
    {
        std::uint64_t begin = 0;
        for (std::size_t i = 0; i < index; ++i)
            begin += cohorts[i].dimms;
        return begin;
    }
};

/** Everything runFleetShard needs; assembled from a campaign spec by
 *  campaign::fleetConfigFor(). */
struct FleetConfig
{
    FleetSetup setup;
    std::uint64_t seed = 0;
    double years = evaluationYears;
    faultsim::OnDieOptions onDie{};

    double horizonHours() const { return years * hoursPerYear; }
    /** Number of epochs covering the horizon (last may be partial). */
    unsigned
    epochs() const
    {
        return static_cast<unsigned>(
            std::ceil(horizonHours() / setup.epochHours));
    }
};

/**
 * Per-cohort, per-epoch event deltas. Each array has one entry per
 * epoch; every entry is an exact integer count of events observed in
 * (or effective from the start of) that epoch, so merging shard
 * results is elementwise addition. Derived time series (in-service
 * counts, availability, scrub traffic) are prefix sums over these
 * deltas -- see inServiceSeries().
 */
struct CohortSeries
{
    /** DIMMs entering service at the start of epoch e (initial
     *  deployment and replacements). */
    std::vector<std::uint64_t> installs;
    /** DIMMs out of service from the start of epoch e (pulled after a
     *  DUE or a retirement during epoch e-1). */
    std::vector<std::uint64_t> removals;
    /** Detected uncorrectable errors observed during epoch e. */
    std::vector<std::uint64_t> due;
    /** Silent data corruptions during epoch e. */
    std::vector<std::uint64_t> sdc;
    /** Replacement installs during epoch e (subset of installs). */
    std::vector<std::uint64_t> replacements;
    /** Retirement pulls during epoch e (threshold policy). */
    std::vector<std::uint64_t> retirements;
    /** Class x kind-set x outcome attribution of every recorded
     *  failure (same machinery as the reliability campaigns). */
    obs::FailureAttribution attribution;

    void
    resize(unsigned epochs)
    {
        installs.assign(epochs, 0);
        removals.assign(epochs, 0);
        due.assign(epochs, 0);
        sdc.assign(epochs, 0);
        replacements.assign(epochs, 0);
        retirements.assign(epochs, 0);
    }

    unsigned
    epochs() const
    {
        return static_cast<unsigned>(installs.size());
    }

    /** Exact elementwise fold; order-insensitive. An empty side is
     *  the merge identity. */
    void merge(const CohortSeries &other);

    std::uint64_t totalDue() const;
    std::uint64_t totalSdc() const;
    std::uint64_t totalInstalls() const;
    std::uint64_t totalReplacements() const;
    std::uint64_t totalRetirements() const;
};

/** One shard's (or the whole fleet's) merged per-cohort series. */
struct FleetResult
{
    std::vector<CohortSeries> cohorts;

    /** Exact merge; an empty (default) side is the identity. */
    void merge(const FleetResult &other);
};

/**
 * Simulate slots [begin, end) of the fleet, single-threaded, and
 * return the partial per-cohort series. Slot s draws from
 * Rng::stream(config.seed, s) and its full history runs here, so
 * merging adjacent shards reproduces the whole-fleet result exactly
 * regardless of where the range was cut. @p progress (optional)
 * receives batched slot / failure-event counts.
 */
FleetResult runFleetShard(const FleetConfig &config, std::uint64_t begin,
                          std::uint64_t end,
                          faultsim::McProgress *progress = nullptr);

/**
 * DIMMs of one cohort in service at the start of each epoch:
 * inService[e] = sum(installs[0..e]) - sum(removals[0..e]).
 */
std::vector<std::uint64_t> inServiceSeries(const CohortSeries &series);

/**
 * First epoch at which a canary cohort's cumulative DUE count reaches
 * @p threshold x @p dimms (ceiling, at least one DUE); nullopt when
 * never reached or the threshold is disabled (<= 0).
 */
std::optional<unsigned> canaryAlertEpoch(const CohortSeries &series,
                                         std::uint64_t dimms,
                                         double threshold);

} // namespace xed::fleet

#endif // XED_FLEET_FLEET_HH
