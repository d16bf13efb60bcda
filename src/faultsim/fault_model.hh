/**
 * @file
 * Runtime-fault event sampling for the Monte-Carlo engine.
 *
 * Fault arrivals per chip form independent Poisson processes, one per
 * Table I row; event times are uniform over the simulated lifetime.
 * Multi-rank events insert a whole-chip range at the same chip position
 * of every rank of the DIMM (shared-circuitry failure).
 */

#ifndef XED_FAULTSIM_FAULT_MODEL_HH
#define XED_FAULTSIM_FAULT_MODEL_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "faultsim/fault_range.hh"
#include "faultsim/fit_rates.hh"

namespace xed::faultsim
{

/** One runtime fault materialized in a specific chip. */
struct FaultEvent
{
    unsigned rank = 0;
    unsigned chip = 0; ///< position within the rank
    FaultKind kind = FaultKind::Bit;
    bool transient = false;
    double timeHours = 0;
    /**
     * When the fault stops being visible: infinity for permanent
     * faults (no repair modeled), and the next patrol-scrub boundary
     * for transient faults when scrubbing is enabled. Two faults can
     * only combine into a multi-chip failure while both are active.
     */
    double expiresHours = 1e300;
    FaultRange range{};

    bool
    concurrentWith(const FaultEvent &other) const
    {
        return timeHours <= other.expiresHours &&
               other.timeHours <= expiresHours;
    }
};

/**
 * Map a draw in [0, fit.totalFit()) to the fault kind whose cumulative
 * FIT bracket contains it. A draw landing exactly on a bracket
 * boundary belongs to the next kind, so zero-rate kinds (an empty
 * bracket, notably draw == 0 when the first entry is zero) are
 * unreachable.
 */
FaultKind pickFaultKind(const FitTable &fit, double draw);

/** Organization of one sampling unit (usually one DIMM). */
struct DimmShape
{
    unsigned ranks = 2;
    unsigned chipsPerRank = 9;
    /**
     * Expand multi-rank events into a twin chip failure on the other
     * rank of this unit. Set to false when the unit's ranks come from
     * different DIMMs (cross-channel Double-Chipkill): the twin then
     * falls into a different codeword group and is modeled by that
     * group's own sampling.
     */
    bool twinMultiRank = true;
    unsigned chips() const { return ranks * chipsPerRank; }
};

/**
 * Everything the per-system sampling loop needs, derived once per
 * Monte-Carlo shard instead of once per sampled DIMM: the FIT-table
 * sum, the prefix-sum CDF over fault kinds, per-kind transient
 * fractions, the Poisson rate lambda with exp(-lambda), and the DIMM
 * shape.
 *
 * Immutable after construction, so one context can be shared by any
 * number of concurrent workers. The draw path through a context is
 * bit-identical to the historical sampleDimmFaults() free function:
 * every derived quantity is computed with the same operations in the
 * same order, only earlier.
 */
class SampleContext
{
  public:
    SampleContext(const FitTable &fit, const AddressLayout &layout,
                  const DimmShape &shape, double hours,
                  double scrubIntervalHours = 0);

    /**
     * Poisson fault count for one DIMM lifetime: Knuth's
     * product-of-uniforms loop (k + 1 uniform draws for a count of k)
     * against the hoisted exp(-lambda) limit. Inline: this is the
     * per-channel fast path -- >= 93% of draws at Table I rates return
     * 0 after a single uniform + compare.
     */
    unsigned
    sampleFaultCount(Rng &rng) const
    {
        // First iteration has p == u0 exactly, so the zero-fault test
        // (the >= 93% case) reduces to one integer compare against
        // floor(exp(-lambda) * 2^53): u0 <= threshold iff
        // u0 * 2^-53 <= exp(-lambda).
        const std::uint64_t u0 = rng.next() >> 11;
        return u0 <= knuthZeroMax_ ? 0 : faultCountAfter(u0, rng);
    }

    /**
     * The rest of sampleFaultCount() after a first raw 53-bit draw
     * @p u0 above knuthZeroMax(): the count (at least 1) of a lifetime
     * whose first draw the zero-fault filter already made.
     */
    unsigned
    faultCountAfter(std::uint64_t u0, Rng &rng) const
    {
        double p = static_cast<double>(u0) * 0x1.0p-53;
        unsigned k = 1;
        do {
            ++k;
            p *= rng.uniform();
        } while (p > expNegLambda_);
        return k - 1;
    }

    /**
     * Map a draw in [0, totalFit()) to its fault kind via the prefix
     * CDF: the number of CDF entries at or below the draw. Matches
     * pickFaultKind(fit, draw) exactly, boundary rule included (a draw
     * on a bracket boundary belongs to the next kind), because FIT
     * rates are non-negative and the CDF never decreases.
     */
    FaultKind
    pickKind(double draw) const
    {
        unsigned kind = 0;
        for (unsigned i = 0; i + 1 < numFaultKinds; ++i)
            kind += kindCdf_[i] <= draw;
        return static_cast<FaultKind>(kind);
    }

    /** rangeWildcard() for @p kind, from a table. */
    std::uint64_t
    rangeMask(FaultKind kind) const
    {
        return rangeMask_[static_cast<unsigned>(kind)];
    }

    double totalFit() const { return totalFit_; }
    /** The Knuth zero-draw threshold: a raw 53-bit draw at or below
     *  this is a zero-fault lifetime. Exposed for the vectorized
     *  zero-fault filter (zero_filter.hh). */
    std::uint64_t knuthZeroMax() const { return knuthZeroMax_; }
    double lambda() const { return lambda_; }
    double expNegLambda() const { return expNegLambda_; }
    double hours() const { return hours_; }
    double scrubIntervalHours() const { return scrubIntervalHours_; }
    const DimmShape &shape() const { return shape_; }
    const AddressLayout &layout() const { return layout_; }
    double kindTotal(FaultKind k) const
    {
        return kindTotal_[static_cast<unsigned>(k)];
    }
    double kindTransient(FaultKind k) const
    {
        return kindTransient_[static_cast<unsigned>(k)];
    }

  private:
    AddressLayout layout_;
    DimmShape shape_;
    double hours_;
    double scrubIntervalHours_;
    double totalFit_;
    double lambda_;
    double expNegLambda_;
    /** floor(expNegLambda_ * 2^53): raw 53-bit draws at or below this
     *  are zero-fault lifetimes (integer form of u <= exp(-lambda)). */
    std::uint64_t knuthZeroMax_;
    /** kindCdf_[i] = sum of rates[0..i].total(), accumulated in the
     *  same left-to-right order as pickFaultKind's linear scan. */
    std::array<double, numFaultKinds> kindCdf_;
    std::array<double, numFaultKinds> kindTotal_;
    std::array<double, numFaultKinds> kindTransient_;
    std::array<std::uint64_t, numFaultKinds> rangeMask_;
};

/**
 * Materialize @p count already-drawn fault events into @p out
 * (cleared first). The engine's survivors draw each count with
 * ctx.faultCountAfter() and only pay this call when it is nonzero.
 * Allocation-free once @p out has warmed up to its high-water
 * capacity. Inline so the materialization fuses into the engine loop.
 */
inline void
sampleDimmFaultsInto(Rng &rng, const SampleContext &ctx, unsigned count,
                     std::vector<FaultEvent> &out)
{
    out.clear();

    // Attribute each of the @p count sampled events to a chip, kind,
    // permanence, time and address range. The shape fields are hoisted
    // into locals: the vector writes below could alias same-typed
    // members behind the references, which would otherwise force a
    // reload every iteration.
    const DimmShape &shape = ctx.shape();
    const std::uint64_t allMask = ctx.layout().allMask();
    const unsigned ranks = shape.ranks;
    const unsigned chipsPerRank = shape.chipsPerRank;
    const unsigned chips = ranks * chipsPerRank;
    const bool twinMultiRank = shape.twinMultiRank;
    const double hours = ctx.hours();
    const double scrubIntervalHours = ctx.scrubIntervalHours();
    for (unsigned e = 0; e < count; ++e) {
        const unsigned chipLinear =
            static_cast<unsigned>(rng.below(chips));
        const auto kind = ctx.pickKind(rng.uniform() * ctx.totalFit());
        const bool transient =
            rng.uniform() * ctx.kindTotal(kind) < ctx.kindTransient(kind);
        const double time = rng.uniform() * hours;

        FaultEvent ev;
        // chipLinear -> (rank, chip). Every shape in the paper is
        // dual-rank, where the split is a branchless compare +
        // subtract; the general division only runs for exotic shapes.
        if (ranks == 2) {
            ev.rank = chipLinear >= chipsPerRank ? 1u : 0u;
            ev.chip = chipLinear - ev.rank * chipsPerRank;
        } else {
            ev.rank = chipLinear / chipsPerRank;
            ev.chip = chipLinear % chipsPerRank;
        }
        ev.kind = kind;
        ev.transient = transient;
        ev.timeHours = time;
        if (transient && scrubIntervalHours > 0) {
            // The patrol scrubber rewrites (and thereby heals) the
            // affected cells at the next scrub boundary.
            ev.expiresHours =
                (std::floor(time / scrubIntervalHours) + 1.0) *
                scrubIntervalHours;
        }
        // The kind's wildcard mask, then one draw for the fixed bits.
        ev.range.mask = ctx.rangeMask(kind);
        ev.range.addr = rng.next() & allMask & ~ev.range.mask;
        out.push_back(ev);

        if (kind == FaultKind::MultiRank && twinMultiRank) {
            // Shared circuitry: the same chip position fails in every
            // other rank of the DIMM at the same time.
            for (unsigned r = 0; r < ranks; ++r) {
                if (r == ev.rank)
                    continue;
                FaultEvent twin = ev;
                twin.rank = r;
                out.push_back(twin);
            }
        }
    }
}

/**
 * Sample all runtime fault events of one DIMM into @p out (cleared
 * first): count draw + materialization in one call. A zero-fault draw
 * -- >= 93% of DIMMs at Table I rates -- returns before constructing
 * any event.
 */
inline void
sampleDimmFaultsInto(Rng &rng, const SampleContext &ctx,
                     std::vector<FaultEvent> &out)
{
    const unsigned count = ctx.sampleFaultCount(rng);
    if (count == 0) {
        out.clear();
        return;
    }
    sampleDimmFaultsInto(rng, ctx, count, out);
}

/**
 * Sample all runtime fault events of one DIMM over @p hours.
 * Multi-rank events expand into one FaultEvent per rank.
 *
 * Convenience wrapper: builds a throwaway SampleContext per call.
 * Draw-sequence identical to sampleDimmFaultsInto with a hoisted
 * context.
 *
 * @param scrubIntervalHours patrol-scrub period; transient faults are
 *        rewritten (and thus disappear) at the next scrub boundary.
 *        <= 0 disables scrubbing (the paper's accumulate-forever
 *        model).
 */
std::vector<FaultEvent> sampleDimmFaults(Rng &rng, const FitTable &fit,
                                         const AddressLayout &layout,
                                         const DimmShape &shape,
                                         double hours,
                                         double scrubIntervalHours = 0);

} // namespace xed::faultsim

#endif // XED_FAULTSIM_FAULT_MODEL_HH
