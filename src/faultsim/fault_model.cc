#include "faultsim/fault_model.hh"

#include <cmath>

namespace xed::faultsim
{

FaultKind
pickFaultKind(const FitTable &fit, double draw)
{
    double cumulative = 0;
    for (unsigned i = 0; i + 1 < numFaultKinds; ++i) {
        cumulative += fit.rates[i].total();
        // Strict <: a draw landing exactly on a boundary belongs to
        // the next kind, which keeps zero-rate kinds (empty brackets,
        // notably draw == 0 with rates[0] == 0) unreachable.
        if (draw < cumulative)
            return static_cast<FaultKind>(i);
    }
    return static_cast<FaultKind>(numFaultKinds - 1);
}

SampleContext::SampleContext(const FitTable &fit,
                             const AddressLayout &layout,
                             const DimmShape &shape, double hours,
                             double scrubIntervalHours)
    : layout_(layout), shape_(shape), hours_(hours),
      scrubIntervalHours_(scrubIntervalHours)
{
    // Same accumulation order as fit.totalFit() / pickFaultKind's
    // linear scan, so every derived double is bit-identical to the
    // values the per-call path used to recompute.
    double cumulative = 0;
    for (unsigned i = 0; i < numFaultKinds; ++i) {
        const FitEntry &entry = fit.rates[i];
        kindTotal_[i] = entry.total();
        kindTransient_[i] = entry.transient;
        cumulative += entry.total();
        kindCdf_[i] = cumulative;
    }
    totalFit_ = cumulative;

    const double perChip = totalFit_ * 1e-9 * hours_;
    lambda_ = perChip * shape_.chips();
    expNegLambda_ = std::exp(-lambda_);
    knuthZeroMax_ = static_cast<std::uint64_t>(
        std::floor(expNegLambda_ * 0x1.0p53));
}

std::vector<FaultEvent>
sampleDimmFaults(Rng &rng, const FitTable &fit, const AddressLayout &layout,
                 const DimmShape &shape, double hours,
                 double scrubIntervalHours)
{
    const SampleContext ctx(fit, layout, shape, hours,
                            scrubIntervalHours);
    std::vector<FaultEvent> events;
    sampleDimmFaultsInto(rng, ctx, events);
    return events;
}

} // namespace xed::faultsim
