#include "tests/support/engine_reference.hh"

#include <cmath>
#include <vector>

#include "tests/support/random_range.hh"
#include "tests/support/sample_poisson.hh"

namespace xed::faultsim
{

namespace
{

/** One DIMM's events, drawn as the engine drew them: a Knuth count,
 *  then chip, kind (a linear scan of the FIT table), permanence, time
 *  and range for each event, multi-rank twins right after theirs. */
void
sampleDimm(Rng &rng, const McConfig &config, const AddressLayout &layout,
           const DimmShape &shape, double hours, double lambda,
           std::vector<FaultEvent> &events)
{
    events.clear();
    const unsigned count = samplePoisson(rng, lambda);
    for (unsigned e = 0; e < count; ++e) {
        const unsigned chipLinear =
            static_cast<unsigned>(rng.below(shape.chips()));
        const FaultKind kind = pickFaultKind(
            config.fit, rng.uniform() * config.fit.totalFit());
        const FitEntry &rate = config.fit.entry(kind);
        FaultEvent ev;
        ev.rank = chipLinear / shape.chipsPerRank;
        ev.chip = chipLinear % shape.chipsPerRank;
        ev.kind = kind;
        ev.transient = rng.uniform() * rate.total() < rate.transient;
        ev.timeHours = rng.uniform() * hours;
        if (ev.transient && config.scrubIntervalHours > 0)
            ev.expiresHours =
                (std::floor(ev.timeHours / config.scrubIntervalHours) +
                 1.0) *
                config.scrubIntervalHours;
        ev.range = randomRange(rng, layout, kind);
        events.push_back(ev);
        if (kind == FaultKind::MultiRank && shape.twinMultiRank)
            for (unsigned r = 0; r < shape.ranks; ++r)
                if (r != ev.rank) {
                    FaultEvent twin = ev;
                    twin.rank = r;
                    events.push_back(twin);
                }
    }
}

} // namespace

McResult
referenceMonteCarloShard(const Scheme &scheme, const McConfig &config,
                         std::uint64_t begin, std::uint64_t end)
{
    McResult partial;
    const AddressLayout layout(config.geometry);
    const double hours = config.years * hoursPerYear;
    const DimmShape shape = scheme.dimmShape();
    const double lambda =
        config.fit.totalFit() * 1e-9 * hours * shape.chips();
    unsigned creditYears = 0;
    while (creditYears < 7 && (creditYears + 1) * hoursPerYear <= hours)
        ++creditYears;

    std::vector<FaultEvent> events;
    EvalScratch scratch;
    std::array<std::uint64_t, 8> failByYear{};
    for (std::uint64_t s = begin; s < end; ++s) {
        Rng rng = Rng::stream(config.seed, s);
        SchemeFailure fail;
        fail.timeHours = -1;
        for (unsigned ch = 0; ch < config.channels; ++ch) {
            sampleDimm(rng, config, layout, shape, hours, lambda, events);
            if (events.empty())
                continue;
            if (const auto f =
                    scheme.evaluateDimm(events, layout, rng, scratch)) {
                if (fail.timeHours < 0 || f->timeHours < fail.timeHours)
                    fail = *f;
            }
        }
        if (fail.timeHours < 0)
            continue;
        for (unsigned y = creditYears;
             y >= 1 && fail.timeHours <= y * hoursPerYear; --y)
            ++failByYear[y];
        partial.failureTypes.inc(fail.type);
        partial.attribution.record(fail.cls, fail.kindsMask, fail.outcome);
        if (partial.autopsy.size() < McResult::maxAutopsyRecords)
            partial.autopsy.push_back({s, fail.timeHours, fail.type,
                                       fail.kindsMask, fail.cls,
                                       fail.outcome});
    }
    for (unsigned y = 1; y <= creditYears; ++y)
        partial.failByYear[y].addMany(failByYear[y], end - begin);
    return partial;
}

std::string
mcResultDifference(const McResult &a, const McResult &b)
{
    for (unsigned y = 0; y < a.failByYear.size(); ++y)
        if (a.failByYear[y].successes() != b.failByYear[y].successes() ||
            a.failByYear[y].trials() != b.failByYear[y].trials())
            return "failByYear[" + std::to_string(y) + "]";
    if (a.failureTypes.all() != b.failureTypes.all())
        return "failureTypes";
    if (a.attribution.byClassKinds != b.attribution.byClassKinds ||
        a.attribution.byOutcome != b.attribution.byOutcome)
        return "attribution";
    if (a.autopsy.size() != b.autopsy.size())
        return "autopsy size";
    for (std::size_t i = 0; i < a.autopsy.size(); ++i) {
        const AutopsyRecord &x = a.autopsy[i];
        const AutopsyRecord &y = b.autopsy[i];
        if (x.system != y.system || x.timeHours != y.timeHours ||
            std::string(x.type) != y.type || x.kindsMask != y.kindsMask ||
            x.cls != y.cls || x.outcome != y.outcome)
            return "autopsy[" + std::to_string(i) + "]";
    }
    return "";
}

} // namespace xed::faultsim
