#include "faultsim/engine.hh"

#include <algorithm>
#include <limits>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "faultsim/zero_filter.hh"
#include "obs/trace.hh"

namespace xed::faultsim
{

namespace
{

/**
 * Reserve enough for any fault set a DIMM realistically draws:
 * expected faults per DIMM over 7 years is ~0.07 (Table I), so 64
 * concurrent events is astronomically beyond the high-water mark.
 * Reserving up front makes the steady-state per-system loop
 * allocation-free (pinned by the counting-allocator test).
 */
constexpr std::size_t eventReserve = 64;

/**
 * Faulty-path evaluation batch (DESIGN.md section 4j): how many
 * survivors of the zero-fault filter are queued before the scheme
 * evaluates them back to back.
 */
constexpr std::size_t evalBatch = 16;

/**
 * Simulate systems [begin, end) and accumulate into @p partial. Each
 * system's RNG is derived from (seed, s) alone, so the shard
 * boundaries never affect the sampled faults.
 *
 * All sampling invariants (FIT sums, kind CDF, exp(-lambda), shape)
 * are hoisted into one immutable SampleContext before the loop, and
 * the event/scratch buffers are reused across systems: the loop body
 * re-derives nothing and allocates nothing in steady state.
 */
void
runShard(const Scheme &scheme, const McConfig &config,
         const AddressLayout &layout, const FitTable &fit,
         const DimmShape &shape, std::uint64_t begin, std::uint64_t end,
         McResult &partial)
{
    // Progress is flushed in batches so the hot loop pays one relaxed
    // fetch_add per progressBatch systems, not per system.
    constexpr std::uint64_t progressBatch = 256;
    std::uint64_t batchedSystems = 0;
    std::uint64_t batchedFailures = 0;
    const auto flushProgress = [&] {
        if (config.progress && batchedSystems) {
            config.progress->systemsDone.fetch_add(
                batchedSystems, std::memory_order_relaxed);
            config.progress->failedSystems.fetch_add(
                batchedFailures, std::memory_order_relaxed);
            batchedSystems = batchedFailures = 0;
        }
    };

    const double hours = config.years * hoursPerYear;
    const SampleContext ctx(fit, layout, shape, hours,
                            config.scrubIntervalHours);
    // Only credit years that were fully simulated: a run with
    // years = 0.5 must not report a year-1 failure probability.
    unsigned creditYears = 0;
    while (creditYears < 7 &&
           (creditYears + 1) * hoursPerYear <= hours)
        ++creditYears;

    std::vector<FaultEvent> events;
    events.reserve(eventReserve);
    EvalScratch scratch;
    scratch.reserve(eventReserve);
    // Forensic exemplars are capped, so reserving the cap up front
    // keeps the loop body allocation-free.
    partial.autopsy.reserve(McResult::maxAutopsyRecords);

    // Year crediting is batched per shard: the loop bumps local
    // counters and one addMany per year flushes them at the end.
    // Pure integer totals, so the result is byte-identical to the
    // per-system add() it replaces.
    std::array<std::uint64_t, 8> failByYear{};
    std::uint64_t systemsTotal = 0;

    const std::uint64_t mixedSeed = Rng::mixSeed(config.seed);
    const auto simulateSystem = [&](std::uint64_t s) {
        Rng rng = Rng::streamMixed(mixedSeed, s);
        SchemeFailure fail;
        fail.timeHours = -1;
        for (unsigned ch = 0; ch < config.channels; ++ch) {
            // Zero-fault lifetimes (>= 93% of channels at Table I
            // rates) cost one count draw and nothing else.
            const unsigned count = ctx.sampleFaultCount(rng);
            if (count == 0)
                continue;
            sampleDimmFaultsInto(rng, ctx, count, events);
            if (const auto f =
                    scheme.evaluateDimm(events, layout, rng, scratch)) {
                if (fail.timeHours < 0 || f->timeHours < fail.timeHours)
                    fail = *f;
            }
        }
        ++systemsTotal;
        if (fail.timeHours >= 0) {
            for (unsigned y = creditYears;
                 y >= 1 && fail.timeHours <= y * hoursPerYear; --y)
                ++failByYear[y];
            partial.failureTypes.inc(fail.type);
            partial.attribution.record(fail.cls, fail.kindsMask,
                                       fail.outcome);
            if (partial.autopsy.size() < McResult::maxAutopsyRecords)
                partial.autopsy.push_back({s, fail.timeHours, fail.type,
                                           fail.kindsMask, fail.cls,
                                           fail.outcome});
            ++batchedFailures;
        }
        if (++batchedSystems >= progressBatch)
            flushProgress();
    };

    // Faulty-path evaluation batch (DESIGN.md section 4j): survivor
    // lanes are queued and flushed in runs of evalBatch back-to-back
    // simulateSystem calls, so the expensive scheme-evaluation body
    // executes over a dense batch (warm scratch buffers and probability
    // cache, no interleaved filter work) instead of one lane at a time.
    // Survivors are collected and flushed in ascending system order and
    // each one runs the unmodified scalar body from its own derived
    // stream; zero-lane crediting is pure integer bookkeeping that
    // commutes with evaluation, so the result is byte-identical for
    // every batch size, including 1.
    std::vector<std::uint64_t> survivors;
    survivors.reserve(evalBatch);
    const auto flushSurvivors = [&] {
        for (const std::uint64_t id : survivors)
            simulateSystem(id);
        survivors.clear();
    };
    const auto deferSystem = [&](std::uint64_t id) {
        survivors.push_back(id);
        if (survivors.size() >= evalBatch)
            flushSurvivors();
    };

    // Vector zero-fault filter (the Knuth zero test is one draw +
    // compare per channel). A batch whose streams are all
    // provably zero-fault is credited without constructing a single
    // Rng -- identical bookkeeping to simulating each zero system --
    // and every other lane re-runs the unmodified scalar body from a
    // freshly derived stream, in ascending order. Results are
    // byte-identical at every level; only the time changes.
    const SimdLevel level = simdLevel();
    const unsigned filterWidth = zeroFilterWidth(level);
    std::uint64_t s = begin;
    if (filterWidth != 0) {
        const std::uint32_t allZero = (1u << filterWidth) - 1;
        for (; s + filterWidth <= end; s += filterWidth) {
            const std::uint32_t zeroMask =
                zeroFaultMask(level, mixedSeed, s, filterWidth,
                              config.channels, ctx.knuthZeroMax());
            if (zeroMask == allZero) {
                systemsTotal += filterWidth;
                batchedSystems += filterWidth;
                if (batchedSystems >= progressBatch)
                    flushProgress();
                continue;
            }
            for (unsigned i = 0; i < filterWidth; ++i) {
                if (zeroMask & (1u << i)) {
                    ++systemsTotal;
                    if (++batchedSystems >= progressBatch)
                        flushProgress();
                } else {
                    deferSystem(s + i);
                }
            }
        }
    }
    for (; s < end; ++s)
        deferSystem(s);
    flushSurvivors();
    flushProgress();
    for (unsigned y = 1; y <= creditYears; ++y)
        partial.failByYear[y].addMany(failByYear[y], systemsTotal);
}

/**
 * Resolve McConfig::threads: 0 = XED_MC_THREADS, else the hardware.
 * A malformed XED_MC_THREADS (garbage, sign, overflow) throws instead
 * of silently wrapping or resolving to "auto"; the explicit value 0
 * keeps its documented "auto" meaning.
 */
unsigned
resolveThreads(unsigned requested, std::uint64_t systems)
{
    std::uint64_t threads = requested;
    if (threads == 0) {
        if (const auto env = envU64("XED_MC_THREADS")) {
            if (*env > std::numeric_limits<unsigned>::max())
                throw std::runtime_error(
                    "XED_MC_THREADS: " + std::to_string(*env) +
                    " is not a sane worker-thread count");
            threads = *env;
        }
        if (threads == 0)
            threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    // No point spawning workers with empty shards.
    return static_cast<unsigned>(
        std::min<std::uint64_t>(threads, std::max<std::uint64_t>(
                                             systems, 1)));
}

} // namespace

McResult
runMonteCarloShard(const Scheme &scheme, const McConfig &config,
                   std::uint64_t begin, std::uint64_t end)
{
    XED_TRACE_SPAN_ARG("mc.shard", "engine", "systems", end - begin);
    const AddressLayout layout(config.geometry);
    const DimmShape shape = scheme.dimmShape();
    McResult partial;
    if (begin < end)
        runShard(scheme, config, layout, config.fit, shape, begin, end,
                 partial);
    return partial;
}

McResult
runMonteCarlo(const Scheme &scheme, const McConfig &config)
{
    const AddressLayout layout(config.geometry);
    const FitTable &fit = config.fit;
    const DimmShape shape = scheme.dimmShape();
    const unsigned threads = resolveThreads(config.threads,
                                            config.systems);

    if (threads == 1) {
        McResult result;
        runShard(scheme, config, layout, fit, shape, 0, config.systems,
                 result);
        return result;
    }

    // Fixed contiguous shards: thread t owns systems
    // [t * chunk, ...), the first (systems % threads) shards taking one
    // extra. Merging integer counts shard-by-shard is exact, so the
    // reduction below is bit-identical to the single-thread path.
    std::vector<McResult> partials(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const std::uint64_t chunk = config.systems / threads;
    const std::uint64_t extra = config.systems % threads;
    std::uint64_t begin = 0;
    for (unsigned t = 0; t < threads; ++t) {
        const std::uint64_t end = begin + chunk + (t < extra ? 1 : 0);
        workers.emplace_back([&, begin, end, t] {
            XED_TRACE_SPAN_ARG("mc.worker", "engine", "systems",
                               end - begin);
            runShard(scheme, config, layout, fit, shape, begin, end,
                     partials[t]);
        });
        begin = end;
    }
    for (auto &worker : workers)
        worker.join();

    McResult result;
    for (const auto &partial : partials)
        result.merge(partial);
    return result;
}

} // namespace xed::faultsim
