#include "faultsim/engine.hh"

#include <algorithm>
#include <bit>
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
 * One worker's simulation state: the sampling invariants (FIT sums,
 * kind CDF, exp(-lambda), shape) hoisted into one immutable
 * SampleContext, the reusable event and evaluation buffers and the
 * running counts. run() takes any number of ascending system ranges;
 * each system's RNG is derived from (seed, s) alone, so the ranges
 * never affect the sampled faults. After the set-up nothing
 * allocates.
 */
class ShardWorker
{
  public:
    ShardWorker(const Scheme &scheme, const McConfig &config,
                const AddressLayout &layout, const DimmShape &shape,
                McResult &partial)
        : scheme_(scheme), config_(config), partial_(partial),
          ctx_(config.fit, layout, shape, config.years * hoursPerYear,
               config.scrubIntervalHours),
          mixedSeed_(Rng::mixSeed(config.seed)), level_(simdLevel())
    {
        // Only credit years that were fully simulated: a run with
        // years = 0.5 must not report a year-1 failure probability.
        while (creditYears_ < 7 &&
               (creditYears_ + 1) * hoursPerYear <= ctx_.hours())
            ++creditYears_;
        // Forensic exemplars are capped, so reserving the cap up front
        // keeps the loop allocation-free.
        partial_.autopsy.reserve(McResult::maxAutopsyRecords);
        events_.reserve(eventReserve);
        eval_.reserve(eventReserve);
    }

    /**
     * Simulate systems [begin, end), 64 at a time: the zero-fault
     * filter screens a block, and each survivor continues its stream
     * from the filter's hand-off. Survivors run and are booked in
     * ascending system order, so the autopsy exemplars are the
     * lowest-indexed failures.
     */
    void
    run(std::uint64_t begin, std::uint64_t end)
    {
        for (std::uint64_t s = begin; s < end; s += blockSystems) {
            const unsigned count = static_cast<unsigned>(
                std::min<std::uint64_t>(blockSystems, end - s));
            screenBlock(level_, mixedSeed_, s, count, config_.channels,
                        ctx_.knuthZeroMax(), block_);
            for (std::uint64_t rest = block_.survivors; rest;
                 rest &= rest - 1) {
                const unsigned i =
                    static_cast<unsigned>(std::countr_zero(rest));
                const SchemeFailure fail = runSurvivor(i);
                if (fail.timeHours >= 0)
                    book(s + i, fail);
            }
            systemsTotal_ += count;
            batchedSystems_ += count;
            if (batchedSystems_ >= progressBatch)
                flushProgress();
        }
    }

    /** Flush the progress and the per-year counts into the result. */
    void
    finish()
    {
        flushProgress();
        for (unsigned y = 1; y <= creditYears_; ++y)
            partial_.failByYear[y].addMany(failByYear_[y], systemsTotal_);
    }

  private:
    // Progress is flushed in batches so the hot loop pays one relaxed
    // fetch_add per progressBatch systems, not per system.
    static constexpr std::uint64_t progressBatch = 256;

    /**
     * Survivor @p i of the block from the filter's hand-off -- its
     * stream just after its first nonzero count draw, that draw and
     * its channel -- to the end of its last channel: each faulty
     * channel sampled and evaluated, evaluation drawing from the same
     * stream. Returns the earliest failure; timeHours < 0 for none.
     */
    SchemeFailure
    runSurvivor(unsigned i)
    {
        Rng rng = Rng::fromState({block_.state[0][i], block_.state[1][i],
                                  block_.state[2][i], block_.state[3][i]});
        std::uint64_t draw = block_.draw[i];
        std::uint64_t channel = block_.channel[i];
        SchemeFailure fail;
        fail.timeHours = -1;
        for (;;) {
            sampleDimmFaultsInto(rng, ctx_, ctx_.faultCountAfter(draw, rng),
                                 events_);
            if (const auto f = scheme_.evaluateDimm(events_, ctx_.layout(),
                                                    rng, eval_))
                if (fail.timeHours < 0 || f->timeHours < fail.timeHours)
                    fail = *f;
            // A zero-fault channel costs its one count draw.
            do {
                if (++channel >= config_.channels)
                    return fail;
                draw = rng.next() >> 11;
            } while (draw <= ctx_.knuthZeroMax());
        }
    }

    void
    book(std::uint64_t system, const SchemeFailure &fail)
    {
        // Year crediting is batched: the loop bumps local counters
        // and finish() flushes them with one addMany per year.
        for (unsigned y = creditYears_;
             y >= 1 && fail.timeHours <= y * hoursPerYear; --y)
            ++failByYear_[y];
        partial_.failureTypes.inc(fail.type);
        partial_.attribution.record(fail.cls, fail.kindsMask, fail.outcome);
        if (partial_.autopsy.size() < McResult::maxAutopsyRecords)
            partial_.autopsy.push_back({system, fail.timeHours, fail.type,
                                        fail.kindsMask, fail.cls,
                                        fail.outcome});
        ++batchedFailures_;
    }

    void
    flushProgress()
    {
        if (config_.progress && batchedSystems_) {
            config_.progress->systemsDone.fetch_add(
                batchedSystems_, std::memory_order_relaxed);
            config_.progress->failedSystems.fetch_add(
                batchedFailures_, std::memory_order_relaxed);
        }
        batchedSystems_ = batchedFailures_ = 0;
    }

    const Scheme &scheme_;
    const McConfig &config_;
    McResult &partial_;
    const SampleContext ctx_;
    const std::uint64_t mixedSeed_;
    const SimdLevel level_;
    unsigned creditYears_ = 0;
    std::array<std::uint64_t, 8> failByYear_{};
    std::uint64_t systemsTotal_ = 0;
    std::uint64_t batchedSystems_ = 0;
    std::uint64_t batchedFailures_ = 0;
    SurvivorBlock block_;
    std::vector<FaultEvent> events_;
    EvalScratch eval_;
};

} // namespace

McResult
runMonteCarloShard(const Scheme &scheme, const McConfig &config,
                   std::uint64_t begin, std::uint64_t end)
{
    XED_TRACE_SPAN_ARG("mc.shard", "engine", "systems", end - begin);
    McResult partial;
    if (begin < end) {
        const AddressLayout layout(config.geometry);
        ShardWorker worker(scheme, config, layout, scheme.dimmShape(),
                           partial);
        worker.run(begin, end);
        worker.finish();
    }
    return partial;
}

McResult
runMonteCarlo(const Scheme &scheme, const McConfig &config)
{
    const AddressLayout layout(config.geometry);
    const DimmShape shape = scheme.dimmShape();
    const std::uint64_t chunks =
        (config.systems + mcWorkerChunk - 1) / mcWorkerChunk;
    const unsigned threads = resolveWorkerThreads(config.threads, chunks);

    // Workers take fixed chunks of mcWorkerChunk systems from one shared
    // index, so a slow worker holds up at most one chunk. Each takes
    // its chunks in ascending order, so its partial keeps its own
    // lowest-indexed exemplars; merging integer counts is exact and
    // the autopsy merge keeps the globally lowest indices, so the
    // reduction is bit-identical to one worker running every system.
    std::vector<McResult> partials(threads);
    std::atomic<std::uint64_t> nextChunk{0};
    const auto work = [&](unsigned t) {
        XED_TRACE_SPAN_LATE_ARG(span, "mc.worker", "engine", "systems");
        ShardWorker worker(scheme, config, layout, shape, partials[t]);
        std::uint64_t systems = 0;
        for (;;) {
            const std::uint64_t begin =
                nextChunk.fetch_add(1, std::memory_order_relaxed) *
                mcWorkerChunk;
            if (begin >= config.systems)
                break;
            const std::uint64_t end =
                std::min(config.systems, begin + mcWorkerChunk);
            worker.run(begin, end);
            systems += end - begin;
        }
        worker.finish();
        XED_TRACE_SET_ARG(span, systems);
        (void)systems;
    };
    if (threads == 1) {
        work(0);
        return std::move(partials[0]);
    }
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back(work, t);
    for (auto &worker : workers)
        worker.join();

    McResult result;
    for (const auto &partial : partials)
        result.merge(partial);
    return result;
}

} // namespace xed::faultsim
