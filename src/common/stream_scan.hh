/**
 * @file
 * Find the draws of one RNG stream that match a predicate, on
 * XED_MC_THREADS workers, in the order a serial loop would meet them.
 *
 * A serial Monte-Carlo loop over a single stream (Figure 6's collision
 * search, Table III's catch-word accesses) cannot be split into
 * per-trial streams without changing its draws. But the stream's
 * state update is linear, so Rng::jump() puts a worker at any offset,
 * and the workers can scan consecutive chunks of the same stream while
 * the caller sees every match in stream order: the results are those
 * of the serial loop at any thread count (DESIGN.md section 4b).
 */

#ifndef XED_COMMON_STREAM_SCAN_HH
#define XED_COMMON_STREAM_SCAN_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/env.hh"
#include "common/ordered_pool.hh"
#include "common/rng.hh"

namespace xed
{

/**
 * Draws per chunk of scanStream(). One chunk takes ~2 ms to scan, so
 * the jump (~8 us) and the hand-over per chunk cost little, and a
 * match offset fits in 32 bits.
 */
inline constexpr std::uint64_t scanChunkDraws = std::uint64_t{1} << 20;

/**
 * Scan draws [0, limit) of the stream that starts at @p start, without
 * advancing it. Draw i matches if match(r) returns true for an Rng r
 * positioned at draw i; match must draw exactly one value from r. The
 * offset i of each match reaches onMatch(i) in increasing order, on
 * the calling thread, until onMatch returns false or the window ends.
 *
 * The first chunk runs on the calling thread and stops at the match
 * onMatch declines, so a scan that ends there starts no thread and
 * makes no jump. The later chunks go to resolveWorkerThreads workers
 * on runOrdered() (the calling thread goes on alone when that is one),
 * which run at most two chunks each ahead of the caller, so only that
 * many chunks' match offsets are held at a time. match runs
 * concurrently on the workers; an exception it throws reaches the
 * caller at its chunk.
 */
template <class Match, class OnMatch>
void
scanStream(const Rng &start, std::uint64_t limit, Match match,
           OnMatch onMatch)
{
    Rng rng = start;
    const auto scanHere = [&](std::uint64_t from, std::uint64_t to) {
        for (std::uint64_t i = from; i < to; ++i)
            if (match(rng) && !onMatch(i))
                return false;
        return true;
    };
    const std::uint64_t first = std::min(limit, scanChunkDraws);
    if (!scanHere(0, first) || first == limit)
        return;

    const std::uint64_t rest = limit - first;
    const std::uint64_t chunks =
        rest / scanChunkDraws + (rest % scanChunkDraws != 0);
    const unsigned workers = resolveWorkerThreads(0, chunks);
    if (workers == 1) {
        // A lone worker beside an idle caller made a one-thread fig06
        // ~20% slower than this loop (0.62 s against 0.50 s).
        scanHere(first, limit);
        return;
    }

    // Chunk k starts at draw first + k * scanChunkDraws; its slot holds
    // its match offsets, relative to the chunk.
    using Offsets = std::vector<std::uint32_t>;
    const auto chunkStart = [&](std::uint64_t k) {
        return first + k * scanChunkDraws;
    };
    runOrdered<Offsets>(
        workers, 2 * std::uint64_t{workers},
        [&](std::uint64_t k, Offsets &) { return k < chunks; },
        [&](std::uint64_t k, Offsets &out) {
            const std::uint64_t at = chunkStart(k);
            const std::uint64_t draws = std::min(scanChunkDraws, limit - at);
            out.clear();
            Rng jumped = start;
            jumped.jump(at);
            // A copy that no out-of-line call has seen can live in
            // registers; `jumped` escaped to jump() and stays in memory.
            Rng local = jumped;
            for (std::uint64_t i = 0; i < draws; ++i)
                if (match(local))
                    out.push_back(static_cast<std::uint32_t>(i));
        },
        [&](const OrderedRun<Offsets> &run) {
            for (std::uint64_t k = run.begin; k < run.end; ++k)
                for (const std::uint32_t offset : run[k])
                    if (!onMatch(chunkStart(k) + offset))
                        return false;
            return true;
        });
}

} // namespace xed

#endif // XED_COMMON_STREAM_SCAN_HH
