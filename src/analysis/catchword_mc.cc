#include "analysis/catchword_mc.hh"

#include <algorithm>
#include <limits>

#include "analysis/multi_catchword.hh"
#include "common/stream_scan.hh"

namespace xed::analysis
{

std::uint64_t
monteCarloWritesToCollision(std::uint64_t seed, std::uint64_t trials)
{
    Rng rng(seed);
    const std::uint64_t catchWord = rng.next() & 0xFFFF;
    if (trials == 0)
        return 0;
    // Trial t ends at the t-th matching write, so the writes of all
    // trials sum to the stream offset of the last match, plus one.
    std::uint64_t matches = 0;
    std::uint64_t writes = 0;
    scanStream(
        rng, std::numeric_limits<std::uint64_t>::max(),
        [catchWord](Rng &r) { return (r.next() & 0xFFFF) == catchWord; },
        [&](std::uint64_t offset) {
            if (++matches < trials)
                return true;
            writes = offset + 1;
            return false;
        });
    return writes;
}

std::uint64_t
monteCarloMultiCatchWordAccesses(Rng &rng, double scalingRate,
                                 std::uint64_t accesses)
{
    // No access draws more than `chips` values, so the accesses draw
    // from the first chips * accesses; replay them over the positions
    // of the catch-words (successes) among those draws.
    constexpr std::uint64_t chips = 9;
    const double p = probWordHasScalingFault(scalingRate);
    std::uint64_t done = 0;  // accesses finished
    std::uint64_t start = 0; // first draw of access `done`
    bool oneSeen = false;    // access `done` has one catch-word so far
    std::uint64_t multi = 0;
    scanStream(
        rng, chips * accesses, [p](Rng &r) { return r.bernoulli(p); },
        [&](std::uint64_t success) {
            // Accesses that end before this draw got at most one
            // catch-word and used all `chips` draws.
            const std::uint64_t ended =
                std::min((success - start) / chips, accesses - done);
            if (ended > 0) {
                done += ended;
                start += ended * chips;
                oneSeen = false;
            }
            if (done == accesses)
                return false;
            if (!oneSeen) {
                oneSeen = true;
                return true;
            }
            ++multi;
            ++done;
            start = success + 1;
            oneSeen = false;
            return done < accesses;
        });
    // The rest find no second catch-word in their draws either.
    start += (accesses - done) * chips;
    rng.jump(start);
    return multi;
}

} // namespace xed::analysis
