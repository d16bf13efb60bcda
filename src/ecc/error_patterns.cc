#include "ecc/error_patterns.hh"

namespace xed::ecc
{

// The fills draw exactly as the per-trial generators of
// tests/support/pattern_reference do (same below() calls, same
// rejection rule), pinned by the equivalence suite. They build the 72
// bits in a 128-bit accumulator so placing a bit is one branchless
// shift instead of Word72's per-position lo/hi branching.

void
randomPatternsInto(Rng &rng, unsigned weight, std::span<Word72> out)
{
    for (Word72 &pattern : out) {
        unsigned __int128 bits = 0;
        unsigned placed = 0;
        while (placed < weight) {
            const unsigned pos = static_cast<unsigned>(rng.below(codeLength));
            const unsigned __int128 mask =
                static_cast<unsigned __int128>(1) << pos;
            if (!(bits & mask)) {
                bits |= mask;
                ++placed;
            }
        }
        pattern.lo = static_cast<std::uint64_t>(bits);
        pattern.hi = static_cast<std::uint8_t>(bits >> 64);
    }
}

void
solidBurstPatternsInto(Rng &rng, unsigned length, std::span<Word72> out)
{
    const unsigned starts = codeLength - length + 1;
    const unsigned __int128 run =
        (static_cast<unsigned __int128>(1) << length) - 1;
    for (Word72 &pattern : out) {
        const unsigned start = static_cast<unsigned>(rng.below(starts));
        const unsigned __int128 bits = run << start;
        pattern.lo = static_cast<std::uint64_t>(bits);
        pattern.hi = static_cast<std::uint8_t>(bits >> 64);
    }
}

} // namespace xed::ecc
