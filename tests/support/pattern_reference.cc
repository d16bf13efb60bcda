#include "tests/support/pattern_reference.hh"

namespace xed::ecc::reference
{

Word72
randomPattern(Rng &rng, unsigned weight)
{
    Word72 pattern;
    unsigned placed = 0;
    while (placed < weight) {
        const unsigned pos = static_cast<unsigned>(rng.below(codeLength));
        if (!pattern.bit(pos)) {
            pattern.setBitTo(pos, 1);
            ++placed;
        }
    }
    return pattern;
}

Word72
solidBurstPattern(Rng &rng, unsigned length)
{
    Word72 pattern;
    const unsigned start =
        static_cast<unsigned>(rng.below(codeLength - length + 1));
    for (unsigned i = 0; i < length; ++i)
        pattern.setBitTo(start + i, 1);
    return pattern;
}

Word72
burstPattern(Rng &rng, unsigned length)
{
    Word72 pattern;
    const unsigned start =
        static_cast<unsigned>(rng.below(codeLength - length + 1));
    pattern.setBitTo(start, 1);
    pattern.setBitTo(start + length - 1, 1);
    for (unsigned i = 1; i + 1 < length; ++i)
        pattern.setBitTo(start + i, rng.bernoulli(0.5) ? 1 : 0);
    return pattern;
}

void
burstPatternsInto(Rng &rng, unsigned length, std::span<Word72> out)
{
    for (Word72 &pattern : out)
        pattern = burstPattern(rng, length);
}

} // namespace xed::ecc::reference
