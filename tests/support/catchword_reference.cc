#include "tests/support/catchword_reference.hh"

#include "analysis/multi_catchword.hh"

namespace xed::analysis::reference
{

double
writesToCollisionSum(std::uint64_t seed, std::uint64_t trials)
{
    Rng rng(seed);
    const std::uint64_t catchWord = rng.next() & 0xFFFF;
    double sum = 0;
    for (std::uint64_t t = 0; t < trials; ++t) {
        std::uint64_t writes = 1;
        while ((rng.next() & 0xFFFF) != catchWord)
            ++writes;
        sum += static_cast<double>(writes);
    }
    return sum;
}

std::uint64_t
multiCatchWordAccesses(Rng &rng, double rate, std::uint64_t accesses)
{
    const double p = probWordHasScalingFault(rate);
    std::uint64_t multi = 0;
    for (std::uint64_t a = 0; a < accesses; ++a) {
        unsigned catchWords = 0;
        for (unsigned chip = 0; chip < 9 && catchWords < 2; ++chip)
            catchWords += rng.bernoulli(p) ? 1 : 0;
        multi += (catchWords >= 2) ? 1 : 0;
    }
    return multi;
}

} // namespace xed::analysis::reference
