#include "perfsim/tracegen.hh"

#include <algorithm>
#include <cmath>

namespace xed::perfsim
{

namespace
{

double
gapRate(const Workload &workload)
{
    // Memory operations per kilo-instruction: reads (MPKI) plus the
    // proportional writeback traffic.
    const double opsPerKiloInstr =
        workload.mpki / (1.0 - workload.writeFraction);
    const double meanGap = 1000.0 / opsPerKiloInstr;
    return 1.0 / meanGap;
}

} // namespace

TraceGen::TraceGen(const Workload &workload, const AddressSpace &space,
                   std::uint64_t seed)
    : gapRate_(gapRate(workload)), writeFraction_(workload.writeFraction),
      rowHitRate_(workload.rowHitRate), space_(space), rng_(seed)
{
    current_.channel = static_cast<unsigned>(rng_.below(space_.channels));
    current_.rank = static_cast<unsigned>(rng_.below(space_.ranks));
    current_.bank = static_cast<unsigned>(rng_.below(space_.banks));
    current_.row = static_cast<unsigned>(rng_.below(space_.rows));
    current_.col = static_cast<unsigned>(rng_.below(space_.cols));
}

MemOp
TraceGen::next()
{
    MemOp op;
    op.gapInstrs = static_cast<unsigned>(
        std::min(1e6, rng_.exponential(gapRate_)));
    op.isWrite = rng_.bernoulli(writeFraction_);

    if (rng_.bernoulli(rowHitRate_)) {
        // Stay in the open row: next line of the same row.
        current_.col = (current_.col + 1) % space_.cols;
    } else {
        current_.channel =
            static_cast<unsigned>(rng_.below(space_.channels));
        current_.rank = static_cast<unsigned>(rng_.below(space_.ranks));
        current_.bank = static_cast<unsigned>(rng_.below(space_.banks));
        current_.row = static_cast<unsigned>(rng_.below(space_.rows));
        current_.col = static_cast<unsigned>(rng_.below(space_.cols));
    }
    op.addr = current_;
    return op;
}

} // namespace xed::perfsim
