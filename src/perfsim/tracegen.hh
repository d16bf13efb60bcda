/**
 * @file
 * Synthetic trace generator calibrated per workload.
 *
 * Emits a stream of memory operations whose statistics match the
 * workload descriptor: mean gap of 1000*(1-wf)/MPKI instructions
 * between operations (exponentially distributed), writeFraction of
 * operations are writebacks, and the address stream hits the open row
 * with the configured probability (otherwise it jumps to a uniformly
 * random channel/rank/bank/row).
 */

#ifndef XED_PERFSIM_TRACEGEN_HH
#define XED_PERFSIM_TRACEGEN_HH

#include "common/rng.hh"
#include "perfsim/request.hh"
#include "perfsim/workloads.hh"

namespace xed::perfsim
{

class TraceGen
{
  public:
    struct AddressSpace
    {
        unsigned channels = 4;
        unsigned ranks = 2;
        unsigned banks = 8;
        unsigned rows = 32768;
        unsigned cols = 128;
    };

    TraceGen(const Workload &workload, const AddressSpace &space,
             std::uint64_t seed);

    /** Next memory operation of this core's trace. */
    MemOp next();

  private:
    /** Rate of the exponential gap, per non-memory instruction. */
    double gapRate_;
    double writeFraction_;
    double rowHitRate_;
    AddressSpace space_;
    Rng rng_;
    Address current_{};
};

} // namespace xed::perfsim

#endif // XED_PERFSIM_TRACEGEN_HH
