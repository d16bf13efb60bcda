/**
 * @file
 * Reference fault-range draw: the kind's wildcard mask, then one raw
 * draw for the fixed bits, as the engine drew each event's range before
 * SampleContext took the masks from a table. Tests build random fault
 * ranges with it, and the engine reference draws its ranges with it.
 */

#ifndef XED_TESTS_SUPPORT_RANDOM_RANGE_HH
#define XED_TESTS_SUPPORT_RANDOM_RANGE_HH

#include "common/rng.hh"
#include "faultsim/fault_range.hh"

namespace xed::faultsim
{

/** Draw a random fault range of the given kind. */
inline FaultRange
randomRange(Rng &rng, const AddressLayout &layout, FaultKind kind)
{
    FaultRange r;
    r.mask = rangeWildcard(layout, kind);
    r.addr = rng.next() & layout.allMask() & ~r.mask;
    return r;
}

} // namespace xed::faultsim

#endif // XED_TESTS_SUPPORT_RANDOM_RANGE_HH
