/**
 * @file
 * Memory request representation shared by the cores, the trace
 * generator and the memory controller.
 */

#ifndef XED_PERFSIM_REQUEST_HH
#define XED_PERFSIM_REQUEST_HH

#include <cstdint>
#include <limits>

namespace xed::perfsim
{

/** Wake-up sentinel: no future cycle is known to need a tick. */
inline constexpr std::uint64_t neverCycle =
    std::numeric_limits<std::uint64_t>::max();

/** Decoded line address. */
struct Address
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    unsigned row = 0;
    unsigned col = 0;
};

/** One memory operation from a core's trace. */
struct MemOp
{
    /** Non-memory instructions preceding this operation. */
    unsigned gapInstrs = 0;
    bool isWrite = false;
    Address addr{};
};

/** An in-flight read request. */
struct MemRequest
{
    Address addr{};
    /** Completion cycle; negative while outstanding. */
    std::int64_t doneCycle = -1;

    bool done() const { return doneCycle >= 0; }
};

} // namespace xed::perfsim

#endif // XED_PERFSIM_REQUEST_HH
