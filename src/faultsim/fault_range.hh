/**
 * @file
 * Fault-range algebra in the style of FaultSim (Nair, Roberts & Qureshi,
 * ACM TACO 2015).
 *
 * A fault range is an {address, wildcard-mask} pair over a chip's
 * bit-address space (bank | row | col | bit). Mask bits set to 1 are
 * "don't care": a single-bit fault has mask 0, a row failure wildcards
 * the column and bit fields, a whole-chip failure wildcards everything.
 * Two ranges collide in some 64-bit word iff their fixed bits agree once
 * the within-word bit field is wildcarded -- that is exactly the
 * condition for two chips to corrupt the same ECC codeword.
 */

#ifndef XED_FAULTSIM_FAULT_RANGE_HH
#define XED_FAULTSIM_FAULT_RANGE_HH

#include <cstdint>
#include <optional>

#include "dram/geometry.hh"
#include "faultsim/fit_rates.hh"

namespace xed::faultsim
{

/** {address, wildcard mask} over the chip bit-address space. */
struct FaultRange
{
    std::uint64_t addr = 0;
    std::uint64_t mask = 0;
};

/** Bit-address layout helper derived from the chip geometry. */
struct AddressLayout
{
    explicit AddressLayout(const dram::ChipGeometry &g)
        : bitBits(g.bitBits), colBits(g.colBits), rowBits(g.rowBits),
          bankBits(g.bankBits)
    {
    }

    unsigned bitBits;
    unsigned colBits;
    unsigned rowBits;
    unsigned bankBits;

    std::uint64_t bitMask() const { return lowMask(bitBits); }
    std::uint64_t
    colMask() const
    {
        return lowMask(colBits) << bitBits;
    }
    std::uint64_t
    rowMask() const
    {
        return lowMask(rowBits) << (bitBits + colBits);
    }
    std::uint64_t
    bankMask() const
    {
        return lowMask(bankBits) << (bitBits + colBits + rowBits);
    }
    std::uint64_t
    allMask() const
    {
        return lowMask(bitBits + colBits + rowBits + bankBits);
    }
};

/** The wildcard mask of every fault range of @p kind. */
std::uint64_t rangeWildcard(const AddressLayout &layout, FaultKind kind);

/**
 * True iff the two ranges overlap some 64-bit word (the within-word bit
 * field is ignored): the condition for two chips' faults to hit the
 * same codeword / parity group.
 */
bool intersectAtWord(const FaultRange &a, const FaultRange &b,
                     const AddressLayout &layout);

/** Exact intersection including the bit field (same faulty cell). */
bool intersectExact(const FaultRange &a, const FaultRange &b);

/**
 * Range intersection (word granularity). Used for the >= 3-chip rules
 * of Double-Chipkill: three ranges share a word iff the pairwise
 * refinement is non-empty.
 */
std::optional<FaultRange> intersectRange(const FaultRange &a,
                                         const FaultRange &b,
                                         const AddressLayout &layout);

/** Number of addresses covered by a range (2^popcount(mask)). */
std::uint64_t rangeSize(const FaultRange &range);

} // namespace xed::faultsim

#endif // XED_FAULTSIM_FAULT_RANGE_HH
