#include "faultsim/fault_range.hh"

namespace xed::faultsim
{

std::uint64_t
rangeWildcard(const AddressLayout &layout, FaultKind kind)
{
    switch (kind) {
      case FaultKind::Bit:
        return 0;
      case FaultKind::Word:
        return layout.bitMask();
      case FaultKind::Column:
        // One column through a bank: fixed bank, column and bit
        // position; every row affected.
        return layout.rowMask();
      case FaultKind::Row:
        return layout.colMask() | layout.bitMask();
      case FaultKind::Bank:
        return layout.rowMask() | layout.colMask() | layout.bitMask();
      case FaultKind::MultiBank:
      case FaultKind::MultiRank:
        return layout.allMask();
    }
    return 0;
}

bool
intersectAtWord(const FaultRange &a, const FaultRange &b,
                const AddressLayout &layout)
{
    const std::uint64_t wild = a.mask | b.mask | layout.bitMask();
    return ((a.addr ^ b.addr) & ~wild & layout.allMask()) == 0;
}

bool
intersectExact(const FaultRange &a, const FaultRange &b)
{
    return ((a.addr ^ b.addr) & ~(a.mask | b.mask)) == 0;
}

std::optional<FaultRange>
intersectRange(const FaultRange &a, const FaultRange &b,
               const AddressLayout &layout)
{
    FaultRange wa{a.addr & ~layout.bitMask(), a.mask | layout.bitMask()};
    FaultRange wb{b.addr & ~layout.bitMask(), b.mask | layout.bitMask()};
    if (((wa.addr ^ wb.addr) & ~(wa.mask | wb.mask)) != 0)
        return std::nullopt;
    FaultRange out;
    out.mask = wa.mask & wb.mask;
    out.addr = ((wa.addr & ~wa.mask) | (wb.addr & ~wb.mask)) & ~out.mask;
    return out;
}

std::uint64_t
rangeSize(const FaultRange &range)
{
    return std::uint64_t{1} << popcount64(range.mask);
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Bit: return "single-bit";
      case FaultKind::Word: return "single-word";
      case FaultKind::Column: return "single-column";
      case FaultKind::Row: return "single-row";
      case FaultKind::Bank: return "single-bank";
      case FaultKind::MultiBank: return "multi-bank";
      case FaultKind::MultiRank: return "multi-rank";
    }
    return "?";
}

} // namespace xed::faultsim
