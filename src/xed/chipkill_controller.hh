/**
 * @file
 * Symbol-based DIMM controllers: commercial Chipkill, Double-Chipkill,
 * and XED-on-Chipkill (Section IX).
 *
 * A cache-line access reads one 64-bit word from each chip; byte b of
 * every chip's word forms beat b, and each beat is one Reed-Solomon
 * codeword across the chips:
 *
 *   - Chipkill          : RS(18,16), errors-only decoding (t = 1).
 *   - Double-Chipkill   : RS(36,32), errors-only decoding (t = 2).
 *   - XED-on-Chipkill   : RS(18,16) with catch-word chips treated as
 *                         erasures (corrects up to TWO located chips
 *                         with the same two check chips).
 */

#ifndef XED_XED_CHIPKILL_CONTROLLER_HH
#define XED_XED_CHIPKILL_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/inline_vec.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "dram/chip.hh"
#include "ecc/crc8atm.hh"
#include "ecc/reed_solomon.hh"

namespace xed
{

enum class ChipkillOutcome
{
    Clean,
    Corrected,
    Uncorrectable,
};

/** Widest supported module: Double-Chipkill's 32 data + 4 check chips. */
inline constexpr unsigned maxChipkillChips = ecc::RsScratch::maxN;

struct ChipkillReadResult
{
    /** One word per data chip; inline storage, no allocation. */
    InlineVec<std::uint64_t, maxChipkillChips> data;
    ChipkillOutcome outcome = ChipkillOutcome::Clean;
    InlineVec<unsigned, maxChipkillChips> catchWordChips;
    unsigned beatsCorrected = 0;
};

struct ChipkillConfig
{
    unsigned dataChips = 16;
    unsigned checkChips = 2;
    /** Expose on-die detections as erasures (XED-on-Chipkill). */
    bool useCatchWordErasures = false;
    dram::ChipGeometry geometry{};
    std::uint64_t seed = 0xC41C0DEull;
};

class ChipkillController
{
  public:
    explicit ChipkillController(const ChipkillConfig &config);

    unsigned numChips() const { return config_.dataChips +
                                       config_.checkChips; }

    void writeLine(const dram::WordAddr &addr,
                   const std::vector<std::uint64_t> &data);

    ChipkillReadResult readLine(const dram::WordAddr &addr);

    dram::Chip &chip(unsigned index) { return *chips_[index]; }
    const CounterSet &counters() const { return counters_; }

  private:
    ChipkillConfig config_;
    ecc::Crc8Atm onDieCode_;
    ecc::ReedSolomon rs_;
    Rng rng_;
    std::vector<std::unique_ptr<dram::Chip>> chips_;
    std::vector<std::uint64_t> catchWords_;
    CounterSet counters_;
};

} // namespace xed

#endif // XED_XED_CHIPKILL_CONTROLLER_HH
