/**
 * @file
 * The XED memory controller for one 9-chip ECC-DIMM rank (Section V).
 *
 * Write path: the 9th chip stores the RAID-3 XOR parity of the eight
 * data chips (Equation 1). Read path, per the paper:
 *
 *  0 catch-words + parity OK      -> clean data.
 *  0 catch-words + parity FAIL    -> an on-die detection escape:
 *        Inter-Line Fault Diagnosis (stream the 128-line row, count
 *        catch-words per chip, 10% threshold, record in the FCT), then
 *        Intra-Line Fault Diagnosis (buffer the line, probe with
 *        all-zeros / all-ones write-read, restore); a located chip is
 *        rebuilt from parity, otherwise DUE (Section VI).
 *  1 catch-word                   -> erasure: rebuild that chip from
 *        parity (Equation 3). If the rebuilt value equals the
 *        catch-word, a data/catch-word collision occurred; the
 *        controller re-randomizes every CWR (Section V-D).
 *  2+ catch-words                 -> serial mode (Section VII-B):
 *        clear XED-Enable, re-read (chips transmit on-die-corrected
 *        data), restore XED-Enable, verify parity; on mismatch run the
 *        diagnosis pipeline as above.
 *
 * Chips permanently marked faulty (via a unanimous full FCT) are
 * treated as erasures on every access without re-diagnosis.
 */

#ifndef XED_XED_CONTROLLER_HH
#define XED_XED_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/inline_vec.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "dram/chip.hh"
#include "ecc/crc8atm.hh"
#include "xed/fct.hh"

namespace xed
{

/** Outcome of one cache-line read through the XED controller. */
enum class ReadOutcome
{
    Clean,                  ///< no catch-words, parity satisfied
    CorrectedErasure,       ///< one catch-word, rebuilt from parity
    CorrectedParityChip,    ///< the parity chip itself sent a catch-word
    CollisionCorrected,     ///< rebuilt value equaled the catch-word
    MultiCatchWordOnDie,    ///< serial-mode re-read, on-die ECC fixed all
    InterLineCorrected,     ///< diagnosis located the chip; rebuilt
    IntraLineCorrected,     ///< write/read-back probe located the chip
    MarkedChipCorrected,    ///< chip pre-marked faulty, rebuilt directly
    DetectedUncorrectable,  ///< DUE: parity mismatch, diagnosis failed
};

/** One read transaction's result. */
struct LineReadResult
{
    std::array<std::uint64_t, 8> data{};
    ReadOutcome outcome = ReadOutcome::Clean;
    /** Chips whose transmitted value matched their catch-word. */
    InlineVec<unsigned, 9> catchWordChips;
    /** Chip rebuilt from parity, if any (8 = parity chip). */
    std::optional<unsigned> rebuiltChip;

    bool
    uncorrectable() const
    {
        return outcome == ReadOutcome::DetectedUncorrectable;
    }
};

/** Which (72,64) code the chips run on-die (Section V-E). */
enum class OnDieCodeKind
{
    Crc8Atm, ///< the paper's recommendation: 100% burst detection
    Hamming, ///< conventional SECDED; misses ~half of 4/8-bursts
};

/** Configuration knobs for the controller. */
struct XedControllerConfig
{
    dram::ChipGeometry geometry{};
    unsigned fctEntries = 8;
    /** Inter-line diagnosis threshold (fraction of faulty lines). */
    double interLineThreshold = 0.10;
    std::uint64_t seed = 0x9E0123;
    OnDieCodeKind onDieCode = OnDieCodeKind::Crc8Atm;
};

class XedController
{
  public:
    static constexpr unsigned numDataChips = 8;
    static constexpr unsigned parityChipIndex = 8;
    static constexpr unsigned numChips = 9;

    explicit XedController(const XedControllerConfig &config = {});

    /** Write a 64-byte line: 8 data words plus RAID-3 parity. */
    void writeLine(const dram::WordAddr &addr,
                   std::span<const std::uint64_t, numDataChips> data);

    /** Read a 64-byte line through the full XED pipeline. */
    LineReadResult readLine(const dram::WordAddr &addr);

    /** Direct access to a chip for fault injection (8 = parity chip). */
    dram::Chip &chip(unsigned index) { return *chips_[index]; }
    const dram::Chip &chip(unsigned index) const { return *chips_[index]; }

    /** Current catch-word of chip @p index (controller's copy). */
    std::uint64_t catchWordOf(unsigned index) const
    {
        return catchWords_[index];
    }

    /** Re-randomize every chip's catch-word (collision response). */
    void regenerateCatchWords();

    /** Chip permanently marked faulty via the FCT, if any. */
    std::optional<unsigned> markedFaultyChip() const { return markedChip_; }

    const FaultyRowChipTracker &fct() const { return fct_; }
    const CounterSet &counters() const { return counters_; }
    const ecc::Secded7264 &onDieCode() const { return *onDieCode_; }

  private:
    struct BusSnapshot
    {
        std::array<std::uint64_t, numChips> values{};
        std::array<bool, numChips> isCatchWord{};
        unsigned catchWordCount = 0;
    };

    /** Read all 9 chips once and classify catch-words. */
    BusSnapshot readBus(const dram::WordAddr &addr);

    /** Parity check over a bus snapshot (Equation 1). */
    static bool paritySatisfied(const BusSnapshot &bus);

    /** Rebuild chip @p erased from the other 8 values (Equation 3). */
    static std::uint64_t rebuild(const BusSnapshot &bus, unsigned erased);

    /** Inter-Line Fault Diagnosis over the row of @p addr. */
    std::optional<unsigned> interLineDiagnosis(const dram::WordAddr &addr);

    /** Intra-Line Fault Diagnosis on @p addr (destructive probe). */
    std::optional<unsigned> intraLineDiagnosis(const dram::WordAddr &addr);

    /** Shared tail handling for the diagnosis pipeline. */
    LineReadResult diagnoseAndCorrect(const dram::WordAddr &addr,
                                      const BusSnapshot &bus);

    LineReadResult finishRebuild(const BusSnapshot &bus, unsigned chip,
                                 ReadOutcome outcome);

    XedControllerConfig config_;
    std::unique_ptr<ecc::Secded7264> onDieCode_;
    Rng rng_;
    std::array<std::unique_ptr<dram::Chip>, numChips> chips_;
    std::array<std::uint64_t, numChips> catchWords_{};
    FaultyRowChipTracker fct_;
    std::optional<unsigned> markedChip_;
    CounterSet counters_;
};

} // namespace xed

#endif // XED_XED_CONTROLLER_HH
