/**
 * @file
 * Functional model of a DRAM chip with On-Die ECC and XED support.
 *
 * Each 64-bit word is stored as a (72,64) codeword produced by the
 * configured on-die code (CRC8-ATM by default, per Section V-E). The
 * chip implements the two XED MRS registers -- XED-Enable and the
 * Catch-Word Register (CWR) -- and the DC-Mux of Figure 3: when
 * XED-Enable is set and the on-die decoder observes anything other than
 * a valid codeword (a corrected single bit *or* a detected multi-bit
 * error), the chip transmits the catch-word instead of data.
 *
 * Storage is sparse: unwritten words hold a deterministic per-chip
 * background pattern, so a full 2Gb device can be modeled functionally
 * without materializing 2^25 words.
 */

#ifndef XED_DRAM_CHIP_HH
#define XED_DRAM_CHIP_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "dram/fault_injector.hh"
#include "dram/geometry.hh"
#include "ecc/code.hh"

namespace xed::dram
{

/** What a chip put on the bus for one word transfer. */
struct ChipReadResult
{
    /** The 64-bit value transmitted (data or catch-word). */
    std::uint64_t value = 0;
    /** True iff the DC-Mux selected the catch-word. */
    bool sentCatchWord = false;
    /**
     * Internal decoder outcome. Not visible on a real bus; exposed for
     * instrumentation and tests only.
     */
    ecc::DecodeStatus internalStatus = ecc::DecodeStatus::NoError;
};

class Chip
{
  public:
    /**
     * @param geometry device geometry (defaults match Table V)
     * @param onDieCode the (72,64) code instance; must outlive the chip
     * @param chipSeed  seeds the background data pattern
     */
    Chip(const ChipGeometry &geometry, const ecc::Secded7264 &onDieCode,
         std::uint64_t chipSeed);

    const ChipGeometry &geometry() const { return geometry_; }

    /// @name MRS-visible configuration (Section V-A)
    /// @{
    void setXedEnable(bool enable) { xedEnable_ = enable; }
    bool xedEnable() const { return xedEnable_; }
    void setCatchWord(std::uint64_t cw) { catchWord_ = cw; }
    std::uint64_t catchWord() const { return catchWord_; }
    /// @}

    /** Write a 64-bit word: on-die encode and store. */
    void write(const WordAddr &addr, std::uint64_t data);

    /** Read a word through the on-die ECC engine and the DC-Mux. */
    ChipReadResult read(const WordAddr &addr);

    /** Fault-injection hook for tests and experiments. */
    FaultInjector &faults() { return injector_; }
    const FaultInjector &faults() const { return injector_; }

    /** Advance the fault epoch (used when injecting transient faults). */
    std::uint64_t nextFaultEpoch() { return ++epoch_; }

    /**
     * The data value the chip *should* hold at @p addr (last written or
     * background), ignoring faults. Test oracle only.
     */
    std::uint64_t expectedData(const WordAddr &addr) const;

    /**
     * Override the background (never-written) data pattern. Used by
     * controllers to model a boot-time initialization that makes
     * check/parity chips consistent with the data chips without
     * materializing every word (e.g. XED's parity chip holds the XOR of
     * the data chips' contents from the start).
     */
    void
    setBackgroundData(std::function<std::uint64_t(std::uint64_t)> fn)
    {
        backgroundData_ = std::move(fn);
    }

  private:
    struct StoredWord
    {
        ecc::Word72 codeword;
        std::uint64_t writeEpoch = 0;
    };

    /** Background codeword for a never-written address. */
    ecc::Word72 backgroundWord(std::uint64_t packed) const;

    /**
     * The raw 72-bit word the on-die decoder receives at @p addr: the
     * stored (or background) codeword XORed with the injected
     * corruption.
     */
    ecc::Word72 rawCodeword(const WordAddr &addr) const;

    ChipGeometry geometry_;
    const ecc::Secded7264 &code_;
    std::uint64_t chipSeed_;
    bool xedEnable_ = false;
    std::uint64_t catchWord_ = 0;
    std::uint64_t epoch_ = 0;
    std::unordered_map<std::uint64_t, StoredWord> store_;
    FaultInjector injector_;
    /** Background data for unwritten words (defaults to a seeded hash). */
    std::function<std::uint64_t(std::uint64_t)> backgroundData_;
};

} // namespace xed::dram

#endif // XED_DRAM_CHIP_HH
