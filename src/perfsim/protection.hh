/**
 * @file
 * How each protection scheme shapes the memory system's behaviour
 * (Sections X-XI of the paper). A scheme changes *only* how many
 * ranks/channels an access occupies, how long bursts are, whether extra
 * transactions or writes are generated, and how many chips burn power.
 */

#ifndef XED_PERFSIM_PROTECTION_HH
#define XED_PERFSIM_PROTECTION_HH

namespace xed::perfsim
{

enum class ProtectionMode
{
    /** 9-chip ECC-DIMM with SECDED: the normalization baseline. */
    SecdedBaseline,
    /** XED: identical access behaviour to the baseline (serial-mode
     *  re-reads are rare enough to be negligible, Section XI-A). */
    Xed,
    /** Chipkill: 18 chips via two lockstepped ranks. */
    Chipkill,
    /** XED on top of Chipkill (18 chips, two ranks): Double-Chipkill
     *  reliability at Chipkill cost. */
    XedChipkill,
    /** Double-Chipkill: 36 chips via two ranks on two ganged channels. */
    DoubleChipkill,
    /** Expose On-Die ECC with 2 extra bursts (BL8 -> BL10), Fig. 13. */
    ChipkillExtraBurst,
    DoubleChipkillExtraBurst,
    /** Expose On-Die ECC with an additional transaction, Fig. 13. */
    ChipkillExtraTransaction,
    DoubleChipkillExtraTransaction,
    /** LOT-ECC with write coalescing (Fig. 14). */
    LotEcc,
};

/**
 * The knobs a mode turns: everything simulate() reads of a mode. Two
 * modes with equal effects simulate identically (XED shares the
 * baseline's, XED + Chipkill shares Chipkill's), so simulateAll runs
 * one of them for both; the display label is modeLabel()'s.
 */
struct ModeEffects
{
    /** Independent channels (4, or 2 when channel pairs are ganged). */
    unsigned effectiveChannels = 4;
    /** Independent ranks per channel (2, or 1 under rank lockstep). */
    unsigned effectiveRanks = 2;
    /** Physical ranks activated per access (refresh accounting). */
    unsigned ranksPerAccess = 1;
    /**
     * Activate/precharge energy per access in x8-rank equivalents.
     * 18 x4 chips draw about the activate current of a 9-chip x8 rank
     * and 36 x4 chips about twice that -- the x4-based power accounting
     * of Section X under which Chipkill's longer execution *lowers*
     * average memory power (Figure 12).
     */
    double activateRankEquivalents = 1.0;
    /**
     * Data-bus cycles per read / write burst on the (possibly ganged)
     * channel. Baseline BL8 = 4; x8 rank-lockstep overfetches a second
     * cache line (100% overfetch, Section II-D2) = 8; +2 bursts
     * (BL8 -> BL10 per line) adds 25%; an extra ECC transaction adds
     * another CAS+burst.
     */
    unsigned readBurstCycles = 4;
    unsigned writeBurstCycles = 4;
    /** Physical data buses driven per access (2 when channels gang). */
    unsigned gangedBuses = 1;
    /** Probability a write spawns an extra (parity-update) write. */
    double extraWriteProb = 0.0;
    /**
     * IO (burst) energy per access relative to one 64B line: the
     * extra-burst and extra-transaction alternatives of Section XI-C
     * move real additional bits, costing power as well as time.
     */
    double ioEnergyScale = 1.0;

    bool operator==(const ModeEffects &) const = default;
};

ModeEffects modeEffects(ProtectionMode mode);

/** The label a RunResult and the figures print for @p mode. */
const char *modeLabel(ProtectionMode mode);

const char *protectionModeName(ProtectionMode mode);

} // namespace xed::perfsim

#endif // XED_PERFSIM_PROTECTION_HH
