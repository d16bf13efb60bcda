#include "xed/controller.hh"

#include <algorithm>
#include <cmath>

#include "ecc/hamming7264.hh"

namespace xed
{

XedController::XedController(const XedControllerConfig &config)
    : config_(config), rng_(config.seed), fct_(config.fctEntries)
{
    if (config_.onDieCode == OnDieCodeKind::Hamming)
        onDieCode_ = std::make_unique<ecc::Hamming7264>();
    else
        onDieCode_ = std::make_unique<ecc::Crc8Atm>();
    for (unsigned i = 0; i < numChips; ++i) {
        chips_[i] = std::make_unique<dram::Chip>(
            config_.geometry, *onDieCode_, rng_.next());
        chips_[i]->setXedEnable(true);
    }
    // Boot-time parity initialization: for never-written addresses the
    // parity chip reads as the XOR of the data chips' background
    // contents, exactly as if the whole module had been scrubbed once.
    chips_[parityChipIndex]->setBackgroundData(
        [this](std::uint64_t packed) {
            const auto addr = dram::unpackWordAddr(config_.geometry,
                                                   packed);
            std::uint64_t parity = 0;
            for (unsigned i = 0; i < numDataChips; ++i)
                parity ^= chips_[i]->expectedData(addr);
            return parity;
        });
    regenerateCatchWords();
}

void
XedController::regenerateCatchWords()
{
    for (unsigned i = 0; i < numChips; ++i) {
        catchWords_[i] = rng_.next();
        chips_[i]->setCatchWord(catchWords_[i]);
    }
    counters_.inc("catch_word_regenerations");
}

void
XedController::writeLine(const dram::WordAddr &addr,
                         std::span<const std::uint64_t, numDataChips> data)
{
    std::uint64_t parity = 0;
    for (unsigned i = 0; i < numDataChips; ++i) {
        chips_[i]->write(addr, data[i]);
        parity ^= data[i];
    }
    chips_[parityChipIndex]->write(addr, parity);
    counters_.inc("writes");
}

XedController::BusSnapshot
XedController::readBus(const dram::WordAddr &addr)
{
    BusSnapshot bus;
    for (unsigned i = 0; i < numChips; ++i) {
        const auto r = chips_[i]->read(addr);
        bus.values[i] = r.value;
        // The controller recognizes catch-words by value comparison
        // against its own CWR copies; it cannot see r.sentCatchWord.
        bus.isCatchWord[i] = (r.value == catchWords_[i]);
        if (bus.isCatchWord[i])
            ++bus.catchWordCount;
    }
    return bus;
}

bool
XedController::paritySatisfied(const BusSnapshot &bus)
{
    std::uint64_t acc = bus.values[parityChipIndex];
    for (unsigned i = 0; i < numDataChips; ++i)
        acc ^= bus.values[i];
    return acc == 0;
}

std::uint64_t
XedController::rebuild(const BusSnapshot &bus, unsigned erased)
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < numChips; ++i)
        if (i != erased)
            value ^= bus.values[i];
    return value;
}

LineReadResult
XedController::finishRebuild(const BusSnapshot &bus, unsigned chip,
                             ReadOutcome outcome)
{
    LineReadResult result;
    result.outcome = outcome;
    result.rebuiltChip = chip;
    for (unsigned i = 0; i < numDataChips; ++i)
        result.data[i] = bus.values[i];
    if (chip != parityChipIndex)
        result.data[chip] = rebuild(bus, chip);
    counters_.inc("rebuilds");
    return result;
}

std::optional<unsigned>
XedController::interLineDiagnosis(const dram::WordAddr &addr)
{
    counters_.inc("inter_line_runs");
    // Stream the whole row buffer (128 lines) and count, per chip, how
    // many lines transmit that chip's catch-word.
    std::array<unsigned, numChips> faultyLines{};
    const unsigned cols = config_.geometry.colsPerRow();
    for (unsigned col = 0; col < cols; ++col) {
        dram::WordAddr lineAddr{addr.bank, addr.row, col};
        const auto bus = readBus(lineAddr);
        for (unsigned i = 0; i < numChips; ++i)
            faultyLines[i] += bus.isCatchWord[i] ? 1 : 0;
    }
    const unsigned threshold = static_cast<unsigned>(
        std::ceil(config_.interLineThreshold * cols));
    unsigned best = 0;
    for (unsigned i = 1; i < numChips; ++i)
        if (faultyLines[i] > faultyLines[best])
            best = i;
    if (faultyLines[best] < threshold)
        return std::nullopt;
    if (fct_.record(addr.bank, addr.row, best)) {
        // Full and unanimous: a column/bank-class failure. Mark the
        // chip permanently faulty (Section VI-A).
        markedChip_ = best;
        counters_.inc("chips_marked_faulty");
    }
    return best;
}

std::optional<unsigned>
XedController::intraLineDiagnosis(const dram::WordAddr &addr)
{
    counters_.inc("intra_line_runs");
    // Buffer the line (with XED disabled so chips supply their best
    // on-die-corrected data rather than catch-words), probe with
    // all-zeros / all-ones, then restore. Permanent faults reappear
    // after the probe writes; transient faults are cleared by them and
    // stay invisible (hence the DUE path of Section VIII).
    for (auto &chip : chips_)
        chip->setXedEnable(false);
    const auto buffered = readBus(addr);
    for (auto &chip : chips_)
        chip->setXedEnable(true);
    std::array<bool, numChips> mismatch{};
    for (const std::uint64_t pattern :
         {std::uint64_t{0}, ~std::uint64_t{0}}) {
        for (unsigned i = 0; i < numChips; ++i)
            chips_[i]->write(addr, pattern);
        const auto probe = readBus(addr);
        for (unsigned i = 0; i < numChips; ++i)
            if (probe.values[i] != pattern || probe.isCatchWord[i])
                mismatch[i] = true;
    }
    for (unsigned i = 0; i < numChips; ++i)
        chips_[i]->write(addr, buffered.values[i]);

    std::optional<unsigned> faulty;
    for (unsigned i = 0; i < numChips; ++i) {
        if (mismatch[i]) {
            if (faulty.has_value())
                return std::nullopt; // more than one chip: give up
            faulty = i;
        }
    }
    return faulty;
}

LineReadResult
XedController::diagnoseAndCorrect(const dram::WordAddr &addr,
                                  const BusSnapshot &bus)
{
    if (const auto chip = interLineDiagnosis(addr))
        return finishRebuild(bus, *chip, ReadOutcome::InterLineCorrected);
    if (const auto chip = intraLineDiagnosis(addr))
        return finishRebuild(bus, *chip, ReadOutcome::IntraLineCorrected);

    counters_.inc("due");
    LineReadResult result;
    result.outcome = ReadOutcome::DetectedUncorrectable;
    for (unsigned i = 0; i < numDataChips; ++i)
        result.data[i] = bus.values[i];
    return result;
}

LineReadResult
XedController::readLine(const dram::WordAddr &addr)
{
    counters_.inc("reads");
    auto bus = readBus(addr);

    // A chip already marked faulty is an erasure on every access.
    if (markedChip_.has_value()) {
        const unsigned marked = *markedChip_;
        unsigned otherCatchWords = 0;
        for (unsigned i = 0; i < numChips; ++i)
            if (i != marked && bus.isCatchWord[i])
                ++otherCatchWords;
        if (otherCatchWords > 0) {
            // Scaling faults elsewhere: serial-mode re-read so the
            // on-die ECC supplies corrected data for the other chips.
            counters_.inc("serial_mode");
            for (auto &chip : chips_)
                chip->setXedEnable(false);
            bus = readBus(addr);
            for (auto &chip : chips_)
                chip->setXedEnable(true);
        }
        return finishRebuild(bus, marked, ReadOutcome::MarkedChipCorrected);
    }

    if (bus.catchWordCount == 0) {
        if (paritySatisfied(bus)) {
            LineReadResult result;
            result.outcome = ReadOutcome::Clean;
            for (unsigned i = 0; i < numDataChips; ++i)
                result.data[i] = bus.values[i];
            return result;
        }
        // Parity mismatch without any catch-word: the on-die code
        // missed a multi-bit error (0.8% of patterns). Section VI.
        counters_.inc("ondie_detection_escapes");
        return diagnoseAndCorrect(addr, bus);
    }

    if (bus.catchWordCount == 1) {
        unsigned chip = 0;
        for (unsigned i = 0; i < numChips; ++i)
            if (bus.isCatchWord[i])
                chip = i;
        counters_.inc("single_catch_word");
        if (chip == parityChipIndex) {
            LineReadResult result;
            result.outcome = ReadOutcome::CorrectedParityChip;
            result.rebuiltChip = chip;
            result.catchWordChips = {chip};
            for (unsigned i = 0; i < numDataChips; ++i)
                result.data[i] = bus.values[i];
            return result;
        }
        auto result =
            finishRebuild(bus, chip, ReadOutcome::CorrectedErasure);
        result.catchWordChips = {chip};
        if (result.data[chip] == catchWords_[chip]) {
            // The rebuilt value *is* the catch-word: a data collision
            // (Section V-D1). The value is correct; re-randomize the
            // catch-words to push out the next collision.
            result.outcome = ReadOutcome::CollisionCorrected;
            counters_.inc("collisions");
            regenerateCatchWords();
        }
        return result;
    }

    // Two or more catch-words: serial mode (Section VII-B).
    counters_.inc("serial_mode");
    InlineVec<unsigned, numChips> flagged;
    for (unsigned i = 0; i < numChips; ++i)
        if (bus.isCatchWord[i])
            flagged.push_back(i);
    for (auto &chip : chips_)
        chip->setXedEnable(false);
    const auto reread = readBus(addr);
    for (auto &chip : chips_)
        chip->setXedEnable(true);

    if (paritySatisfied(reread)) {
        // All flagged chips held on-die-correctable (scaling) faults.
        LineReadResult result;
        result.outcome = ReadOutcome::MultiCatchWordOnDie;
        result.catchWordChips = std::move(flagged);
        for (unsigned i = 0; i < numDataChips; ++i)
            result.data[i] = reread.values[i];
        return result;
    }
    // A runtime chip failure is hiding among the scaling faults
    // (Section VII-C): locate it and rebuild from parity.
    auto result = diagnoseAndCorrect(addr, reread);
    result.catchWordChips = std::move(flagged);
    return result;
}

} // namespace xed
