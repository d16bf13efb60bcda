#include "xed/chipkill_controller.hh"

#include <array>
#include <span>
#include <stdexcept>

namespace xed
{

ChipkillController::ChipkillController(const ChipkillConfig &config)
    : config_(config),
      rs_(config.dataChips + config.checkChips, config.dataChips),
      rng_(config.seed)
{
    if (!rs_.fitsScratch())
        throw std::invalid_argument(
            "ChipkillController: module shape exceeds the RS scratch "
            "kernel (n <= 36, n-k <= 4)");
    for (unsigned i = 0; i < numChips(); ++i) {
        chips_.push_back(std::make_unique<dram::Chip>(
            config_.geometry, onDieCode_, rng_.next()));
        // Catch-words are only consumed in erasure mode, but the
        // registers exist on every XED-capable chip.
        chips_.back()->setXedEnable(config_.useCatchWordErasures);
        catchWords_.push_back(rng_.next());
        chips_.back()->setCatchWord(catchWords_.back());
    }
    // Boot-time initialization: check chips' background contents are
    // the RS check symbols of the data chips' backgrounds.
    for (unsigned j = 0; j < config_.checkChips; ++j) {
        chips_[config_.dataChips + j]->setBackgroundData(
            [this, j](std::uint64_t packed) {
                const auto addr =
                    dram::unpackWordAddr(config_.geometry, packed);
                const unsigned k = config_.dataChips;
                std::array<std::uint8_t, maxChipkillChips> symbols;
                std::array<std::uint8_t, maxChipkillChips> codeword;
                std::uint64_t word = 0;
                for (unsigned beat = 0; beat < 8; ++beat) {
                    for (unsigned i = 0; i < k; ++i)
                        symbols[i] = static_cast<std::uint8_t>(
                            chips_[i]->expectedData(addr) >> (8 * beat));
                    rs_.encode(
                        std::span<const std::uint8_t>(symbols.data(), k),
                        std::span<std::uint8_t>(codeword.data(),
                                                rs_.n()));
                    word |= static_cast<std::uint64_t>(codeword[k + j])
                            << (8 * beat);
                }
                return word;
            });
    }
}

void
ChipkillController::writeLine(const dram::WordAddr &addr,
                              const std::vector<std::uint64_t> &data)
{
    counters_.inc("writes");
    const unsigned k = config_.dataChips;
    // Encode beat-by-beat: byte b of each chip's word is one RS symbol.
    std::array<std::uint64_t, maxChipkillChips> checkWords{};
    std::array<std::uint8_t, maxChipkillChips> symbols;
    std::array<std::uint8_t, maxChipkillChips> codeword;
    for (unsigned beat = 0; beat < 8; ++beat) {
        for (unsigned i = 0; i < k; ++i)
            symbols[i] =
                static_cast<std::uint8_t>(data[i] >> (8 * beat));
        rs_.encode(std::span<const std::uint8_t>(symbols.data(), k),
                   std::span<std::uint8_t>(codeword.data(), rs_.n()));
        for (unsigned j = 0; j < config_.checkChips; ++j)
            checkWords[j] |= static_cast<std::uint64_t>(codeword[k + j])
                             << (8 * beat);
    }
    for (unsigned i = 0; i < k; ++i)
        chips_[i]->write(addr, data[i]);
    for (unsigned j = 0; j < config_.checkChips; ++j)
        chips_[k + j]->write(addr, checkWords[j]);
}

ChipkillReadResult
ChipkillController::readLine(const dram::WordAddr &addr)
{
    counters_.inc("reads");
    const unsigned k = config_.dataChips;
    const unsigned n = numChips();

    std::array<std::uint64_t, maxChipkillChips> values;
    InlineVec<unsigned, maxChipkillChips> erasures;
    for (unsigned i = 0; i < n; ++i) {
        values[i] = chips_[i]->read(addr).value;
        if (config_.useCatchWordErasures && values[i] == catchWords_[i])
            erasures.push_back(i);
    }

    ChipkillReadResult result;
    result.catchWordChips = erasures;
    if (erasures.size() > rs_.numCheck()) {
        // More located failures than check symbols: uncorrectable.
        counters_.inc("uncorrectable");
        result.outcome = ChipkillOutcome::Uncorrectable;
        for (unsigned i = 0; i < k; ++i)
            result.data.push_back(values[i]);
        return result;
    }

    std::array<std::uint8_t, maxChipkillChips> received;
    const std::span<const unsigned> erasureSpan(erasures.data(),
                                                erasures.size());
    ecc::RsScratch scratch;
    bool anyCorrected = false;
    for (unsigned beat = 0; beat < 8; ++beat) {
        for (unsigned i = 0; i < n; ++i)
            received[i] =
                static_cast<std::uint8_t>(values[i] >> (8 * beat));
        const auto rsResult =
            rs_.decode(std::span<std::uint8_t>(received.data(), n),
                       erasureSpan, scratch);
        if (rsResult.status == ecc::RsStatus::Failure) {
            counters_.inc("uncorrectable");
            result.outcome = ChipkillOutcome::Uncorrectable;
            result.data.clear();
            for (unsigned i = 0; i < k; ++i)
                result.data.push_back(values[i]);
            return result;
        }
        if (rsResult.status == ecc::RsStatus::Corrected ||
            !erasures.empty()) {
            ++result.beatsCorrected;
            anyCorrected = true;
        }
        for (unsigned i = 0; i < n; ++i) {
            values[i] &= ~(std::uint64_t{0xFF} << (8 * beat));
            values[i] |= static_cast<std::uint64_t>(received[i])
                         << (8 * beat);
        }
    }

    result.outcome = anyCorrected ? ChipkillOutcome::Corrected
                                  : ChipkillOutcome::Clean;
    if (anyCorrected)
        counters_.inc("corrected");
    for (unsigned i = 0; i < k; ++i)
        result.data.push_back(values[i]);
    return result;
}

} // namespace xed
