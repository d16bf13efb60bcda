#include "ecc/crc8atm.hh"

#include <cassert>

namespace xed::ecc
{

Crc8Atm::Crc8Atm()
{
    // MSB-first byte table.
    for (unsigned b = 0; b < 256; ++b) {
        std::uint8_t r = static_cast<std::uint8_t>(b);
        for (int i = 0; i < 8; ++i)
            r = static_cast<std::uint8_t>((r << 1) ^ ((r & 0x80) ? poly : 0));
        table_[b] = r;
    }

    // Slice tables: slice 0 is the identity (a byte at degrees 0..7 is
    // already reduced); each further slice shifts one more byte, i.e.
    // applies the byte-at-a-time table once.
    for (unsigned b = 0; b < 256; ++b)
        slice_[0][b] = static_cast<std::uint8_t>(b);
    for (unsigned k = 1; k < slice_.size(); ++k)
        for (unsigned b = 0; b < 256; ++b)
            slice_[k][b] = slice_[k - 1][table_[b]];

    // Syndrome of a single-bit error at codeword position p (degree p
    // coefficient): x^p mod g(x).
    singleBitPos_.fill(0);
    for (unsigned p = 0; p < codeLength; ++p) {
        std::uint8_t r = 1; // x^0
        for (unsigned i = 0; i < p; ++i)
            r = static_cast<std::uint8_t>((r << 1) ^ ((r & 0x80) ? poly : 0));
        assert(r != 0);
        assert(singleBitPos_[r] == 0 &&
               "CRC8-ATM single-bit syndromes must be distinct for SEC");
        singleBitPos_[r] = static_cast<std::uint8_t>(p + 1);
    }

    nib_ = detail::makeNibbleTables(slice_);
}

Word72
Crc8Atm::encode(std::uint64_t data) const
{
    const std::uint8_t check = crc(data);
    Word72 word;
    // Positions 71..8 = data bits 63..0; positions 7..0 = CRC.
    word.hi = static_cast<std::uint8_t>(data >> 56);
    word.lo = (data << 8) | check;
    return word;
}

std::size_t
Crc8Atm::detectMany(std::span<const Word72> received) const
{
    const SimdLevel level = simdLevel();
    if (level != SimdLevel::Scalar)
        return detail::detectManySimd(level, nib_, received);
    std::size_t detected = 0;
    for (const Word72 &word : received)
        detected += syndrome(word) != 0;
    return detected;
}

DecodeResult
Crc8Atm::decode(const Word72 &received) const
{
    DecodeResult result;
    const std::uint8_t s = syndrome(received);
    if (s == 0) {
        result.status = DecodeStatus::NoError;
        result.data = extractData(received);
        return result;
    }
    if (singleBitPos_[s] != 0) {
        Word72 fixed = received;
        const unsigned pos = static_cast<unsigned>(singleBitPos_[s]) - 1;
        fixed.flip(pos);
        result.status = DecodeStatus::CorrectedSingle;
        result.correctedBit = static_cast<int>(pos);
        result.data = extractData(fixed);
        return result;
    }
    result.status = DecodeStatus::DetectedUncorrectable;
    result.data = extractData(received);
    return result;
}

} // namespace xed::ecc
