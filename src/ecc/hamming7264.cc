#include "ecc/hamming7264.hh"

#include <cassert>
#include <stdexcept>

namespace xed::ecc
{

namespace
{

/** Invert an 8x8 GF(2) matrix given as 8 column bytes; returns columns of
 *  the inverse. Throws if singular. */
std::array<std::uint8_t, 8>
invertColumns(const std::array<std::uint8_t, 8> &cols)
{
    // Row-reduce [M | I] where M's columns are the inputs. Represent rows
    // as 16-bit values: low 8 bits = M row, high 8 bits = identity row.
    std::array<std::uint16_t, 8> rows{};
    for (unsigned r = 0; r < 8; ++r) {
        std::uint16_t row = 0;
        for (unsigned c = 0; c < 8; ++c)
            row |= static_cast<std::uint16_t>((cols[c] >> r) & 1) << c;
        rows[r] = static_cast<std::uint16_t>(row | (1u << (8 + r)));
    }
    for (unsigned c = 0; c < 8; ++c) {
        unsigned pivot = c;
        while (pivot < 8 && !((rows[pivot] >> c) & 1))
            ++pivot;
        if (pivot == 8)
            throw std::logic_error("check columns are singular");
        std::swap(rows[c], rows[pivot]);
        for (unsigned r = 0; r < 8; ++r)
            if (r != c && ((rows[r] >> c) & 1))
                rows[r] ^= rows[c];
    }
    // Extract the inverse: its columns.
    std::array<std::uint8_t, 8> inv{};
    for (unsigned c = 0; c < 8; ++c) {
        std::uint8_t col = 0;
        for (unsigned r = 0; r < 8; ++r)
            col |= static_cast<std::uint8_t>(((rows[r] >> (8 + c)) & 1) << r);
        inv[c] = col;
    }
    return inv;
}

/** Multiply matrix (8 column bytes) by a vector byte. */
std::uint8_t
matVec(const std::array<std::uint8_t, 8> &cols, std::uint8_t v)
{
    std::uint8_t out = 0;
    for (unsigned c = 0; c < 8; ++c)
        if ((v >> c) & 1)
            out ^= cols[c];
    return out;
}

} // namespace

Hamming7264::Hamming7264()
{
    // Greedily select 8 linearly independent columns (lowest positions
    // first) as check positions; the rest carry data in position order.
    std::array<std::uint8_t, 8> basis{};
    std::array<std::uint8_t, 8> checkCols{};
    unsigned found = 0;
    std::array<bool, codeLength> isCheck{};
    for (unsigned p = 0; p < codeLength && found < checkLength; ++p) {
        std::uint8_t v = column(p);
        // Reduce v against the basis (basis[b] has leading bit b) to
        // test linear independence.
        std::uint8_t reduced = v;
        for (int b = 7; b >= 0; --b)
            if (((reduced >> b) & 1) && basis[b] != 0)
                reduced ^= basis[b];
        if (reduced == 0)
            continue;
        unsigned top = 7;
        while (!((reduced >> top) & 1))
            --top;
        basis[top] = reduced;
        checkCols[found] = v;
        checkPos_[found] = p;
        isCheck[p] = true;
        ++found;
    }
    assert(found == checkLength);

    unsigned d = 0;
    for (unsigned p = 0; p < codeLength; ++p)
        if (!isCheck[p])
            dataPos_[d++] = p;
    assert(d == dataLength);

    // solve_[s] = check-bit assignment whose column XOR equals s.
    const auto inv = invertColumns(checkCols);
    for (unsigned s = 0; s < 256; ++s)
        solve_[s] = matVec(inv, static_cast<std::uint8_t>(s));

    // Single-bit syndrome lookup.
    singleBitPos_.fill(0);
    for (unsigned p = 0; p < codeLength; ++p) {
        const std::uint8_t s = column(p);
        assert(singleBitPos_[s] == 0 && "duplicate single-bit syndrome");
        singleBitPos_[s] = static_cast<std::uint8_t>(p + 1);
    }

    // Byte-lane syndrome tables: lane b covers positions [8b, 8b+8).
    for (unsigned lane = 0; lane < 9; ++lane) {
        for (unsigned v = 0; v < 256; ++v) {
            std::uint8_t s = 0;
            for (unsigned bit = 0; bit < 8; ++bit)
                if ((v >> bit) & 1)
                    s ^= column(lane * 8 + bit);
            synTable_[lane][v] = s;
        }
    }
    nib_ = detail::makeNibbleTables(synTable_);
}

Word72
Hamming7264::encode(std::uint64_t data) const
{
    Word72 word;
    std::uint8_t s = 0;
    for (unsigned i = 0; i < dataLength; ++i) {
        if ((data >> i) & 1) {
            word.setBitTo(dataPos_[i], 1);
            s ^= column(dataPos_[i]);
        }
    }
    const std::uint8_t check = solve_[s];
    for (unsigned i = 0; i < checkLength; ++i)
        if ((check >> i) & 1)
            word.setBitTo(checkPos_[i], 1);
    return word;
}

std::uint8_t
Hamming7264::syndrome(const Word72 &received) const
{
    std::uint8_t s = 0;
    std::uint64_t lo = received.lo;
    for (unsigned lane = 0; lane < 8; ++lane) {
        s ^= synTable_[lane][lo & 0xFF];
        lo >>= 8;
    }
    s ^= synTable_[8][received.hi];
    return s;
}

bool
Hamming7264::isValidCodeword(const Word72 &received) const
{
    return syndrome(received) == 0;
}

std::size_t
Hamming7264::detectMany(std::span<const Word72> received) const
{
    const SimdLevel level = simdLevel();
    if (level != SimdLevel::Scalar)
        return detail::detectManySimd(level, nib_, received);
    std::size_t detected = 0;
    for (const Word72 &word : received) {
        std::uint8_t s = synTable_[8][word.hi];
        std::uint64_t lo = word.lo;
        for (unsigned lane = 0; lane < 8; ++lane) {
            s ^= synTable_[lane][lo & 0xFF];
            lo >>= 8;
        }
        detected += s != 0;
    }
    return detected;
}

std::uint64_t
Hamming7264::extractData(const Word72 &word) const
{
    std::uint64_t data = 0;
    for (unsigned i = 0; i < dataLength; ++i)
        data |= static_cast<std::uint64_t>(word.bit(dataPos_[i])) << i;
    return data;
}

DecodeResult
Hamming7264::decode(const Word72 &received) const
{
    DecodeResult result;
    const std::uint8_t s = syndrome(received);
    if (s == 0) {
        result.status = DecodeStatus::NoError;
        result.data = extractData(received);
        return result;
    }
    // The all-ones row (bit 7) tracks error-weight parity: odd-weight
    // errors (in particular single bits) have it set.
    if ((s & 0x80) && singleBitPos_[s] != 0) {
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
