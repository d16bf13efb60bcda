#include "common/rng.hh"

#include <array>
#include <bit>

namespace xed
{
namespace
{

/**
 * A polynomial over GF(2) of degree below 256: bit i % 64 of word
 * i / 64 is the coefficient of x^i.
 */
using Poly = std::array<std::uint64_t, 4>;

/**
 * xoshiro256's state update is a linear map T on GF(2)^256 with
 * characteristic polynomial P(x) = x^256 + charPolyLow(x).
 * Berlekamp-Massey over 512 outputs of one state bit yields it;
 * x^(2^128) mod P is then the generator's published jump polynomial,
 * and tests/common/test_rng.cc checks jump() against next().
 */
constexpr Poly charPolyLow = {0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
                              0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};

constexpr Poly
plus(Poly a, const Poly &b)
{
    for (unsigned w = 0; w < 4; ++w)
        a[w] ^= b[w];
    return a;
}

/** r * x mod P. */
constexpr Poly
timesX(Poly r)
{
    const std::uint64_t carry = 0 - (r[3] >> 63);
    for (unsigned w = 3; w > 0; --w)
        r[w] = (r[w] << 1) | (r[w - 1] >> 63);
    r[0] <<= 1;
    for (unsigned w = 0; w < 4; ++w)
        r[w] ^= charPolyLow[w] & carry;
    return r;
}

/** foldByte[v] = v(x) * x^256 mod P for every polynomial v of degree
 *  below 8: the reduction of one byte that overflows past x^255. */
constexpr std::array<Poly, 256> foldByte = [] {
    std::array<Poly, 256> table{};
    Poly power = charPolyLow; // x^256 mod P
    for (unsigned bit = 0; bit < 8; ++bit) {
        for (unsigned v = 0; v < (1u << bit); ++v)
            table[v | (1u << bit)] = plus(table[v], power);
        power = timesX(power);
    }
    return table;
}();

/** The low 32 bits of @p v moved to the even bits of the result:
 *  squaring a GF(2) polynomial takes x^i to x^(2i). */
std::uint64_t
spreadToEvenBits(std::uint64_t v)
{
    v &= 0xFFFFFFFFull;
    v = (v | (v << 16)) & 0x0000FFFF0000FFFFull;
    v = (v | (v << 8)) & 0x00FF00FF00FF00FFull;
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0Full;
    v = (v | (v << 2)) & 0x3333333333333333ull;
    v = (v | (v << 1)) & 0x5555555555555555ull;
    return v;
}

/** r^2 mod P. */
Poly
squared(const Poly &r)
{
    // r^2 = high * x^256 + low, each half spread from 128 bits of r.
    Poly low, high;
    for (unsigned w = 0; w < 4; ++w) {
        Poly &half = w < 2 ? low : high;
        half[2 * (w % 2)] = spreadToEvenBits(r[w]);
        half[2 * (w % 2) + 1] = spreadToEvenBits(r[w] >> 32);
    }
    // high * x^256 mod P by Horner over high's bytes, top byte first:
    // acc <- acc * x^8 + byte * x^256, where the byte acc pushes past
    // x^255 folds back in through the same table.
    Poly acc{};
    for (unsigned byte = 32; byte-- > 0;) {
        const std::uint64_t in = high[byte / 8] >> (byte % 8 * 8);
        const unsigned overflow =
            static_cast<unsigned>(((acc[3] >> 56) ^ in) & 0xFF);
        for (unsigned w = 3; w > 0; --w)
            acc[w] = (acc[w] << 8) | (acc[w - 1] >> 56);
        acc[0] <<= 8;
        acc = plus(acc, foldByte[overflow]);
    }
    return plus(acc, low);
}

/** x^n mod P, by square-and-multiply from n's top bit. */
Poly
powerOfX(std::uint64_t n)
{
    Poly r = {1, 0, 0, 0};
    for (int bit = std::bit_width(n) - 1; bit >= 0; --bit) {
        r = squared(r);
        if ((n >> bit) & 1)
            r = timesX(r);
    }
    return r;
}

} // namespace

void
Rng::jump(std::uint64_t draws)
{
    // Cayley-Hamilton: P(T) = 0, so T^draws = (x^draws mod P)(T), a
    // sum of the states T^i s over the polynomial's 256 coefficients.
    const Poly poly = powerOfX(draws);
    std::uint64_t sum[4] = {0, 0, 0, 0};
    for (unsigned i = 0; i < 256; ++i) {
        if ((poly[i / 64] >> (i % 64)) & 1)
            for (unsigned w = 0; w < 4; ++w)
                sum[w] ^= state_[w];
        next();
    }
    for (unsigned w = 0; w < 4; ++w)
        state_[w] = sum[w];
}

} // namespace xed
