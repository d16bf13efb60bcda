#include "tests/support/codec_reference.hh"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace xed::ecc::legacy
{

namespace
{

constexpr unsigned fieldPoly = 0x11D;
constexpr unsigned groupOrder = 255;

/** The original log/exp table pair (no full product table). */
struct LogExp
{
    std::uint8_t exp[256];
    unsigned log[256];

    LogExp()
    {
        unsigned x = 1;
        for (unsigned i = 0; i < groupOrder; ++i) {
            exp[i] = static_cast<std::uint8_t>(x);
            log[x] = i;
            x <<= 1;
            if (x & 0x100)
                x ^= fieldPoly;
        }
        exp[groupOrder] = exp[0];
        log[0] = 0;
    }
};

const LogExp &
tables()
{
    static const LogExp t;
    return t;
}

/** The original GF(2^8) multiply: zero branch + log/exp + `% 255`. */
std::uint8_t
gfMul(std::uint8_t a, std::uint8_t b)
{
    const LogExp &t = tables();
    if (a == 0 || b == 0)
        return 0;
    return t.exp[(t.log[a] + t.log[b]) % groupOrder];
}

std::uint8_t
gfDiv(std::uint8_t a, std::uint8_t b)
{
    const LogExp &t = tables();
    if (a == 0)
        return 0;
    return t.exp[(t.log[a] + groupOrder - t.log[b]) % groupOrder];
}

std::uint8_t
gfExpAlpha(unsigned e)
{
    return tables().exp[e % groupOrder];
}

using Poly = std::vector<std::uint8_t>;

unsigned
degree(const Poly &p)
{
    for (std::size_t i = p.size(); i-- > 0;)
        if (p[i] != 0)
            return static_cast<unsigned>(i);
    return 0;
}

Poly
polyMul(const Poly &a, const Poly &b)
{
    Poly out(a.size() + b.size() - 1, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] == 0)
            continue;
        for (std::size_t j = 0; j < b.size(); ++j)
            out[i + j] ^= gfMul(a[i], b[j]);
    }
    return out;
}

std::uint8_t
polyEval(const Poly &p, std::uint8_t x)
{
    std::uint8_t acc = 0;
    for (std::size_t i = p.size(); i-- > 0;)
        acc = static_cast<std::uint8_t>(gfMul(acc, x) ^ p[i]);
    return acc;
}

Poly
polyDeriv(const Poly &p)
{
    Poly out(p.size() > 1 ? p.size() - 1 : 1, 0);
    for (std::size_t i = 1; i < p.size(); i += 2)
        out[i - 1] = p[i];
    return out;
}

/** The original MSB-first byte table: table[b] = b(x) * x^8 mod g. */
const std::uint8_t *
crcTable()
{
    static const auto table = [] {
        std::array<std::uint8_t, 256> t{};
        for (unsigned b = 0; b < 256; ++b) {
            std::uint8_t r = static_cast<std::uint8_t>(b);
            for (int i = 0; i < 8; ++i)
                r = static_cast<std::uint8_t>((r << 1) ^
                                              ((r & 0x80) ? 0x07 : 0));
            t[b] = r;
        }
        return t;
    }();
    return table.data();
}

} // namespace

std::uint8_t
crc8(std::uint64_t data)
{
    const std::uint8_t *table = crcTable();
    std::uint8_t r = 0;
    for (int byte = 7; byte >= 0; --byte)
        r = table[r ^ static_cast<std::uint8_t>(data >> (8 * byte))];
    return r;
}

std::uint8_t
crcSyndrome(const Word72 &received)
{
    const std::uint64_t data =
        (static_cast<std::uint64_t>(received.hi) << 56) |
        (received.lo >> 8);
    return static_cast<std::uint8_t>(crc8(data) ^ (received.lo & 0xFF));
}

ReedSolomon::ReedSolomon(unsigned n, unsigned k) : n_(n), k_(k)
{
    if (n > groupOrder || k >= n || k == 0)
        throw std::invalid_argument("invalid RS parameters");
    gen_ = {1};
    for (unsigned i = 0; i < n - k; ++i) {
        const Poly factor = {gfExpAlpha(i), 1};
        gen_ = polyMul(gen_, factor);
    }
}

std::vector<std::uint8_t>
ReedSolomon::encode(const std::vector<std::uint8_t> &data) const
{
    if (data.size() != k_)
        throw std::invalid_argument("RS encode: wrong data length");
    const unsigned r = numCheck();
    std::vector<std::uint8_t> rem(r, 0);
    for (unsigned i = 0; i < k_; ++i) {
        const std::uint8_t feedback =
            static_cast<std::uint8_t>(data[i] ^ rem[r - 1]);
        for (unsigned j = r; j-- > 1;)
            rem[j] = static_cast<std::uint8_t>(
                rem[j - 1] ^ gfMul(feedback, gen_[j]));
        rem[0] = gfMul(feedback, gen_[0]);
    }
    std::vector<std::uint8_t> out(data);
    out.resize(n_);
    for (unsigned j = 0; j < r; ++j)
        out[k_ + j] = rem[r - 1 - j];
    return out;
}

std::vector<std::uint8_t>
ReedSolomon::syndromes(const std::vector<std::uint8_t> &received) const
{
    const unsigned r = numCheck();
    std::vector<std::uint8_t> syn(r, 0);
    for (unsigned j = 0; j < r; ++j) {
        std::uint8_t acc = 0;
        const std::uint8_t x = gfExpAlpha(j);
        for (unsigned i = 0; i < n_; ++i)
            acc = static_cast<std::uint8_t>(gfMul(acc, x) ^ received[i]);
        syn[j] = acc;
    }
    return syn;
}

bool
ReedSolomon::isCodeword(const std::vector<std::uint8_t> &received) const
{
    const auto syn = syndromes(received);
    return std::all_of(syn.begin(), syn.end(),
                       [](std::uint8_t s) { return s == 0; });
}

RsResult
ReedSolomon::decode(std::vector<std::uint8_t> &received,
                    const std::vector<unsigned> &erasures) const
{
    if (received.size() != n_)
        throw std::invalid_argument("RS decode: wrong codeword length");
    RsResult result;
    const unsigned r = numCheck();

    const auto syn = syndromes(received);
    const bool clean = std::all_of(syn.begin(), syn.end(),
                                   [](std::uint8_t s) { return s == 0; });
    if (clean) {
        result.status = RsStatus::NoError;
        return result;
    }

    const unsigned e = static_cast<unsigned>(erasures.size());
    if (e > r) {
        result.status = RsStatus::Failure;
        return result;
    }

    Poly gamma = {1};
    for (const unsigned idx : erasures) {
        if (idx >= n_) {
            result.status = RsStatus::Failure;
            return result;
        }
        const Poly factor = {1, gfExpAlpha(degreeOf(idx))};
        gamma = polyMul(gamma, factor);
    }

    Poly sPoly(syn.begin(), syn.end());
    Poly t = polyMul(sPoly, gamma);
    t.resize(r, 0);

    const unsigned nSeq = r - e;
    Poly lambda = {1};
    Poly b = {1};
    unsigned lLen = 0;
    unsigned m = 1;
    std::uint8_t bCoef = 1;
    for (unsigned step = 0; step < nSeq; ++step) {
        std::uint8_t delta = 0;
        for (unsigned i = 0; i <= lLen && i < lambda.size(); ++i)
            if (step >= i)
                delta ^= gfMul(lambda[i], t[e + step - i]);
        if (delta == 0) {
            ++m;
        } else if (2 * lLen <= step) {
            const Poly oldLambda = lambda;
            const std::uint8_t factor = gfDiv(delta, bCoef);
            Poly shifted(m, 0);
            shifted.insert(shifted.end(), b.begin(), b.end());
            if (shifted.size() > lambda.size())
                lambda.resize(shifted.size(), 0);
            for (std::size_t i = 0; i < shifted.size(); ++i)
                lambda[i] ^= gfMul(factor, shifted[i]);
            b = oldLambda;
            lLen = step + 1 - lLen;
            bCoef = delta;
            m = 1;
        } else {
            const std::uint8_t factor = gfDiv(delta, bCoef);
            Poly shifted(m, 0);
            shifted.insert(shifted.end(), b.begin(), b.end());
            if (shifted.size() > lambda.size())
                lambda.resize(shifted.size(), 0);
            for (std::size_t i = 0; i < shifted.size(); ++i)
                lambda[i] ^= gfMul(factor, shifted[i]);
            ++m;
        }
    }
    if (degree(lambda) != lLen || 2 * lLen + e > r) {
        result.status = RsStatus::Failure;
        return result;
    }

    Poly psi = polyMul(lambda, gamma);
    std::vector<unsigned> positions;
    for (unsigned p = 0; p < n_; ++p) {
        const unsigned deg = degreeOf(p);
        const std::uint8_t xInv =
            gfExpAlpha(groupOrder - (deg % groupOrder));
        if (polyEval(psi, xInv) == 0)
            positions.push_back(p);
    }
    if (positions.size() != degree(psi)) {
        result.status = RsStatus::Failure;
        return result;
    }

    Poly omega = polyMul(sPoly, psi);
    omega.resize(r, 0);
    const Poly psiDeriv = polyDeriv(psi);
    for (const unsigned p : positions) {
        const unsigned deg = degreeOf(p);
        const std::uint8_t x = gfExpAlpha(deg);
        const std::uint8_t xInv =
            gfExpAlpha(groupOrder - (deg % groupOrder));
        const std::uint8_t num = polyEval(omega, xInv);
        const std::uint8_t den = polyEval(psiDeriv, xInv);
        if (den == 0) {
            result.status = RsStatus::Failure;
            return result;
        }
        const std::uint8_t magnitude = gfMul(x, gfDiv(num, den));
        received[p] ^= magnitude;
    }

    if (!isCodeword(received)) {
        result.status = RsStatus::Failure;
        return result;
    }
    result.status = RsStatus::Corrected;
    result.numErasures = e;
    result.numErrors = lLen;
    return result;
}

} // namespace xed::ecc::legacy
