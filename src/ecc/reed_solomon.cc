#include "ecc/reed_solomon.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace xed::ecc
{

namespace
{

/** Polynomial helpers; coefficients ascending (p[0] = x^0 term). */
using Poly = std::vector<std::uint8_t>;

/** Degree of a raw coefficient array (0 for the zero polynomial). */
unsigned
degreeOfArray(const std::uint8_t *p, unsigned size)
{
    for (unsigned i = size; i-- > 0;)
        if (p[i] != 0)
            return i;
    return 0;
}

Poly
polyMul(const GF256 &gf, const Poly &a, const Poly &b)
{
    Poly out(a.size() + b.size() - 1, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] == 0)
            continue;
        for (std::size_t j = 0; j < b.size(); ++j)
            out[i + j] ^= gf.mul(a[i], b[j]);
    }
    return out;
}

/** Horner evaluation of a raw coefficient array at @p x, with the
 *  multiplier row hoisted. */
std::uint8_t
polyEvalArray(const GF256 &gf, const std::uint8_t *p, unsigned size,
              std::uint8_t x)
{
    const std::uint8_t *row = gf.mulRowPtr(x);
    std::uint8_t acc = 0;
    for (unsigned i = size; i-- > 0;)
        acc = static_cast<std::uint8_t>(row[acc] ^ p[i]);
    return acc;
}

} // namespace

ReedSolomon::ReedSolomon(unsigned n, unsigned k)
    : gf_(GF256::instance()), n_(n), k_(k)
{
    if (n > GF256::groupOrder || k >= n || k == 0)
        throw std::invalid_argument("invalid RS parameters");
    // g(x) = prod_{i=0}^{n-k-1} (x + alpha^i); roots alpha^0..alpha^{n-k-1}.
    gen_ = {1};
    for (unsigned i = 0; i < n - k; ++i) {
        const Poly factor = {gf_.expAlpha(i), 1};
        gen_ = polyMul(gf_, gen_, factor);
    }

    // Per-position evaluation tables (setup-time only; the decode
    // paths never allocate).
    const unsigned r = numCheck();
    synRow_.resize(static_cast<std::size_t>(r) * n_);
    for (unsigned j = 0; j < r; ++j)
        for (unsigned i = 0; i < n_; ++i)
            synRow_[static_cast<std::size_t>(j) * n_ + i] = gf_.mulRowPtr(
                gf_.expAlpha((j * degreeOf(i)) % GF256::groupOrder));
    chienXinv_.resize(n_);
    posX_.resize(n_);
    for (unsigned p = 0; p < n_; ++p) {
        const unsigned deg = degreeOf(p);
        chienXinv_[p] = gf_.expAlpha(
            GF256::groupOrder - (deg % GF256::groupOrder));
        posX_[p] = gf_.expAlpha(deg);
    }
    if (fitsScratch()) {
        constexpr unsigned maxDeg = RsScratch::maxPoly + RsScratch::maxR;
        chienPow_.resize(static_cast<std::size_t>(maxDeg) * n_);
        for (unsigned d = 0; d < maxDeg; ++d)
            for (unsigned p = 0; p < n_; ++p)
                chienPow_[static_cast<std::size_t>(d) * n_ + p] =
                    gf_.pow(chienXinv_[p], d);
    }
}

void
ReedSolomon::encode(std::span<const std::uint8_t> data,
                    std::span<std::uint8_t> out) const
{
    if (data.size() != k_)
        throw std::invalid_argument("RS encode: wrong data length");
    if (out.size() != n_)
        throw std::invalid_argument("RS encode: wrong output length");
    const unsigned r = numCheck();
    // Long-division of data(x) * x^r by g(x); remainder = check symbols.
    // Work MSB-first over the data-first symbol order. The remainder
    // register lives on the stack: r < 255 always.
    std::uint8_t rem[GF256::groupOrder] = {};
    const std::uint8_t *gen = gen_.data();
    for (unsigned i = 0; i < k_; ++i) {
        const std::uint8_t feedback =
            static_cast<std::uint8_t>(data[i] ^ rem[r - 1]);
        const std::uint8_t *row = gf_.mulRowPtr(feedback);
        for (unsigned j = r; j-- > 1;)
            rem[j] = static_cast<std::uint8_t>(rem[j - 1] ^ row[gen[j]]);
        rem[0] = row[gen[0]];
    }
    if (out.data() != data.data())
        std::copy(data.begin(), data.end(), out.begin());
    // Check symbols: remainder coefficients, highest degree first so that
    // codeword index i corresponds to degree n-1-i throughout.
    for (unsigned j = 0; j < r; ++j)
        out[k_ + j] = rem[r - 1 - j];
}

std::vector<std::uint8_t>
ReedSolomon::encode(const std::vector<std::uint8_t> &data) const
{
    std::vector<std::uint8_t> out(n_);
    encode(std::span<const std::uint8_t>(data),
           std::span<std::uint8_t>(out));
    return out;
}

void
ReedSolomon::syndromesInto(const std::uint8_t *received,
                           std::uint8_t *syn) const
{
    const unsigned r = numCheck();
    // S_0 = r(1): a plain XOR over the symbols.
    std::uint8_t s0 = 0;
    for (unsigned i = 0; i < n_; ++i)
        s0 ^= received[i];
    syn[0] = s0;
    // S_j = sum_i received[i] * alpha^{j*deg(i)}: independent table
    // loads via the precomputed per-position product rows.
    for (unsigned j = 1; j < r; ++j) {
        const std::uint8_t *const *rows =
            synRow_.data() + static_cast<std::size_t>(j) * n_;
        std::uint8_t acc = 0;
        for (unsigned i = 0; i < n_; ++i)
            acc ^= rows[i][received[i]];
        syn[j] = acc;
    }
}

bool
ReedSolomon::isValidCodeword(std::span<const std::uint8_t> received) const
{
    assert(received.size() == n_);
    const std::uint8_t *word = received.data();
    const unsigned r = numCheck();
    std::uint8_t s0 = 0;
    for (unsigned i = 0; i < n_; ++i)
        s0 ^= word[i];
    if (s0 != 0)
        return false;
    for (unsigned j = 1; j < r; ++j) {
        const std::uint8_t *const *rows =
            synRow_.data() + static_cast<std::size_t>(j) * n_;
        std::uint8_t acc = 0;
        for (unsigned i = 0; i < n_; ++i)
            acc ^= rows[i][word[i]];
        if (acc != 0)
            return false;
    }
    return true;
}

void
ReedSolomon::syndromesManyStrided(const std::uint8_t *soa,
                                  std::size_t stride, std::size_t count,
                                  std::uint8_t *syn,
                                  std::size_t synStride) const
{
    const unsigned r = numCheck();
    // Fixed-size stack lanes keep the working set in L1 and the kernel
    // allocation-free for any count.
    constexpr std::size_t chunk = 512;
    std::uint8_t acc[chunk];
    for (std::size_t base = 0; base < count; base += chunk) {
        const std::size_t m = std::min(chunk, count - base);
        for (unsigned j = 0; j < r; ++j) {
            // S_j = r(alpha^j), Horner over symbols (index 0 is the
            // highest degree): acc = acc * alpha^j ^ soa[i]; the
            // multiplier is constant across the lane, so each step is
            // one mulConstInto pass.
            const std::uint8_t x = gf_.expAlpha(j);
            std::fill(acc, acc + m, 0);
            for (unsigned i = 0; i < n_; ++i) {
                const std::uint8_t *lane = soa + i * stride + base;
                if (j != 0)
                    gf_.mulConstInto(x, acc, acc, m);
                for (std::size_t c = 0; c < m; ++c)
                    acc[c] ^= lane[c];
            }
            std::copy(acc, acc + m, syn + j * synStride + base);
        }
    }
}

void
ReedSolomon::syndromesManySoa(std::span<const std::uint8_t> soa,
                              std::size_t count,
                              std::span<std::uint8_t> syn) const
{
    if (soa.size() != static_cast<std::size_t>(n_) * count)
        throw std::invalid_argument(
            "RS syndromesManySoa: span must hold n * count symbols");
    if (syn.size() != static_cast<std::size_t>(numCheck()) * count)
        throw std::invalid_argument(
            "RS syndromesManySoa: output must hold numCheck * count");
    syndromesManyStrided(soa.data(), count, count, syn.data(), count);
}

void
ReedSolomon::syndromesManySoa(const RsWordBlock &block,
                              std::span<std::uint8_t> syn) const
{
    if (block.n() != n_)
        throw std::invalid_argument(
            "RS syndromesManySoa: block has the wrong symbol count");
    if (syn.size() != static_cast<std::size_t>(numCheck()) * block.size())
        throw std::invalid_argument(
            "RS syndromesManySoa: output must hold numCheck * size");
    syndromesManyStrided(block.data(), block.stride(), block.size(),
                         syn.data(), block.size());
}

std::size_t
ReedSolomon::validManyStrided(const std::uint8_t *soa, std::size_t stride,
                              std::size_t count,
                              std::uint8_t *valid) const
{
    const unsigned r = numCheck();
    std::size_t invalid = 0;
    constexpr std::size_t chunk = 512;
    std::uint8_t acc[chunk];
    std::uint8_t bad[chunk];
    for (std::size_t base = 0; base < count; base += chunk) {
        const std::size_t m = std::min(chunk, count - base);
        std::fill(bad, bad + m, 0);
        for (unsigned j = 0; j < r; ++j) {
            const std::uint8_t x = gf_.expAlpha(j);
            std::fill(acc, acc + m, 0);
            for (unsigned i = 0; i < n_; ++i) {
                const std::uint8_t *lane = soa + i * stride + base;
                if (j != 0)
                    gf_.mulConstInto(x, acc, acc, m);
                for (std::size_t c = 0; c < m; ++c)
                    acc[c] ^= lane[c];
            }
            for (std::size_t c = 0; c < m; ++c)
                bad[c] |= acc[c];
        }
        for (std::size_t c = 0; c < m; ++c) {
            valid[base + c] = bad[c] == 0;
            invalid += bad[c] != 0;
        }
    }
    return invalid;
}

std::size_t
ReedSolomon::isValidCodewordMany(std::span<const std::uint8_t> soa,
                                 std::size_t count,
                                 std::span<std::uint8_t> valid) const
{
    if (soa.size() != static_cast<std::size_t>(n_) * count)
        throw std::invalid_argument(
            "RS isValidCodewordMany: span must hold n * count symbols");
    if (valid.size() != count)
        throw std::invalid_argument(
            "RS isValidCodewordMany: flag span must hold count bytes");
    return validManyStrided(soa.data(), count, count, valid.data());
}

std::size_t
ReedSolomon::isValidCodewordMany(const RsWordBlock &block,
                                 std::span<std::uint8_t> valid) const
{
    if (block.n() != n_)
        throw std::invalid_argument(
            "RS isValidCodewordMany: block has the wrong symbol count");
    if (valid.size() != block.size())
        throw std::invalid_argument(
            "RS isValidCodewordMany: flag span must hold size bytes");
    return validManyStrided(block.data(), block.stride(), block.size(),
                            valid.data());
}

bool
ReedSolomon::isCodeword(const std::vector<std::uint8_t> &received) const
{
    return isValidCodeword(std::span<const std::uint8_t>(received));
}

RsResult
ReedSolomon::decode(std::vector<std::uint8_t> &received,
                    const std::vector<unsigned> &erasures) const
{
    if (received.size() != n_)
        throw std::invalid_argument("RS decode: wrong codeword length");
    if (!fitsScratch())
        throw std::invalid_argument(
            "RS decode: n <= 36 and n - k <= 4 required");
    RsScratch scratch;
    return decodeScratch(received.data(), erasures.data(),
                         static_cast<unsigned>(erasures.size()), scratch);
}

RsResult
ReedSolomon::decode(std::span<std::uint8_t> received,
                    std::span<const unsigned> erasures,
                    RsScratch &scratch) const
{
    if (received.size() != n_)
        throw std::invalid_argument("RS decode: wrong codeword length");
    assert(fitsScratch() &&
           "scratch decode requires n <= RsScratch::maxN, r <= maxR");
    return decodeScratch(received.data(), erasures.data(),
                         static_cast<unsigned>(erasures.size()), scratch);
}

RsResult
ReedSolomon::decodeScratch(std::uint8_t *received, const unsigned *erasures,
                           unsigned numErasures, RsScratch &s) const
{
    RsResult result;
    const unsigned r = numCheck();

    syndromesInto(received, s.syn.data());
    bool clean = true;
    for (unsigned j = 0; j < r; ++j)
        clean &= (s.syn[j] == 0);
    if (clean) {
        result.status = RsStatus::NoError;
        return result;
    }

    const unsigned e = numErasures;
    if (e > r) {
        result.status = RsStatus::Failure;
        return result;
    }

    // Erasure locator Gamma(x) = prod (1 + X_i x), X_i = alpha^{degree},
    // built up in place (multiply by {1, X} per erasure).
    s.gamma[0] = 1;
    unsigned gammaSize = 1;
    for (unsigned t = 0; t < e; ++t) {
        const unsigned idx = erasures[t];
        if (idx >= n_) {
            result.status = RsStatus::Failure;
            return result;
        }
        const std::uint8_t *row = gf_.mulRowPtr(posX_[idx]);
        s.gamma[gammaSize] = 0;
        for (unsigned j = gammaSize; j >= 1; --j)
            s.gamma[j] ^= row[s.gamma[j - 1]];
        ++gammaSize;
    }

    // Forney syndromes: T(x) = S(x) * Gamma(x) mod x^r; the subsequence
    // T_e..T_{r-1} obeys the errors-only locator recursion.
    for (unsigned j = 0; j < r; ++j) {
        std::uint8_t acc = 0;
        for (unsigned i = 0; i <= j; ++i)
            if (j - i < gammaSize)
                acc ^= gf_.mul(s.syn[i], s.gamma[j - i]);
        s.t[j] = acc;
    }

    // Berlekamp-Massey on u_m = T_{e+m}, m = 0..r-e-1, entirely on the
    // fixed-capacity scratch arrays (sizes bounded by maxPoly: every
    // shift length m and prior-polynomial length is <= r + 1).
    const unsigned nSeq = r - e;
    s.lambda[0] = 1;
    s.b[0] = 1;
    unsigned lambdaSize = 1;
    unsigned bSize = 1;
    unsigned lLen = 0;
    unsigned m = 1;
    std::uint8_t bCoef = 1;
    for (unsigned step = 0; step < nSeq; ++step) {
        std::uint8_t delta = 0;
        for (unsigned i = 0; i <= lLen && i < lambdaSize; ++i)
            if (step >= i)
                delta ^= gf_.mul(s.lambda[i], s.t[e + step - i]);
        if (delta == 0) {
            ++m;
            continue;
        }
        const std::uint8_t factor = gf_.div(delta, bCoef);
        const std::uint8_t *frow = gf_.mulRowPtr(factor);
        const unsigned shiftedSize = m + bSize;
        assert(shiftedSize <= RsScratch::maxPoly);
        if (2 * lLen <= step) {
            std::copy(s.lambda.begin(), s.lambda.begin() + lambdaSize,
                      s.oldLambda.begin());
            const unsigned oldSize = lambdaSize;
            if (shiftedSize > lambdaSize) {
                std::fill(s.lambda.begin() + lambdaSize,
                          s.lambda.begin() + shiftedSize, 0);
                lambdaSize = shiftedSize;
            }
            for (unsigned i = 0; i < bSize; ++i)
                s.lambda[m + i] ^= frow[s.b[i]];
            std::copy(s.oldLambda.begin(), s.oldLambda.begin() + oldSize,
                      s.b.begin());
            bSize = oldSize;
            lLen = step + 1 - lLen;
            bCoef = delta;
            m = 1;
        } else {
            if (shiftedSize > lambdaSize) {
                std::fill(s.lambda.begin() + lambdaSize,
                          s.lambda.begin() + shiftedSize, 0);
                lambdaSize = shiftedSize;
            }
            for (unsigned i = 0; i < bSize; ++i)
                s.lambda[m + i] ^= frow[s.b[i]];
            ++m;
        }
    }
    if (degreeOfArray(s.lambda.data(), lambdaSize) != lLen ||
        2 * lLen + e > r) {
        result.status = RsStatus::Failure;
        return result;
    }

    // Combined locator Psi = Lambda * Gamma and Chien search over the n
    // valid positions, probing the precomputed alpha^{-deg} points.
    const unsigned psiSize = lambdaSize + gammaSize - 1;
    assert(psiSize <= s.psi.size());
    std::fill(s.psi.begin(), s.psi.begin() + psiSize, 0);
    for (unsigned i = 0; i < lambdaSize; ++i) {
        if (s.lambda[i] == 0)
            continue;
        const std::uint8_t *row = gf_.mulRowPtr(s.lambda[i]);
        for (unsigned j = 0; j < gammaSize; ++j)
            s.psi[i + j] ^= row[s.gamma[j]];
    }
    // Evaluate Psi at every probe point per degree rather than per
    // position: evals[p] = XOR_d psi[d] * chienXinv_[p]^d, each degree
    // a constant-multiplier pass over the precomputed power row (the
    // vector GF kernels). Same field sum as the Horner chain, so the
    // zero set -- and every downstream byte -- is unchanged.
    assert(!chienPow_.empty());
    std::fill(s.evals.begin(), s.evals.begin() + n_, s.psi[0]);
    for (unsigned d = 1; d < psiSize; ++d) {
        if (s.psi[d] == 0)
            continue;
        gf_.mulConstXorInto(s.psi[d],
                            chienPow_.data() +
                                static_cast<std::size_t>(d) * n_,
                            s.evals.data(), n_);
    }
    unsigned numPositions = 0;
    for (unsigned p = 0; p < n_; ++p)
        if (s.evals[p] == 0)
            s.positions[numPositions++] = p;
    if (numPositions != degreeOfArray(s.psi.data(), psiSize)) {
        result.status = RsStatus::Failure;
        return result;
    }

    // Error evaluator Omega(x) = S(x) * Psi(x) mod x^r and Forney values.
    for (unsigned j = 0; j < r; ++j) {
        std::uint8_t acc = 0;
        for (unsigned i = 0; i <= j; ++i)
            if (j - i < psiSize)
                acc ^= gf_.mul(s.syn[i], s.psi[j - i]);
        s.omega[j] = acc;
    }
    const unsigned derivSize = psiSize > 1 ? psiSize - 1 : 1;
    std::fill(s.psiDeriv.begin(), s.psiDeriv.begin() + derivSize, 0);
    for (unsigned i = 1; i < psiSize; i += 2)
        s.psiDeriv[i - 1] = s.psi[i];
    for (unsigned t = 0; t < numPositions; ++t) {
        const unsigned p = s.positions[t];
        const std::uint8_t xInv = chienXinv_[p];
        const std::uint8_t num =
            polyEvalArray(gf_, s.omega.data(), r, xInv);
        const std::uint8_t den =
            polyEvalArray(gf_, s.psiDeriv.data(), derivSize, xInv);
        if (den == 0) {
            result.status = RsStatus::Failure;
            return result;
        }
        const std::uint8_t magnitude =
            gf_.mul(posX_[p], gf_.div(num, den));
        received[p] ^= magnitude;
    }

    // Re-verify: a decoding that does not land on a codeword is a failure.
    if (!isValidCodeword(std::span<const std::uint8_t>(received, n_))) {
        result.status = RsStatus::Failure;
        return result;
    }
    result.status = RsStatus::Corrected;
    result.numErasures = e;
    result.numErrors = lLen;
    return result;
}

} // namespace xed::ecc
