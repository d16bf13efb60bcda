/**
 * @file
 * Systematic Reed-Solomon RS(n, k) over GF(2^8) with errors-and-erasures
 * decoding (Forney syndromes + Berlekamp-Massey + Chien + Forney).
 *
 * These codes implement the symbol-based DIMM-level schemes the paper
 * compares against:
 *   - RS(18,16): commercial Chipkill (16 data chips + 2 check chips);
 *     corrects one faulty symbol per codeword.
 *   - RS(36,32): Double-Chipkill (32 data chips + 4 check chips);
 *     corrects two faulty symbols.
 *   - RS(18,16) in 2-erasure mode: XED on top of Chipkill (Section IX),
 *     where catch-words provide the two erasure locations.
 *
 * Decoding runs one allocation-free kernel on fixed-capacity scratch
 * arrays (RsScratch) and precomputed per-position syndrome/Chien
 * tables, so it covers every code that fits RsScratch (n <= 36,
 * n-k <= 4, i.e. all the paper's codes). The vector decode() is a thin
 * wrapper that supplies the scratch. Encoding and syndrome checks
 * accept any RS(n, k) over GF(2^8).
 */

#ifndef XED_ECC_REED_SOLOMON_HH
#define XED_ECC_REED_SOLOMON_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ecc/gf256.hh"

namespace xed::ecc
{

/** Outcome of a Reed-Solomon decode. */
enum class RsStatus
{
    NoError,
    Corrected,
    /** More errors than the code can correct (or locator inconsistent). */
    Failure,
};

struct RsResult
{
    RsStatus status = RsStatus::Failure;
    unsigned numErrors = 0;
    unsigned numErasures = 0;
};

/**
 * Fixed-capacity decode workspace, sized for the paper's codes
 * (n <= 36 symbols, n-k <= 4 check symbols). Stack- or
 * member-allocated by the caller and reused across decodes; the decode
 * kernel never touches the heap. Contents are scratch only -- nothing
 * persists between calls.
 */
struct RsScratch
{
    /** Largest codeword the scratch kernel accepts (RS(36,32)). */
    static constexpr unsigned maxN = 36;
    /** Largest check-symbol count (Double-Chipkill's r = 4). */
    static constexpr unsigned maxR = 4;
    /** Berlekamp-Massey polynomial capacity (see reed_solomon.cc). */
    static constexpr unsigned maxPoly = 2 * maxR + 2;

    std::array<std::uint8_t, maxR> syn;
    std::array<std::uint8_t, maxR + 1> gamma;
    std::array<std::uint8_t, maxR> t;
    std::array<std::uint8_t, maxPoly> lambda;
    std::array<std::uint8_t, maxPoly> b;
    std::array<std::uint8_t, maxPoly> oldLambda;
    std::array<std::uint8_t, maxPoly + maxR> psi;
    std::array<std::uint8_t, maxPoly + maxR> psiDeriv;
    std::array<std::uint8_t, maxR> omega;
    std::array<unsigned, maxN> positions;
    /** Chien evaluations Psi(alpha^{-deg(p)}) for all n positions. */
    std::array<std::uint8_t, maxN> evals;
};

class ReedSolomon
{
  public:
    /**
     * @param n codeword length in symbols (n <= 255)
     * @param k data length in symbols (k < n)
     */
    ReedSolomon(unsigned n, unsigned k);

    unsigned n() const { return n_; }
    unsigned k() const { return k_; }
    unsigned numCheck() const { return n_ - k_; }

    /** True iff the allocation-free scratch kernel covers this code. */
    bool
    fitsScratch() const
    {
        return n_ <= RsScratch::maxN && numCheck() <= RsScratch::maxR;
    }

    /**
     * Systematic encode. @p data has k symbols; returns n symbols with
     * data first (indices 0..k-1) followed by the check symbols.
     */
    std::vector<std::uint8_t> encode(
        const std::vector<std::uint8_t> &data) const;

    /**
     * Allocation-free systematic encode into caller storage:
     * @p data (k symbols) -> @p out (n symbols, data-first).
     * The two ranges may alias only if out.data() == data.data().
     */
    void encode(std::span<const std::uint8_t> data,
                std::span<std::uint8_t> out) const;

    /**
     * Decode @p received (n symbols) in place.
     *
     * @param erasures indices (0-based, data-first order) of symbols
     *        known to be unreliable, e.g. chips that sent a catch-word.
     *        Correctable iff 2*errors + erasures <= n-k.
     * @throws std::invalid_argument unless fitsScratch().
     */
    RsResult decode(std::vector<std::uint8_t> &received,
                    const std::vector<unsigned> &erasures = {}) const;

    /**
     * Allocation-free decode of @p received (n symbols, in place) on
     * caller scratch. Requires fitsScratch(); results are bit-identical
     * to the vector overload.
     */
    RsResult decode(std::span<std::uint8_t> received,
                    std::span<const unsigned> erasures,
                    RsScratch &scratch) const;

    /** True iff @p received has all-zero syndromes. */
    bool isCodeword(const std::vector<std::uint8_t> &received) const;

    /**
     * Syndrome-only validity fast path: true iff all syndromes are
     * zero, returning at the first nonzero one. No allocation, no
     * correction attempt -- this is the detection kernel.
     */
    bool isValidCodeword(std::span<const std::uint8_t> received) const;

  private:
    /** Map a data-first index to the polynomial degree position. */
    unsigned degreeOf(unsigned index) const { return n_ - 1 - index; }

    /** Table-driven syndromes into @p syn (numCheck() entries). */
    void syndromesInto(const std::uint8_t *received,
                       std::uint8_t *syn) const;

    /** The allocation-free kernel behind both decode overloads. */
    RsResult decodeScratch(std::uint8_t *received,
                           const unsigned *erasures, unsigned numErasures,
                           RsScratch &scratch) const;

    const GF256 &gf_;
    unsigned n_;
    unsigned k_;
    /** Generator polynomial, ascending degree; g[0] is x^0 coeff. */
    std::vector<std::uint8_t> gen_;
    /**
     * Per-position syndrome evaluation tables: synRow_[j * n + i] is
     * the GF256 product row of alpha^{j * deg(i)}, so syndrome j is
     * an XOR of n independent table loads instead of a dependent
     * Horner chain.
     */
    std::vector<const std::uint8_t *> synRow_;
    /** chienXinv_[p] = alpha^{-deg(p)}: the Chien/Forney probe point. */
    std::vector<std::uint8_t> chienXinv_;
    /**
     * chienPow_[d * n + p] = chienXinv_[p]^d for every locator degree
     * d < maxPoly + maxR, so the Chien search evaluates Psi across all
     * n positions as per-degree constant-multiplier passes over these
     * rows (vectorizable) instead of per-position Horner chains. Built
     * only for codes that fit RsScratch; empty otherwise.
     */
    std::vector<std::uint8_t> chienPow_;
    /** posX_[p] = alpha^{deg(p)}: the Forney magnitude factor. */
    std::vector<std::uint8_t> posX_;
};

} // namespace xed::ecc

#endif // XED_ECC_REED_SOLOMON_HH
