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
#include <cassert>
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

/**
 * Transposed (symbol-major) staging block for the batch kernels.
 *
 * Word-major order defeats the vector GF(2^8) kernels: the syndrome
 * multiplier alpha^{j*deg(i)} changes with every symbol position, so a
 * pshufb nibble table would have to be reloaded per byte. Transposing
 * a block of codewords into n position planes -- plane i holds symbol
 * i of every staged word contiguously -- turns each Horner step into
 * one constant-multiplier pass over a whole plane, which is exactly
 * the GF256::mulConstInto() shape.
 *
 * Capacity is fixed at reset(); staging (push/openColumn/setSymbol)
 * never allocates, so controllers can keep one block per read batch
 * and stay allocation-free in steady state. The plane stride is the
 * capacity, not the current size.
 */
class RsWordBlock
{
  public:
    RsWordBlock() = default;
    RsWordBlock(unsigned n, std::size_t capacity) { reset(n, capacity); }

    /** (Re)shape to n symbol planes of @p capacity words; size() := 0.
     *  The only allocating call; everything below is pointer math. */
    void
    reset(unsigned n, std::size_t capacity)
    {
        n_ = n;
        capacity_ = capacity;
        size_ = 0;
        planes_.assign(static_cast<std::size_t>(n) * capacity, 0);
    }

    unsigned n() const { return n_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    bool full() const { return size_ == capacity_; }
    void clear() { size_ = 0; }

    /** Distance between consecutive symbols of one position plane. */
    std::size_t stride() const { return capacity_; }

    /** Stage one word (n symbols, word-major); returns its column. */
    std::size_t
    push(std::span<const std::uint8_t> word)
    {
        assert(word.size() == n_ && size_ < capacity_);
        std::uint8_t *base = planes_.data() + size_;
        for (unsigned i = 0; i < n_; ++i)
            base[static_cast<std::size_t>(i) * capacity_] = word[i];
        return size_++;
    }

    /** Open the next column for plane-wise setSymbol() writes (the
     *  gather order controllers prefer: per chip, then per word). */
    std::size_t
    openColumn()
    {
        assert(size_ < capacity_);
        return size_++;
    }

    void
    setSymbol(unsigned plane, std::size_t column, std::uint8_t value)
    {
        assert(plane < n_ && column < size_);
        planes_[static_cast<std::size_t>(plane) * capacity_ + column] =
            value;
    }

    std::uint8_t
    symbol(unsigned plane, std::size_t column) const
    {
        assert(plane < n_ && column < size_);
        return planes_[static_cast<std::size_t>(plane) * capacity_ +
                       column];
    }

    const std::uint8_t *
    plane(unsigned i) const
    {
        assert(i < n_);
        return planes_.data() + static_cast<std::size_t>(i) * capacity_;
    }

    std::uint8_t *
    plane(unsigned i)
    {
        assert(i < n_);
        return planes_.data() + static_cast<std::size_t>(i) * capacity_;
    }

    const std::uint8_t *data() const { return planes_.data(); }

  private:
    unsigned n_ = 0;
    std::size_t capacity_ = 0;
    std::size_t size_ = 0;
    std::vector<std::uint8_t> planes_;
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

    /**
     * Batch syndromes over a structure-of-arrays block: @p soa holds
     * @p count codewords symbol-major, soa[i * count + c] = symbol i
     * of codeword c. Writes syn[j * count + c] = S_j of codeword c
     * for every check index j < numCheck(). Each Horner step is one
     * constant-multiplier pass over the whole lane, so the kernel runs
     * on the vector GF256 rows; the bytes written are identical to
     * per-word syndromesInto() at every dispatch level.
     */
    void syndromesManySoa(std::span<const std::uint8_t> soa,
                          std::size_t count,
                          std::span<std::uint8_t> syn) const;

    /** syndromesManySoa over a staged RsWordBlock (its size() words);
     *  syn must hold numCheck() * block.size() bytes. */
    void syndromesManySoa(const RsWordBlock &block,
                          std::span<std::uint8_t> syn) const;

    /**
     * Batch validity flags over a structure-of-arrays block (layout as
     * syndromesManySoa): sets valid[c] = 1 iff every syndrome of
     * codeword c is zero (else 0) and returns the number of invalid
     * codewords. The Horner multiplier per syndrome is a constant
     * (alpha^j), so the whole lane runs through the vector
     * GF256::mulConstInto() kernels; flag-for-flag identical to a
     * per-word isValidCodeword() loop at every dispatch level.
     */
    std::size_t isValidCodewordMany(std::span<const std::uint8_t> soa,
                                    std::size_t count,
                                    std::span<std::uint8_t> valid) const;

    /** isValidCodewordMany over a staged RsWordBlock (size() words). */
    std::size_t isValidCodewordMany(const RsWordBlock &block,
                                    std::span<std::uint8_t> valid) const;

  private:
    /** Map a data-first index to the polynomial degree position. */
    unsigned degreeOf(unsigned index) const { return n_ - 1 - index; }

    /** Table-driven syndromes into @p syn (numCheck() entries). */
    void syndromesInto(const std::uint8_t *received,
                       std::uint8_t *syn) const;

    /** Strided core behind both syndromesManySoa overloads: plane i
     *  of the block starts at soa + i * stride; syndrome row j starts
     *  at syn + j * synStride. */
    void syndromesManyStrided(const std::uint8_t *soa, std::size_t stride,
                              std::size_t count, std::uint8_t *syn,
                              std::size_t synStride) const;

    /** Strided core behind both isValidCodewordMany overloads. */
    std::size_t validManyStrided(const std::uint8_t *soa,
                                 std::size_t stride, std::size_t count,
                                 std::uint8_t *valid) const;

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
