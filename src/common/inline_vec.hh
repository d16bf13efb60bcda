/**
 * @file
 * InlineVec<T, N>: a trivial fixed-capacity vector with inline storage.
 *
 * The controllers' per-read results (catch-word chip lists, per-beat
 * data) have small compile-time-bounded sizes; returning them in
 * std::vector put a handful of heap allocations on every read
 * transaction. InlineVec keeps the contents in the object itself, so
 * the functional read path stays allocation-free end to end. The
 * perfsim memory controller keeps its request queues in InlineVecs for
 * the same reason.
 *
 * Deliberately minimal: only what the result structs, the controller
 * queues and their tests need (push_back, order-preserving erase,
 * indexing, iteration, equality -- including against std::vector --
 * and initializer-list assignment).
 */

#ifndef XED_COMMON_INLINE_VEC_HH
#define XED_COMMON_INLINE_VEC_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <initializer_list>

namespace xed
{

template <typename T, std::size_t N> class InlineVec
{
  public:
    InlineVec() = default;

    InlineVec(std::initializer_list<T> init) { *this = init; }

    InlineVec &
    operator=(std::initializer_list<T> init)
    {
        assert(init.size() <= N);
        size_ = 0;
        for (const T &value : init)
            items_[size_++] = value;
        return *this;
    }

    void
    push_back(const T &value)
    {
        assert(size_ < N && "InlineVec capacity exceeded");
        items_[size_++] = value;
    }

    /** Remove element @p i, keeping the order of the rest. */
    void
    erase(std::size_t i)
    {
        assert(i < size_);
        std::move(begin() + i + 1, end(), begin() + i);
        --size_;
    }

    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    static constexpr std::size_t capacity() { return N; }

    T &
    operator[](std::size_t i)
    {
        assert(i < size_);
        return items_[i];
    }

    const T &
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return items_[i];
    }

    T *begin() { return items_.data(); }
    T *end() { return items_.data() + size_; }
    const T *begin() const { return items_.data(); }
    const T *end() const { return items_.data() + size_; }
    T *data() { return items_.data(); }
    const T *data() const { return items_.data(); }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    /** Element-wise equality against any sized random-access range
     *  (another InlineVec, std::vector, std::array, ...). */
    template <typename Range>
    bool
    operator==(const Range &other) const
    {
        if (size_ != static_cast<std::size_t>(other.size()))
            return false;
        for (std::size_t i = 0; i < size_; ++i)
            if (!(items_[i] == other[i]))
                return false;
        return true;
    }

  private:
    std::array<T, N> items_{};
    std::size_t size_ = 0;
};

} // namespace xed

#endif // XED_COMMON_INLINE_VEC_HH
