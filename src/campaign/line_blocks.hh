/**
 * @file
 * Decode the lines of a JSONL file on a pool and fold them in file
 * order: the one read loop behind loadStore() and loadForensics().
 *
 * A store or sidecar line decodes on its own (JSON parse plus record
 * decode) and that is nearly all of a load's time; folding the decoded
 * lines into per-cell results is cheap but must follow the file. So
 * foldLineBlocks() reads the file in blocks of complete lines, decodes
 * each block's lines concurrently, and hands them to the fold on the
 * calling thread in file order until the fold stops. A load therefore
 * holds at most one block of lines and decoded results, stops where a
 * serial loop over the same lines stops, and reports the failure of the
 * first failing line in file order, however the decoding threads were
 * scheduled (DESIGN.md section 4c, Loading).
 */

#ifndef XED_CAMPAIGN_LINE_BLOCKS_HH
#define XED_CAMPAIGN_LINE_BLOCKS_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <istream>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace xed::campaign
{

/** Lines per decoding thread in one block, and the lines of the first
 *  block. A sidecar line takes ~25 us to decode, so a block keeps each
 *  thread busy for ~2 ms between the hand-overs, and four threads hold
 *  ~0.5 MB of sidecar text. */
inline constexpr std::size_t linesPerThreadBlock = 64;

/** Lines in each block after the first, decoded on @p threads. */
inline std::size_t
lineBlockSize(unsigned threads)
{
    return linesPerThreadBlock * (threads ? threads : 1);
}

/** Where a line lies in its file. */
struct LineSpan
{
    /** Byte offset of the line's first byte. */
    long long begin = 0;
    /** Byte offset just past its newline. */
    long long end = 0;
    /** 0-based, counting the lines foldLineBlocks() handed out. */
    std::uint64_t number = 0;
};

/**
 * Read the complete lines of @p in, whose read position is byte
 * @p offset of the file, and fold them in file order.
 * decode(std::string_view line, const LineSpan &) returns a Decoded; it
 * runs concurrently on the decoding threads (the calling thread among
 * them) and must not touch shared state unguarded.
 * fold(Decoded &, std::string_view line, const LineSpan &) runs on the
 * calling thread, line by line in file order, and returns false to
 * stop; no line after it is folded. A final line without a newline (a
 * write torn by a kill) is never decoded or folded.
 *
 * The first block, linesPerThreadBlock lines, is read as a serial loop
 * reads: each line decoded on the calling thread when the fold reaches
 * it. Only a fold that goes on past it calls threads(); the later blocks
 * are lineBlockSize(threads()) lines, decoded by threads() - 1 workers
 * beside the calling thread, which are joined before return.
 *
 * An exception a decode throws on any thread is held with its line and
 * rethrown on the calling thread when the fold reaches that line, so it
 * never escapes a worker, and is not thrown at all if the fold stops
 * first.
 */
template <class Decoded, class Threads, class Decode, class Fold>
void
foldLineBlocks(std::istream &in, long long offset, Threads threads,
               Decode decode, Fold fold)
{
    std::size_t blockLines = linesPerThreadBlock;
    std::vector<std::string> lines;
    std::vector<LineSpan> spans;
    std::vector<std::exception_ptr> thrown;
    // Decoded results (a ShardResult is ~2.3 KB) grow to the longest
    // block read, so a short file costs only its own lines.
    std::vector<Decoded> decoded;
    std::size_t count = 0; ///< lines in the current block
    std::uint64_t number = 0;
    bool lastBlock = false;

    const auto readBlock = [&] {
        lines.resize(blockLines);
        spans.resize(blockLines);
        thrown.resize(blockLines);
        count = 0;
        lastBlock = true; // unless the block fills and more follows
        for (; count < blockLines; ++count) {
            std::string &line = lines[count];
            if (!std::getline(in, line) || in.eof())
                break; // end of file, or a torn final line
            const long long end =
                offset + static_cast<long long>(line.size()) + 1;
            spans[count] = LineSpan{offset, end, number++};
            offset = end;
        }
        if (count == blockLines)
            lastBlock = in.peek() == std::char_traits<char>::eof();
        if (decoded.size() < count)
            decoded.resize(count);
    };
    const auto decodeLine = [&](std::size_t i) {
        thrown[i] = nullptr;
        try {
            decoded[i] = decode(std::string_view(lines[i]), spans[i]);
        } catch (...) {
            thrown[i] = std::current_exception();
        }
    };
    /** Fold the current block, decoding each line first when
     *  @p decodeHere; true while the fold and the file go on. */
    const auto foldBlock = [&](bool decodeHere) {
        for (std::size_t i = 0; i < count; ++i) {
            if (decodeHere)
                decodeLine(i);
            if (thrown[i])
                std::rethrow_exception(thrown[i]);
            if (!fold(decoded[i], std::string_view(lines[i]), spans[i]))
                return false;
        }
        return !lastBlock;
    };

    // The first block is read as a serial loop reads, so a short file,
    // or a prefix that ends in it, starts no thread.
    readBlock();
    if (!foldBlock(true))
        return;
    const unsigned workers = threads() - 1;
    blockLines = lineBlockSize(workers + 1);
    readBlock();
    if (workers == 0) {
        while (foldBlock(true) && (readBlock(), true)) {
        }
        return;
    }

    // Workers and the calling thread claim the block's lines one at a
    // time. Each block is one generation: the caller publishes it,
    // decodes beside the workers and waits until every worker has
    // checked in, so no worker is still in a block the caller reuses.
    std::atomic<std::size_t> nextLine{0};
    const auto decodeClaimed = [&] {
        for (std::size_t i;
             (i = nextLine.fetch_add(1, std::memory_order_relaxed)) <
             count;)
            decodeLine(i);
    };
    std::mutex mutex;
    std::condition_variable wake;
    std::condition_variable idle;
    std::uint64_t generation = 0; ///< guarded by mutex
    unsigned busy = 0;            ///< guarded by mutex
    bool stop = false;            ///< guarded by mutex
    const auto work = [&] {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            wake.wait(lock, [&] { return stop || generation != seen; });
            if (stop)
                return;
            seen = generation;
            lock.unlock();
            decodeClaimed();
            lock.lock();
            if (--busy == 0)
                idle.notify_one();
        }
    };

    // However the fold ends, `release` stops the workers before the
    // pool, declared before it, joins them.
    struct Release
    {
        std::mutex &mutex;
        std::condition_variable &wake;
        bool &stop;
        ~Release()
        {
            const std::lock_guard<std::mutex> lock(mutex);
            stop = true;
            wake.notify_all();
        }
    };
    std::vector<std::jthread> pool;
    const Release release{mutex, wake, stop};
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(work);
    do {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            nextLine.store(0, std::memory_order_relaxed);
            busy = workers;
            ++generation;
        }
        wake.notify_all();
        decodeClaimed();
        std::unique_lock<std::mutex> lock(mutex);
        idle.wait(lock, [&] { return busy == 0; });
    } while (foldBlock(false) && (readBlock(), true));
}

} // namespace xed::campaign

#endif // XED_CAMPAIGN_LINE_BLOCKS_HH
