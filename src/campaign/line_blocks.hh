/**
 * @file
 * Decode the lines of a JSONL file on a pool and fold them in file
 * order: the one read loop behind loadStore() and loadForensics().
 *
 * A store or sidecar line decodes on its own (JSON parse plus record
 * decode) and that is nearly all of a load's time; folding the decoded
 * lines into per-cell results is cheap but must follow the file. So
 * foldLineBlocks() reads the file in blocks of complete lines, decodes
 * the blocks concurrently, one per worker, and hands them to the fold
 * on the calling thread in file order until the fold stops. A load
 * therefore holds at most one block of lines and decoded results per
 * thread, stops where a serial loop over the same lines stops, and
 * reports the failure of the first failing line in file order, however
 * the decoding threads were scheduled (DESIGN.md section 4c, Loading).
 */

#ifndef XED_CAMPAIGN_LINE_BLOCKS_HH
#define XED_CAMPAIGN_LINE_BLOCKS_HH

#include <cstdint>
#include <exception>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "common/ordered_pool.hh"

namespace xed::campaign
{

/** Lines in the first block and in each later block, which one
 *  decoding thread decodes. A sidecar line takes ~25 us to decode, so a
 *  block keeps its thread busy for ~2 ms between the hand-overs, and
 *  four threads hold ~0.5 MB of sidecar text. */
inline constexpr std::size_t linesPerThreadBlock = 64;

/** Lines held at most after the first block, decoded on @p threads:
 *  one block per thread. */
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
 * runs concurrently on the decoding threads and must not touch shared
 * state unguarded.
 * fold(Decoded &, std::string_view line, const LineSpan &) runs on the
 * calling thread, line by line in file order, and returns false to
 * stop; no line after it is folded. A final line without a newline (a
 * write torn by a kill) is never decoded or folded.
 *
 * The first block, linesPerThreadBlock lines, is read as a serial loop
 * reads: each line decoded on the calling thread when the fold reaches
 * it. Only a fold that goes on past it calls threads(). The later
 * blocks, of linesPerThreadBlock lines each, are read in claim order
 * and decoded on runOrdered()'s threads() workers (none when that is
 * one), at most one block per worker ahead of the fold, and the
 * workers are joined before return.
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
    /** Up to linesPerThreadBlock consecutive lines and their decodes.
     *  The decoded results (a ShardResult is ~2.3 KB) grow to the
     *  longest block read, so a short file costs only its own lines. */
    struct Block
    {
        std::vector<std::string> lines;
        std::vector<LineSpan> spans;
        std::vector<std::exception_ptr> thrown;
        std::vector<Decoded> decoded;
        std::size_t count = 0;
    };
    std::uint64_t number = 0;

    /** Read the next lines into @p block; false when there are none. */
    const auto read = [&](Block &block) {
        block.lines.resize(linesPerThreadBlock);
        block.spans.resize(linesPerThreadBlock);
        block.count = 0;
        for (; block.count < linesPerThreadBlock; ++block.count) {
            std::string &line = block.lines[block.count];
            if (!std::getline(in, line) || in.eof())
                break; // end of file, or a torn final line
            const long long end =
                offset + static_cast<long long>(line.size()) + 1;
            block.spans[block.count] = LineSpan{offset, end, number++};
            offset = end;
        }
        block.thrown.resize(block.count);
        if (block.decoded.size() < block.count)
            block.decoded.resize(block.count);
        return block.count != 0;
    };
    const auto decodeLine = [&](Block &block, std::size_t i) {
        block.thrown[i] = nullptr;
        try {
            block.decoded[i] =
                decode(std::string_view(block.lines[i]), block.spans[i]);
        } catch (...) {
            block.thrown[i] = std::current_exception();
        }
    };
    /** Fold @p block, decoding each line first when @p decodeHere;
     *  false once the fold stops. */
    const auto foldBlock = [&](Block &block, bool decodeHere) {
        for (std::size_t i = 0; i < block.count; ++i) {
            if (decodeHere)
                decodeLine(block, i);
            if (block.thrown[i])
                std::rethrow_exception(block.thrown[i]);
            if (!fold(block.decoded[i], std::string_view(block.lines[i]),
                      block.spans[i]))
                return false;
        }
        return true;
    };

    // The first block is read as a serial loop reads, so a short file,
    // or a prefix that ends in it, starts no thread.
    {
        Block first;
        if (!read(first) || !foldBlock(first, true) ||
            first.count < linesPerThreadBlock ||
            in.peek() == std::char_traits<char>::eof())
            return;
    }
    const unsigned workers = threads();
    runOrdered<Block>(
        workers == 1 ? 0 : workers, workers,
        [&](std::uint64_t, Block &block) { return read(block); },
        [&](std::uint64_t, Block &block) {
            for (std::size_t i = 0; i < block.count; ++i)
                decodeLine(block, i);
        },
        [&](const OrderedRun<Block> &run) {
            for (std::uint64_t k = run.begin; k < run.end; ++k)
                if (!foldBlock(run[k], false))
                    return false;
            return true;
        });
}

} // namespace xed::campaign

#endif // XED_CAMPAIGN_LINE_BLOCKS_HH
