/**
 * @file
 * Seeded mutation fuzz of the strict JSON parser. The seeds are real
 * store and sidecar lines (tests/common/json_corpus.jsonl: the
 * manifest, a shard record, a forensics record, a forensics summary
 * and the store summary of a 2-scheme, 4,000-system reliability run).
 * Each mutant gets one to three byte flips, deletions, insertions of a
 * JSON-significant or control byte, or truncations, and must either
 * fail with an error that names an offset inside the mutant, or parse
 * to a value whose dump() parses back to an equal value. Run under
 * UBSan by scripts/check.sh ubsan (ctest label "json").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/json.hh"

using namespace xed;

namespace
{

constexpr int mutantsPerLine = 40'000;

std::vector<std::string>
corpusLines()
{
    std::ifstream in(XED_JSON_CORPUS, std::ios::binary);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

void
mutate(std::string &text, std::mt19937_64 &rng)
{
    static constexpr char inserts[] = "\"\\{}[],:-+.eE0123456789";
    const std::size_t at = text.empty() ? 0 : rng() % text.size();
    switch (rng() % 4) {
      case 0: // flip a byte
        if (!text.empty())
            text[at] = static_cast<char>(text[at] ^ (1 + rng() % 255));
        break;
      case 1: // delete a byte
        if (!text.empty())
            text.erase(at, 1);
        break;
      case 2: { // insert a JSON-significant or control byte
          const std::size_t pick = rng() % (sizeof inserts - 1 + 4);
          const char c = pick < sizeof inserts - 1
                             ? inserts[pick]
                             : static_cast<char>(rng() % 0x20);
          text.insert(text.begin() + (rng() % (text.size() + 1)), c);
          break;
      }
      default: // truncate
        text.resize(text.empty() ? 0 : rng() % text.size());
    }
}

/** The offset an error message names, or -1 when it names none. */
long long
errorOffset(const std::string &error)
{
    const std::string marker = " at offset ";
    const std::size_t at = error.rfind(marker);
    if (at == std::string::npos)
        return -1;
    const std::string digits = error.substr(at + marker.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return -1;
    return std::strtoll(digits.c_str(), nullptr, 10);
}

} // namespace

TEST(JsonFuzz, MutantsFailWithAnOffsetOrRoundTrip)
{
    const std::vector<std::string> lines = corpusLines();
    ASSERT_EQ(lines.size(), 5u) << XED_JSON_CORPUS;
    for (const std::string &line : lines)
        ASSERT_TRUE(json::parse(line)) << line.substr(0, 80);

    std::mt19937_64 rng(0xf022);
    std::uint64_t rejected = 0, accepted = 0, failures = 0;
    for (const std::string &line : lines) {
        for (int m = 0; m < mutantsPerLine; ++m) {
            std::string mutant = line;
            for (int k = 1 + rng() % 3; k > 0; --k)
                mutate(mutant, rng);
            std::string error;
            const auto value = json::parse(mutant, &error);
            std::string problem;
            if (!value) {
                ++rejected;
                const long long offset = errorOffset(error);
                if (offset < 0 ||
                    offset > static_cast<long long>(mutant.size()))
                    problem = "error names no offset in the input: " +
                              error;
            } else {
                ++accepted;
                const std::string dumped = json::dump(*value);
                const auto again = json::parse(dumped, &error);
                if (!again)
                    problem = "dump does not parse: " + error;
                else if (!(*again == *value))
                    problem = "dump parses to a different value: " +
                              dumped.substr(0, 200);
            }
            if (!problem.empty() && ++failures <= 10)
                ADD_FAILURE() << problem << "\nmutant: "
                              << mutant.substr(0, 200);
        }
    }
    EXPECT_EQ(failures, 0u);
    // Both outcomes must be exercised, or the mutations are too
    // gentle (or too destructive) to test anything.
    EXPECT_GT(rejected, lines.size() * mutantsPerLine / 4);
    EXPECT_GT(accepted, lines.size() * mutantsPerLine / 100);
}
