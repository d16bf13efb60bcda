/**
 * @file
 * The tolerant telemetry reader and the histogram wire codec
 * (obs/telemetry.hh):
 *
 *  - every well-formed object line comes back in file order; torn
 *    tails (a SIGKILL mid-append), unparseable garbage and non-object
 *    lines are skipped and counted, never fatal,
 *  - record types the reader has never heard of pass through (schema
 *    growth must not break old dashboards),
 *  - the sparse bucket codec round-trips a Histogram exactly, and
 *  - decoding N workers' encoded histograms into one accumulator is
 *    the exact N-way Histogram::merge: same buckets, same quantiles
 *    as one process observing every sample.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/metrics.hh"
#include "obs/telemetry.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::obs;

namespace
{

std::string
fixturePath(const std::string &name)
{
    return ownTempPath("xed_telemetry_" + name + ".jsonl");
}

std::string
writeFixture(const std::string &name, const std::string &bytes)
{
    const std::string path = fixturePath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    return path;
}

TEST(TelemetryReader, ReadsWellFormedRecordsInOrder)
{
    const std::string path = writeFixture(
        "ok", "{\"type\":\"run\",\"name\":\"a\"}\n"
              "{\"type\":\"progress\",\"unitsDone\":5}\n"
              "{\"type\":\"done\",\"complete\":true}\n");
    const TelemetryRecords telemetry = readTelemetryRecords(path);
    ASSERT_TRUE(telemetry.ok) << telemetry.error;
    ASSERT_EQ(telemetry.records.size(), 3u);
    EXPECT_EQ(telemetry.skippedLines, 0u);
    EXPECT_TRUE(recordIsType(telemetry.records[0], "run"));
    EXPECT_TRUE(recordIsType(telemetry.records[1], "progress"));
    EXPECT_TRUE(recordIsType(telemetry.records[2], "done"));
}

TEST(TelemetryReader, TornFinalLineIsSkippedAndCounted)
{
    // A kill mid-append leaves a prefix of the final line. The two
    // complete records must survive; the torn one is counted.
    const std::string path = writeFixture(
        "torn", "{\"type\":\"run\"}\n"
                "{\"type\":\"progress\",\"unitsDone\":7}\n"
                "{\"type\":\"progress\",\"unitsDo");
    const TelemetryRecords telemetry = readTelemetryRecords(path);
    ASSERT_TRUE(telemetry.ok) << telemetry.error;
    ASSERT_EQ(telemetry.records.size(), 2u);
    EXPECT_EQ(telemetry.skippedLines, 1u);
}

TEST(TelemetryReader, CompleteFinalLineWithoutNewlineIsKept)
{
    // Only the newline was lost: the record itself is whole and must
    // not be discarded (it may be the terminal "done").
    const std::string path = writeFixture(
        "no_newline", "{\"type\":\"run\"}\n"
                      "{\"type\":\"done\",\"complete\":true}");
    const TelemetryRecords telemetry = readTelemetryRecords(path);
    ASSERT_TRUE(telemetry.ok) << telemetry.error;
    ASSERT_EQ(telemetry.records.size(), 2u);
    EXPECT_EQ(telemetry.skippedLines, 0u);
    EXPECT_NE(lastRecordOfType(telemetry, "done"), nullptr);
}

TEST(TelemetryReader, GarbageAndNonObjectLinesAreSkippedNotFatal)
{
    const std::string path = writeFixture(
        "garbage", "{\"type\":\"run\"}\n"
                   "not json at all\n"
                   "[1,2,3]\n"
                   "42\n"
                   "\n"
                   "{\"type\":\"done\"}\n");
    const TelemetryRecords telemetry = readTelemetryRecords(path);
    ASSERT_TRUE(telemetry.ok) << telemetry.error;
    ASSERT_EQ(telemetry.records.size(), 2u);
    // Blank lines are not damage; the three junk lines are.
    EXPECT_EQ(telemetry.skippedLines, 3u);
}

TEST(TelemetryReader, UnknownRecordTypesPassThrough)
{
    const std::string path = writeFixture(
        "unknown", "{\"type\":\"run\"}\n"
                   "{\"type\":\"gpu-thermals\",\"celsius\":81}\n"
                   "{\"no_type_at_all\":1}\n");
    const TelemetryRecords telemetry = readTelemetryRecords(path);
    ASSERT_TRUE(telemetry.ok) << telemetry.error;
    ASSERT_EQ(telemetry.records.size(), 3u);
    EXPECT_EQ(telemetry.skippedLines, 0u);
    EXPECT_NE(lastRecordOfType(telemetry, "gpu-thermals"), nullptr);
    EXPECT_EQ(lastRecordOfType(telemetry, "cpu-thermals"), nullptr);
}

TEST(TelemetryReader, MissingFileIsTheOnlyError)
{
    const TelemetryRecords telemetry = readTelemetryRecords(
        ownTempPath("xed_telemetry_does_not_exist.jsonl"));
    EXPECT_FALSE(telemetry.ok);
    EXPECT_FALSE(telemetry.error.empty());
}

TEST(TelemetryReader, EmptyFileIsOkAndEmpty)
{
    const std::string path = writeFixture("empty", "");
    const TelemetryRecords telemetry = readTelemetryRecords(path);
    EXPECT_TRUE(telemetry.ok) << telemetry.error;
    EXPECT_TRUE(telemetry.records.empty());
    EXPECT_EQ(telemetry.skippedLines, 0u);
}

TEST(TelemetryReader, LastRecordOfTypeReturnsTheNewest)
{
    const std::string path = writeFixture(
        "latest", "{\"type\":\"progress\",\"unitsDone\":1}\n"
                  "{\"type\":\"progress\",\"unitsDone\":2}\n"
                  "{\"type\":\"progress\",\"unitsDone\":3}\n");
    const TelemetryRecords telemetry = readTelemetryRecords(path);
    ASSERT_TRUE(telemetry.ok) << telemetry.error;
    const json::Value *latest = lastRecordOfType(telemetry, "progress");
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->find("unitsDone")->asUint(), 3u);
}

// -- Histogram wire codec ---------------------------------------------

void
expectSameBuckets(const Histogram &a, const Histogram &b)
{
    for (unsigned i = 0; i < Histogram::bucketCount; ++i)
        ASSERT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
}

TEST(HistogramCodec, RoundTripsExactly)
{
    Histogram original;
    for (int i = 0; i < 500; ++i)
        original.update(0.0001 * static_cast<double>(i * i + 1));
    original.update(0);     // underflow bucket
    original.update(-3.5);  // underflow bucket
    original.update(1e300); // clamps to the top edge

    const json::Value payload = histogramJson(original);
    Histogram decoded;
    ASSERT_TRUE(histogramFromJson(payload, decoded));
    expectSameBuckets(original, decoded);
    EXPECT_EQ(decoded.count(), original.count());
    EXPECT_EQ(decoded.quantile(0.5), original.quantile(0.5));
}

TEST(HistogramCodec, EncodingIsSparseAndAscending)
{
    Histogram histogram;
    histogram.update(1.0);
    histogram.update(1.0);
    histogram.update(1000.0);
    const json::Value payload = histogramJson(histogram);
    ASSERT_TRUE(payload.isArray());
    ASSERT_EQ(payload.size(), 2u); // two nonzero buckets only
    EXPECT_LT(payload.at(0).at(0).asUint(), payload.at(1).at(0).asUint());
    EXPECT_EQ(payload.at(0).at(1).asUint(), 2u);
}

TEST(HistogramCodec, DecodeMergeEqualsSingleObserver)
{
    // Four "workers" each observe a disjoint slice of the sample set;
    // one reference histogram observes everything. Decoding the four
    // encoded payloads into one accumulator must reproduce the
    // reference bucket-for-bucket -- this is the exactness claim the
    // fleet-wide p50/p90/p99 rest on.
    Histogram reference;
    Histogram workers[4];
    for (int i = 0; i < 4000; ++i) {
        const double value =
            0.001 * static_cast<double>((i % 977) + 1) *
            static_cast<double>(1 + i / 1000);
        reference.update(value);
        workers[i % 4].update(value);
    }

    Histogram merged;
    for (const Histogram &worker : workers)
        ASSERT_TRUE(histogramFromJson(histogramJson(worker), merged));

    expectSameBuckets(reference, merged);
    EXPECT_EQ(merged.count(), reference.count());
    for (const double q : {0.5, 0.9, 0.99})
        EXPECT_EQ(merged.quantile(q), reference.quantile(q)) << q;
}

TEST(HistogramCodec, MalformedPayloadsAreRejected)
{
    Histogram histogram;
    const char *bad[] = {
        "{}",                       // not an array
        "[[1]]",                    // pair too short
        "[[1,2,3]]",                // pair too long
        "[[\"x\",2]]",              // non-integer index
        "[[1,2.5]]",                // non-integer count
        "[[999999,1]]",             // bucket index out of range
    };
    for (const char *text : bad) {
        const auto payload = json::parse(text);
        ASSERT_TRUE(payload.has_value()) << text;
        EXPECT_FALSE(histogramFromJson(*payload, histogram)) << text;
    }
    // An empty payload is a valid empty histogram.
    const auto empty = json::parse("[]");
    EXPECT_TRUE(histogramFromJson(*empty, histogram));
    EXPECT_EQ(histogram.bucket(0), 0u);
}

} // namespace
