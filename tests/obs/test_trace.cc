/**
 * @file
 * Tests for the in-process trace recorder (obs/trace.hh): disabled
 * spans record nothing, enabled spans land in the calling thread's
 * ring with their payload, ring wrap-around keeps the newest events
 * and counts the drops, and the Chrome-trace export is well-formed,
 * start-ordered JSON.
 *
 * TraceRecorder is a process-wide singleton, so every test runs
 * through the fixture, which leaves the recorder disabled and empty
 * for whichever test (in this binary) runs next.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "obs/trace.hh"
#include "tests/support/temp_path.hh"

namespace xed::obs
{
namespace
{

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { reset(); }
    void TearDown() override { reset(); }

    static void
    reset()
    {
        TraceRecorder::instance().setEnabled(false);
        TraceRecorder::instance().clear();
    }
};

TEST_F(TraceTest, DisabledSpansRecordNothing)
{
    auto &recorder = TraceRecorder::instance();
    ASSERT_FALSE(recorder.enabled());
    {
        XED_TRACE_SPAN("never", "test");
        XED_TRACE_SPAN_ARG("never.arg", "test", "n", 3);
    }
    EXPECT_EQ(recorder.eventCount(), 0u);
    EXPECT_EQ(recorder.droppedCount(), 0u);
}

TEST_F(TraceTest, EnabledSpanLandsInTheRing)
{
    auto &recorder = TraceRecorder::instance();
    recorder.setEnabled(true);
    {
        XED_TRACE_SPAN_ARG("unit.work", "test", "items", 7);
    }
    ASSERT_EQ(recorder.eventCount(), 1u);

    const auto doc = recorder.toJson();
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->size(), 1u);
    const json::Value &event = events->at(0);
    EXPECT_EQ(event.find("name")->asString(), "unit.work");
    EXPECT_EQ(event.find("cat")->asString(), "test");
    EXPECT_EQ(event.find("ph")->asString(), "X");
    EXPECT_EQ(event.find("pid")->asUint(), 1u);
    EXPECT_GE(event.find("dur")->asDouble(), 0.0);
    const json::Value *args = event.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("items")->asUint(), 7u);
}

TEST_F(TraceTest, SpanWithoutPayloadOmitsArgs)
{
    auto &recorder = TraceRecorder::instance();
    recorder.setEnabled(true);
    {
        XED_TRACE_SPAN("bare", "test");
    }
    const auto doc = recorder.toJson();
    const json::Value *events = doc.find("traceEvents");
    ASSERT_EQ(events->size(), 1u);
    EXPECT_EQ(events->at(0).find("args"), nullptr);
}

TEST_F(TraceTest, RuntimeToggleStopsRecording)
{
    auto &recorder = TraceRecorder::instance();
    recorder.setEnabled(true);
    {
        XED_TRACE_SPAN("on", "test");
    }
    recorder.setEnabled(false);
    {
        XED_TRACE_SPAN("off", "test");
    }
    EXPECT_EQ(recorder.eventCount(), 1u);
    const auto doc = recorder.toJson();
    EXPECT_EQ(doc.find("traceEvents")->at(0).find("name")->asString(),
              "on");
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsDrops)
{
    auto &recorder = TraceRecorder::instance();
    recorder.setEnabled(true);
    const std::size_t capacity = recorder.capacityPerThread();
    const std::size_t extra = 100;
    for (std::size_t i = 0; i < capacity + extra; ++i) {
        XED_TRACE_SPAN("wrap", "test");
    }
    EXPECT_EQ(recorder.eventCount(), capacity);
    EXPECT_EQ(recorder.droppedCount(), extra);

    const auto doc = recorder.toJson();
    EXPECT_EQ(doc.find("traceEvents")->size(), capacity);
    EXPECT_EQ(doc.find("otherData")->find("droppedEvents")->asUint(),
              extra);
    EXPECT_EQ(
        doc.find("otherData")->find("capacityPerThread")->asUint(),
        capacity);
}

TEST_F(TraceTest, BufferRecordedCountIsMonotonicPastWrap)
{
    TraceBuffer buffer(0, 64);
    EXPECT_EQ(buffer.capacity(), 64u);
    TraceEvent event;
    event.name = "b";
    event.cat = "test";
    for (unsigned i = 0; i < 100; ++i) {
        event.startNs = i;
        buffer.record(event);
    }
    // recorded() never saturates: recorded - capacity is the recorder's
    // per-buffer drop count.
    EXPECT_EQ(buffer.recorded(), 100u);
}

TEST_F(TraceTest, ExportIsStartOrderedAcrossThreads)
{
    auto &recorder = TraceRecorder::instance();
    recorder.setEnabled(true);
    {
        XED_TRACE_SPAN("main.span", "test");
    }
    std::thread workers[2];
    for (unsigned t = 0; t < 2; ++t) {
        workers[t] = std::thread([] {
            for (unsigned i = 0; i < 3; ++i) {
                XED_TRACE_SPAN("thread.span", "test");
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    const auto doc = recorder.toJson();
    const json::Value *events = doc.find("traceEvents");
    ASSERT_EQ(events->size(), 7u);
    std::set<std::uint64_t> tids;
    double lastTs = 0;
    for (const auto &event : events->items()) {
        tids.insert(event.find("tid")->asUint());
        const double ts = event.find("ts")->asDouble();
        EXPECT_GE(ts, lastTs);
        lastTs = ts;
    }
    // Main thread plus two workers, each with its own ring.
    EXPECT_GE(tids.size(), 3u);
}

TEST_F(TraceTest, ExportToWritesParseableChromeTrace)
{
    auto &recorder = TraceRecorder::instance();
    recorder.setEnabled(true);
    {
        XED_TRACE_SPAN_ARG("export.span", "test", "n", 1);
    }
    const std::string path = ownTempPath("xed_test_trace_export.json");
    std::string error;
    ASSERT_TRUE(recorder.exportTo(path, &error)) << error;

    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const auto doc = json::parse(text.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const json::Value *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->size(), 1u);
    EXPECT_EQ(events->at(0).find("name")->asString(), "export.span");
    std::remove(path.c_str());
}

TEST_F(TraceTest, ExportToFailsCleanlyOnBadPath)
{
    std::string error;
    EXPECT_FALSE(TraceRecorder::instance().exportTo(
        "/nonexistent-dir/trace.json", &error));
    EXPECT_FALSE(error.empty());
}

TEST_F(TraceTest, ClearEmptiesEveryRing)
{
    auto &recorder = TraceRecorder::instance();
    recorder.setEnabled(true);
    {
        XED_TRACE_SPAN("gone", "test");
    }
    ASSERT_GE(recorder.eventCount(), 1u);
    recorder.clear();
    EXPECT_EQ(recorder.eventCount(), 0u);
    EXPECT_EQ(recorder.droppedCount(), 0u);
}

} // namespace
} // namespace xed::obs
