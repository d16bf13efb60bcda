#include "obs/trace.hh"

#include <algorithm>
#include <fstream>

#include "common/env.hh"

namespace xed::obs
{

namespace
{

constexpr std::size_t defaultCapacity = 16384;
constexpr std::size_t minCapacity = 64;

std::size_t
capacityFromEnv()
{
    // Strict parse: a mistyped XED_TRACE_BUFFER aborts instead of
    // silently tracing with the default ring size.
    if (const auto value = envU64("XED_TRACE_BUFFER"))
        return static_cast<std::size_t>(
            std::max<std::uint64_t>(*value, minCapacity));
    return defaultCapacity;
}

} // namespace

TraceRecorder::TraceRecorder()
    : capacity_(capacityFromEnv()),
      epoch_(std::chrono::steady_clock::now())
{
    // XED_TRACE=1 arms recording for the whole process; the campaign
    // `trace` verb and tests can also flip it via setEnabled().
    if (const auto value = envU64("XED_TRACE"))
        enabled_.store(*value != 0, std::memory_order_relaxed);
}

TraceRecorder &
TraceRecorder::instance()
{
    static TraceRecorder recorder;
    return recorder;
}

TraceBuffer &
TraceRecorder::buffer()
{
    // One registration (and one allocation) per thread, ever; the raw
    // pointer stays valid because buffers are never destroyed before
    // process exit. Steady-state record() never takes the mutex.
    thread_local TraceBuffer *cached = nullptr;
    if (!cached) {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto tid = static_cast<std::uint32_t>(buffers_.size());
        buffers_.push_back(
            std::make_unique<TraceBuffer>(tid, capacity_));
        cached = buffers_.back().get();
    }
    return *cached;
}

std::size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    for (const auto &buffer : buffers_)
        count += static_cast<std::size_t>(std::min<std::uint64_t>(
            buffer->recorded(), buffer->capacity()));
    return count;
}

std::uint64_t
TraceRecorder::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t dropped = 0;
    for (const auto &buffer : buffers_) {
        const std::uint64_t recorded = buffer->recorded();
        if (recorded > buffer->capacity())
            dropped += recorded - buffer->capacity();
    }
    return dropped;
}

json::Value
TraceRecorder::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Gather a snapshot of every ring, then sort by start time so the
    // exported file reads chronologically (Perfetto accepts any order;
    // sorted output is also deterministic for a deterministic run).
    std::vector<std::pair<const TraceEvent *, std::uint32_t>> events;
    std::uint64_t dropped = 0;
    for (const auto &buffer : buffers_) {
        const std::uint64_t recorded = buffer->recorded();
        const std::size_t held = static_cast<std::size_t>(
            std::min<std::uint64_t>(recorded, buffer->capacity()));
        if (recorded > buffer->capacity())
            dropped += recorded - buffer->capacity();
        for (std::uint64_t i = recorded - held; i < recorded; ++i)
            events.emplace_back(
                &buffer->ring_[i % buffer->ring_.size()],
                buffer->tid());
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const auto &a, const auto &b) {
                         return a.first->startNs < b.first->startNs;
                     });

    auto traceEvents = json::Value::array();
    for (const auto &[event, tid] : events) {
        auto entry = json::Value::object();
        entry.set("name", event->name);
        entry.set("cat", event->cat);
        entry.set("ph", "X");
        entry.set("ts", static_cast<double>(event->startNs) / 1000.0);
        entry.set("dur", static_cast<double>(event->durNs) / 1000.0);
        entry.set("pid", 1);
        entry.set("tid", tid);
        if (event->argName) {
            auto args = json::Value::object();
            args.set(event->argName, event->arg);
            if (event->arg2Name)
                args.set(event->arg2Name, event->arg2);
            entry.set("args", std::move(args));
        }
        traceEvents.push(std::move(entry));
    }

    auto doc = json::Value::object();
    doc.set("traceEvents", std::move(traceEvents));
    doc.set("displayTimeUnit", "ms");
    auto other = json::Value::object();
    other.set("droppedEvents", dropped);
    other.set("capacityPerThread", std::uint64_t{capacity_});
    doc.set("otherData", std::move(other));
    return doc;
}

bool
TraceRecorder::exportTo(const std::string &path,
                        std::string *error) const
{
    XED_TRACE_SPAN("trace.export", "obs");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (error)
            *error = "cannot open trace output " + path;
        return false;
    }
    out << json::dump(toJson()) << '\n';
    out.flush();
    if (!out) {
        if (error)
            *error = "write failed on " + path;
        return false;
    }
    return true;
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &buffer : buffers_)
        buffer->head_.store(0, std::memory_order_release);
}

} // namespace xed::obs
