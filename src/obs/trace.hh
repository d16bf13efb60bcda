/**
 * @file
 * Lightweight in-process tracing: per-thread fixed-capacity ring
 * buffers of duration spans, exported as Chrome-trace/Perfetto JSON.
 *
 * Design constraints (the observability contract, DESIGN.md Section
 * 4f):
 *  - Zero cost when compiled out: building with -DXED_TRACE=0 turns
 *    every XED_TRACE_SPAN* macro into nothing.
 *  - Near-zero cost when compiled in but disabled (the default): a
 *    span construction is one relaxed atomic load; no clock is read
 *    and no buffer is touched.
 *  - Allocation-free steady state when enabled: each thread's ring
 *    buffer is preallocated at registration (the first span that
 *    thread records); recording a span is two steady_clock reads and
 *    one struct store into the ring. A full ring wraps, overwriting
 *    the oldest events and counting the overwrites, so the hot path
 *    never blocks or grows.
 *  - Determinism: tracing never draws from any Rng and never reorders
 *    work, so enabling it cannot change simulation results (pinned by
 *    the tracing-enabled golden tests).
 *
 * Runtime knobs (strict parses via common/env.hh):
 *   XED_TRACE=1         enable recording (0 or unset: disabled)
 *   XED_TRACE_BUFFER=N  ring capacity in events per thread
 *                       (default 16384, minimum 64)
 */

#ifndef XED_OBS_TRACE_HH
#define XED_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"

/** Compile-time gate: -DXED_TRACE=0 compiles all span macros away. */
#ifndef XED_TRACE
#define XED_TRACE 1
#endif

namespace xed::obs
{

/** One completed duration span ("ph":"X" in the Chrome trace format).
 *  Name/category/argName must be string literals (or otherwise outlive
 *  the recorder): the ring stores only the pointers. */
struct TraceEvent
{
    const char *name = nullptr;
    const char *cat = nullptr;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    /** Optional numeric payloads; a null name means none. */
    const char *argName = nullptr;
    std::uint64_t arg = 0;
    const char *arg2Name = nullptr;
    std::uint64_t arg2 = 0;
};

/**
 * Single-producer ring buffer owned by one thread. The head counter
 * uses release stores / acquire loads so a snapshot taken after the
 * producer thread has been joined (the only supported export point)
 * sees fully written events.
 */
class TraceBuffer
{
  public:
    TraceBuffer(std::uint32_t tid, std::size_t capacity)
        : tid_(tid), ring_(capacity)
    {
    }

    void
    record(const TraceEvent &event)
    {
        const std::uint64_t i = head_.load(std::memory_order_relaxed);
        ring_[i % ring_.size()] = event;
        head_.store(i + 1, std::memory_order_release);
    }

    std::uint32_t tid() const { return tid_; }
    /** Total events ever recorded (recorded - capacity = overwritten). */
    std::uint64_t recorded() const
    {
        return head_.load(std::memory_order_acquire);
    }
    std::size_t capacity() const { return ring_.size(); }

  private:
    friend class TraceRecorder;

    std::uint32_t tid_;
    std::vector<TraceEvent> ring_;
    std::atomic<std::uint64_t> head_{0};
};

/**
 * Process-wide trace sink. Threads register lazily (first recorded
 * span) and keep their buffer for the recorder's lifetime, so spans
 * survive thread joins and can be exported afterwards. All methods
 * are thread-safe; record paths are lock-free after registration.
 */
class TraceRecorder
{
  public:
    static TraceRecorder &instance();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    /** Runtime switch (the `xed_campaign trace` verb forces it on). */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Nanoseconds since the recorder was constructed. */
    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    /** The calling thread's buffer, registered on first use. */
    TraceBuffer &buffer();

    /** Events currently held across all thread buffers. */
    std::size_t eventCount() const;
    /** Events lost to ring wrap-around across all thread buffers. */
    std::uint64_t droppedCount() const;

    /**
     * Chrome-trace JSON document ({"traceEvents":[...]}), events in
     * global start-time order, timestamps in microseconds. Loads
     * directly in Perfetto / chrome://tracing. Call only when no
     * thread is concurrently recording (after workers joined).
     */
    json::Value toJson() const;
    /** dump(toJson()) to @p path; false + *error on I/O failure. */
    bool exportTo(const std::string &path, std::string *error) const;

    /** Reset all ring heads (buffers stay registered). Tests only. */
    void clear();

    std::size_t capacityPerThread() const { return capacity_; }

  private:
    TraceRecorder();

    std::atomic<bool> enabled_{false};
    std::size_t capacity_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_; ///< guards buffers_ registration/export
    std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

/**
 * RAII span: captures the start time on construction, records one
 * TraceEvent on destruction. When the recorder is disabled the
 * constructor is a single relaxed load and the destructor a null
 * check.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *cat,
               const char *argName = nullptr, std::uint64_t arg = 0,
               const char *arg2Name = nullptr, std::uint64_t arg2 = 0)
    {
        TraceRecorder &recorder = TraceRecorder::instance();
        if (!recorder.enabled())
            return;
        recorder_ = &recorder;
        event_.name = name;
        event_.cat = cat;
        event_.argName = argName;
        event_.arg = arg;
        event_.arg2Name = arg2Name;
        event_.arg2 = arg2;
        event_.startNs = recorder.nowNs();
    }

    ~ScopedSpan()
    {
        if (!recorder_)
            return;
        event_.durNs = recorder_->nowNs() - event_.startNs;
        recorder_->buffer().record(event_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Set the numeric argument, for a count known only at the end. */
    void setArg(std::uint64_t arg) { event_.arg = arg; }

  private:
    TraceRecorder *recorder_ = nullptr;
    TraceEvent event_;
};

} // namespace xed::obs

#if XED_TRACE
#define XED_OBS_CONCAT2(a, b) a##b
#define XED_OBS_CONCAT(a, b) XED_OBS_CONCAT2(a, b)
/** Trace the enclosing scope as one span. */
#define XED_TRACE_SPAN(name, cat)                                      \
    ::xed::obs::ScopedSpan XED_OBS_CONCAT(xedTraceSpan_,               \
                                          __COUNTER__)(name, cat)
/** Same, with one named numeric argument shown in the trace viewer. */
#define XED_TRACE_SPAN_ARG(name, cat, argName, argValue)               \
    ::xed::obs::ScopedSpan XED_OBS_CONCAT(xedTraceSpan_, __COUNTER__)( \
        name, cat, argName, static_cast<std::uint64_t>(argValue))
/** Same, with two named numeric arguments. */
#define XED_TRACE_SPAN_ARG2(name, cat, argName, argValue, arg2Name,     \
                            arg2Value)                                 \
    ::xed::obs::ScopedSpan XED_OBS_CONCAT(xedTraceSpan_, __COUNTER__)( \
        name, cat, argName, static_cast<std::uint64_t>(argValue),      \
        arg2Name, static_cast<std::uint64_t>(arg2Value))
/** Same, as span @p var, whose argument XED_TRACE_SET_ARG sets later. */
#define XED_TRACE_SPAN_LATE_ARG(var, name, cat, argName)               \
    ::xed::obs::ScopedSpan var(name, cat, argName)
#define XED_TRACE_SET_ARG(var, argValue)                               \
    var.setArg(static_cast<std::uint64_t>(argValue))
#else
#define XED_TRACE_SPAN(name, cat)                                      \
    do {                                                               \
    } while (0)
#define XED_TRACE_SPAN_ARG(name, cat, argName, argValue)               \
    do {                                                               \
    } while (0)
#define XED_TRACE_SPAN_ARG2(...)                                       \
    do {                                                               \
    } while (0)
#define XED_TRACE_SPAN_LATE_ARG(var, name, cat, argName)               \
    do {                                                               \
    } while (0)
#define XED_TRACE_SET_ARG(var, argValue)                               \
    do {                                                               \
    } while (0)
#endif

#endif // XED_OBS_TRACE_HH
