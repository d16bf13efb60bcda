#include "campaign/telemetry.hh"

#include <cstdio>
#include <ctime>
#include <map>

#include <unistd.h>

#include "common/build_info.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace xed::campaign
{

namespace
{

std::string
hostName()
{
    char buf[256] = {};
    if (gethostname(buf, sizeof buf - 1) == 0 && buf[0])
        return buf;
    return "unknown";
}

std::string
gitDescribe()
{
    // Best effort: the binary may run outside the repository.
    FILE *pipe =
        popen("git describe --always --dirty 2>/dev/null", "r");
    if (!pipe)
        return "unknown";
    char buf[128] = {};
    std::string out;
    if (std::fgets(buf, sizeof buf, pipe))
        out = buf;
    pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

std::string
utcNow()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

} // namespace

json::Value
runMetadata(const std::string &specName, const std::string &hash,
            unsigned threads, std::uint64_t resumedFromShard)
{
    auto record = json::Value::object();
    record.set("type", "run");
    record.set("name", specName);
    record.set("specHash", hash);
    record.set("host", hostName());
    record.set("git", gitDescribe());
    record.set("startedAt", utcNow());
    record.set("threads", threads);
    record.set("resumedFromShard", resumedFromShard);
    record.set("build", buildInfoJson());
    return record;
}

ProgressReporter::ProgressReporter(const Setup &setup,
                                   const RunCounters &counters,
                                   const faultsim::McProgress &progress)
    : setup_(setup), counters_(counters), progress_(progress),
      started_(std::chrono::steady_clock::now())
{
}

ProgressReporter::~ProgressReporter()
{
    // Unwinding without finish(): mark the stream aborted, not done.
    finishWith("aborted", false);
}

void
ProgressReporter::start(const json::Value &runRecord)
{
    if (!setup_.sidecarPath.empty()) {
        sidecar_.open(setup_.sidecarPath,
                      std::ios::binary | std::ios::app);
    }
    emit(runRecord);
    if (setup_.intervalSeconds > 0 &&
        (setup_.statusOut || sidecar_.is_open()))
        thread_ = std::thread([this] { loop(); });
}

void
ProgressReporter::finish(bool complete)
{
    finishWith("done", complete);
}

void
ProgressReporter::finishWith(const char *type, bool complete)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (finished_)
            return;
        finished_ = true;
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    auto done = sample();
    done.set("type", type);
    done.set("complete", complete);
    done.set("wallSeconds", elapsed);
    done.set("finishedAt", utcNow());
    emit(done);
}

namespace
{

/** {"p50":...,"p90":...,"p99":...} (zeros while no samples exist). */
json::Value
quantilesJson(const Histogram &histogram)
{
    auto out = json::Value::object();
    out.set("p50", histogram.quantile(0.50));
    out.set("p90", histogram.quantile(0.90));
    out.set("p99", histogram.quantile(0.99));
    return out;
}

} // namespace

json::Value
ProgressReporter::sample() const
{
    XED_TRACE_SPAN("progress.sample", "telemetry");
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    const std::uint64_t unitsDone = progress_.systemsDone.load();
    const std::uint64_t unitsTotal = counters_.unitsTotal;
    // Rate over live-simulated units only: replayed shards were read
    // from disk, counting them would fake an absurd ETA after resume.
    const std::uint64_t unitsReplayed = counters_.unitsReplayed;
    const std::uint64_t unitsLive =
        unitsDone > unitsReplayed ? unitsDone - unitsReplayed : 0;
    const double rate = elapsed > 0 ? unitsLive / elapsed : 0;
    const std::uint64_t remaining =
        unitsTotal > unitsDone ? unitsTotal - unitsDone : 0;

    auto record = json::Value::object();
    record.set("type", "progress");
    record.set("elapsedSeconds", elapsed);
    record.set("shardsDone", counters_.shardsDone.get());
    record.set("shardsTotal", counters_.shardsTotal);
    record.set("unitsDone", unitsDone);
    record.set("unitsTotal", unitsTotal);
    record.set("unitsPerSec", rate);
    // No live rate means no estimate: omit the key rather than emit
    // 0.0, which a dashboard cannot tell apart from "done now".
    if (rate > 0)
        record.set("etaSeconds", remaining / rate);
    record.set("failedSystems", progress_.failedSystems.load());
    record.set("shardSeconds", quantilesJson(counters_.shardSeconds));
    record.set("shardUnitsPerSec",
               quantilesJson(counters_.shardUnitsPerSec));
    // The exact sparse buckets ride along with the human-oriented
    // quantiles: the status scanner decodes the real buckets
    // (obs/telemetry.hh) and reports the run's exact p50/p90/p99.
    auto hist = json::Value::object();
    hist.set("shardSeconds", obs::histogramJson(counters_.shardSeconds));
    hist.set("shardUnitsPerSec",
             obs::histogramJson(counters_.shardUnitsPerSec));
    record.set("hist", std::move(hist));
    // One key per label, in label order; cells sharing a label add up.
    std::map<std::string, std::uint64_t> byLabel;
    for (std::size_t c = 0; c < counters_.cellLabels.size(); ++c)
        byLabel[counters_.cellLabels[c]] += counters_.failures[c].get();
    auto failures = json::Value::object();
    for (const auto &[label, count] : byLabel)
        failures.set(label, count);
    record.set("failures", std::move(failures));
    return record;
}

void
ProgressReporter::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        const auto interval = std::chrono::duration<double>(
            setup_.intervalSeconds);
        if (cv_.wait_for(lock, interval, [this] { return stopping_; }))
            break;
        lock.unlock();
        emit(sample());
        lock.lock();
    }
}

void
ProgressReporter::emit(const json::Value &record)
{
    const std::string line = json::dump(record);
    std::lock_guard<std::mutex> lock(emitMutex_);
    if (setup_.statusOut) {
        *setup_.statusOut << line << '\n';
        setup_.statusOut->flush();
    }
    if (sidecar_.is_open()) {
        sidecar_ << line << '\n';
        sidecar_.flush();
    }
}

} // namespace xed::campaign
