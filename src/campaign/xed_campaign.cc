/**
 * @file
 * The xed_campaign CLI: run declarative experiment specs through the
 * campaign runner.
 *
 *   xed_campaign run    <spec.json> [options]   execute a campaign
 *   xed_campaign fleet  <spec.json> [options]   execute a fleet spec
 *                                               (kind "fleet" only)
 *   xed_campaign resume <spec.json> [options]   continue a killed run
 *   xed_campaign trace  <spec.json> [options]   run with the trace
 *                                               recorder forced on
 *   xed_campaign worker <spec.json> [options]   join a distributed
 *                                               queue and run shards
 *   xed_campaign merge  <spec.json> [options]   assemble a queue's
 *                                               fragments into the
 *                                               canonical store
 *   xed_campaign report <result.jsonl>          render result tables
 *                                               (--format=json: the
 *                                               canonical status JSON)
 *   xed_campaign status [<path>] [options]      one read-only fleet /
 *                                               store snapshot (human
 *                                               table or --json)
 *   xed_campaign serve  [<path>] [options]      HTTP observer: /,
 *                                               /status.json, /metrics
 *   xed_campaign checkjson <file.json>          strict-parse a JSON
 *                                               document (trace smoke)
 *   xed_campaign version                        print build provenance
 *                                               (git, compiler, flags)
 *
 * Options for run/resume/trace:
 *   --out <file>            result JSONL (default: <name>.jsonl)
 *   --dry-run               validate + print the shard plan, no sim
 *   --threads <n>           worker threads (default: spec/env/hw)
 *   --max-shards <n>        stop after n shard records (interrupt sim)
 *   --progress-interval <s> status-line period in seconds (default 1)
 *   --quiet                 no live status lines (sidecar still kept)
 *   --trace-out <file>      Chrome-trace export path (default:
 *                           <out>.trace.json when recording)
 *   --no-forensics          skip the <out>.forensics.jsonl sidecar
 *   --no-fsync              skip per-record fsync (benches; a crash
 *                           may then lose the documented durability)
 *
 * Options for worker:
 *   --queue-dir <dir>       shared queue directory (required)
 *   --worker-id <id>        identity in leases/telemetry (default:
 *                           <host>-<pid>)
 *   --lease-seconds <s>     lease lifetime before other workers may
 *                           re-claim a shard (default 60)
 *   --poll-interval <s>     sleep between scans while all pending
 *                           shards are leased out (default 0.2)
 *   --max-shards / --progress-interval / --quiet / --no-forensics /
 *   --no-fsync              as above
 *
 * Options for merge:
 *   --queue-dir <dir>       shared queue directory (required)
 *   --out <file>            result JSONL (default: <name>.jsonl)
 *   --wait                  poll until every fragment exists instead
 *                           of failing fast
 *   --timeout <s>           give up --wait after s seconds (default:
 *                           wait forever)
 *   --poll-interval <s>     fragment poll period (default 0.5)
 *   --no-fsync              as above
 *
 * Options for status/serve (the source is a queue directory or a
 * result store, given positionally or via --queue-dir; both commands
 * are strictly read-only -- they never claim leases or write into the
 * queue):
 *   --queue-dir <dir>       queue directory to observe
 *   --lease-seconds <s>     liveness thresholds: a worker is live
 *                           within s/2 of its last heartbeat, stale
 *                           within s, dead beyond (default 60 --
 *                           match the fleet's --lease-seconds)
 *   --json                  status: canonical JSON instead of tables
 *   --watch                 status: refresh until interrupted
 *   --interval <s>          status --watch refresh period (default 2)
 *   --port <n>              serve: TCP port (0 picks one; the bound
 *                           port is printed to stdout either way)
 *
 * All numeric option values parse strictly (common/env.hh): base-10,
 * no leading/trailing junk, no overflow, finite doubles only.
 * Malformed values are usage errors, never silently truncated.
 *
 * Environment: XED_MC_SYSTEMS / XED_TRIALS / XED_MC_SEED override
 * the spec (reflected in the spec hash), XED_MC_THREADS the worker
 * count, XED_TRACE / XED_TRACE_BUFFER the span recorder (run/resume
 * export a trace when XED_TRACE=1; a worker exports to
 * <queue-dir>/worker-<id>.trace.json), XED_NO_FSYNC=1 disables all
 * per-record fsyncs globally. Malformed values are errors.
 */

#include <chrono>
#include <climits>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "campaign/runner.hh"
#include "campaign/spec.hh"
#include "campaign/status.hh"
#include "campaign/worker.hh"
#include "common/build_info.hh"
#include "common/env.hh"
#include "common/file.hh"
#include "common/json.hh"
#include "obs/http.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

int
usage(std::ostream &os)
{
    os << "usage: xed_campaign run    <spec.json> [--out <file>] "
          "[--dry-run]\n"
          "                           [--threads <n>] [--max-shards <n>]\n"
          "                           [--progress-interval <seconds>] "
          "[--quiet]\n"
          "                           [--trace-out <file>] "
          "[--no-forensics] [--no-fsync]\n"
          "       xed_campaign resume <spec.json> [same options]\n"
          "       xed_campaign trace  <spec.json> [same options]\n"
          "       xed_campaign worker <spec.json> --queue-dir <dir>\n"
          "                           [--worker-id <id>] "
          "[--lease-seconds <s>]\n"
          "                           [--poll-interval <s>] "
          "[--max-shards <n>]\n"
          "                           [--progress-interval <seconds>] "
          "[--quiet]\n"
          "                           [--no-forensics] [--no-fsync]\n"
          "       xed_campaign merge  <spec.json> --queue-dir <dir>\n"
          "                           [--out <file>] [--wait] "
          "[--timeout <s>]\n"
          "                           [--poll-interval <s>] "
          "[--no-fsync]\n"
          "       xed_campaign fleet  <spec.json> [run options; spec "
          "kind must be \"fleet\"]\n"
          "       xed_campaign report <result.jsonl> "
          "[--format=<text|json>]\n"
          "       xed_campaign status [<path>] [--queue-dir <dir>] "
          "[--json]\n"
          "                           [--watch] [--interval <s>] "
          "[--lease-seconds <s>]\n"
          "       xed_campaign serve  [<path>] [--queue-dir <dir>] "
          "[--port <n>]\n"
          "                           [--lease-seconds <s>]\n"
          "       xed_campaign checkjson <file.json>\n"
          "       xed_campaign version\n";
    return 2;
}

/** Strict-parse one JSON document; used by scripts/trace_smoke.sh to
 *  prove an exported trace is well-formed without external tools. */
int
checkJson(const std::string &path)
{
    const auto text = readFile(path);
    if (!text) {
        std::cerr << "xed_campaign: cannot open " << path << "\n";
        return 1;
    }
    std::string error;
    const auto doc = json::parse(*text, &error);
    if (!doc) {
        std::cerr << "xed_campaign: " << path << ": " << error << "\n";
        return 1;
    }
    std::cout << path << ": valid JSON ("
              << (doc->isObject()
                      ? std::to_string(doc->size()) + " members"
                      : doc->isArray()
                            ? std::to_string(doc->size()) + " items"
                            : "scalar")
              << ")\n";
    return 0;
}

struct CliArgs
{
    std::string command;
    std::string path;
    RunOptions options;
    WorkerOptions worker;
    MergeOptions merge;
    bool dryRun = false;
    bool quiet = false;
    bool explicitOut = false;
    // status / serve / report
    std::uint64_t port = 0;
    double watchIntervalSeconds = 2.0;
    bool watch = false;
    bool jsonOut = false;
    std::string format = "text";
};

bool
parseArgs(int argc, char **argv, CliArgs &args, std::string &error)
{
    if (argc < 3) {
        error = "missing arguments";
        return false;
    }
    args.command = argv[1];
    // status/serve take their source from --queue-dir alone; every
    // other command requires the positional path (enforced after the
    // parse, where the command is known).
    int first = 2;
    if (argv[2][0] != '-') {
        args.path = argv[2];
        first = 3;
    }
    args.options.progressIntervalSeconds = 1.0;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                error = flag + " requires a value";
                return nullptr;
            }
            return argv[++i];
        };
        // Strict numeric parses: a flag whose value fails to parse is
        // a usage error, never a silent zero (the old strtoul paths
        // turned "--threads 4x" into 4 and "--threads x" into 0,
        // which resolveWorkerThreads then silently replaced with the
        // hardware count).
        const auto u64Value = [&](std::uint64_t &out) {
            const char *v = value();
            if (!v)
                return false;
            const auto parsed = parseU64(v);
            if (!parsed) {
                error = flag + ": expected an unsigned base-10 " +
                        "integer, got \"" + v + "\"";
                return false;
            }
            out = *parsed;
            return true;
        };
        const auto f64Value = [&](double &out) {
            const char *v = value();
            if (!v)
                return false;
            const auto parsed = parseF64(v);
            if (!parsed) {
                error = flag + ": expected a finite base-10 number, " +
                        "got \"" + v + "\"";
                return false;
            }
            out = *parsed;
            return true;
        };
        if (flag == "--dry-run") {
            args.dryRun = true;
        } else if (flag == "--quiet") {
            args.quiet = true;
        } else if (flag == "--out") {
            const char *v = value();
            if (!v)
                return false;
            args.options.outPath = v;
            args.merge.outPath = v;
            args.explicitOut = true;
        } else if (flag == "--threads") {
            std::uint64_t threads = 0;
            if (!u64Value(threads))
                return false;
            if (threads > UINT_MAX) {
                error = flag + ": " + std::to_string(threads) +
                        " is not a sane worker-thread count";
                return false;
            }
            args.options.threads = static_cast<unsigned>(threads);
        } else if (flag == "--max-shards") {
            std::uint64_t shards = 0;
            if (!u64Value(shards))
                return false;
            args.options.maxShards = shards;
            args.worker.maxShards = shards;
        } else if (flag == "--progress-interval") {
            double seconds = 0;
            if (!f64Value(seconds))
                return false;
            args.options.progressIntervalSeconds = seconds;
            args.worker.progressIntervalSeconds = seconds;
        } else if (flag == "--trace-out") {
            const char *v = value();
            if (!v)
                return false;
            args.options.traceOut = v;
        } else if (flag == "--no-forensics") {
            args.options.forensicsSidecar = false;
            args.worker.forensics = false;
        } else if (flag == "--no-fsync") {
            args.options.durableStore = false;
            args.worker.durable = false;
            args.merge.durable = false;
        } else if (flag == "--queue-dir") {
            const char *v = value();
            if (!v)
                return false;
            args.worker.queueDir = v;
            args.merge.queueDir = v;
        } else if (flag == "--worker-id") {
            const char *v = value();
            if (!v)
                return false;
            args.worker.workerId = v;
        } else if (flag == "--lease-seconds") {
            double seconds = 0;
            if (!f64Value(seconds))
                return false;
            if (seconds <= 0) {
                error = flag + ": lease lifetime must be positive";
                return false;
            }
            args.worker.leaseSeconds = seconds;
        } else if (flag == "--poll-interval") {
            double seconds = 0;
            if (!f64Value(seconds))
                return false;
            args.worker.pollSeconds = seconds;
            args.merge.pollSeconds = seconds;
        } else if (flag == "--wait") {
            args.merge.waitForFragments = true;
        } else if (flag == "--timeout") {
            double seconds = 0;
            if (!f64Value(seconds))
                return false;
            args.merge.timeoutSeconds = seconds;
        } else if (flag == "--json") {
            args.jsonOut = true;
        } else if (flag == "--watch") {
            args.watch = true;
        } else if (flag == "--interval") {
            double seconds = 0;
            if (!f64Value(seconds))
                return false;
            if (seconds <= 0) {
                error = flag + ": refresh interval must be positive";
                return false;
            }
            args.watchIntervalSeconds = seconds;
        } else if (flag == "--port") {
            std::uint64_t port = 0;
            if (!u64Value(port))
                return false;
            if (port > 65535) {
                error = flag + ": " + std::to_string(port) +
                        " is not a TCP port (0..65535)";
                return false;
            }
            args.port = port;
        } else if (flag == "--format" ||
                   flag.rfind("--format=", 0) == 0) {
            std::string v;
            if (flag == "--format") {
                const char *raw = value();
                if (!raw)
                    return false;
                v = raw;
            } else {
                v = flag.substr(std::string("--format=").size());
            }
            if (v != "text" && v != "json") {
                error = "--format: unknown format \"" + v +
                        "\" (expected text or json)";
                return false;
            }
            args.format = v;
        } else {
            error = "unknown option " + flag;
            return false;
        }
    }
    return true;
}

int
workerMain(const CampaignSpec &spec, CliArgs &args)
{
    if (args.worker.queueDir.empty()) {
        std::cerr << "xed_campaign: worker requires --queue-dir\n";
        return usage(std::cerr);
    }
    if (!args.quiet)
        args.worker.progressOut = &std::cerr;
    const WorkerOutcome outcome = runWorker(spec, args.worker);
    if (!outcome.ok) {
        std::cerr << "xed_campaign: " << outcome.error << "\n";
        return 1;
    }
    if (!args.quiet) {
        std::cerr << "xed_campaign: worker ran " << outcome.shardsRun
                  << " shards";
        if (outcome.duplicates)
            std::cerr << " (" << outcome.duplicates
                      << " already committed byte-identically)";
        std::cerr << (outcome.queueDrained ? "; queue drained"
                                           : "; queue not drained")
                  << "\n";
        if (!outcome.tracePath.empty())
            std::cerr << "xed_campaign: trace -> " << outcome.tracePath
                      << "\n";
    }
    return 0;
}

int
mergeMain(const CampaignSpec &spec, CliArgs &args, std::string &error)
{
    if (args.merge.queueDir.empty()) {
        std::cerr << "xed_campaign: merge requires --queue-dir\n";
        return usage(std::cerr);
    }
    if (!args.explicitOut)
        args.merge.outPath = spec.name + ".jsonl";
    const MergeOutcome outcome = mergeFragments(spec, args.merge);
    if (!outcome.ok) {
        std::cerr << "xed_campaign: " << outcome.error << "\n";
        return 1;
    }
    if (!args.quiet)
        std::cerr << "xed_campaign: merged " << outcome.shardsMerged
                  << " shards -> " << args.merge.outPath
                  << (outcome.forensicsWritten ? " (+ forensics sidecar)"
                                               : "")
                  << "\n";
    if (!printReport(args.merge.outPath, std::cout, &error)) {
        std::cerr << "xed_campaign: " << error << "\n";
        return 1;
    }
    return 0;
}

/** The queue dir or store the observability commands read. */
std::string
statusSource(const CliArgs &args)
{
    if (!args.path.empty())
        return args.path;
    return args.worker.queueDir;
}

StatusOptions
statusOptionsOf(const CliArgs &args)
{
    StatusOptions options;
    options.leaseSeconds = args.worker.leaseSeconds;
    return options;
}

int
statusMain(const CliArgs &args)
{
    const std::string source = statusSource(args);
    if (source.empty()) {
        std::cerr << "xed_campaign: status requires a queue directory "
                     "or result store (positional or --queue-dir)\n";
        return usage(std::cerr);
    }
    const StatusOptions options = statusOptionsOf(args);
    for (;;) {
        const FleetStatus status = scanStatusSource(source, options);
        if (args.jsonOut) {
            std::cout << json::dump(statusJson(status)) << "\n";
        } else {
            if (args.watch && isatty(STDOUT_FILENO))
                std::cout << "\x1b[H\x1b[2J"; // clear for the refresh
            printStatus(status, std::cout);
        }
        std::cout.flush();
        if (!args.watch)
            return status.ok ? 0 : 1;
        if (!args.jsonOut)
            std::cout << "\n";
        std::this_thread::sleep_for(std::chrono::duration<double>(
            args.watchIntervalSeconds));
    }
}

// serve's signal handling needs a global: a signal handler can only
// touch the async-signal-safe HttpServer::stop().
obs::HttpServer *gServer = nullptr;

extern "C" void
serveStopHandler(int)
{
    if (gServer)
        gServer->stop();
}

int
serveMain(const CliArgs &args)
{
    const std::string source = statusSource(args);
    if (source.empty()) {
        std::cerr << "xed_campaign: serve requires a queue directory "
                     "or result store (positional or --queue-dir)\n";
        return usage(std::cerr);
    }
    const StatusOptions options = statusOptionsOf(args);
    static obs::HttpServer server;
    std::string error;
    const auto handler = [source,
                          options](const std::string &path) {
        obs::HttpResponse response;
        if (!statusEndpoint(path, source, options, &response.status,
                            &response.contentType, &response.body))
            response = obs::httpNotFound(path);
        return response;
    };
    if (!server.start(static_cast<std::uint16_t>(args.port), handler,
                      &error)) {
        std::cerr << "xed_campaign: " << error << "\n";
        return 1;
    }
    gServer = &server;
    std::signal(SIGINT, serveStopHandler);
    std::signal(SIGTERM, serveStopHandler);
    // The bound port goes to stdout (and is flushed) so a script that
    // asked for --port 0 can scrape the server it just spawned.
    std::cout << "port " << server.port() << "\n" << std::flush;
    std::cerr << "xed_campaign: serving " << source
              << " on http://localhost:" << server.port()
              << "/ (endpoints: /, /status.json, /metrics)\n";
    const std::uint64_t served = server.run();
    std::cerr << "xed_campaign: served " << served << " requests\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // `version` takes no spec argument, so it is resolved before the
    // generic <command> <path> parse.
    if (argc == 2 && std::string(argv[1]) == "version") {
        std::cout << json::dump(buildInfoJson()) << "\n";
        return 0;
    }

    CliArgs args;
    std::string error;
    if (!parseArgs(argc, argv, args, error)) {
        std::cerr << "xed_campaign: " << error << "\n";
        return usage(std::cerr);
    }

    // The observability commands are the only ones whose source may
    // come from --queue-dir instead of the positional path.
    if (args.command == "status")
        return statusMain(args);
    if (args.command == "serve")
        return serveMain(args);
    if (args.path.empty()) {
        // Flags-only invocation of a command that needs its
        // positional path (e.g. `run --dry-run`).
        std::cerr << "xed_campaign: missing path argument\n";
        return usage(std::cerr);
    }

    if (args.command == "report") {
        if (args.format == "json") {
            // The same canonical schema `status --json` and the
            // server's /status.json emit, so post-run reports diff
            // cleanly against live snapshots.
            const FleetStatus status =
                scanStore(args.path, statusOptionsOf(args));
            std::cout << json::dump(statusJson(status)) << "\n";
            if (!status.ok)
                std::cerr << "xed_campaign: " << status.error << "\n";
            return status.ok ? 0 : 1;
        }
        if (!printReport(args.path, std::cout, &error)) {
            std::cerr << "xed_campaign: " << error << "\n";
            return 1;
        }
        return 0;
    }
    if (args.command == "checkjson")
        return checkJson(args.path);
    if (args.command != "run" && args.command != "fleet" &&
        args.command != "resume" && args.command != "trace" &&
        args.command != "worker" && args.command != "merge") {
        std::cerr << "xed_campaign: unknown command \"" << args.command
                  << "\"\n";
        return usage(std::cerr);
    }

    auto spec = loadSpecFile(args.path, &error);
    if (!spec) {
        std::cerr << "xed_campaign: " << error << "\n";
        return 1;
    }
    if (args.command == "fleet" &&
        spec->kind != CampaignKind::Fleet) {
        std::cerr << "xed_campaign: " << args.path
                  << " is not a fleet spec (kind must be \"fleet\")\n";
        return 1;
    }
    try {
        applyEnvOverrides(*spec);
    } catch (const std::exception &e) {
        std::cerr << "xed_campaign: " << e.what() << "\n";
        return 1;
    }

    if (args.dryRun) {
        printPlan(*spec, std::cout);
        return 0;
    }

    if (args.command == "worker")
        return workerMain(*spec, args);
    if (args.command == "merge")
        return mergeMain(*spec, args, error);

    args.options.resume = args.command == "resume";
    args.options.trace = args.command == "trace";
    if (!args.explicitOut)
        args.options.outPath = spec->name + ".jsonl";
    if (!args.quiet)
        args.options.progressOut = &std::cerr;

    const RunOutcome outcome = runCampaign(*spec, args.options);
    if (!outcome.ok) {
        std::cerr << "xed_campaign: " << outcome.error << "\n";
        return 1;
    }
    if (!args.quiet) {
        std::cerr << "xed_campaign: " << outcome.shardsRun
                  << " shards run, " << outcome.shardsReplayed
                  << " replayed -> " << args.options.outPath
                  << (outcome.complete ? " (complete)" : " (partial)")
                  << "\n";
        if (!outcome.tracePath.empty())
            std::cerr << "xed_campaign: trace -> " << outcome.tracePath
                      << "\n";
    }
    if (outcome.complete &&
        !printReport(args.options.outPath, std::cout, &error)) {
        std::cerr << "xed_campaign: " << error << "\n";
        return 1;
    }
    return 0;
}
