#include "campaign/queue.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "campaign/store.hh"
#include "common/file.hh"
#include "obs/trace.hh"

namespace xed::campaign
{

namespace fs = std::filesystem;

namespace
{

std::string
sanitizeId(const std::string &id)
{
    std::string out = id;
    for (char &c : out) {
        const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '-';
        if (!ok)
            c = '-';
    }
    return out.empty() ? "worker" : out;
}

std::string
shardName(const char *prefix, std::uint64_t shard, const char *suffix)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%06llu%s", prefix,
                  static_cast<unsigned long long>(shard), suffix);
    return buf;
}

/** Whole-file write + optional fsync; the building block for temp
 *  files that are later renamed into place. */
bool
writeFile(const std::string &path, const std::string &bytes,
          bool durable, std::string *error)
{
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
        out.flush();
        if (!out) {
            if (error)
                *error = "write failed on " + path;
            return false;
        }
    }
    if (durable && !fsyncPath(path, error))
        return false;
    return true;
}

/** Seconds since the file was last written; nullopt when it vanished
 *  (claimed/broken/committed by somebody else in the meantime). */
std::optional<double>
fileAgeSeconds(const std::string &path)
{
    std::error_code ec;
    const auto mtime = fs::last_write_time(path, ec);
    if (ec)
        return std::nullopt;
    const auto now = fs::file_time_type::clock::now();
    return std::chrono::duration<double>(now - mtime).count();
}

} // namespace

json::Value
queueManifest(const CampaignSpec &spec, const Plan &plan,
              const std::string &hash, bool forensics)
{
    auto record = json::Value::object();
    record.set("type", "queue");
    record.set("format", queueFormatVersion);
    record.set("name", spec.name);
    record.set("specHash", hash);
    record.set("shards", std::uint64_t{plan.tasks.size()});
    record.set("forensics",
               forensics && spec.kind == CampaignKind::Reliability);
    record.set("spec", specToJson(spec));
    return record;
}

std::optional<QueueManifest>
readQueueManifest(const std::string &dir, std::string *error)
{
    const std::string path = (fs::path(dir) / "queue.json").string();
    const auto bytes = readFile(path);
    if (!bytes) {
        if (error)
            *error = "cannot read " + path;
        return std::nullopt;
    }
    std::string parseError;
    const auto doc = json::parse(*bytes, &parseError);
    if (!doc || !doc->isObject()) {
        if (error)
            *error = path + ": invalid queue manifest: " + parseError;
        return std::nullopt;
    }
    const json::Value *format = doc->find("format");
    if (!format || !format->isIntegral() ||
        format->asInt() != queueFormatVersion) {
        if (error)
            *error = path + ": unsupported queue format";
        return std::nullopt;
    }
    QueueManifest manifest;
    if (const json::Value *name = doc->find("name"); name && name->isString())
        manifest.name = name->asString();
    if (const json::Value *hash = doc->find("specHash");
        hash && hash->isString())
        manifest.specHash = hash->asString();
    if (const json::Value *shards = doc->find("shards");
        shards && shards->isIntegral())
        manifest.shards = shards->asUint();
    const json::Value *forensics = doc->find("forensics");
    manifest.forensics =
        forensics && forensics->isBool() && forensics->asBool();
    if (const json::Value *spec = doc->find("spec")) {
        manifest.spec = parseSpec(*spec, nullptr);
        if (manifest.spec && specHash(*manifest.spec) != manifest.specHash)
            manifest.spec.reset();
    }
    return manifest;
}

std::string
ShardQueue::defaultWorkerId()
{
    char host[256] = {};
    if (gethostname(host, sizeof host - 1) != 0 || !host[0])
        std::snprintf(host, sizeof host, "unknown");
    return sanitizeId(std::string(host) + "-" +
                      std::to_string(static_cast<long>(getpid())));
}

bool
ShardQueue::open(const CampaignSpec &spec, const Plan &plan,
                 const QueueOptions &options, std::string *error)
{
    dir_ = options.dir;
    workerId_ = sanitizeId(options.workerId.empty()
                               ? defaultWorkerId()
                               : options.workerId);
    leaseSeconds_ = options.leaseSeconds;
    durable_ = options.durable && durableWritesEnabled();
    shards_ = plan.tasks.size();

    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        if (error)
            *error = "cannot create queue dir " + dir_ + ": " +
                     ec.message();
        return false;
    }

    const std::string hash = specHash(spec);
    const std::string manifestPath =
        (fs::path(dir_) / "queue.json").string();
    if (!fs::exists(manifestPath)) {
        // First worker publishes the manifest; rename is atomic, so
        // concurrent first workers of the SAME spec write identical
        // bytes and either rename wins harmlessly. A different spec
        // loses the race and fails the validation below.
        const std::string tmp = manifestPath + ".tmp-" + workerId_;
        const std::string bytes =
            json::dump(queueManifest(spec, plan, hash,
                                     options.forensics)) +
            "\n";
        if (!writeFile(tmp, bytes, durable_, error))
            return false;
        fs::rename(tmp, manifestPath, ec);
        if (ec) {
            if (error)
                *error = "cannot publish " + manifestPath + ": " +
                         ec.message();
            return false;
        }
        if (durable_ && !fsyncParentDir(manifestPath, error))
            return false;
    }

    const auto manifest = readQueueManifest(dir_, error);
    if (!manifest)
        return false;
    if (manifest->specHash != hash) {
        if (error)
            *error = manifestPath + ": spec hash mismatch (queue " +
                     (manifest->specHash.empty() ? "?"
                                                 : manifest->specHash) +
                     ", spec " + hash +
                     "); refusing to join a different campaign's queue";
        return false;
    }
    if (manifest->shards != plan.tasks.size()) {
        if (error)
            *error = manifestPath +
                     ": shard count does not match the spec's plan";
        return false;
    }
    forensics_ = manifest->forensics;
    return true;
}

std::string
ShardQueue::fragmentPath(std::uint64_t shard) const
{
    return (fs::path(dir_) / shardName("shard-", shard, ".jsonl"))
        .string();
}

std::string
ShardQueue::leasePath(std::uint64_t shard) const
{
    return (fs::path(dir_) / shardName("lease-", shard, ".json"))
        .string();
}

bool
ShardQueue::fragmentExists(std::uint64_t shard) const
{
    return fs::exists(fragmentPath(shard));
}

std::uint64_t
ShardQueue::fragmentsPresent() const
{
    std::uint64_t present = 0;
    for (std::uint64_t i = 0; i < shards_; ++i)
        present += fragmentExists(i) ? 1 : 0;
    return present;
}

ShardQueue::Claim
ShardQueue::tryClaim(std::uint64_t shard, std::string *error)
{
    XED_TRACE_SPAN_ARG("queue.claim", "queue", "shard", shard);
    const std::string lease = leasePath(shard);
    // Bounded retries: each pass either creates the lease, observes a
    // fresh one, or breaks an expired one (which may hand the claim
    // to a faster rival -- then the next pass sees *their* fresh
    // lease and reports Busy).
    for (int attempt = 0; attempt < 4; ++attempt) {
        if (fragmentExists(shard))
            return Claim::Done;
        const int fd = ::open(lease.c_str(),
                              O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC,
                              0644);
        if (fd >= 0) {
            auto doc = json::Value::object();
            doc.set("worker", workerId_);
            doc.set("shard", shard);
            const std::string bytes = json::dump(doc) + "\n";
            const bool wrote =
                ::write(fd, bytes.data(), bytes.size()) ==
                static_cast<ssize_t>(bytes.size());
            const bool synced = !durable_ || ::fsync(fd) == 0;
            ::close(fd);
            if (!wrote || !synced) {
                if (error)
                    *error = "cannot write lease " + lease;
                ::unlink(lease.c_str());
                return Claim::Busy;
            }
            if (durable_ && !fsyncParentDir(lease, error))
                return Claim::Busy;
            return Claim::Acquired;
        }
        if (errno != EEXIST) {
            if (error)
                *error = "cannot create lease " + lease;
            return Claim::Busy;
        }
        const auto age = fileAgeSeconds(lease);
        if (!age)
            continue; // lease vanished under us: re-run the claim
        if (*age <= leaseSeconds_)
            return Claim::Busy; // live worker holds it
        // Expired: break it via a tombstone rename so exactly one
        // breaker proceeds and nobody can unlink a freshly re-created
        // lease (see the header's protocol notes).
        const std::string tomb = lease + ".broken-" + workerId_;
        std::error_code ec;
        fs::rename(lease, tomb, ec);
        if (!ec)
            ::unlink(tomb.c_str());
        // Either way, loop: O_EXCL arbitrates the re-claim.
    }
    return Claim::Busy;
}

bool
ShardQueue::renew(std::uint64_t shard, std::string *error)
{
    const std::string lease = leasePath(shard);
    const auto current = readFile(lease);
    if (!current)
        return false; // broken by another worker after expiry
    std::string parseError;
    const auto doc = json::parse(*current, &parseError);
    if (doc && doc->isObject()) {
        const json::Value *worker = doc->find("worker");
        if (worker && worker->isString() &&
            worker->asString() != workerId_)
            return false; // re-claimed: the lease is no longer ours
    }
    // O_TRUNC on the existing path refreshes mtime; if a breaker
    // renamed it away between the read above and here, open fails
    // with ENOENT and we correctly report the lease lost.
    const int fd =
        ::open(lease.c_str(), O_WRONLY | O_TRUNC | O_CLOEXEC);
    if (fd < 0)
        return false;
    auto doc2 = json::Value::object();
    doc2.set("worker", workerId_);
    doc2.set("shard", shard);
    const std::string bytes = json::dump(doc2) + "\n";
    const bool wrote = ::write(fd, bytes.data(), bytes.size()) ==
                       static_cast<ssize_t>(bytes.size());
    const bool synced = !durable_ || ::fsync(fd) == 0;
    ::close(fd);
    if (!wrote || !synced) {
        if (error)
            *error = "cannot renew lease " + lease;
        return false;
    }
    return true;
}

bool
ShardQueue::commit(std::uint64_t shard,
                   const std::string &fragmentBytes, std::string *error,
                   bool *wasDuplicate)
{
    XED_TRACE_SPAN_ARG("queue.commit", "queue", "shard", shard);
    if (wasDuplicate)
        *wasDuplicate = false;
    const std::string fragment = fragmentPath(shard);
    if (const auto existing = readFile(fragment)) {
        // A re-claimed shard was committed by someone else first.
        // Execution is deterministic, so the bytes MUST agree; a
        // mismatch means nondeterminism or corruption and must kill
        // the run rather than let the merge pick a copy at random.
        if (*existing != fragmentBytes) {
            if (error)
                *error = "duplicate fragment for shard " +
                         std::to_string(shard) +
                         " differs from the committed one -- "
                         "determinism violation or corrupt queue dir " +
                         dir_;
            return false;
        }
        if (wasDuplicate)
            *wasDuplicate = true;
        release(shard);
        return true;
    }
    const std::string tmp = fragment + ".tmp-" + workerId_;
    if (!writeFile(tmp, fragmentBytes, durable_, error))
        return false;
    std::error_code ec;
    fs::rename(tmp, fragment, ec);
    if (ec) {
        if (error)
            *error = "cannot commit fragment " + fragment + ": " +
                     ec.message();
        ::unlink(tmp.c_str());
        return false;
    }
    if (durable_ && !fsyncParentDir(fragment, error))
        return false;
    release(shard);
    return true;
}

void
ShardQueue::release(std::uint64_t shard)
{
    ::unlink(leasePath(shard).c_str());
}

std::uint64_t
pollJitterSeed(const std::string &workerId)
{
    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (const unsigned char c : workerId) {
        hash ^= c;
        hash *= 0x100000001B3ull;
    }
    return hash;
}

double
jitteredPollSeconds(double baseSeconds, std::uint64_t &state)
{
    // splitmix64: one step per call, full-period, no shared state.
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const double u =
        static_cast<double>(z >> 11) * 0x1.0p-53; // uniform [0, 1)
    return std::max(baseSeconds * (0.75 + 0.5 * u), 0.01);
}

} // namespace xed::campaign
