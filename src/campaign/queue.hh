/**
 * @file
 * Filesystem work queue for distributed campaign execution.
 *
 * A campaign's shard plan is a pure function of its spec (spec.hh),
 * so N machines sharing one directory need no coordinator process:
 * every worker derives the same totally ordered shard list and the
 * queue only has to arbitrate *who runs what*. All state lives in
 * one `--queue-dir` (any shared filesystem with atomic rename and
 * O_EXCL create — local disk for tests, NFS/EFS for a fleet):
 *
 *   queue.json            queue manifest: format, spec name + hash,
 *                         shard count, whether fragments carry
 *                         forensics lines, and the canonical spec
 *                         (so a reader without the spec file can
 *                         decode fragments). Written atomically by the
 *                         first worker; every later worker (and the
 *                         merge) validates its own spec against it,
 *                         so two different campaigns can never mix
 *                         fragments in one directory.
 *   lease-NNNNNN.json     exclusive claim on shard N. Created with
 *                         O_CREAT|O_EXCL (the only arbiter); content
 *                         names the holder for forensics. A lease
 *                         whose mtime is older than the configured
 *                         lease lifetime is dead or straggling and
 *                         may be broken; live workers renew (rewrite)
 *                         their lease from a heartbeat thread.
 *   shard-NNNNNN.jsonl    committed result fragment for shard N: the
 *                         shard's store record line, then (for
 *                         reliability campaigns with forensics) its
 *                         forensics sidecar line — the exact bytes a
 *                         single-process run would write. Committed
 *                         via write-to-temp + fsync + rename, so a
 *                         fragment either exists completely or not at
 *                         all; there are no torn fragments.
 *
 * Lease-break protocol (safe against the classic double-unlink race):
 * a breaker first renames the expired lease to a tombstone name
 * unique to itself. rename() succeeds for exactly one breaker; the
 * loser's rename fails with ENOENT and it simply re-runs the claim.
 * Only after owning the tombstone does the winner unlink it and
 * retry the O_EXCL create — so no worker ever unlinks a lease that
 * was re-created fresh by somebody else.
 *
 * Duplicate commits are expected: a straggler whose lease was broken
 * finishes anyway and commits a second fragment for the same shard.
 * Shard execution is deterministic, so the duplicate must be
 * byte-identical to what is already there — commit() asserts that
 * and fails the worker loudly on a mismatch instead of guessing
 * which copy to trust (a mismatch means nondeterminism or
 * corruption, and silently picking one would poison the merged
 * store).
 */

#ifndef XED_CAMPAIGN_QUEUE_HH
#define XED_CAMPAIGN_QUEUE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "campaign/spec.hh"

namespace xed::campaign
{

constexpr int queueFormatVersion = 1;

struct QueueOptions
{
    /** Shared queue directory (created if missing). */
    std::string dir;
    /** Unique worker identity; empty resolves to "<host>-<pid>".
     *  Sanitized to [A-Za-z0-9_.-] for use in file names. */
    std::string workerId;
    /** Lease lifetime: a lease not renewed for this long counts as
     *  dead and may be re-claimed by another worker. */
    double leaseSeconds = 60.0;
    /** fsync lease and fragment writes (AND-ed with the global
     *  durableWritesEnabled() knob) so queue state survives a
     *  worker-host crash. */
    bool durable = true;
    /** Whether fragments carry a forensics line (reliability
     *  campaigns). Recorded in the queue manifest so every worker and
     *  the merge agree on the fragment format. */
    bool forensics = true;
};

class ShardQueue
{
  public:
    enum class Claim
    {
        Acquired, ///< lease created; caller must commit() or release()
        Done,     ///< fragment already committed
        Busy      ///< fresh lease held by another worker
    };

    /**
     * Bind to @p options.dir: create it if missing, publish the queue
     * manifest if absent (atomic, first writer wins) and validate it
     * against @p spec / @p plan. Fails on a spec-hash, shard-count or
     * forensics-mode mismatch rather than mixing campaigns.
     */
    bool open(const CampaignSpec &spec, const Plan &plan,
              const QueueOptions &options, std::string *error);

    /** Try to claim shard @p shard, breaking an expired lease if one
     *  is in the way. Only I/O errors set @p error. */
    Claim tryClaim(std::uint64_t shard, std::string *error);

    /** Heartbeat: rewrite our lease on @p shard, refreshing its
     *  mtime. Returns false (not an error) when the lease is no
     *  longer ours — broken by another worker after expiry. */
    bool renew(std::uint64_t shard, std::string *error);

    /**
     * Commit @p fragmentBytes for shard @p shard (temp + fsync +
     * rename) and release our lease. If a fragment already exists it
     * must be byte-identical; @p wasDuplicate (optional) reports that
     * case. A differing duplicate is a hard error.
     */
    bool commit(std::uint64_t shard, const std::string &fragmentBytes,
                std::string *error, bool *wasDuplicate = nullptr);

    /** Drop our lease on @p shard without committing (error paths). */
    void release(std::uint64_t shard);

    bool fragmentExists(std::uint64_t shard) const;
    /** Committed fragments so far (the merge's readiness check). */
    std::uint64_t fragmentsPresent() const;

    std::string fragmentPath(std::uint64_t shard) const;
    std::string leasePath(std::uint64_t shard) const;

    std::uint64_t shards() const { return shards_; }
    const std::string &workerId() const { return workerId_; }
    const std::string &dir() const { return dir_; }
    bool forensics() const { return forensics_; }

    /** "<host>-<pid>", the per-process default identity. */
    static std::string defaultWorkerId();

  private:
    std::string dir_;
    std::string workerId_;
    double leaseSeconds_ = 60.0;
    bool durable_ = true;
    bool forensics_ = true;
    std::uint64_t shards_ = 0;
};

/** The queue manifest document (exposed for tests). */
json::Value queueManifest(const CampaignSpec &spec, const Plan &plan,
                          const std::string &hash, bool forensics);

/** What a queue directory's `queue.json` declares. */
struct QueueManifest
{
    std::string name;
    std::string specHash;
    std::uint64_t shards = 0;
    bool forensics = false;
    /** Absent when the manifest predates its "spec" member, or when
     *  that member does not parse or hash to specHash. */
    std::optional<CampaignSpec> spec;
};

/** The one `queue.json` reader, shared by ShardQueue::open and the
 *  status scan: the file must parse as an object of format 1. */
std::optional<QueueManifest> readQueueManifest(const std::string &dir,
                                               std::string *error);

/** Initial poll-jitter state for @p workerId (FNV-1a of the id), so
 *  each worker walks its own deterministic jitter sequence. */
std::uint64_t pollJitterSeed(const std::string &workerId);

/**
 * Next jittered poll interval: a value uniform in
 * [0.75, 1.25) x @p baseSeconds, floored at 0.01 s, stepping @p state
 * (splitmix64) on each call. Workers sleep this instead of the raw
 * poll interval so a queue full of workers started by one parallel
 * launcher doesn't stampede the shared filesystem in lockstep on
 * every scan (anti-thundering-herd).
 */
double jitteredPollSeconds(double baseSeconds, std::uint64_t &state);

} // namespace xed::campaign

#endif // XED_CAMPAIGN_QUEUE_HH
