/**
 * @file
 * The filesystem shard queue (campaign/queue.hh): O_EXCL claim
 * arbitration, lease expiry and the tombstone-rename break protocol,
 * byte-checked duplicate commits, and manifest validation that keeps
 * two campaigns from ever mixing fragments in one directory.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <thread>

#include "campaign/queue.hh"
#include "campaign/spec.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

namespace fs = std::filesystem;

CampaignSpec
queueSpec(std::uint64_t seed = 4242)
{
    std::string error;
    auto doc = json::parse(R"({
        "name": "queue-test", "seed": )" +
                               std::to_string(seed) + R"(,
        "schemes": ["secded", "xed"],
        "systems": 300, "shardSystems": 100
    })",
                           &error);
    auto spec = parseSpec(*doc, &error);
    EXPECT_TRUE(spec) << error;
    return *spec;
}

/** Fresh queue directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ownTempPath("xed_queue_" + name);
    fs::remove_all(dir);
    return dir;
}

QueueOptions
optionsFor(const std::string &dir, const std::string &worker,
           double leaseSeconds = 60.0)
{
    QueueOptions options;
    options.dir = dir;
    options.workerId = worker;
    options.leaseSeconds = leaseSeconds;
    options.durable = false; // queue protocol tests, not crash tests
    return options;
}

void
backdate(const std::string &path, double seconds)
{
    const auto mtime = fs::last_write_time(path);
    fs::last_write_time(
        path, mtime - std::chrono::duration_cast<
                          fs::file_time_type::duration>(
                          std::chrono::duration<double>(seconds)));
}

} // namespace

TEST(ShardQueue, ClaimCommitLifecycle)
{
    const auto spec = queueSpec();
    const Plan plan = buildPlan(spec);
    const std::string dir = freshDir("lifecycle");
    std::string error;

    ShardQueue a, b;
    ASSERT_TRUE(a.open(spec, plan, optionsFor(dir, "a"), &error))
        << error;
    ASSERT_TRUE(b.open(spec, plan, optionsFor(dir, "b"), &error))
        << error;
    EXPECT_EQ(a.shards(), plan.tasks.size());

    // First claimer wins; the rival sees a fresh lease.
    EXPECT_EQ(a.tryClaim(0, &error), ShardQueue::Claim::Acquired);
    EXPECT_EQ(b.tryClaim(0, &error), ShardQueue::Claim::Busy);
    EXPECT_TRUE(fs::exists(a.leasePath(0)));

    // Commit publishes the fragment and drops the lease; both workers
    // now see the shard as done.
    ASSERT_TRUE(a.commit(0, "fragment-bytes\n", &error)) << error;
    EXPECT_FALSE(fs::exists(a.leasePath(0)));
    EXPECT_TRUE(a.fragmentExists(0));
    EXPECT_EQ(a.tryClaim(0, &error), ShardQueue::Claim::Done);
    EXPECT_EQ(b.tryClaim(0, &error), ShardQueue::Claim::Done);
    EXPECT_EQ(a.fragmentsPresent(), 1u);

    // Other shards are independent.
    EXPECT_EQ(b.tryClaim(1, &error), ShardQueue::Claim::Acquired);
    b.release(1);
    EXPECT_FALSE(fs::exists(b.leasePath(1)));
    fs::remove_all(dir);
}

TEST(ShardQueue, ExpiredLeaseIsBrokenAndReclaimed)
{
    const auto spec = queueSpec();
    const Plan plan = buildPlan(spec);
    const std::string dir = freshDir("expiry");
    std::string error;

    ShardQueue dead, live;
    ASSERT_TRUE(
        dead.open(spec, plan, optionsFor(dir, "dead", 30), &error))
        << error;
    ASSERT_TRUE(
        live.open(spec, plan, optionsFor(dir, "live", 30), &error))
        << error;

    ASSERT_EQ(dead.tryClaim(0, &error), ShardQueue::Claim::Acquired);
    EXPECT_EQ(live.tryClaim(0, &error), ShardQueue::Claim::Busy);

    // Simulate a crashed holder: no renewals, lease mtime far in the
    // past. The live worker must break the lease and claim the shard.
    backdate(dead.leasePath(0), 120.0);
    EXPECT_EQ(live.tryClaim(0, &error), ShardQueue::Claim::Acquired);
    EXPECT_TRUE(fs::exists(live.leasePath(0)));

    // The straggler's renew must observe the loss instead of stomping
    // the new holder's lease.
    EXPECT_FALSE(dead.renew(0, &error));
    fs::remove_all(dir);
}

TEST(ShardQueue, RenewKeepsALeaseAlive)
{
    const auto spec = queueSpec();
    const Plan plan = buildPlan(spec);
    const std::string dir = freshDir("renew");
    std::string error;

    ShardQueue holder, rival;
    ASSERT_TRUE(
        holder.open(spec, plan, optionsFor(dir, "holder"), &error))
        << error;
    ASSERT_TRUE(
        rival.open(spec, plan, optionsFor(dir, "rival"), &error))
        << error;

    ASSERT_EQ(holder.tryClaim(0, &error), ShardQueue::Claim::Acquired);
    backdate(holder.leasePath(0), 120.0);
    // A heartbeat renewal refreshes the mtime, so the backdated lease
    // is fresh again and the rival keeps seeing Busy.
    ASSERT_TRUE(holder.renew(0, &error)) << error;
    EXPECT_EQ(rival.tryClaim(0, &error), ShardQueue::Claim::Busy);
    fs::remove_all(dir);
}

TEST(ShardQueue, DuplicateCommitMustBeByteIdentical)
{
    const auto spec = queueSpec();
    const Plan plan = buildPlan(spec);
    const std::string dir = freshDir("duplicate");
    std::string error;

    ShardQueue first, straggler;
    ASSERT_TRUE(
        first.open(spec, plan, optionsFor(dir, "first"), &error))
        << error;
    ASSERT_TRUE(straggler.open(spec, plan,
                               optionsFor(dir, "straggler"), &error))
        << error;

    ASSERT_TRUE(first.commit(3, "deterministic-bytes\n", &error))
        << error;

    // A re-claimed straggler re-commits the same shard: fine when the
    // bytes agree (deterministic execution), fatal when they differ.
    bool duplicate = false;
    EXPECT_TRUE(straggler.commit(3, "deterministic-bytes\n", &error,
                                 &duplicate));
    EXPECT_TRUE(duplicate);

    EXPECT_FALSE(straggler.commit(3, "different-bytes\n", &error));
    EXPECT_NE(error.find("determinism"), std::string::npos) << error;
    fs::remove_all(dir);
}

TEST(ShardQueue, RefusesAForeignCampaignsQueue)
{
    const auto spec = queueSpec(4242);
    const auto other = queueSpec(7777); // different seed, new hash
    const Plan plan = buildPlan(spec);
    const Plan otherPlan = buildPlan(other);
    const std::string dir = freshDir("foreign");
    std::string error;

    ShardQueue ours;
    ASSERT_TRUE(ours.open(spec, plan, optionsFor(dir, "a"), &error))
        << error;

    ShardQueue theirs;
    EXPECT_FALSE(
        theirs.open(other, otherPlan, optionsFor(dir, "b"), &error));
    EXPECT_NE(error.find("spec hash mismatch"), std::string::npos)
        << error;
    fs::remove_all(dir);
}

TEST(ShardQueue, ManifestRecordsForensicsMode)
{
    const auto spec = queueSpec();
    const Plan plan = buildPlan(spec);
    const std::string dir = freshDir("forensics_mode");
    std::string error;

    auto options = optionsFor(dir, "a");
    options.forensics = false;
    ShardQueue creator;
    ASSERT_TRUE(creator.open(spec, plan, options, &error)) << error;
    EXPECT_FALSE(creator.forensics());

    // A later worker adopts the manifest's mode regardless of its own
    // option; runWorker turns the disagreement into an error.
    ShardQueue joiner;
    ASSERT_TRUE(joiner.open(spec, plan, optionsFor(dir, "b"), &error))
        << error;
    EXPECT_FALSE(joiner.forensics());
    fs::remove_all(dir);
}

TEST(ShardQueue, WorkerIdsAreSanitizedForFileNames)
{
    const auto spec = queueSpec();
    const Plan plan = buildPlan(spec);
    const std::string dir = freshDir("sanitize");
    std::string error;

    ShardQueue queue;
    ASSERT_TRUE(queue.open(spec, plan,
                           optionsFor(dir, "host/1:2 bad"), &error))
        << error;
    EXPECT_EQ(queue.workerId(), "host-1-2-bad");

    const std::string byDefault = ShardQueue::defaultWorkerId();
    EXPECT_FALSE(byDefault.empty());
    EXPECT_EQ(byDefault.find('/'), std::string::npos);
    fs::remove_all(dir);
}

TEST(PollJitter, StaysWithinBoundsAndAboveFloor)
{
    // The claim-scan backoff jitters uniformly over [0.75, 1.25) of
    // the configured interval so a worker fleet started in lockstep
    // does not hammer the queue directory in phase.
    std::uint64_t state = pollJitterSeed("w1");
    double low = 1e9, high = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double s = jitteredPollSeconds(0.2, state);
        ASSERT_GE(s, 0.75 * 0.2);
        ASSERT_LT(s, 1.25 * 0.2);
        low = std::min(low, s);
        high = std::max(high, s);
    }
    // The draw actually spreads over the interval.
    EXPECT_LT(low, 0.8 * 0.2);
    EXPECT_GT(high, 1.2 * 0.2);

    // Tiny or zero bases clamp to the 10 ms floor instead of spinning.
    for (int i = 0; i < 100; ++i) {
        EXPECT_GE(jitteredPollSeconds(0.001, state), 0.01);
        EXPECT_EQ(jitteredPollSeconds(0.0, state), 0.01);
    }
}

TEST(PollJitter, DeterministicPerWorkerAndDecorrelatedAcrossWorkers)
{
    // Same worker id -> same backoff sequence (reproducible runs);
    // different ids -> different sequences (the anti-thundering-herd
    // point). 64 draws colliding across seeds is astronomically
    // unlikely with a splitmix64 stream.
    std::uint64_t a1 = pollJitterSeed("host-1");
    std::uint64_t a2 = pollJitterSeed("host-1");
    std::uint64_t b = pollJitterSeed("host-2");
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, b);

    bool differs = false;
    for (int i = 0; i < 64; ++i) {
        const double fromA1 = jitteredPollSeconds(1.0, a1);
        EXPECT_EQ(fromA1, jitteredPollSeconds(1.0, a2));
        differs = differs || fromA1 != jitteredPollSeconds(1.0, b);
    }
    EXPECT_TRUE(differs);
}
