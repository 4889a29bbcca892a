// Churn-proof addressing: chain collapse-on-traversal, the resting chain
// bound, epoch reclamation of forwarding records and registry tombstones,
// the epidemic location service, and locate retry/backoff.  Edge cases the
// chaos harness found once and these tests pin forever: collapse racing a
// concurrent migration, chains through dead intermediates, reclamation vs
// late retransmits (bounce, never misroute), and locate chains surviving a
// kill/restart cycle of the parking machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/check/chaos.h"
#include "src/check/invariants.h"
#include "tests/test_util.h"

namespace demos {
namespace {

bool HasInvariant(const std::vector<Violation>& violations, const std::string& name) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.invariant == name; });
}

class ChurnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::RegisterPrograms();
    GlobalCapture().clear();
  }

  std::uint64_t CounterValue(Cluster& cluster, const ProcessId& pid) {
    ProcessRecord* record = cluster.FindProcessAnywhere(pid);
    EXPECT_NE(record, nullptr);
    if (record == nullptr) {
      return 0;
    }
    ByteReader r(record->memory.ReadData(0, 8));
    return r.U64();
  }

  // Resting chain length starting from `start`'s forwarding record, walked
  // the same way the I9 audit walks it.  0 = no record at `start`.
  int ChainHops(Cluster& cluster, int machines, const ProcessId& pid, MachineId start) {
    const auto* entry = cluster.kernel(start).process_table().FindEntry(pid);
    if (entry == nullptr || !entry->IsForwarding()) {
      return 0;
    }
    int hops = 1;
    MachineId cur = entry->forward_to;
    while (hops <= machines + 2) {
      if (cur == kNoMachine || cur >= machines) {
        break;
      }
      const auto* next = cluster.kernel(cur).process_table().FindEntry(pid);
      if (next == nullptr || !next->IsForwarding()) {
        break;
      }
      cur = next->forward_to;
      ++hops;
    }
    return hops;
  }
};

// ---- Chain collapse. ----

TEST_F(ChurnTest, TraversalCollapsesEveryIntermediateRecord) {
  ClusterConfig config;
  config.machines = 4;
  Cluster cluster(config);
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  testutil::MigrateAndSettle(cluster, counter->pid, 1, 2);
  testutil::MigrateAndSettle(cluster, counter->pid, 2, 3);

  // A stale send traverses the m0 -> m1 -> m2 records; the delivery machine
  // mails each via machine a collapse pointing at the final owner.
  cluster.kernel(3).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 1u);
  EXPECT_GE(cluster.TotalStat(stat::kChainCollapses), 1);
  EXPECT_GE(cluster.TotalStat(stat::kChainCollapseApplied), 1);
  for (MachineId m = 0; m <= 2; ++m) {
    const auto* entry = cluster.kernel(m).process_table().FindEntry(counter->pid);
    ASSERT_NE(entry, nullptr) << "m" << m;
    ASSERT_TRUE(entry->IsForwarding()) << "m" << m;
    EXPECT_EQ(entry->forward_to, 3) << "m" << m;
  }

  // The collapsed chain pays one hop, not three: only m0 forwards the next
  // stale send.
  const std::int64_t before_m1 = cluster.kernel(1).stats().Get(stat::kMsgsForwarded);
  const std::int64_t before_m2 = cluster.kernel(2).stats().Get(stat::kMsgsForwarded);
  cluster.kernel(3).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 2u);
  EXPECT_EQ(cluster.kernel(1).stats().Get(stat::kMsgsForwarded), before_m1);
  EXPECT_EQ(cluster.kernel(2).stats().Get(stat::kMsgsForwarded), before_m2);
}

TEST_F(ChurnTest, CollapseRacingConcurrentMigrationNeverMisroutes) {
  // The collapse points at the owner as of delivery time; if the process
  // migrates again while the collapse messages are in flight, the stale
  // collapse must lose to the newer forwarding record (version discipline)
  // and traffic must keep delivering.
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 4;
  config.trace_enabled = true;
  Cluster cluster(config);
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  checker.ExpectLive(counter->pid);
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  testutil::MigrateAndSettle(cluster, counter->pid, 1, 2);

  // Launch the traversal (which will emit collapses aimed at wherever the
  // delivery lands) and a further migration in the same breath.
  cluster.kernel(3).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  (void)cluster.kernel(2).StartMigration(counter->pid, 3,
                                         cluster.kernel(2).kernel_address());
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 1u);

  // Post-race, stale traffic still arrives.
  cluster.kernel(1).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 2u);
  cluster.SetObserver(nullptr);

  const std::vector<Violation> violations = checker.CheckAtQuiescence();
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? std::string() : violations.front().ToString());
}

TEST_F(ChurnTest, MigrationStormKeepsRestingChainUnderBound) {
  ClusterConfig config;
  config.machines = 4;
  config.kernel.max_chain_hops = 2;
  Cluster cluster(config);
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  // Five hops with no traffic in between: without the resting bound this
  // leaves a 5-record chain; with it the source collapses eagerly.
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  testutil::MigrateAndSettle(cluster, counter->pid, 1, 2);
  testutil::MigrateAndSettle(cluster, counter->pid, 2, 3);
  testutil::MigrateAndSettle(cluster, counter->pid, 3, 1);
  testutil::MigrateAndSettle(cluster, counter->pid, 1, 2);

  for (MachineId m = 0; m < 4; ++m) {
    EXPECT_LE(ChainHops(cluster, 4, counter->pid, m), 2) << "chain from m" << m;
  }
  // And the bound costs nothing in deliverability.
  cluster.kernel(0).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 1u);
}

TEST_F(ChurnTest, ChainBoundAuditFlagsLongChainAndExemptsDeadIntermediate) {
  ClusterConfig config;
  config.machines = 4;
  config.kernel.max_chain_hops = 2;
  Cluster cluster(config);
  auto counter = cluster.kernel(3).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  // Hand-build a resting chain longer than the bound (bypassing the eager
  // collapse the migration path would have done).
  cluster.kernel(0).ForceForwardingAddress(counter->pid, 1);
  cluster.kernel(1).ForceForwardingAddress(counter->pid, 2);
  cluster.kernel(2).ForceForwardingAddress(counter->pid, 3);

  {
    ClusterChecker checker(&cluster);
    EXPECT_TRUE(HasInvariant(checker.CheckAtQuiescence(), "chain-bound"));
  }
  // A chain through a dead intermediate is I5's problem (completeness), not
  // I9's: the bound audit must not double-report it.
  cluster.kernel(1).SetHalted(true);
  {
    ClusterChecker checker(&cluster);
    checker.MarkMachineDead(1);
    EXPECT_FALSE(HasInvariant(checker.CheckAtQuiescence(), "chain-bound"));
  }
}

// ---- Epoch reclamation. ----

TEST_F(ChurnTest, DrainedRecordReclaimedAfterGraceAndLateTrafficReroutes) {
  ClusterConfig config;
  config.machines = 3;
  config.kernel.reclaim_grace_us = 10'000;
  Cluster cluster(config);
  auto mover = cluster.kernel(0).SpawnProcess("counter");
  auto local = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(mover.ok() && local.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, mover->pid, 0, 1);
  ASSERT_EQ(cluster.kernel(0).forwarding_meta().size(), 1u);
  EXPECT_EQ(cluster.TotalStat(stat::kFwdRecordsLive), 1);

  // Nobody held a stale link at migration time, so the peer set is empty:
  // once the grace window passes, the next amortized sweep reclaims.
  cluster.RunFor(15'000);
  for (int i = 0; i < 70; ++i) {
    cluster.kernel(1).SendFromKernel(*local, kIncrement, {});
  }
  cluster.RunUntilIdle();
  EXPECT_TRUE(cluster.kernel(0).forwarding_meta().empty());
  EXPECT_EQ(cluster.kernel(0).process_table().ForwardingAddressCount(), 0u);
  EXPECT_GE(cluster.TotalStat(stat::kFwdReclaimed), 1);
  EXPECT_EQ(cluster.TotalStat(stat::kFwdRecordsLive), 0);

  // A late retransmit against the reclaimed record falls back to the home
  // registry and reroutes -- it cannot misroute and it cannot silently drop.
  cluster.kernel(2).SendFromKernel(ProcessAddress{0, mover->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, mover->pid), 1u);
  EXPECT_GE(cluster.TotalStat(stat::kGcRerouted), 1);
}

TEST_F(ChurnTest, TombstoneReclaimedPastWatermarkAndLateTrafficBounces) {
  ClusterConfig config;
  config.machines = 3;
  config.kernel.reclaim_grace_us = 10'000;
  config.kernel.reclaim_watermark_us = 50'000;
  // Gossip off: a pending death rumor flushed after the sweep would re-create
  // the tombstone (same version, fresh timestamp) and push reclamation out by
  // one more watermark epoch -- legal, but not what this test pins down.
  config.kernel.gossip_enabled = false;
  Cluster cluster(config);
  auto mover = cluster.kernel(0).SpawnProcess("counter");
  auto local = cluster.kernel(0).SpawnProcess("counter");
  auto sink = cluster.kernel(2).SpawnProcess("sink");
  ASSERT_TRUE(mover.ok() && local.ok() && sink.ok());
  cluster.RunUntilIdle();
  testutil::TagProcess(cluster, *sink, 9);
  testutil::MigrateAndSettle(cluster, mover->pid, 0, 1);
  cluster.kernel(1).SendFromKernel(ProcessAddress{1, mover->pid}, MsgType::kKillProcess, {},
                                   {}, kLinkDeliverToKernel);
  cluster.RunUntilIdle();
  EXPECT_TRUE(cluster.kernel(0).HasLocationTombstone(mover->pid));

  // Death markers are epoch state: past the watermark the sweeper drops them
  // (this was the PR-3 leak -- tombstones lived forever).
  cluster.RunFor(60'000);
  for (int i = 0; i < 70; ++i) {
    cluster.kernel(1).SendFromKernel(*local, kIncrement, {});
  }
  cluster.RunUntilIdle();
  EXPECT_FALSE(cluster.kernel(0).HasLocationTombstone(mover->pid));
  EXPECT_GE(cluster.TotalStat(stat::kTombstonesReclaimed), 1);

  // A straggler addressed at the home after the tombstone is gone gets a
  // definitive bounce (the home is authoritative for its own spawns).
  Message msg;
  msg.sender = *sink;
  msg.receiver = ProcessAddress{0, mover->pid};
  msg.type = kNote;
  cluster.kernel(2).Transmit(std::move(msg));
  cluster.RunUntilIdle();
  auto captured = testutil::CapturedFor(9);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].type, MsgType::kNotDeliverable);
}

// ---- Epidemic location service. ----

TEST_F(ChurnTest, GossipSpreadsLocationsAndReroutesPastDeadHome) {
  ClusterConfig config;
  config.machines = 4;
  config.kernel.gossip_fanout = 8;  // >= peer count: rumor reaches everyone
  Cluster cluster(config);
  // Seed the peer sets in both directions so the epidemic has edges to ride.
  std::vector<ProcessAddress> sinks;
  for (MachineId m = 0; m < 4; ++m) {
    auto s = cluster.kernel(m).SpawnProcess("sink");
    ASSERT_TRUE(s.ok());
    sinks.push_back(*s);
  }
  cluster.RunUntilIdle();
  for (MachineId from = 0; from < 4; ++from) {
    for (MachineId to = 0; to < 4; ++to) {
      if (from != to) {
        cluster.kernel(from).SendFromKernel(sinks[to], kNote, {});
      }
    }
  }
  cluster.RunUntilIdle();

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  // Rumor flushes are rate-limited to one per 20 ms per kernel; let the
  // window open, then poke each kernel so routed traffic carries the news.
  cluster.RunFor(25'000);
  for (MachineId m = 0; m < 4; ++m) {
    cluster.kernel(m).SendFromKernel(sinks[(m + 1) % 4], kNote, {});
  }
  cluster.RunUntilIdle();
  cluster.RunFor(25'000);
  for (MachineId m = 0; m < 4; ++m) {
    cluster.kernel(m).SendFromKernel(sinks[(m + 3) % 4], kNote, {});
  }
  cluster.RunUntilIdle();

  // Machines that never hosted the process and never forwarded to it still
  // learned its location.
  EXPECT_GT(cluster.TotalStat(stat::kGossipRounds), 0);
  EXPECT_GT(cluster.TotalStat(stat::kGossipAdvanced), 0);
  EXPECT_EQ(cluster.kernel(2).LocationHint(counter->pid), 1);
  EXPECT_EQ(cluster.kernel(3).LocationHint(counter->pid), 1);

  // The creating machine dies for good.  The paper-era fallback (ask the
  // home registry) is gone; the gossip-fed registry answers instead.
  cluster.kernel(0).SetHalted(true);
  cluster.kernel(3).SendFromKernel(ProcessAddress{3, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 1u);
  EXPECT_GE(cluster.TotalStat(stat::kGossipReroutes), 1);
}

// ---- Locate retry/backoff. ----

TEST_F(ChurnTest, LocateRetriesRotatePastDeadHomeToCurrentHost) {
  ClusterConfig config;
  config.machines = 3;
  config.kernel.gossip_enabled = false;  // force the probe path, not gossip
  config.kernel.locate_retry_base_us = 2'000;
  Cluster cluster(config);
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  cluster.kernel(0).SetHalted(true);  // the home takes its registry with it

  // m2 has no record and no registry entry: the message parks, probes the
  // dead home, then rotates over the membership until the current host
  // answers for itself.
  cluster.kernel(2).SendFromKernel(ProcessAddress{2, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 1u);
  EXPECT_GE(cluster.kernel(2).stats().Get(stat::kLocateRetries), 1);
  EXPECT_EQ(cluster.TotalStat(stat::kLocateGaveUp), 0);
}

TEST_F(ChurnTest, LocateGivesUpAndBouncesWhenNobodyKnows) {
  ClusterConfig config;
  config.machines = 3;
  config.kernel.gossip_enabled = false;
  config.kernel.locate_max_attempts = 3;
  config.kernel.locate_retry_base_us = 2'000;
  Cluster cluster(config);
  auto sink = cluster.kernel(2).SpawnProcess("sink");
  ASSERT_TRUE(sink.ok());
  cluster.RunUntilIdle();
  testutil::TagProcess(cluster, *sink, 5);
  cluster.kernel(0).SetHalted(true);

  // A pid nobody has ever seen, homed on the dead machine: every probe
  // either vanishes (dead home) or answers "unknown" (live peers).  After
  // the attempt budget the parked message bounces to its sender.
  Message msg;
  msg.sender = *sink;
  msg.receiver = ProcessAddress{2, ProcessId{0, 4242}};
  msg.type = kNote;
  cluster.kernel(2).Transmit(std::move(msg));
  cluster.RunUntilIdle();

  auto captured = testutil::CapturedFor(5);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].type, MsgType::kNotDeliverable);
  EXPECT_GE(cluster.kernel(2).stats().Get(stat::kLocateRetries), 1);
  EXPECT_EQ(cluster.TotalStat(stat::kMsgsBounced), 1);
}

TEST_F(ChurnTest, LocateChainSurvivesKillRestartCycleOfParkingMachine) {
  // A retry that fires during an outage dies with the halted kernel; revival
  // must restart the chain or the parked messages leak silently (this
  // exact loss shipped once -- found by `chaos_fuzz --churn`).
  ClusterConfig config;
  config.machines = 3;
  config.kernel.gossip_enabled = false;
  config.kernel.locate_max_attempts = 4;
  config.kernel.locate_retry_base_us = 2'000;
  Cluster cluster(config);
  auto sink = cluster.kernel(1).SpawnProcess("sink");
  ASSERT_TRUE(sink.ok());
  cluster.RunUntilIdle();
  testutil::TagProcess(cluster, *sink, 6);
  cluster.kernel(0).SetHalted(true);  // dead home: probes go unanswered

  Message msg;
  msg.sender = *sink;
  msg.receiver = ProcessAddress{1, ProcessId{0, 4242}};
  msg.type = kNote;
  cluster.kernel(1).Transmit(std::move(msg));
  cluster.RunFor(500);  // parked, first probe out, retry armed

  cluster.kernel(1).SetHalted(true);
  cluster.RunFor(10'000);  // the armed retry fires into the halted kernel
  cluster.kernel(1).SetHalted(false);
  cluster.RunUntilIdle();

  // The revived kernel reprobed, exhausted the budget, and bounced -- the
  // sender hears about the failure instead of waiting forever.
  auto captured = testutil::CapturedFor(6);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].type, MsgType::kNotDeliverable);
}

// ---- Churn chaos scenarios. ----

TEST(ChurnScenarioTest, DeterministicAndLayersStormAndCycles) {
  const ChaosScenario a = ChurnScenarioFromSeed(9);
  const ChaosScenario b = ChurnScenarioFromSeed(9);
  EXPECT_EQ(a.Describe(), b.Describe());

  const ChaosScenario base = ScenarioFromSeed(9);
  EXPECT_GE(a.migrations.size(), base.migrations.size() + 24);  // the storm
  EXPECT_FALSE(a.crashes.empty());                              // the cycles
  EXPECT_TRUE(a.deaths.empty());
  EXPECT_TRUE(a.reliable);

  // Permadeath composition: one machine's cycles become a funeral.
  const ChaosScenario pd = ChurnScenarioFromSeed(9, true);
  ASSERT_EQ(pd.deaths.size(), 1u);
  EXPECT_GT(pd.max_retries, 0u);
  EXPECT_GT(pd.migration_deadline_us, 0);
  for (const auto& c : pd.crashes) {
    EXPECT_NE(c.machine, pd.deaths[0].machine) << "revival scheduled on the corpse";
  }
}

TEST(ChurnScenarioTest, HalveCrashesFeatureShrinksSchedule) {
  ChaosScenario s = ChurnScenarioFromSeed(3);
  ASSERT_GT(s.crashes.size(), 1u);
  const std::size_t before = s.crashes.size();
  EXPECT_TRUE(DisableFeature(&s, ChaosFeature::kHalveCrashes));
  EXPECT_EQ(s.crashes.size(), before / 2);
}

TEST(ChurnScenarioTest, ChurnSeedsPass) {
  ChaosOptions quiet;
  quiet.collect_flight = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ChaosResult result = RunScenario(ChurnScenarioFromSeed(seed), quiet);
    EXPECT_TRUE(result.ok()) << "churn seed " << seed << ": "
                             << (result.violations.empty()
                                     ? std::string("no detail")
                                     : result.violations.front().ToString());
    EXPECT_TRUE(result.quiescent) << "churn seed " << seed;
  }
}

TEST(ChurnScenarioTest, ChurnPermadeathSeedsPass) {
  ChaosOptions quiet;
  quiet.collect_flight = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ChaosResult result = RunScenario(ChurnScenarioFromSeed(seed, true), quiet);
    EXPECT_TRUE(result.ok()) << "churn+permadeath seed " << seed << ": "
                             << (result.violations.empty()
                                     ? std::string("no detail")
                                     : result.violations.front().ToString());
    EXPECT_TRUE(result.quiescent) << "churn+permadeath seed " << seed;
  }
}

}  // namespace
}  // namespace demos
