// Tests for the cluster invariant checker and the seed-driven chaos harness
// (src/check/).  The headline property: a deliberately broken forwarding
// implementation -- one flipped header field per hop -- is caught by the
// checker with a seed that replays the failure exactly, and the same seed
// runs clean once the fault is removed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

// A forwarding implementation with a one-bit bug: every forwarded message has
// its next-hop header field pointed at the wrong machine.  `machines` bounds
// the flip so the address stays routable (the bug mis-routes, it does not
// corrupt framing).
ChaosOptions BrokenForwarding(int machines) {
  ChaosOptions options;
  options.forward_fault = [machines](Message& msg) {
    msg.receiver.last_known_machine =
        static_cast<MachineId>((msg.receiver.last_known_machine + 1) % machines);
  };
  return options;
}

// Seeds whose scenarios exercise forwarding: forwarding mode on and at least
// a handful of migrations, so forwarding hops actually happen.
bool ExercisesForwarding(const ChaosScenario& s) {
  return s.forwarding_mode && s.migrations.size() >= 4;
}

TEST(ChaosScenarioTest, SameSeedDerivesSamePlan) {
  const ChaosScenario a = ScenarioFromSeed(42);
  const ChaosScenario b = ScenarioFromSeed(42);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_EQ(a.machines, b.machines);
  EXPECT_EQ(a.migrations.size(), b.migrations.size());
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
}

TEST(ChaosScenarioTest, PathFifoReproSeedsDeriveTheirRecordedScenarios) {
  // The seeds that reproduced the return-to-sender path-FIFO failure (see
  // ChaosHarnessTest.ReturnToSenderPathFifoSeedsPass).  Their plans must stay
  // put, draw for draw, or the regression test stops covering them.
  struct Recorded {
    std::uint64_t seed;
    bool churn;
    bool permadeath;
    const char* describe;
  };
  const Recorded recorded[] = {
      {18468, false, false,
       "seed=18468 machines=4 window=121533us\n"
       "  net: prop=52us bw=14B/us jitter=190us drop=0.113734 dup=0.0508074 reliable=1 "
       "rto=3462us\n"
       "  kernel: mode=return-to-sender packet=512B window=6\n"
       "  workload: pingers=2(ticks=9,period=4504us) servers=3 sinks=1 cpu=1 rpc=2\n"
       "  chaos: migrations=27 crashes=1 deaths=0 notes=1"},
      {1160, true, false,
       "seed=1160 machines=5 window=206574us\n"
       "  net: prop=63us bw=13B/us jitter=0us drop=0.0373296 dup=0 reliable=1 rto=2599us\n"
       "  kernel: mode=return-to-sender packet=4096B window=9\n"
       "  workload: pingers=3(ticks=10,period=3619us) servers=1 sinks=0 cpu=2 rpc=2\n"
       "  chaos: migrations=48 crashes=13 deaths=0 notes=10"},
      {748, true, true,
       "seed=748 machines=5 window=200000us\n"
       "  net: prop=117us bw=44B/us jitter=0us drop=0.08 dup=0 reliable=1 rto=2746us\n"
       "  kernel: mode=return-to-sender packet=2048B window=14\n"
       "  workload: pingers=3(ticks=7,period=4855us) servers=1 sinks=2 cpu=1 rpc=0\n"
       "  chaos: migrations=43 crashes=4 deaths=1 notes=0 retries=19 deadline=68387us"},
  };
  for (const Recorded& r : recorded) {
    const ChaosScenario s =
        r.churn ? ChurnScenarioFromSeed(r.seed, r.permadeath) : ScenarioFromSeed(r.seed);
    EXPECT_EQ(s.Describe(), r.describe);
  }
}

TEST(ChaosScenarioTest, DisableFeatureReportsInactivity) {
  ChaosScenario s = ScenarioFromSeed(1);
  s.crashes.clear();
  EXPECT_FALSE(DisableFeature(&s, ChaosFeature::kCrashes));
  s.crashes.push_back({1000, 5000, 0});
  EXPECT_TRUE(DisableFeature(&s, ChaosFeature::kCrashes));
  EXPECT_TRUE(s.crashes.empty());
}

TEST(ChaosHarnessTest, CleanSeedsPass) {
  ChaosOptions quiet;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ChaosResult result = RunScenario(ScenarioFromSeed(seed), quiet);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": "
                             << (result.violations.empty()
                                     ? std::string("no detail")
                                     : result.violations.front().ToString());
    EXPECT_TRUE(result.quiescent) << "seed " << seed;
    EXPECT_GT(result.messages_tracked, 0u) << "seed " << seed;
  }
}

TEST(ChaosHarnessTest, SameSeedSameOutcome) {
  // Replayability is the whole point of `chaos_fuzz --seed=N`: the run is a
  // pure function of the seed.
  ChaosOptions quiet;
  const ChaosResult first = RunScenario(ScenarioFromSeed(7), quiet);
  const ChaosResult second = RunScenario(ScenarioFromSeed(7), quiet);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.messages_tracked, second.messages_tracked);
  EXPECT_EQ(first.probe_rounds, second.probe_rounds);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

TEST(ChaosHarnessTest, BrokenForwardingCaughtWithReplayableSeed) {
  // Plant the bug, sweep seeds until one catches it, then replay: the same
  // seed must fail again under the fault and pass clean without it.
  std::uint64_t caught_seed = 0;
  for (std::uint64_t seed = 1; seed <= 64 && caught_seed == 0; ++seed) {
    const ChaosScenario scenario = ScenarioFromSeed(seed);
    if (!ExercisesForwarding(scenario)) {
      continue;
    }
    if (!RunScenario(scenario, BrokenForwarding(scenario.machines)).ok()) {
      caught_seed = seed;
    }
  }
  ASSERT_NE(caught_seed, 0u) << "no seed in 1..64 caught the planted forwarding bug";

  const ChaosScenario scenario = ScenarioFromSeed(caught_seed);
  const ChaosResult broken = RunScenario(scenario, BrokenForwarding(scenario.machines));
  EXPECT_FALSE(broken.ok()) << "seed " << caught_seed << " did not replay the failure";

  ChaosOptions quiet;
  const ChaosResult clean = RunScenario(scenario, quiet);
  EXPECT_TRUE(clean.ok()) << "seed " << caught_seed
                          << " fails even without the fault: " << clean.violations.size()
                          << " violations";
}

TEST(ChaosHarnessTest, MinimizerShrinksFailingScenario) {
  // Find a failing (seed, fault) pair with several active feature axes, then
  // check the minimizer only returns scenarios that still fail.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ChaosScenario scenario = ScenarioFromSeed(seed);
    if (!ExercisesForwarding(scenario) || scenario.migrations.size() < 8) {
      continue;
    }
    const ChaosOptions options = BrokenForwarding(scenario.machines);
    if (RunScenario(scenario, options).ok()) {
      continue;
    }
    const MinimizeResult min = MinimizeScenario(scenario, options);
    EXPECT_GT(min.runs, 0);
    EXPECT_FALSE(RunScenario(min.scenario, options).ok())
        << "minimized scenario no longer fails (seed " << seed << ")";
    EXPECT_LE(min.scenario.migrations.size(), scenario.migrations.size());
    return;
  }
  FAIL() << "no reducible failing scenario found in seeds 1..64";
}

TEST(ChaosHarnessTest, MinimizedDisableArgReplaysTheMinimizedScenario) {
  // The printed "repro (minimized)" line must rebuild exactly the scenario
  // the minimizer settled on, halvings included: apply its --disable= list
  // to a fresh ScenarioFromSeed and compare.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ChaosScenario scenario = ScenarioFromSeed(seed);
    if (!ExercisesForwarding(scenario) || scenario.migrations.size() < 8) {
      continue;
    }
    const ChaosOptions options = BrokenForwarding(scenario.machines);
    if (RunScenario(scenario, options).ok()) {
      continue;
    }
    const MinimizeResult min = MinimizeScenario(scenario, options);
    if (min.halvings == 0) {
      continue;
    }
    const std::string arg = MinimizedDisableArg(min);
    ChaosScenario replay = ScenarioFromSeed(seed);
    std::size_t pos = 0;
    int halvings_listed = 0;
    while (pos <= arg.size()) {
      const std::size_t comma = std::min(arg.find(',', pos), arg.size());
      const ChaosFeature f = ChaosFeatureFromName(arg.substr(pos, comma - pos));
      ASSERT_NE(f, ChaosFeature::kNone) << arg;
      halvings_listed += f == ChaosFeature::kHalveMigrations ? 1 : 0;
      (void)DisableFeature(&replay, f);
      pos = comma + 1;
    }
    EXPECT_EQ(halvings_listed, min.halvings) << arg;
    EXPECT_EQ(replay.Describe(), min.scenario.Describe()) << "seed " << seed << ": " << arg;
    return;
  }
  FAIL() << "no failing seed in 1..64 minimized with a migration halving";
}

TEST(ClusterCheckerTest, CleanMigrationPassesAllInvariants) {
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 3;
  config.trace_enabled = true;
  Cluster cluster(config);
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  checker.ExpectLive(counter->pid);
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 2);
  // Stale-address traffic exercises the forwarding path under the checker.
  cluster.kernel(1).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  cluster.SetObserver(nullptr);

  const std::vector<Violation> violations = checker.CheckAtQuiescence();
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? std::string() : violations.front().ToString());
  EXPECT_GE(checker.tracked_messages(), 4u);
  EXPECT_EQ(checker.consumed_messages(), checker.tracked_messages());
}

TEST(ChaosScenarioTest, PermanentDeathScenarioIsDeterministicAndArmed) {
  const ChaosScenario a = PermanentDeathScenarioFromSeed(42);
  const ChaosScenario b = PermanentDeathScenarioFromSeed(42);
  EXPECT_EQ(a.Describe(), b.Describe());
  ASSERT_EQ(a.deaths.size(), 1u);
  EXPECT_EQ(a.deaths[0].at, b.deaths[0].at);
  EXPECT_EQ(a.deaths[0].machine, b.deaths[0].machine);
  // The variant must arm the failure machinery the deaths exercise: finite
  // retransmission, per-phase deadlines, and no revival crash windows.
  EXPECT_TRUE(a.crashes.empty());
  EXPECT_TRUE(a.reliable);
  EXPECT_GT(a.max_retries, 0u);
  EXPECT_GT(a.migration_deadline_us, 0);
  EXPECT_GE(a.machines, 3);
}

TEST(ChaosHarnessTest, PermanentDeathSeedsPass) {
  ChaosOptions quiet;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ChaosResult result = RunScenario(PermanentDeathScenarioFromSeed(seed), quiet);
    EXPECT_TRUE(result.ok()) << "permadeath seed " << seed << ": "
                             << (result.violations.empty()
                                     ? std::string("no detail")
                                     : result.violations.front().ToString());
    EXPECT_TRUE(result.quiescent) << "permadeath seed " << seed;
  }
}

TEST(ChaosHarnessTest, ReturnToSenderPathFifoSeedsPass) {
  // In each of these return-to-sender runs, m0 is held in a migrating
  // receiver's pending queue and re-sent from the stale host straight to the
  // new one, while the later m1 bounces off the stale host and is re-sent by
  // the sender's kernel.  The two took different routes, so consuming m1
  // first is no I2 violation -- the checker must count the sender-side
  // re-send as a hop of m1's path.
  struct Repro {
    std::uint64_t seed;
    bool churn;
    bool permadeath;
  };
  const Repro repros[] = {{18468, false, false}, {1160, true, false}, {748, true, true},
                          {1160, true, true}};
  ChaosOptions quiet;
  for (const Repro& r : repros) {
    const ChaosScenario s =
        r.churn ? ChurnScenarioFromSeed(r.seed, r.permadeath) : ScenarioFromSeed(r.seed);
    ASSERT_FALSE(s.forwarding_mode) << "seed " << r.seed << " no longer runs return-to-sender";
    const ChaosResult result = RunScenario(s, quiet);
    EXPECT_TRUE(result.ok()) << "seed " << r.seed << " churn=" << r.churn
                             << " permadeath=" << r.permadeath << ": "
                             << (result.violations.empty()
                                     ? std::string("no detail")
                                     : result.violations.front().ToString());
    EXPECT_TRUE(result.quiescent) << "seed " << r.seed;
  }
}

TEST(ClusterCheckerTest, FrozenMigrationFlaggedAsLivenessViolation) {
  // I8: migrate toward a silently dead destination with the watchdogs
  // DISABLED (deadlines 0).  The source freezes the process, the offer goes
  // into the void, and nothing ever resolves it -- exactly the stuck state
  // the liveness audit exists to catch.
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 2;
  config.trace_enabled = true;
  Cluster cluster(config);
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  checker.ExpectLive(counter->pid);

  cluster.kernel(1).SetHalted(true);  // dies without the checker being told
  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunUntilIdle();
  cluster.SetObserver(nullptr);

  EXPECT_TRUE(HasInvariant(checker.CheckAtQuiescence(), "liveness"));
}

TEST(ClusterCheckerTest, DualOwnerFlagged) {
  // Force the bug I4 exists to catch: the same process live on two kernels at
  // once (a botched recovery that restores without reclaiming the original).
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 2;
  config.trace_enabled = true;
  Cluster cluster(config);

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  auto checkpoint = cluster.kernel(0).CheckpointProcess(counter->pid);
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(cluster.kernel(1).AdoptProcess(*checkpoint).ok());
  cluster.RunUntilIdle();

  ClusterChecker checker(&cluster);
  checker.ExpectLive(counter->pid);
  EXPECT_TRUE(HasInvariant(checker.CheckAtQuiescence(), "single-owner"));
}

TEST(ClusterCheckerTest, SuspectPidBringsTheMessagesAddressedToIt) {
  // Trimmed chaos traces keep a message record by its trace id alone, so a
  // process the audit flags must bring the ids of its messages along.
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 2;
  config.trace_enabled = true;
  Cluster cluster(config);
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();
  auto checkpoint = cluster.kernel(0).CheckpointProcess(counter->pid);
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(cluster.kernel(1).AdoptProcess(*checkpoint).ok());
  cluster.RunUntilIdle();
  cluster.SetObserver(nullptr);

  checker.ExpectLive(counter->pid);
  ASSERT_TRUE(HasInvariant(checker.CheckAtQuiescence(), "single-owner"));
  EXPECT_EQ(checker.suspect_pids(), std::vector<ProcessId>{counter->pid});
  EXPECT_GE(checker.tracked_messages(), 3u);
  EXPECT_EQ(checker.suspect_trace_ids().size(), checker.tracked_messages());
}

TEST(ClusterCheckerTest, LostProcessFlagged) {
  ClusterConfig config;
  config.machines = 2;
  Cluster cluster(config);
  ClusterChecker checker(&cluster);
  checker.ExpectLive(ProcessId{0, 4242});  // never spawned
  EXPECT_TRUE(HasInvariant(checker.CheckAtQuiescence(), "single-owner"));
}

}  // namespace
}  // namespace demos
