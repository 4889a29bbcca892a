// Forwarding-address garbage collection (Sec. 4 future work) by the epoch
// reclaimer, seen from the routing layer: a fresh record still forwards; once
// a record is reclaimed, stale-address traffic reaches the process through the
// creating machine's location registry or, off the home machine, a locate
// round trip; repeated traffic keeps delivering.  The reclaimer's own
// bookkeeping (grace, watermark, tombstones, late traffic to a dead process)
// is pinned in churn_test.cc.

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"

namespace demos {
namespace {

class GcTest : public ::testing::Test {
 protected:
  static constexpr SimDuration kGraceUs = 10'000;
  static constexpr SimDuration kWatermarkUs = 40'000;

  void SetUp() override {
    testutil::RegisterPrograms();
    GlobalCapture().clear();
  }

  // Small reclaim windows so records go within tens of milliseconds of
  // virtual time.  One pulse counter per machine gives SweepOn a local target.
  Cluster MakeReclaimCluster(int machines, bool gossip = true) {
    ClusterConfig config;
    config.machines = machines;
    config.kernel.reclaim_grace_us = kGraceUs;
    config.kernel.reclaim_watermark_us = kWatermarkUs;
    config.kernel.gossip_enabled = gossip;
    Cluster cluster(config);
    pulses_.clear();
    for (MachineId m = 0; m < machines; ++m) {
      auto pulse = cluster.kernel(m).SpawnProcess("counter");
      EXPECT_TRUE(pulse.ok());
      pulses_.push_back(*pulse);
    }
    cluster.RunUntilIdle();
    return cluster;
  }

  // The sweeper is amortized over routed traffic (one sweep per 64 messages a
  // kernel routes): push enough through machine m to run it at least once.
  void SweepOn(Cluster& cluster, MachineId m) {
    const auto from = static_cast<MachineId>((m + 1) % cluster.size());
    for (int i = 0; i < 70; ++i) {
      cluster.kernel(from).SendFromKernel(pulses_[m], kIncrement, {});
    }
    cluster.RunUntilIdle();
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

  std::vector<ProcessAddress> pulses_;
};

TEST_F(GcTest, FreshForwardingAddressStillForwards) {
  Cluster cluster = MakeReclaimCluster(3);
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  SweepOn(cluster, 0);  // a sweep inside the grace window keeps the record

  cluster.kernel(2).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 1u);
  EXPECT_EQ(cluster.kernel(0).stats().Get(stat::kMsgsForwarded), 1);
  EXPECT_EQ(cluster.TotalStat(stat::kFwdReclaimed), 0);
  EXPECT_EQ(cluster.TotalStat(stat::kGcRerouted), 0);
}

TEST_F(GcTest, ExpiredChainOffHomeUsesLocateRoundTrip) {
  // Migrate m0 -> m1 -> m2 and let m1's record and its registry hint both
  // age out.  A message aimed at m1 (not the creating machine) must park and
  // locate against m0's registry.  Gossip is off so no rumor re-seeds m1.
  Cluster cluster = MakeReclaimCluster(4, /*gossip=*/false);
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  testutil::MigrateAndSettle(cluster, counter->pid, 1, 2);
  cluster.RunFor(kWatermarkUs + 10'000);
  SweepOn(cluster, 1);
  ASSERT_EQ(cluster.kernel(1).process_table().FindEntry(counter->pid), nullptr);
  ASSERT_EQ(cluster.kernel(1).LocationHint(counter->pid), kNoMachine);

  cluster.kernel(3).SendFromKernel(ProcessAddress{1, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 1u);
  EXPECT_EQ(cluster.kernel(1).stats().Get(stat::kGcRerouted), 0);  // not a registry hit
  EXPECT_EQ(cluster.kernel(1).LocationHint(counter->pid), 2);      // learned by the locate
  EXPECT_EQ(cluster.TotalStat(stat::kLocateGaveUp), 0);
}

TEST_F(GcTest, HomeRegistryTracksMigrationsInForwardingMode) {
  // The registry that backs the fallback follows every hop, so once both
  // records of a two-hop chain are reclaimed the home still reroutes to the
  // current host, not to the first destination.
  Cluster cluster = MakeReclaimCluster(3);
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 2);
  testutil::MigrateAndSettle(cluster, counter->pid, 2, 1);
  EXPECT_EQ(cluster.kernel(0).LocationHint(counter->pid), 1);
  cluster.RunFor(kGraceUs + 10'000);
  SweepOn(cluster, 0);
  SweepOn(cluster, 2);
  ASSERT_EQ(cluster.kernel(0).process_table().ForwardingAddressCount(), 0u);
  ASSERT_EQ(cluster.kernel(2).process_table().ForwardingAddressCount(), 0u);

  cluster.kernel(2).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 1u);
  EXPECT_EQ(cluster.kernel(0).stats().Get(stat::kGcRerouted), 1);
}

TEST_F(GcTest, RepeatedTrafficAfterExpiryPaysNoForwardingCost) {
  // A process holding a stale link keeps reaching the migrated counter after
  // the forwarding address has expired past the watermark: the registry
  // reroute link-updates the sender exactly as a forwarding record would, so
  // later sends go direct.
  Cluster cluster = MakeReclaimCluster(3);
  auto relay = cluster.kernel(2).SpawnProcess("relay");
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(relay.ok() && counter.ok());
  cluster.RunUntilIdle();
  Link to_counter;
  to_counter.address = *counter;
  cluster.kernel(2).FindProcess(relay->pid)->links.Insert(to_counter);
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  cluster.RunFor(kWatermarkUs + 10'000);
  SweepOn(cluster, 0);
  ASSERT_EQ(cluster.kernel(0).process_table().ForwardingAddressCount(), 0u);

  auto send = [&] {
    ByteWriter w;
    w.U32(0);
    w.U16(static_cast<std::uint16_t>(kIncrement));
    w.Blob({});
    cluster.kernel(2).SendFromKernel(*relay, kSendViaTable, w.Take());
    cluster.RunUntilIdle();
  };
  send();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 1u);
  EXPECT_EQ(cluster.TotalStat(stat::kGcRerouted), 1);
  send();
  send();
  EXPECT_EQ(CounterValue(cluster, counter->pid), 3u);
  EXPECT_EQ(cluster.TotalStat(stat::kGcRerouted), 1);  // the link now names m1
}

}  // namespace
}  // namespace demos
