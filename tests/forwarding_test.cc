// Forwarding-address and link-update tests (Sec. 4-5), including the
// return-to-sender baseline and the forwarding-address GC extension.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace demos {
namespace {

class ForwardingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::RegisterPrograms();
    GlobalCapture().clear();
  }

  // Spawn a relay on `rm` holding (in table slot 0) a link to `target`, and
  // a counter on m0 the relay can be pointed at.
  struct RelaySetup {
    ProcessAddress relay;
    ProcessAddress counter;
  };

  RelaySetup MakeRelayAndCounter(Cluster& cluster, MachineId relay_machine,
                                 MachineId counter_machine) {
    auto relay = cluster.kernel(relay_machine).SpawnProcess("relay");
    auto counter = cluster.kernel(counter_machine).SpawnProcess("counter");
    EXPECT_TRUE(relay.ok() && counter.ok());
    cluster.RunUntilIdle();
    Link to_counter;
    to_counter.address = *counter;
    cluster.kernel(relay_machine).FindProcess(relay->pid)->links.Insert(to_counter);
    return {*relay, *counter};
  }

  void TellRelayToSend(Cluster& cluster, const ProcessAddress& relay) {
    ByteWriter w;
    w.U32(0);  // link table slot
    w.U16(static_cast<std::uint16_t>(kIncrement));
    w.Blob({});
    cluster.kernel(relay.last_known_machine)
        .SendFromKernel(relay, kSendViaTable, w.Take());
  }

  std::uint64_t CounterValue(Cluster& cluster, const ProcessId& pid) {
    ProcessRecord* record = cluster.FindProcessAnywhere(pid);
    EXPECT_NE(record, nullptr);
    ByteReader r(record->memory.ReadData(0, 8));
    return r.U64();
  }
};

TEST_F(ForwardingTest, StaleLinkStillDelivers) {
  Cluster cluster(ClusterConfig{.machines = 3});
  RelaySetup setup = MakeRelayAndCounter(cluster, 2, 0);
  testutil::MigrateAndSettle(cluster, setup.counter.pid, 0, 1);

  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, setup.counter.pid), 1u);
  EXPECT_EQ(cluster.kernel(0).stats().Get(stat::kMsgsForwarded), 1);
}

TEST_F(ForwardingTest, EachForwardGeneratesTwoExtraMessages) {
  // Sec. 6: "Each message that goes through a forwarding address generates
  // two additional messages": the re-sent message and the link update.
  Cluster cluster(ClusterConfig{.machines = 3});
  RelaySetup setup = MakeRelayAndCounter(cluster, 2, 0);
  testutil::MigrateAndSettle(cluster, setup.counter.pid, 0, 1);

  const std::int64_t sent_before = cluster.TotalStat(stat::kMsgsSent);
  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  const std::int64_t extra = cluster.TotalStat(stat::kMsgsSent) - sent_before;
  // 1 instruction to the relay + 1 send over the stale link + 1 forward +
  // 1 link update = 4; the paper's "two additional messages" are the forward
  // and the link update.  Reclamation adds a fifth: the sender's kernel acks
  // the link update so the forwarder can retire it from the record's
  // unresolved-peer set.
  EXPECT_EQ(extra, 5);
  EXPECT_EQ(cluster.TotalStat(stat::kLinkUpdateAcks), 1);
  EXPECT_EQ(cluster.TotalStat(stat::kLinkUpdateMsgs), 1);
}

TEST_F(ForwardingTest, LinkIsUpdatedAfterFirstForward) {
  // Sec. 6: "Typically, the link is updated after the first message."
  Cluster cluster(ClusterConfig{.machines = 3});
  RelaySetup setup = MakeRelayAndCounter(cluster, 2, 0);
  testutil::MigrateAndSettle(cluster, setup.counter.pid, 0, 1);

  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();

  const Link* held = cluster.kernel(2).FindProcess(setup.relay.pid)->links.Get(0);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->address.last_known_machine, 1);  // patched by kLinkUpdate
  EXPECT_EQ(held->address.pid, setup.counter.pid);

  // Second message goes direct: no further forwarding.
  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.kernel(0).stats().Get(stat::kMsgsForwarded), 1);
  EXPECT_EQ(CounterValue(cluster, setup.counter.pid), 2u);
}

TEST_F(ForwardingTest, AllMatchingLinksArePatchedAtOnce) {
  // "All links in the sending process's link table that point to the migrated
  // process are then updated" (Sec. 5) -- including duplicates.
  Cluster cluster(ClusterConfig{.machines = 3});
  RelaySetup setup = MakeRelayAndCounter(cluster, 2, 0);
  // Two more duplicate links to the same counter.
  Link dup;
  dup.address = setup.counter;
  ProcessRecord* relay_rec = cluster.kernel(2).FindProcess(setup.relay.pid);
  relay_rec->links.Insert(dup);
  relay_rec->links.Insert(dup);
  testutil::MigrateAndSettle(cluster, setup.counter.pid, 0, 1);

  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.TotalStat(stat::kLinksPatched), 3);
  for (LinkId id = 0; id < 3; ++id) {
    EXPECT_EQ(relay_rec->links.Get(id)->address.last_known_machine, 1);
  }
}

TEST_F(ForwardingTest, WithoutLinkUpdateEveryMessageForwards) {
  // Ablation: the E5/E6 "no update" arm.
  ClusterConfig config;
  config.machines = 3;
  config.kernel.link_update_enabled = false;
  Cluster cluster(config);
  RelaySetup setup = MakeRelayAndCounter(cluster, 2, 0);
  testutil::MigrateAndSettle(cluster, setup.counter.pid, 0, 1);

  for (int i = 0; i < 5; ++i) {
    TellRelayToSend(cluster, setup.relay);
    cluster.RunUntilIdle();
  }
  EXPECT_EQ(CounterValue(cluster, setup.counter.pid), 5u);
  EXPECT_EQ(cluster.kernel(0).stats().Get(stat::kMsgsForwarded), 5);
  EXPECT_EQ(cluster.TotalStat(stat::kLinkUpdateMsgs), 0);
}

TEST_F(ForwardingTest, ChainedForwardingConvergesToDirect) {
  Cluster cluster(ClusterConfig{.machines = 4});
  RelaySetup setup = MakeRelayAndCounter(cluster, 3, 0);
  testutil::MigrateAndSettle(cluster, setup.counter.pid, 0, 1);
  testutil::MigrateAndSettle(cluster, setup.counter.pid, 1, 2);

  // First send: hits m0's forwarding address, then m1's, reaching m2.
  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, setup.counter.pid), 1u);
  const std::int64_t forwards_first = cluster.TotalStat(stat::kMsgsForwarded);
  EXPECT_EQ(forwards_first, 2);

  // The relay's link was patched (one or two update steps, depending on
  // arrival order); after at most one more send everything goes direct.
  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, setup.counter.pid), 3u);
  const Link* held = cluster.kernel(3).FindProcess(setup.relay.pid)->links.Get(0);
  EXPECT_EQ(held->address.last_known_machine, 2);
  // At most one of the two later sends needed another forward; the last one
  // was direct.
  EXPECT_LE(cluster.TotalStat(stat::kMsgsForwarded), forwards_first + 1);
}

TEST_F(ForwardingTest, ForwardingAddressIsEightBytesOfState) {
  // Sec. 4: "In the current implementation, it uses 8 bytes of storage."
  // The degenerate record stores one machine id; its wire representation (a
  // process address) is 8 bytes.  We check the table entry is degenerate.
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, addr->pid, 0, 1);
  const auto* entry = cluster.kernel(0).process_table().FindEntry(addr->pid);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->IsForwarding());
  EXPECT_EQ(entry->process, nullptr);  // no process state retained
  EXPECT_EQ(cluster.kernel(0).process_table().ForwardingAddressCount(), 1u);
  EXPECT_EQ(cluster.kernel(0).stats().Get(stat::kForwardingAddresses), 1);
}

TEST_F(ForwardingTest, DeliverToKernelControlFollowsForwarding) {
  // Sec. 2.2: DELIVERTOKERNEL lets the system address control functions "to a
  // process without worrying about which processor the process is on".
  Cluster cluster(ClusterConfig{.machines = 3});
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);

  // Suspend via the OLD address.
  cluster.kernel(2).SendFromKernel(ProcessAddress{0, counter->pid}, MsgType::kSuspendProcess,
                                   {}, {}, kLinkDeliverToKernel);
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.kernel(1).FindProcess(counter->pid)->state, ExecState::kSuspended);
}

TEST_F(ForwardingTest, MigrateRequestFollowsForwarding) {
  // Asking the old home to migrate a process that already left: the request
  // chases the process and migrates it from its current machine.
  Cluster cluster(ClusterConfig{.machines = 3});
  auto addr = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, addr->pid, 0, 1);

  ASSERT_TRUE(
      cluster.kernel(0).StartMigration(addr->pid, 2, cluster.kernel(0).kernel_address()).ok());
  cluster.RunUntilIdle();
  EXPECT_NE(cluster.kernel(2).FindProcess(addr->pid), nullptr);
  // And m1 now forwards to m2.
  const auto* entry = cluster.kernel(1).process_table().FindEntry(addr->pid);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->IsForwarding());
  EXPECT_EQ(entry->forward_to, 2);
}

TEST_F(ForwardingTest, KeepForeverRetainsForwardingAddresses) {
  // The paper's actual implementation never removed them.  Run well past the
  // reclaimer's default 30 s watermark with enough routed traffic for the
  // amortized sweeper to run; with reclamation on the same run drops the
  // record, so the sweeper did get its chance.
  for (const bool reclaim : {false, true}) {
    ClusterConfig config;
    config.machines = 2;
    config.kernel.forwarding_reclaim_enabled = reclaim;
    Cluster cluster(config);
    auto addr = cluster.kernel(0).SpawnProcess("idle");
    auto local = cluster.kernel(0).SpawnProcess("counter");
    ASSERT_TRUE(addr.ok() && local.ok());
    cluster.RunUntilIdle();
    testutil::MigrateAndSettle(cluster, addr->pid, 0, 1);
    cluster.kernel(1).SendFromKernel(ProcessAddress{1, addr->pid}, MsgType::kKillProcess, {}, {},
                                     kLinkDeliverToKernel);
    cluster.RunUntilIdle();
    cluster.RunFor(31'000'000);
    for (int i = 0; i < 70; ++i) {
      cluster.kernel(1).SendFromKernel(*local, kIncrement, {});
    }
    cluster.RunUntilIdle();
    EXPECT_GT(cluster.kernel(0).last_forwarding_sweep(), 31'000'000) << "reclaim=" << reclaim;
    EXPECT_EQ(cluster.kernel(0).process_table().ForwardingAddressCount(), reclaim ? 0u : 1u)
        << "reclaim=" << reclaim;
  }
}

// ---------------------------------------------------------------------------
// Return-to-sender baseline (the alternative Sec. 4 argues against).
// ---------------------------------------------------------------------------

class ReturnToSenderTest : public ForwardingTest {};

TEST_F(ReturnToSenderTest, MessagesStillArriveViaLocate) {
  ClusterConfig config;
  config.machines = 3;
  config.kernel.delivery_mode = KernelConfig::DeliveryMode::kReturnToSender;
  Cluster cluster(config);
  RelaySetup setup = MakeRelayAndCounter(cluster, 2, 0);
  testutil::MigrateAndSettle(cluster, setup.counter.pid, 0, 1);

  // No forwarding address was left behind.
  EXPECT_EQ(cluster.kernel(0).process_table().FindEntry(setup.counter.pid), nullptr);

  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, setup.counter.pid), 1u);
  EXPECT_GE(cluster.TotalStat(stat::kMsgsBounced), 1);
  EXPECT_EQ(cluster.TotalStat(stat::kMsgsForwarded), 0);
}

TEST_F(ReturnToSenderTest, CostsMoreMessagesThanForwarding) {
  // Sec. 4: "more of the system would be involved in message forwarding."
  auto run = [this](KernelConfig::DeliveryMode mode) {
    ClusterConfig config;
    config.machines = 3;
    config.kernel.delivery_mode = mode;
    Cluster cluster(config);
    RelaySetup setup = MakeRelayAndCounter(cluster, 2, 0);
    testutil::MigrateAndSettle(cluster, setup.counter.pid, 0, 1);
    const std::int64_t before = cluster.TotalStat(stat::kMsgsSent);
    TellRelayToSend(cluster, setup.relay);
    cluster.RunUntilIdle();
    EXPECT_EQ(CounterValue(cluster, setup.counter.pid), 1u);
    return cluster.TotalStat(stat::kMsgsSent) - before;
  };

  const std::int64_t forwarding_cost = run(KernelConfig::DeliveryMode::kForwarding);
  const std::int64_t bounce_cost = run(KernelConfig::DeliveryMode::kReturnToSender);
  EXPECT_GT(bounce_cost, forwarding_cost);
}

TEST_F(ReturnToSenderTest, SecondSendGoesDirectAfterLinkPatch) {
  ClusterConfig config;
  config.machines = 3;
  config.kernel.delivery_mode = KernelConfig::DeliveryMode::kReturnToSender;
  Cluster cluster(config);
  RelaySetup setup = MakeRelayAndCounter(cluster, 2, 0);
  testutil::MigrateAndSettle(cluster, setup.counter.pid, 0, 1);

  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  const std::int64_t bounced_after_first = cluster.TotalStat(stat::kMsgsBounced);
  TellRelayToSend(cluster, setup.relay);
  cluster.RunUntilIdle();
  EXPECT_EQ(CounterValue(cluster, setup.counter.pid), 2u);
  EXPECT_EQ(cluster.TotalStat(stat::kMsgsBounced), bounced_after_first);  // no new bounce
}

}  // namespace
}  // namespace demos
