// Fault-tolerance tests (Sec. 1, 4): evacuation of a dying machine, crash and
// warm reboot of a forwarding-address holder, and stable-storage recovery.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/base/stats.h"
#include "src/check/invariants.h"
#include "src/fault/crash.h"
#include "src/fault/recovery.h"
#include "src/obs/flight_recorder.h"
#include "tests/sys_test_util.h"

namespace demos {
namespace {

// Records of `type` machine `m` has made (the cluster must run traced).
int TraceCount(Cluster& cluster, MachineId m, FrEvent type) {
  int count = 0;
  for (const FlightRecord& r : cluster.flight_recorder()->recorder(m).SnapshotRecords()) {
    count += r.type == type ? 1 : 0;
  }
  return count;
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::RegisterPrograms();
    RegisterSystemPrograms();
    RegisterWorkloadPrograms();
    GlobalCapture().clear();
  }
};

TEST_F(FaultTest, CrashedMachineDropsTraffic) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto counter = cluster.kernel(1).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  CrashController crash(&cluster);
  crash.Crash(1);
  cluster.kernel(0).SendFromKernel(*counter, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader r(cluster.kernel(1).FindProcess(counter->pid)->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 0u);  // never delivered
}

TEST_F(FaultTest, ReviveResumesProcessing) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto counter = cluster.kernel(1).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  CrashController crash(&cluster);
  crash.Crash(1);
  cluster.RunFor(10'000);
  crash.Revive(1);
  cluster.kernel(0).SendFromKernel(*counter, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader r(cluster.kernel(1).FindProcess(counter->pid)->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 1u);
}

TEST_F(FaultTest, ReliableLayerDeliversAcrossCrashWindow) {
  // With the published-communications substitute underneath, a message sent
  // while the receiver is down is retransmitted until the reboot -- the
  // "any message sent will eventually be delivered" guarantee.
  ClusterConfig config;
  config.machines = 2;
  config.reliable_layer = true;
  config.reliable.retransmit_timeout_us = 5'000;
  Cluster cluster(config);
  auto counter = cluster.kernel(1).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  CrashController crash(&cluster);
  crash.Crash(1);
  cluster.kernel(0).SendFromKernel(*counter, kIncrement, {});
  cluster.RunFor(20'000);  // retransmissions bouncing off the dead machine
  crash.Revive(1);
  cluster.RunFor(100'000);

  ByteReader r(cluster.kernel(1).FindProcess(counter->pid)->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 1u);
}

TEST_F(FaultTest, ForwardingAddressSurvivesCrashAndReboot) {
  // Sec. 4: "Since forwarding addresses are (degenerate) processes, the same
  // recovery mechanism that works for processes works for forwarding
  // addresses."
  ClusterConfig config;
  config.machines = 3;
  config.reliable_layer = true;
  config.reliable.retransmit_timeout_us = 5'000;
  Cluster cluster(config);
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);

  CrashController crash(&cluster);
  crash.Crash(0);  // the forwarding-address holder dies
  // A message addressed to the old location keeps being retransmitted.
  cluster.kernel(2).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunFor(30'000);
  crash.Revive(0);  // warm reboot: the 8-byte forwarding address is intact
  cluster.RunFor(200'000);

  ByteReader r(cluster.kernel(1).FindProcess(counter->pid)->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 1u);
}

TEST_F(FaultTest, RatsLeaveSinkingShip) {
  // Degrade a machine, evacuate it through the process manager, then let it
  // die; all evacuated processes keep running elsewhere.
  Cluster cluster(ClusterConfig{.machines = 3});
  SystemLayout layout = BootSystem(cluster);
  auto sink = cluster.kernel(0).SpawnProcess("sink");
  ASSERT_TRUE(sink.ok());
  cluster.RunFor(1000);
  testutil::TagProcess(cluster, *sink, 1);

  // Three workers on the doomed machine 2, created through the PM so it
  // knows about them.
  std::vector<ProcessId> workers;
  for (int i = 0; i < 3; ++i) {
    ByteWriter w;
    w.U64(static_cast<std::uint64_t>(i));
    w.Str("counter");
    w.U16(2);
    w.U32(1024);
    w.U32(512);
    w.U32(256);
    cluster.kernel(0).SendFromKernel(layout.process_manager, kPmCreate, w.Take(),
                                     {Link{*sink, kLinkReply, 0, 0}});
  }
  ASSERT_TRUE(
      testutil::RunUntil(cluster, [&] { return testutil::CapturedFor(1).size() >= 3; }));
  for (const auto& captured : testutil::CapturedFor(1)) {
    ByteReader r(captured.payload);
    (void)r.U64();
    (void)r.U8();
    workers.push_back(r.Address().pid);
  }

  CrashController crash(&cluster);
  crash.DegradeThenCrash(2, /*grace_us=*/400'000);
  ByteWriter w;
  w.U16(2);
  cluster.kernel(0).SendFromKernel(layout.process_manager, kPmEvacuate, w.Take());

  ASSERT_TRUE(testutil::RunUntil(
      cluster,
      [&] {
        for (const ProcessId& pid : workers) {
          const MachineId at = cluster.HostOf(pid);
          if (at == 2 || at == kNoMachine) {
            return false;
          }
        }
        return true;
      },
      350'000));

  cluster.RunFor(600'000);  // well past the grace period: machine 2 is dead
  EXPECT_TRUE(crash.IsCrashed(2));
  // Everyone still responds to work.
  for (const ProcessId& pid : workers) {
    const MachineId at = cluster.HostOf(pid);
    ASSERT_NE(at, 2);
    cluster.kernel(0).SendFromKernel(ProcessAddress{at, pid}, kIncrement, {});
  }
  cluster.RunFor(50'000);
  for (const ProcessId& pid : workers) {
    ProcessRecord* record = cluster.FindProcessAnywhere(pid);
    ASSERT_NE(record, nullptr);
    ByteReader r(record->memory.ReadData(0, 8));
    EXPECT_EQ(r.U64(), 1u);
  }
}

TEST_F(FaultTest, CheckpointRecoversProcessFromCrashedMachine) {
  // Sec. 1: migrate a process "from a processor that has crashed to a
  // working one" using state saved in stable storage.
  Cluster cluster(ClusterConfig{.machines = 3});
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  for (int i = 0; i < 4; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();

  StableStore store;
  ASSERT_TRUE(store.Checkpoint(cluster, counter->pid).ok());

  CrashController crash(&cluster);
  crash.Crash(0);
  ASSERT_TRUE(store.RecoverProcess(cluster, counter->pid, /*destination=*/2).ok());
  cluster.RunUntilIdle();

  ProcessRecord* recovered = cluster.kernel(2).FindProcess(counter->pid);
  ASSERT_NE(recovered, nullptr);
  ByteReader r(recovered->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 4u);  // counted work survived the crash

  // And it continues to accept messages at the new location.
  cluster.kernel(1).SendFromKernel(ProcessAddress{2, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader r2(recovered->memory.ReadData(0, 8));
  EXPECT_EQ(r2.U64(), 5u);
}

TEST_F(FaultTest, RebootedHomeForwardsToRecoveredProcess) {
  Cluster cluster(ClusterConfig{.machines = 3});
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  StableStore store;
  ASSERT_TRUE(store.Checkpoint(cluster, counter->pid).ok());
  CrashController crash(&cluster);
  crash.Crash(0);
  ASSERT_TRUE(store.RecoverProcess(cluster, counter->pid, 2).ok());
  cluster.RunUntilIdle();

  crash.Revive(0);
  // The revived home holds a forwarding address; old-address traffic chases
  // the recovered process.  (The recovered copy replaced the stale one.)
  cluster.kernel(1).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  ProcessRecord* recovered = cluster.kernel(2).FindProcess(counter->pid);
  ASSERT_NE(recovered, nullptr);
  ByteReader r(recovered->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 1u);
}

// Shared setup for the crash-during-MOVE_DATA tests: a reliable cluster with
// tiny data packets (so one migration takes many MOVE_DATA round trips, with
// a wide window of virtual time to crash into) and a counter carrying a large
// data segment whose contents must survive byte-exact.
ClusterConfig MidTransferConfig() {
  ClusterConfig config;
  config.machines = 2;
  config.reliable_layer = true;
  config.reliable.retransmit_timeout_us = 4'000;
  config.reliable.max_retries = 0;  // never give up: delivery is guaranteed
  config.kernel.data_packet_bytes = 256;
  config.kernel.data_window_packets = 2;
  config.trace_enabled = true;  // the checker keys messages by trace id
  return config;
}

TEST_F(FaultTest, SourceCrashMidTransferStillDeliversExactlyOnce) {
  // Crash the *source* while MOVE_DATA packets are in flight.  The paper's
  // guarantee -- any message sent will eventually be delivered -- extends to
  // the migration protocol itself: after the warm reboot the transfer must
  // resume, and the cluster must end with exactly one live, intact copy.
  Cluster cluster(MidTransferConfig());
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter", 4096, 32768, 2048);
  ASSERT_TRUE(counter.ok());
  checker.ExpectLive(counter->pid);
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();

  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunFor(2'000);  // 32 KiB in 256-byte packets: transfer barely begun
  CrashController crash(&cluster);
  crash.Crash(0);
  cluster.RunFor(30'000);  // destination retransmits into the dead machine
  crash.Revive(0);
  cluster.RunUntilIdle();

  // Exactly one live copy, wherever it ended up, with its count intact.
  ProcessRecord* record = cluster.FindProcessAnywhere(counter->pid);
  ASSERT_NE(record, nullptr);
  const MachineId host = cluster.HostOf(counter->pid);
  ASSERT_NE(host, kNoMachine);
  ByteReader r(record->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 3u);

  // Still reachable through the original address.
  cluster.kernel(1).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader r2(cluster.FindProcessAnywhere(counter->pid)->memory.ReadData(0, 8));
  EXPECT_EQ(r2.U64(), 4u);

  cluster.SetObserver(nullptr);
  const std::vector<Violation> violations = checker.CheckAtQuiescence();
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? std::string() : violations.front().ToString());
}

TEST_F(FaultTest, DestinationCrashBeforeRestartStillDeliversExactlyOnce) {
  // Crash the *destination* while it holds a partial image, before the
  // restart handshake completes, with stale-address traffic arriving during
  // the outage.  After the reboot no copy may be lost and none duplicated.
  Cluster cluster(MidTransferConfig());
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter", 4096, 32768, 2048);
  ASSERT_TRUE(counter.ok());
  checker.ExpectLive(counter->pid);
  for (int i = 0; i < 2; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();

  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunFor(8'000);  // deep into the section transfer, restart not acked
  CrashController crash(&cluster);
  crash.Crash(1);
  // Traffic addressed at the original location keeps flowing into the crash
  // window; the reliable layer must hold it until somebody can consume it.
  cluster.kernel(0).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunFor(30'000);
  crash.Revive(1);
  cluster.RunUntilIdle();

  ProcessRecord* record = cluster.FindProcessAnywhere(counter->pid);
  ASSERT_NE(record, nullptr);
  ASSERT_NE(cluster.HostOf(counter->pid), kNoMachine);
  ByteReader r(record->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 3u);  // 2 before + 1 during the outage, no duplicates

  cluster.SetObserver(nullptr);
  const std::vector<Violation> violations = checker.CheckAtQuiescence();
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? std::string() : violations.front().ToString());
}

// MidTransferConfig plus the watchdog machinery this PR adds: finite
// retransmission (so the reliable layer reaches a give-up verdict against a
// corpse) and all three per-phase migration deadlines armed.
ClusterConfig WatchdogConfig() {
  ClusterConfig config = MidTransferConfig();
  config.reliable.max_retries = 6;
  config.kernel.migration_deadlines.offer_accept_us = 30'000;
  config.kernel.migration_deadlines.transfer_progress_us = 30'000;
  config.kernel.migration_deadlines.handoff_us = 30'000;
  return config;
}

TEST_F(FaultTest, DestinationDiesPermanentlyMidTransferSourceRollsBack) {
  // The destination dies mid-MOVE_DATA and never comes back.  Without a
  // reboot to resume the transfer, the source's progress watchdog must fire:
  // rollback unfreezes the process in place, pending messages drain exactly
  // once, the peer lands on the suspect list, and re-offering toward the
  // corpse is refused without freezing anything.
  Cluster cluster(WatchdogConfig());
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter", 4096, 32768, 2048);
  ASSERT_TRUE(counter.ok());
  checker.ExpectLive(counter->pid);
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(0).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();

  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunFor(2'000);  // mid-transfer
  CrashController crash(&cluster);
  crash.Crash(1);  // permanent: no Revive ever follows
  // Work keeps arriving for the frozen process during the outage; rollback
  // must deliver it to the resumed local copy, exactly once.
  cluster.kernel(0).SendFromKernel(*counter, kIncrement, {});
  cluster.kernel(0).SendFromKernel(*counter, kIncrement, {});
  cluster.RunUntilIdle();

  // The process resumed locally with every message applied exactly once.
  ProcessRecord* record = cluster.kernel(0).FindProcess(counter->pid);
  ASSERT_NE(record, nullptr);
  EXPECT_NE(record->state, ExecState::kInMigration);
  ByteReader r(record->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 5u);
  EXPECT_FALSE(cluster.kernel(0).HasMigrationInProgress());

  // The requester was told why.
  ASSERT_EQ(cluster.kernel(0).migrate_done_log().size(), 1u);
  EXPECT_EQ(cluster.kernel(0).migrate_done_log()[0].status, StatusCode::kPeerTimeout);
  EXPECT_EQ(cluster.kernel(0).migrate_done_log()[0].final_home, 0);
  EXPECT_EQ(cluster.kernel(0).stats().Get(stat::kMigrationsTimedOut), 1);
  EXPECT_GE(TraceCount(cluster, 0, FrEvent::kWatchdogTimeout), 1);
  EXPECT_GE(TraceCount(cluster, 0, FrEvent::kCancelSent), 1);

  // The reliable channel gave up on the corpse and fed the suspect list.
  EXPECT_GE(cluster.reliable()->stats().Get(StatId::kRelGiveUps), 1);
  EXPECT_TRUE(cluster.kernel(0).IsPeerSuspect(1));

  // Policy refuses to re-offer toward a suspect peer -- no freeze, just a
  // kUnavailable verdict back to the requester.
  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.kernel(0).stats().Get(stat::kMigrationsRefusedSuspect), 1);
  ASSERT_EQ(cluster.kernel(0).migrate_done_log().size(), 2u);
  EXPECT_EQ(cluster.kernel(0).migrate_done_log()[1].status, StatusCode::kUnavailable);
  EXPECT_EQ(cluster.HostOf(counter->pid), 0);

  cluster.SetObserver(nullptr);
  checker.MarkMachineDead(1);
  const std::vector<Violation> violations = checker.CheckAtQuiescence();
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? std::string() : violations.front().ToString());
}

TEST_F(FaultTest, WatchdogDumpCarriesTheFiredDeadline) {
  // The post-mortem must say which deadline fired.  The destination dies
  // mid-transfer, so the source's transfer-progress deadline (distinct from
  // the offer deadline here) is the one that expires.
  ClusterConfig config = WatchdogConfig();
  config.kernel.migration_deadlines.transfer_progress_us = 25'000;
  Cluster cluster(config);
  auto counter = cluster.kernel(0).SpawnProcess("counter", 4096, 32768, 2048);
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunFor(2'000);  // mid-transfer
  CrashController crash(&cluster);
  crash.Crash(1);  // permanent
  cluster.RunUntilIdle();
  ASSERT_EQ(cluster.kernel(0).stats().Get(stat::kMigrationsTimedOut), 1);
  EXPECT_STREQ(cluster.flight_recorder()->reason(), "watchdog cancel");

  std::ostringstream dump;
  WriteFlightText(cluster.flight_recorder()->Merged(), cluster.flight_recorder()->reason(), dump);
  const std::string text = dump.str();
  const std::size_t at = text.find(" watchdog_timeout ");
  ASSERT_NE(at, std::string::npos) << text;
  const std::string line = text.substr(at, text.find('\n', at) - at);
  EXPECT_NE(line.find("pid=" + counter->pid.ToString()), std::string::npos) << line;
  EXPECT_NE(line.find("deadline_us=25000"), std::string::npos) << line;
  EXPECT_NE(line.find("peer=1"), std::string::npos) << line;
}

TEST_F(FaultTest, SourceDiesPermanentlyMidTransferDestinationReaps) {
  // The source dies before the image is fully assembled.  The destination's
  // progress watchdog must garbage-collect the partial image (never restart
  // it -- the authoritative copy died with the source) and suspect the peer.
  Cluster cluster(WatchdogConfig());
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter", 4096, 32768, 2048);
  ASSERT_TRUE(counter.ok());
  checker.ExpectLive(counter->pid);
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(0).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();

  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunFor(3'000);  // sections still streaming, image not assembled
  CrashController crash(&cluster);
  crash.Crash(0);  // permanent
  cluster.RunUntilIdle();

  // No half-built ghost left behind, and no restarted duplicate.
  EXPECT_EQ(cluster.kernel(1).FindProcess(counter->pid), nullptr);
  EXPECT_FALSE(cluster.kernel(1).HasMigrationInProgress());
  EXPECT_EQ(cluster.kernel(1).stats().Get(stat::kMigrationsReaped), 1);
  EXPECT_EQ(cluster.kernel(1).stats().Get(stat::kMigrationsAdopted), 0);
  EXPECT_EQ(TraceCount(cluster, 1, FrEvent::kDestReaped), 1);
  EXPECT_TRUE(cluster.kernel(1).IsPeerSuspect(0));

  cluster.SetObserver(nullptr);
  checker.MarkMachineDead(0);  // the process legitimately died with machine 0
  const std::vector<Violation> violations = checker.CheckAtQuiescence();
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? std::string() : violations.front().ToString());
}

TEST_F(FaultTest, SourceDiesPermanentlyAfterTransferDestinationAdopts) {
  // 2PC refinement: once the destination holds the complete image (it sent
  // kMigrateDataDone), a silent source means only the cleanup handshake was
  // lost.  Discarding now would lose the sole surviving copy, so the handoff
  // watchdog must ADOPT: restart the process from the assembled image.
  Cluster cluster(WatchdogConfig());
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter", 4096, 32768, 2048);
  ASSERT_TRUE(counter.ok());
  checker.ExpectLive(counter->pid);
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(0).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();

  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  // Run in fine steps until the destination announces transfer-complete,
  // then kill the source before the cleanup handshake can land.
  ASSERT_TRUE(testutil::RunUntil(
      cluster,
      [&] { return TraceCount(cluster, 1, FrEvent::kTransferDoneSent) > 0; },
      2'000'000, /*step_us=*/50));
  CrashController crash(&cluster);
  crash.Crash(0);  // permanent
  cluster.RunUntilIdle();

  // The destination restarted the process itself; state arrived intact.
  // (The corpse still holds its pre-crash record -- retained stable storage
  // on a machine that will never run again -- so ask the live kernel.)
  EXPECT_EQ(cluster.kernel(1).stats().Get(stat::kMigrationsAdopted), 1);
  EXPECT_EQ(cluster.kernel(1).stats().Get(stat::kMigrationsReaped), 0);
  EXPECT_EQ(TraceCount(cluster, 1, FrEvent::kDestAdopted), 1);
  ProcessRecord* record = cluster.kernel(1).FindProcess(counter->pid);
  ASSERT_NE(record, nullptr);
  ByteReader r(record->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 3u);

  // And it keeps doing work at the new home.
  cluster.kernel(1).SendFromKernel(ProcessAddress{1, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader r2(record->memory.ReadData(0, 8));
  EXPECT_EQ(r2.U64(), 4u);

  cluster.SetObserver(nullptr);
  checker.MarkMachineDead(0);
  const std::vector<Violation> violations = checker.CheckAtQuiescence();
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? std::string() : violations.front().ToString());
}

TEST_F(FaultTest, DuplicateRejectDoesNotDoubleAbort) {
  // A destination's refusal can be retransmitted and arrive again after the
  // source already rolled the attempt back and begun a NEW attempt elsewhere.
  // The attempt epoch must make the duplicate a stale no-op -- acting on it
  // would abort the newer, healthy migration.
  ClusterConfig config;
  config.machines = 3;
  config.trace_enabled = true;
  Cluster cluster(config);
  cluster.kernel(1).SetAcceptMigration([](const MigrateOffer&) { return false; });

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(0).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();

  // Attempt 1: machine 1 refuses; the source rolls back.
  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunUntilIdle();
  ASSERT_EQ(cluster.kernel(0).migrate_done_log().size(), 1u);
  EXPECT_EQ(cluster.kernel(0).migrate_done_log()[0].status, StatusCode::kRefused);
  ASSERT_EQ(cluster.HostOf(counter->pid), 0);

  // Attempt 2 toward machine 2; while it is in flight, replay attempt 1's
  // negative reply (a duplicate delivery from the network's point of view).
  (void)cluster.kernel(0).StartMigration(counter->pid, 2,
                                         cluster.kernel(0).kernel_address());
  cluster.RunFor(300);
  ByteWriter stale;
  stale.Pid(counter->pid);
  stale.U8(static_cast<std::uint8_t>(StatusCode::kRefused));
  stale.U32(1);  // attempt 1's epoch, long since rolled back
  cluster.kernel(1).SendFromKernel(KernelAddress(0), MsgType::kMigrateReject, stale.Take());
  cluster.RunUntilIdle();

  // The duplicate was dropped as stale and attempt 2 completed normally.
  EXPECT_GE(cluster.kernel(0).stats().Get(stat::kStaleMigrationMsgs), 1);
  EXPECT_EQ(cluster.HostOf(counter->pid), 2);
  ASSERT_EQ(cluster.kernel(0).migrate_done_log().size(), 2u);
  EXPECT_EQ(cluster.kernel(0).migrate_done_log()[1].status, StatusCode::kOk);
  EXPECT_EQ(cluster.kernel(0).migrate_done_log()[1].final_home, 2);

  cluster.kernel(0).SendFromKernel(ProcessAddress{2, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader r(cluster.FindProcessAnywhere(counter->pid)->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 4u);
}

TEST_F(FaultTest, EvacuationWinsGraceRace) {
  // DegradeThenCrash with a generous grace window: the evacuation finishes
  // first, and the armed watchdogs never misfire on healthy migrations.
  ClusterConfig config;
  config.machines = 3;
  config.kernel.migration_deadlines.offer_accept_us = 40'000;
  config.kernel.migration_deadlines.transfer_progress_us = 40'000;
  config.kernel.migration_deadlines.handoff_us = 40'000;
  Cluster cluster(config);
  SystemLayout layout = BootSystem(cluster);
  auto sink = cluster.kernel(0).SpawnProcess("sink");
  ASSERT_TRUE(sink.ok());
  cluster.RunFor(1000);
  testutil::TagProcess(cluster, *sink, 1);

  std::vector<ProcessId> workers;
  for (int i = 0; i < 3; ++i) {
    ByteWriter w;
    w.U64(static_cast<std::uint64_t>(i));
    w.Str("counter");
    w.U16(2);
    w.U32(1024);
    w.U32(512);
    w.U32(256);
    cluster.kernel(0).SendFromKernel(layout.process_manager, kPmCreate, w.Take(),
                                     {Link{*sink, kLinkReply, 0, 0}});
  }
  ASSERT_TRUE(
      testutil::RunUntil(cluster, [&] { return testutil::CapturedFor(1).size() >= 3; }));
  for (const auto& captured : testutil::CapturedFor(1)) {
    ByteReader r(captured.payload);
    (void)r.U64();
    (void)r.U8();
    workers.push_back(r.Address().pid);
  }

  CrashController crash(&cluster);
  crash.DegradeThenCrash(2, /*grace_us=*/400'000);
  ByteWriter w;
  w.U16(2);
  cluster.kernel(0).SendFromKernel(layout.process_manager, kPmEvacuate, w.Take());

  ASSERT_TRUE(testutil::RunUntil(
      cluster,
      [&] {
        for (const ProcessId& pid : workers) {
          const MachineId at = cluster.HostOf(pid);
          if (at == 2 || at == kNoMachine) {
            return false;
          }
        }
        return true;
      },
      350'000));
  cluster.RunFor(600'000);
  EXPECT_TRUE(crash.IsCrashed(2));

  // Every worker escaped and still responds.
  for (const ProcessId& pid : workers) {
    const MachineId at = cluster.HostOf(pid);
    ASSERT_NE(at, 2);
    ASSERT_NE(at, kNoMachine);
    cluster.kernel(0).SendFromKernel(ProcessAddress{at, pid}, kIncrement, {});
  }
  cluster.RunFor(50'000);
  for (const ProcessId& pid : workers) {
    ProcessRecord* record = cluster.FindProcessAnywhere(pid);
    ASSERT_NE(record, nullptr);
    ByteReader r(record->memory.ReadData(0, 8));
    EXPECT_EQ(r.U64(), 1u);
  }
  // The deadlines were armed the whole time yet no failure path fired: the
  // watchdogs measure progress, not elapsed time.
  for (int m = 0; m < 2; ++m) {
    EXPECT_EQ(cluster.kernel(m).stats().Get(stat::kMigrationsTimedOut), 0) << "m" << m;
    EXPECT_EQ(cluster.kernel(m).stats().Get(stat::kMigrationsReaped), 0) << "m" << m;
    EXPECT_EQ(cluster.kernel(m).stats().Get(stat::kMigrationsAdopted), 0) << "m" << m;
  }
}

TEST_F(FaultTest, EvacuationLosesGraceRaceLeavesNoFrozenState) {
  // DegradeThenCrash with a grace window too small for the evacuation of
  // large workers: the machine dies mid-exodus.  I8 is the property under
  // test -- after every deadline elapses, no surviving kernel may hold
  // migration state or a frozen process.  Workers either escaped whole or
  // died with the ship; none are stuck in between.
  ClusterConfig config;
  config.machines = 3;
  config.kernel.migration_deadlines.offer_accept_us = 40'000;
  config.kernel.migration_deadlines.transfer_progress_us = 40'000;
  config.kernel.migration_deadlines.handoff_us = 40'000;
  Cluster cluster(config);
  SystemLayout layout = BootSystem(cluster);
  auto sink = cluster.kernel(0).SpawnProcess("sink");
  ASSERT_TRUE(sink.ok());
  cluster.RunFor(1000);
  testutil::TagProcess(cluster, *sink, 1);

  // Big data segments so each transfer takes tens of milliseconds -- the
  // 30 ms grace window cannot cover all three.
  std::vector<ProcessId> workers;
  for (int i = 0; i < 3; ++i) {
    ByteWriter w;
    w.U64(static_cast<std::uint64_t>(i));
    w.Str("counter");
    w.U16(2);
    w.U32(1024);
    w.U32(262144);
    w.U32(256);
    cluster.kernel(0).SendFromKernel(layout.process_manager, kPmCreate, w.Take(),
                                     {Link{*sink, kLinkReply, 0, 0}});
  }
  ASSERT_TRUE(
      testutil::RunUntil(cluster, [&] { return testutil::CapturedFor(1).size() >= 3; }));
  for (const auto& captured : testutil::CapturedFor(1)) {
    ByteReader r(captured.payload);
    (void)r.U64();
    (void)r.U8();
    workers.push_back(r.Address().pid);
  }

  CrashController crash(&cluster);
  crash.DegradeThenCrash(2, /*grace_us=*/30'000);
  ByteWriter w;
  w.U16(2);
  cluster.kernel(0).SendFromKernel(layout.process_manager, kPmEvacuate, w.Take());

  ASSERT_TRUE(
      testutil::RunUntil(cluster, [&] { return crash.IsCrashed(2); }, 100'000));
  // Let every per-phase deadline on the survivors elapse and resolve.
  cluster.RunFor(300'000);

  // I8 on the survivors: all failure paths fired, nothing is frozen.
  for (int m = 0; m < 2; ++m) {
    EXPECT_FALSE(cluster.kernel(m).HasMigrationInProgress()) << "m" << m;
    for (const auto& [pid, entry] : cluster.kernel(m).process_table().entries()) {
      if (!entry.IsForwarding()) {
        EXPECT_NE(entry.process->state, ExecState::kInMigration)
            << pid.ToString() << " frozen on m" << m;
      }
    }
  }

  // Dichotomy: a worker either escaped to a live machine (and still counts)
  // or its only copy is on the corpse.  Nothing may be duplicated or stuck.
  int escaped = 0;
  for (const ProcessId& pid : workers) {
    const MachineId at = cluster.HostOf(pid);
    if (at == 0 || at == 1) {
      ++escaped;
      cluster.kernel(0).SendFromKernel(ProcessAddress{at, pid}, kIncrement, {});
    } else {
      EXPECT_TRUE(at == 2 || at == kNoMachine) << pid.ToString();
    }
  }
  cluster.RunFor(50'000);
  for (const ProcessId& pid : workers) {
    const MachineId at = cluster.HostOf(pid);
    if (at == 0 || at == 1) {
      ProcessRecord* record = cluster.kernel(at).FindProcess(pid);
      ASSERT_NE(record, nullptr);
      ByteReader r(record->memory.ReadData(0, 8));
      EXPECT_EQ(r.U64(), 1u) << pid.ToString();
    }
  }
  (void)escaped;  // any split is legal; the invariant is no-one-in-between
}

TEST_F(FaultTest, CheckpointOfMissingProcessFails) {
  Cluster cluster(ClusterConfig{.machines = 2});
  StableStore store;
  EXPECT_FALSE(store.Checkpoint(cluster, ProcessId{0, 999}).ok());
  EXPECT_FALSE(store.RecoverProcess(cluster, ProcessId{0, 999}, 1).ok());
}

}  // namespace
}  // namespace demos
