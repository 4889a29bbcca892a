// Tests for the shard-level observability layer (src/obs): the metrics
// engine's catalog/histograms/snapshots (including a snapshot-under-write
// stress that TSan must pass), the flight recorder's ring and retain-all
// semantics and deterministic dumps, the hub's trigger latch, the
// StatsRegistry / PayloadCounters fold, the exporters, and traced parallel
// runs (growing recorders written by shard threads, read at quiescence).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/stats.h"
#include "src/check/chaos.h"
#include "src/kernel/cluster.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/run/parallel_cluster.h"
#include "src/workload/programs.h"
#include "src/workload/token_ring_harness.h"

namespace demos {
namespace {

// ---------------------------------------------------------------------------
// Catalog.
// ---------------------------------------------------------------------------

TEST(MetricsCatalog, EveryIdHasAName) {
  for (int i = 0; i < kNumCounterIds; ++i) {
    EXPECT_STRNE(CounterName(static_cast<CounterId>(i)), "") << "counter " << i;
  }
  for (int i = 0; i < kNumGaugeIds; ++i) {
    EXPECT_STRNE(GaugeName(static_cast<GaugeId>(i)), "") << "gauge " << i;
  }
  for (int i = 0; i < kNumHistogramIds; ++i) {
    EXPECT_STRNE(HistogramName(static_cast<HistogramId>(i)), "") << "histogram " << i;
  }
  for (int i = 1; i < kNumFrEvents; ++i) {
    EXPECT_STRNE(FrEventName(static_cast<FrEvent>(i)), "") << "fr event " << i;
  }
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

TEST(Histogram, PowerOfTwoBucketing) {
  EXPECT_EQ(HistogramBucketOf(0), 0);
  EXPECT_EQ(HistogramBucketOf(1), 1);
  EXPECT_EQ(HistogramBucketOf(2), 2);
  EXPECT_EQ(HistogramBucketOf(3), 2);
  EXPECT_EQ(HistogramBucketOf(4), 3);
  EXPECT_EQ(HistogramBucketOf(7), 3);
  EXPECT_EQ(HistogramBucketOf(8), 4);
  // Tail clamp: anything at or past 2^18 lands in the last bucket.
  EXPECT_EQ(HistogramBucketOf(std::uint64_t{1} << 18), kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketOf(~std::uint64_t{0}), kHistogramBuckets - 1);

  // Every representable value falls inside its bucket's [lower, upper].
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5},
                                std::uint64_t{1000}, std::uint64_t{1} << 30}) {
    const int b = HistogramBucketOf(v);
    EXPECT_GE(v, HistogramBucketLowerBound(b)) << v;
    EXPECT_LE(v, HistogramBucketUpperBound(b)) << v;
  }
}

TEST(Histogram, ObserveSnapshotAndMerge) {
  MetricShard a;
  MetricShard b;
  for (int i = 0; i < 10; ++i) {
    a.Observe(HistogramId::kDrainBatchSize, 3);  // bucket 2
  }
  for (int i = 0; i < 5; ++i) {
    b.Observe(HistogramId::kDrainBatchSize, 100);  // bucket 7
  }
  HistogramSnapshot ha = a.Histogram(HistogramId::kDrainBatchSize);
  const HistogramSnapshot hb = b.Histogram(HistogramId::kDrainBatchSize);
  EXPECT_EQ(ha.count, 10u);
  EXPECT_EQ(ha.sum, 30u);
  EXPECT_EQ(ha.buckets[2], 10u);
  ha.Merge(hb);
  EXPECT_EQ(ha.count, 15u);
  EXPECT_EQ(ha.sum, 30u + 500u);
  EXPECT_EQ(ha.buckets[2], 10u);
  EXPECT_EQ(ha.buckets[HistogramBucketOf(100)], 5u);
  EXPECT_DOUBLE_EQ(ha.Mean(), 530.0 / 15.0);
  // Quantiles report bucket upper bounds: the 0.5 quantile of 10x3 + 5x100
  // sits in bucket 2 (values 2..3).
  EXPECT_EQ(ha.QuantileBound(0.5), 3u);
  EXPECT_EQ(ha.QuantileBound(1.0), HistogramBucketUpperBound(HistogramBucketOf(100)));
}

// ---------------------------------------------------------------------------
// Snapshot under concurrent writes.  The contract: writers never block, the
// reader sees a coherent-enough point-in-time view, and the final snapshot
// (after join) is exact.  Run under TSan this also proves the slab really is
// race-free.
// ---------------------------------------------------------------------------

TEST(MetricsEngine, SnapshotWhileWritersRun) {
  constexpr int kShards = 4;
  constexpr std::uint64_t kPerShard = 50'000;
  MetricsEngine engine(kShards);

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kShards);
  for (int i = 0; i < kShards; ++i) {
    writers.emplace_back([&engine, &go, i] {
      while (!go.load(std::memory_order_acquire)) {
      }
      MetricShard& slab = engine.shard(i);
      for (std::uint64_t n = 0; n < kPerShard; ++n) {
        slab.Inc(CounterId::kMsgsDrained);
        slab.Set(GaugeId::kMailboxDepth, static_cast<std::int64_t>(n));
        slab.Observe(HistogramId::kDrainBatchSize, n & 0xFF);
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Concurrent snapshots: monotone counters must never appear to decrease.
  std::uint64_t last = 0;
  for (int probe = 0; probe < 50; ++probe) {
    const MetricsSnapshot snap = engine.Snapshot();
    const std::uint64_t now = snap.total.counters[static_cast<int>(CounterId::kMsgsDrained)];
    EXPECT_GE(now, last);
    last = now;
    std::this_thread::yield();
  }
  for (std::thread& t : writers) {
    t.join();
  }

  const MetricsSnapshot final_snap = engine.Snapshot();
  EXPECT_EQ(final_snap.total.counters[static_cast<int>(CounterId::kMsgsDrained)],
            kPerShard * kShards);
  const HistogramSnapshot h =
      final_snap.total.histograms[static_cast<int>(HistogramId::kDrainBatchSize)];
  EXPECT_EQ(h.count, kPerShard * kShards);
  for (int i = 0; i < kShards; ++i) {
    EXPECT_EQ(final_snap.shards[static_cast<std::size_t>(i)]
                  .counters[static_cast<int>(CounterId::kMsgsDrained)],
              kPerShard);
    EXPECT_EQ(final_snap.shards[static_cast<std::size_t>(i)]
                  .gauges[static_cast<int>(GaugeId::kMailboxDepth)],
              static_cast<std::int64_t>(kPerShard - 1));
  }
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

// Deterministic test clock: monotonically increasing counter via ctx.
std::uint64_t CountingClock(void* ctx) {
  return (*static_cast<std::uint64_t*>(ctx))++;
}

TEST(FlightRecorder, WrapAroundKeepsNewestWindow) {
  std::uint64_t tick = 0;
  FlightRecorder rec(/*shard=*/3, /*capacity=*/8);
  rec.SetClock(&CountingClock, &tick);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.Record(FrEvent::kMailboxPush, /*a=*/i);
  }
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);

  const std::vector<FlightRecord> window = rec.SnapshotRecords();
  ASSERT_EQ(window.size(), 8u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].a, 12 + i) << "oldest-first, seq " << window[i].seq;
    EXPECT_EQ(window[i].seq, 12 + i);
    EXPECT_EQ(window[i].shard, 3);
  }
}

TEST(FlightRecorder, RetainAllGrowsInsteadOfWrapping) {
  std::uint64_t tick = 0;
  FlightRecorder rec(/*shard=*/1, /*capacity=*/8, /*retain_all=*/true);
  rec.SetClock(&CountingClock, &tick);
  for (std::uint64_t i = 0; i < 100; ++i) {
    rec.Record(FrEvent::kMsgSend, /*a=*/i, /*b=*/0, /*id=*/1000 + i);
  }
  EXPECT_EQ(rec.total(), 100u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_GE(rec.capacity(), 100u);

  const std::vector<FlightRecord> all = rec.SnapshotRecords();
  ASSERT_EQ(all.size(), 100u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, i);
    EXPECT_EQ(all[i].a, i);
    EXPECT_EQ(all[i].id, 1000 + i);
  }

  // The default ring mode still wraps at the same capacity.
  FlightRecorderHub ring_hub(/*shards=*/1, /*capacity_per_shard=*/8);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ring_hub.recorder(0).Record(FrEvent::kMsgSend, i);
  }
  EXPECT_EQ(ring_hub.recorder(0).dropped(), 100u - 8u);
  EXPECT_EQ(ring_hub.TotalDropped(), 100u - 8u);
  EXPECT_EQ(ring_hub.Merged().size(), 8u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(0, /*capacity=*/100);
  EXPECT_EQ(rec.capacity(), 128u);
}

TEST(FlightRecorderHub, TriggerLatchesFirstReason) {
  FlightRecorderHub hub(/*shards=*/2, /*capacity_per_shard=*/16);
  EXPECT_FALSE(hub.triggered());
  EXPECT_TRUE(hub.Trigger("first failure"));
  EXPECT_FALSE(hub.Trigger("second failure"));
  EXPECT_STREQ(hub.reason(), "first failure");

  // Recorder-level Trigger (the kernels' path) reaches the same latch.
  hub.ResetTrigger();
  EXPECT_TRUE(hub.recorder(1).Trigger("watchdog adopt"));
  EXPECT_STREQ(hub.reason(), "watchdog adopt");

  // A standalone recorder has no hub to latch.
  FlightRecorder lone(0, 8);
  EXPECT_FALSE(lone.Trigger("nowhere to go"));
}

TEST(FlightRecorderHub, MergedOrdersByTimeShardSeq) {
  std::uint64_t tick = 0;
  FlightRecorderHub hub(/*shards=*/2, /*capacity_per_shard=*/16);
  hub.SetClockAll(&CountingClock, &tick);
  // Interleave writers so timestamps alternate between shards.
  hub.recorder(0).Record(FrEvent::kParkBegin);       // t=0
  hub.recorder(1).Record(FrEvent::kMailboxPush, 0);  // t=1
  hub.recorder(0).Record(FrEvent::kParkEnd, 1);      // t=2
  hub.recorder(1).Record(FrEvent::kDrainBatch, 4);   // t=3

  const std::vector<FlightRecord> merged = hub.Merged();
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].t_ns, merged[i].t_ns);
  }
  EXPECT_EQ(merged[0].shard, 0);
  EXPECT_EQ(merged[1].shard, 1);
  EXPECT_EQ(merged[2].type, FrEvent::kParkEnd);
}

TEST(FlightRecorder, DumpsAreDeterministic) {
  auto build = [] {
    std::uint64_t tick = 1000;
    FlightRecorderHub hub(2, 8);
    hub.SetClockAll(&CountingClock, &tick);
    hub.recorder(0).Record(FrEvent::kMailboxPush, 1);
    hub.recorder(1).Record(FrEvent::kBackpressure, 0, 17);
    hub.recorder(0).Record(FrEvent::kOfferSent, /*a=*/1, /*b=*/4096,
                           MigrationSpanId(ProcessId{0, 42}));
    hub.Trigger("invariant failure");
    return hub.Merged();
  };
  const std::vector<FlightRecord> a = build();
  const std::vector<FlightRecord> b = build();

  std::ostringstream text_a;
  std::ostringstream text_b;
  WriteFlightText(a, "invariant failure", text_a);
  WriteFlightText(b, "invariant failure", text_b);
  EXPECT_EQ(text_a.str(), text_b.str());
  EXPECT_NE(text_a.str().find("invariant failure"), std::string::npos);
  EXPECT_NE(text_a.str().find(FrEventName(FrEvent::kBackpressure)), std::string::npos);

  // Operands print under their catalog names; the span id decodes to a pid.
  EXPECT_NE(text_a.str().find("offer_sent pid=p0.42 dest=1 bytes=4096"), std::string::npos)
      << text_a.str();

  std::ostringstream trace_a;
  std::ostringstream trace_b;
  WriteChromeTrace(a, trace_a);
  WriteChromeTrace(b, trace_b);
  EXPECT_EQ(trace_a.str(), trace_b.str());
  EXPECT_NE(trace_a.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_a.str().find("\"offer_sent\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Kernel-counter fold.
// ---------------------------------------------------------------------------

TEST(BuildSnapshot, FoldsLegacyRegistriesWithoutDoubleCounting) {
  StatsRegistry kernel0;
  StatsRegistry kernel1;
  kernel0.Add(StatId::kMsgsSent, 7);
  kernel1.Add(StatId::kMsgsSent, 5);
  kernel1.Add(StatId::kMsgsForwarded, 2);

  const MetricsSnapshot snap = BuildSnapshot(nullptr, {&kernel0, &kernel1});
  ASSERT_EQ(snap.kernel_counters.size(), 2u);
  EXPECT_EQ(snap.kernel_counters[0].Get(StatId::kMsgsSent), 7);
  EXPECT_EQ(snap.kernel_counters[1].Get(StatId::kMsgsSent), 5);
  // The total is the per-shard sum, folded exactly once.
  EXPECT_EQ(snap.kernel_total.Get(StatId::kMsgsSent), 12);
  EXPECT_EQ(snap.kernel_total.Get(StatId::kMsgsForwarded), 2);
  // No runtime engine attached: no shard slabs.
  EXPECT_TRUE(snap.shards.empty());
}

// The reliable channel counts into its own registry only; the sequential
// engine's snapshot adds it to the kernel total exactly once.
TEST(BuildSnapshot, ReliableChannelCountsReachTheExportOnce) {
  RegisterWorkloadPrograms();
  ClusterConfig config;
  config.machines = 2;
  config.network.drop_probability = 0.2;
  config.network.seed = 42;
  config.reliable_layer = true;
  config.reliable.retransmit_timeout_us = 2'000;
  config.metrics_enabled = true;
  Cluster cluster(config);
  auto sink = cluster.kernel(0).SpawnProcess("sink");
  ASSERT_TRUE(sink.ok());
  for (int i = 0; i < 30; ++i) {
    cluster.kernel(1).SendFromKernel(*sink, static_cast<MsgType>(1003), {});  // user type
  }
  cluster.RunUntilIdle();
  const std::int64_t retransmits = cluster.reliable()->stats().Get(StatId::kRelRetransmits);
  ASSERT_GT(retransmits, 0);

  const MetricsSnapshot snap = cluster.BuildSnapshot();
  EXPECT_EQ(snap.kernel_total.Get(StatId::kRelRetransmits), retransmits);
  EXPECT_EQ(snap.kernel_total.Get(StatId::kNetPacketsSent),
            cluster.network().stats().Get(StatId::kNetPacketsSent));
  std::ostringstream os;
  MetricsTimeSeries series;
  series.final_snapshot = snap;
  WriteMetricsJson(series, os);
  const std::string json = os.str();
  const std::string key = "\"kernel.rel_retransmits\":" + std::to_string(retransmits);
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  // Once in the total, nowhere else (the kernels' own slots read 0).
  EXPECT_EQ(json.find("rel_retransmits\":" + std::to_string(retransmits), at + key.size()),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(MetricsExport, JsonCarriesSchemaSeriesAndKernelCounters) {
  MetricsEngine engine(2);
  engine.shard(0).Inc(CounterId::kMailboxPushes, 3);
  engine.shard(1).Observe(HistogramId::kParkWaitUs, 150);

  MetricsTimeSeries series;
  series.interval_seconds = 0.01;
  MetricsSample sample;
  sample.t_seconds = 0.01;
  sample.snapshot = engine.Snapshot();
  series.samples.push_back(sample);
  StatsRegistry kernel;
  kernel.Add(StatId::kMsgsSent, 4);
  series.final_snapshot = BuildSnapshot(&engine, {&kernel});

  std::ostringstream os;
  WriteMetricsJson(series, os);
  const std::string json = os.str();
  EXPECT_NE(json.find(kMetricsSchemaV1), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"final\""), std::string::npos);
  EXPECT_EQ(json.find("\"aliases\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel.msgs_sent\":4"), std::string::npos);
  EXPECT_NE(json.find(CounterName(CounterId::kMailboxPushes)), std::string::npos);
  EXPECT_NE(json.find(HistogramName(HistogramId::kParkWaitUs)), std::string::npos);
}

TEST(MetricsExport, PrometheusTextHasShardLabelsAndCumulativeBuckets) {
  MetricsEngine engine(2);
  engine.shard(0).Inc(CounterId::kMsgsDrained, 9);
  engine.shard(1).Set(GaugeId::kSpillDepth, 4);
  engine.shard(0).Observe(HistogramId::kDrainBatchSize, 2);

  std::ostringstream os;
  WritePrometheusText(BuildSnapshot(&engine), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("demos_msgs_drained_total{shard=\"0\"} 9"), std::string::npos);
  EXPECT_NE(text.find("demos_spill_depth{shard=\"1\"} 4"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sampler.
// ---------------------------------------------------------------------------

TEST(MetricsSampler, CollectsPeriodicSamplesAndRunsCollector) {
  MetricsEngine engine(1);
  std::atomic<bool> stop{false};
  std::thread writer([&engine, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      engine.shard(0).Inc(CounterId::kEventsExecuted);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::atomic<int> collector_runs{0};
  MetricsSampler sampler(&engine, std::chrono::milliseconds(2));
  sampler.SetCollector([&collector_runs] { collector_runs.fetch_add(1); });
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.Stop();
  stop.store(true, std::memory_order_release);
  writer.join();

  const MetricsTimeSeries series = sampler.TakeSeries();
  ASSERT_FALSE(series.samples.empty());
  EXPECT_GT(collector_runs.load(), 0);
  // Time and counters are monotone across samples.
  for (std::size_t i = 1; i < series.samples.size(); ++i) {
    EXPECT_GE(series.samples[i].t_seconds, series.samples[i - 1].t_seconds);
    EXPECT_GE(
        series.samples[i].snapshot.total.counters[static_cast<int>(CounterId::kEventsExecuted)],
        series.samples[i - 1]
            .snapshot.total.counters[static_cast<int>(CounterId::kEventsExecuted)]);
  }
  EXPECT_GE(series.final_snapshot.total.counters[static_cast<int>(CounterId::kEventsExecuted)],
            series.samples.back()
                .snapshot.total.counters[static_cast<int>(CounterId::kEventsExecuted)]);
}

// ---------------------------------------------------------------------------
// End-to-end: a real parallel run populates the metrics and the flight
// recorder; tracing on keeps every shard's message lifecycle.
// ---------------------------------------------------------------------------

class ObservabilityIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterWorkloadPrograms(); }
};

TEST_F(ObservabilityIntegrationTest, ParallelRunPopulatesMetricsAndRecorder) {
  ParallelClusterConfig pc;
  pc.machines = 2;
  pc.trace_enabled = true;
  ParallelCluster cluster(pc);

  TokenRingSpec spec;
  spec.rings = 2;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 1;
  spec.hops_per_token = 50;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_FALSE(rings.empty());
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  ASSERT_TRUE(cluster.RunUntilQuiescent(std::chrono::milliseconds(30000)));
  cluster.RefreshDepthGauges();
  cluster.Stop();

  ASSERT_NE(cluster.metrics(), nullptr);
  const MetricsSnapshot snap = BuildSnapshot(cluster.metrics(), cluster.KernelStats());
  ASSERT_EQ(static_cast<int>(snap.shards.size()), 2 + 1);  // shards + coordinator
  const auto total = [&snap](CounterId id) {
    return snap.total.counters[static_cast<int>(id)];
  };
  EXPECT_GT(total(CounterId::kMailboxPushes), 0u);
  EXPECT_GT(total(CounterId::kMsgsDrained), 0u);
  EXPECT_GT(total(CounterId::kEventsExecuted), 0u);
  EXPECT_GT(total(CounterId::kSchedulerRounds), 0u);
  EXPECT_GT(total(CounterId::kQuiescencePolls), 0u);
  EXPECT_GT(total(CounterId::kQuiescenceVotes), 0u);
  // Quiescent cluster: all depth gauges drained to zero.
  EXPECT_EQ(snap.total.gauges[static_cast<int>(GaugeId::kMailboxDepth)], 0);
  EXPECT_EQ(snap.total.gauges[static_cast<int>(GaugeId::kSpillDepth)], 0);
  // Kernel registries folded alongside.
  EXPECT_GT(snap.kernel_total.Get(StatId::kMsgsSent), 0);

  // The always-on recorder saw mailbox traffic but nothing latched a trigger.
  ASSERT_NE(cluster.flight_recorder(), nullptr);
  EXPECT_FALSE(cluster.flight_recorder()->triggered());
  const std::vector<FlightRecord> merged = cluster.flight_recorder()->Merged();
  EXPECT_FALSE(merged.empty());
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].t_ns, merged[i].t_ns);
  }

  // Traced: nothing wrapped, and every shard recorded both ends of its
  // messages' lifecycles on the shared steady_clock axis.
  EXPECT_EQ(cluster.flight_recorder()->TotalDropped(), 0u);
  for (std::uint16_t shard = 0; shard < 2; ++shard) {
    for (const FrEvent type : {FrEvent::kMsgSend, FrEvent::kMsgDeliver}) {
      EXPECT_TRUE(std::any_of(merged.begin(), merged.end(),
                              [shard, type](const FlightRecord& r) {
                                return r.shard == shard && r.type == type && r.id != 0;
                              }))
          << "shard " << shard << " has no " << FrEventName(type) << " record";
    }
  }
}

TEST_F(ObservabilityIntegrationTest, UntracedParallelRunRecordsNoMessageLifecycle) {
  // Tracing off: the always-on ring sees runtime events but no per-message
  // record ever reaches it (messages carry no trace id), so the hot path pays
  // no lifecycle recording.
  ParallelClusterConfig pc;
  pc.machines = 2;
  ParallelCluster cluster(pc);

  TokenRingSpec spec;
  spec.rings = 2;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 1;
  spec.hops_per_token = 50;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_FALSE(rings.empty());
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  ASSERT_TRUE(cluster.RunUntilQuiescent(std::chrono::milliseconds(30000)));
  cluster.Stop();

  ASSERT_NE(cluster.flight_recorder(), nullptr);
  const std::vector<FlightRecord> merged = cluster.flight_recorder()->Merged();
  EXPECT_FALSE(merged.empty());
  for (const FlightRecord& r : merged) {
    EXPECT_NE(FrCategoryOf(r.type), FrCategory::kMessage) << FrEventName(r.type);
  }
}

TEST_F(ObservabilityIntegrationTest, IdleTracedParallelRunDoesNotGrowItsRecorders) {
  // A traced recorder keeps everything, so it must grow with work, not with
  // idle wall time: an idle shard wakes every idle_park, but only its first
  // idle pass records a vote and a park.
  ParallelClusterConfig pc;
  pc.machines = 2;
  pc.trace_enabled = true;
  ParallelCluster cluster(pc);
  cluster.Start();
  std::this_thread::sleep_for(pc.idle_park * 100);
  cluster.Stop();

  ASSERT_NE(cluster.flight_recorder(), nullptr);
  std::size_t votes = 0;
  std::size_t parks = 0;
  for (const FlightRecord& r : cluster.flight_recorder()->Merged()) {
    votes += r.type == FrEvent::kQuiescenceVote ? 1 : 0;
    parks += r.type == FrEvent::kParkBegin ? 1 : 0;
  }
  EXPECT_LE(votes, static_cast<std::size_t>(pc.machines));
  EXPECT_LE(parks, static_cast<std::size_t>(pc.machines));
}

TEST_F(ObservabilityIntegrationTest, FailingChaosSeedCarriesDeterministicFlightDump) {
  // Plant the check_test forwarding bug, find a seed that catches it, and
  // confirm the failing run carries a latched, merged flight-recorder window
  // -- the payload chaos_fuzz writes as seed_N.flightrec.* artifacts.  The
  // recorder is stamped with the virtual clock, so two replays of the same
  // seed must dump byte-identically.
  ChaosOptions broken;
  ChaosScenario failing;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    const ChaosScenario scenario = ScenarioFromSeed(seed);
    if (!scenario.forwarding_mode || scenario.migrations.size() < 4) {
      continue;
    }
    broken.forward_fault = [machines = scenario.machines](Message& msg) {
      msg.receiver.last_known_machine =
          static_cast<MachineId>((msg.receiver.last_known_machine + 1) % machines);
    };
    if (!RunScenario(scenario, broken).ok()) {
      failing = scenario;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 1..64 caught the planted forwarding bug";

  const ChaosResult a = RunScenario(failing, broken);
  const ChaosResult b = RunScenario(failing, broken);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(a.flight.empty());
  ASSERT_NE(a.flight_trigger, nullptr);
  EXPECT_STREQ(a.flight_trigger, "invariant failure");
  EXPECT_TRUE(std::any_of(a.flight.begin(), a.flight.end(), [](const FlightRecord& r) {
    return r.type == FrEvent::kInvariantFail;
  }));

  std::ostringstream dump_a;
  std::ostringstream dump_b;
  WriteFlightText(a.flight, a.flight_trigger, dump_a);
  WriteFlightText(b.flight, b.flight_trigger, dump_b);
  EXPECT_EQ(dump_a.str(), dump_b.str()) << "flight dump not deterministic across replays";
}

TEST_F(ObservabilityIntegrationTest, DisabledConfigRunsWithNullEngines) {
  ParallelClusterConfig pc;
  pc.machines = 2;
  pc.metrics_enabled = false;
  pc.flight_recorder_enabled = false;
  ParallelCluster cluster(pc);

  TokenRingSpec spec;
  spec.rings = 1;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 1;
  spec.hops_per_token = 20;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_FALSE(rings.empty());
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  EXPECT_TRUE(cluster.RunUntilQuiescent(std::chrono::milliseconds(30000)));
  cluster.RefreshDepthGauges();  // must be a safe no-op
  cluster.Stop();
  EXPECT_EQ(cluster.metrics(), nullptr);
  EXPECT_EQ(cluster.flight_recorder(), nullptr);
}

}  // namespace
}  // namespace demos
