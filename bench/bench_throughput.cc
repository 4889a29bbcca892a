// Throughput trajectory: aggregate messages/sec and migrations/sec of the
// parallel sharded engine at 1/2/4/8 shards, against the single-threaded
// deterministic engine running the identical token-ring workload.
//
// Two phases per shard count:
//   messages    -- static rings, long-lived tokens: pure cross-shard message
//                  traffic through the full kernel deliver path.
//   migrations  -- hopper rings: every node chains self-migrations while
//                  token traffic keeps arriving on stale addresses (the
//                  Sec. 3.1 protocol plus forwarding under load).
//
// Both engines must agree on the exactly-once program-level reception count;
// the bench hard-fails on any mismatch, so the numbers can't quietly measure
// a broken run.  `--json=PATH` writes the stable schema consumed by the CI
// bench-trajectory gate (schema: demos-bench-throughput-v1).
//
// Scaling caveat: aggregate speedup needs real cores.  The JSON records
// hardware_concurrency so the gate can skip scaling assertions on starved
// hosts (a 1-core container runs the parallel engine roughly flat).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"
#include "src/run/parallel_cluster.h"
#include "src/workload/token_ring_harness.h"

namespace demos {
namespace {

// Per-shard runtime counters pulled from the metrics engine after a parallel
// phase (empty for sequential phases and for --metrics=off runs).
struct ShardBreakdown {
  int shard = 0;
  std::uint64_t msgs_drained = 0;
  std::uint64_t spill_rescued = 0;
  std::uint64_t parks = 0;
  std::uint64_t notifies = 0;
  // PR-8 hot-path counters: spin-then-park, notify elision, payload pooling,
  // and destination batching (batch count + mean frames per batch).
  std::uint64_t spin_iters = 0;
  std::uint64_t parks_avoided = 0;
  std::uint64_t notifies_elided = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t batches = 0;
  double batch_mean = 0;
  // Conservative-sync receive counters (parallel_sync rows only).
  std::uint64_t sync_clamped = 0;
  std::uint64_t wide_clamped = 0;
};

// Coordinator-slot LBTS stats for a sync-enabled parallel phase.
struct SyncBreakdown {
  std::uint64_t windows = 0;
  std::uint64_t wide_windows = 0;
  double span_mean_us = 0;  // mean lbts_window_span_us
  std::uint64_t span_p99_us = 0;
};

struct PhaseResult {
  std::string engine;  // "sequential" | "parallel" | "parallel_sync"
  std::string phase;   // "messages" | "migrations"
  int shards = 0;
  double wall_seconds = 0;
  std::int64_t messages = 0;    // program-level token receptions
  std::int64_t migrations = 0;  // completed chained migrations
  double messages_per_sec = 0;
  double migrations_per_sec = 0;
  std::vector<ShardBreakdown> per_shard;
  bool has_sync = false;
  SyncBreakdown sync;
};

struct RingTotals {
  std::int64_t tokens_seen = 0;
  std::int64_t migrations = 0;
};

template <typename ClusterT>
RingTotals SumProgramCounters(ClusterT& cluster, const std::vector<TokenRing>& rings) {
  RingTotals totals;
  for (const TokenRing& ring : rings) {
    for (const ProcessAddress& node : ring) {
      ProcessRecord* record = cluster.FindProcessAnywhere(node.pid);
      if (record == nullptr) {
        continue;
      }
      if (auto* program = dynamic_cast<TokenRingProgram*>(record->program.get())) {
        totals.tokens_seen += static_cast<std::int64_t>(program->tokens_seen());
        totals.migrations += program->migrations_started();
      }
    }
  }
  return totals;
}

bool CheckExact(const char* what, std::int64_t got, std::int64_t want) {
  if (got != want) {
    std::fprintf(stderr, "FATAL: %s: got %lld, want %lld -- run is broken, refusing to report\n",
                 what, static_cast<long long>(got), static_cast<long long>(want));
    return false;
  }
  return true;
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// One phase on the deterministic engine: M machines on one thread.
bool RunSequentialPhase(int machines, const TokenRingSpec& spec, const std::string& phase,
                        PhaseResult& out) {
  Cluster cluster(ClusterConfig{.machines = machines});
  std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  if (rings.empty()) {
    return false;
  }
  const auto start = std::chrono::steady_clock::now();
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  cluster.RunUntilIdle(200'000'000);
  const auto end = std::chrono::steady_clock::now();

  const RingTotals totals = SumProgramCounters(cluster, rings);
  // A single-machine cluster has nowhere to migrate to; the program guards
  // the hop out, so the expected chain count is zero there.
  const std::int64_t nodes = static_cast<std::int64_t>(spec.rings) * spec.nodes_per_ring;
  const std::int64_t want_migrations = machines >= 2 ? nodes * spec.migrate_count : 0;
  if (!CheckExact("sequential token receptions", totals.tokens_seen,
                  ExpectedTokenReceptions(spec)) ||
      !CheckExact("sequential migrations", totals.migrations, want_migrations)) {
    return false;
  }
  out.engine = "sequential";
  out.phase = phase;
  out.shards = machines;
  out.wall_seconds = Seconds(start, end);
  out.messages = totals.tokens_seen;
  out.migrations = totals.migrations;
  out.messages_per_sec = static_cast<double>(out.messages) / out.wall_seconds;
  out.migrations_per_sec = static_cast<double>(out.migrations) / out.wall_seconds;
  return true;
}

// One phase on the parallel engine: M shards, one worker thread each.
// `series_out` non-null attaches the periodic sampler and hands back the
// demos-metrics-v1 time series for this phase.  `sync_on` runs the phase
// under conservative virtual-time sync (wide windows on by default);
// the row is labelled "parallel_sync" so sync-off baselines stay comparable.
bool RunParallelPhase(int machines, const TokenRingSpec& spec, const std::string& phase,
                      bool metrics_on, bool sync_on, MetricsTimeSeries* series_out,
                      PhaseResult& out) {
  ParallelClusterConfig pc;
  pc.machines = machines;
  pc.metrics_enabled = metrics_on;
  pc.flight_recorder_enabled = metrics_on;
  pc.sync.enabled = sync_on;
  ParallelCluster cluster(pc);
  std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  if (rings.empty()) {
    return false;
  }
  MetricsSampler sampler(cluster.metrics(), std::chrono::milliseconds(10));
  if (series_out != nullptr && cluster.metrics() != nullptr) {
    sampler.SetCollector([&cluster] { cluster.RefreshDepthGauges(); });
    sampler.Start();
  }
  const auto start = std::chrono::steady_clock::now();
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  if (!cluster.RunUntilQuiescent(std::chrono::milliseconds(300000))) {
    std::fprintf(stderr, "FATAL: parallel cluster did not quiesce\n");
    return false;
  }
  const auto end = std::chrono::steady_clock::now();
  if (series_out != nullptr && cluster.metrics() != nullptr) {
    sampler.Stop();
    *series_out = sampler.TakeSeries(cluster.KernelStats());
  }

  const RingTotals totals = SumProgramCounters(cluster, rings);
  if (const MetricsEngine* metrics = cluster.metrics()) {
    for (int i = 0; i < machines; ++i) {
      const MetricShard& slab = metrics->shard(i);
      ShardBreakdown b;
      b.shard = i;
      b.msgs_drained = slab.Counter(CounterId::kMsgsDrained);
      b.spill_rescued = slab.Counter(CounterId::kSpillRescued);
      b.parks = slab.Counter(CounterId::kCondvarParks);
      b.notifies = slab.Counter(CounterId::kCondvarNotifies);
      b.spin_iters = slab.Counter(CounterId::kSpinIters);
      b.parks_avoided = slab.Counter(CounterId::kParksAvoided);
      b.notifies_elided = slab.Counter(CounterId::kNotifiesElided);
      b.pool_hits = slab.Counter(CounterId::kPoolHits);
      b.pool_misses = slab.Counter(CounterId::kPoolMisses);
      const HistogramSnapshot batch = slab.Histogram(HistogramId::kBatchSize);
      b.batches = batch.count;
      b.batch_mean = batch.Mean();
      if (sync_on) {
        b.sync_clamped = slab.Counter(CounterId::kSyncFramesClamped);
        b.wide_clamped = slab.Counter(CounterId::kWideFramesClamped);
      }
      out.per_shard.push_back(b);
    }
    if (sync_on) {
      const MetricShard& coord = metrics->shard(cluster.coordinator_slot());
      out.has_sync = true;
      out.sync.windows = coord.Counter(CounterId::kLbtsWindows);
      out.sync.wide_windows = coord.Counter(CounterId::kWideWindowsOpened);
      const HistogramSnapshot spans = coord.Histogram(HistogramId::kLbtsWindowSpanUs);
      out.sync.span_mean_us = spans.Mean();
      out.sync.span_p99_us = spans.QuantileBound(0.99);
    }
  }
  cluster.Stop();
  const std::int64_t nodes = static_cast<std::int64_t>(spec.rings) * spec.nodes_per_ring;
  const std::int64_t want_migrations = machines >= 2 ? nodes * spec.migrate_count : 0;
  if (!CheckExact(sync_on ? "parallel_sync token receptions" : "parallel token receptions",
                  totals.tokens_seen, ExpectedTokenReceptions(spec)) ||
      !CheckExact(sync_on ? "parallel_sync migrations" : "parallel migrations",
                  totals.migrations, want_migrations)) {
    return false;
  }
  out.engine = sync_on ? "parallel_sync" : "parallel";
  out.phase = phase;
  out.shards = machines;
  out.wall_seconds = Seconds(start, end);
  out.messages = totals.tokens_seen;
  out.migrations = totals.migrations;
  out.messages_per_sec = static_cast<double>(out.messages) / out.wall_seconds;
  out.migrations_per_sec = static_cast<double>(out.migrations) / out.wall_seconds;
  return true;
}

double FindMessagesPerSec(const std::vector<PhaseResult>& results, const std::string& engine,
                          int shards) {
  for (const PhaseResult& r : results) {
    if (r.engine == engine && r.phase == "messages" && r.shards == shards) {
      return r.messages_per_sec;
    }
  }
  return 0;
}

bool WriteJson(const std::string& path, const std::vector<PhaseResult>& results,
               double scaling_4x, double par_vs_seq_4, double sync_overhead_ratio) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n";
  out << "  \"schema\": \"demos-bench-throughput-v1\",\n";
  out << "  \"host\": {\n";
  out << "    \"hardware_concurrency\": " << std::thread::hardware_concurrency() << "\n";
  out << "  },\n";
  out << "  \"derived\": {\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", scaling_4x);
  out << "    \"parallel_scaling_4x\": " << buf << ",\n";
  // parallel msgs/sec over sequential msgs/sec at 4 shards: the PR perf-smoke
  // gate compares this single number against the checked-in baseline.
  std::snprintf(buf, sizeof(buf), "%.4f", par_vs_seq_4);
  out << "    \"parallel_vs_sequential_4\": " << buf;
  if (sync_overhead_ratio > 0) {
    // sync-on over sync-off parallel msgs/sec at 4 shards: what conservative
    // virtual-time sync (with wide windows) costs.  Additive field --
    // absent when the run did not cover both sides of the --sync axis.
    out << ",\n";
    std::snprintf(buf, sizeof(buf), "%.4f", sync_overhead_ratio);
    out << "    \"sync_overhead_ratio\": " << buf << "\n";
  } else {
    out << "\n";
  }
  out << "  },\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PhaseResult& r = results[i];
    out << "    {\"engine\": \"" << r.engine << "\", \"phase\": \"" << r.phase
        << "\", \"shards\": " << r.shards;
    std::snprintf(buf, sizeof(buf), "%.6f", r.wall_seconds);
    out << ", \"wall_seconds\": " << buf;
    out << ", \"messages\": " << r.messages << ", \"migrations\": " << r.migrations;
    std::snprintf(buf, sizeof(buf), "%.1f", r.messages_per_sec);
    out << ", \"messages_per_sec\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.1f", r.migrations_per_sec);
    out << ", \"migrations_per_sec\": " << buf;
    // Additive per-shard breakdown (parallel phases with metrics on only);
    // readers of demos-bench-throughput-v1 that predate it ignore the key.
    if (!r.per_shard.empty()) {
      out << ", \"per_shard\": [";
      for (std::size_t j = 0; j < r.per_shard.size(); ++j) {
        const ShardBreakdown& b = r.per_shard[j];
        out << (j == 0 ? "" : ", ") << "{\"shard\": " << b.shard
            << ", \"msgs_drained\": " << b.msgs_drained
            << ", \"spill_rescued\": " << b.spill_rescued << ", \"parks\": " << b.parks
            << ", \"notifies\": " << b.notifies << ", \"spin_iters\": " << b.spin_iters
            << ", \"parks_avoided\": " << b.parks_avoided
            << ", \"notifies_elided\": " << b.notifies_elided
            << ", \"pool_hits\": " << b.pool_hits << ", \"pool_misses\": " << b.pool_misses
            << ", \"batches\": " << b.batches;
        std::snprintf(buf, sizeof(buf), "%.2f", b.batch_mean);
        out << ", \"batch_mean\": " << buf;
        if (r.has_sync) {
          out << ", \"sync_frames_clamped\": " << b.sync_clamped
              << ", \"wide_frames_clamped\": " << b.wide_clamped;
        }
        out << "}";
      }
      out << "]";
    }
    // Coordinator-slot LBTS stats (parallel_sync rows with metrics on only).
    if (r.has_sync) {
      out << ", \"sync\": {\"lbts_windows\": " << r.sync.windows
          << ", \"wide_windows_opened\": " << r.sync.wide_windows;
      std::snprintf(buf, sizeof(buf), "%.1f", r.sync.span_mean_us);
      out << ", \"lbts_window_span_us_mean\": " << buf
          << ", \"lbts_window_span_us_p99\": " << r.sync.span_p99_us << "}";
    }
    out << "}" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "  ]\n";
  out << "}\n";
  return true;
}

int Main(int argc, char** argv) {
  std::string json_path;
  std::string metrics_path;  // demos-metrics-v1 series from the 4-shard run
  bool metrics_on = true;    // --metrics=off measures the instrumentation cost
  // Conservative-sync axis: "off" = free-running parallel only (the pre-sync
  // bench), "on" = sync-enabled parallel only, "both" (default) = run both
  // and derive sync_overhead_ratio.
  bool run_sync_off = true;
  bool run_sync_on = true;
  // Work scale knob so CI can trade precision for runtime.
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_path = arg.substr(14);
    } else if (arg == "--metrics=off") {
      metrics_on = false;
    } else if (arg == "--metrics=on") {
      metrics_on = true;
    } else if (arg == "--sync=off") {
      run_sync_on = false;
    } else if (arg == "--sync=on") {
      run_sync_off = false;
    } else if (arg == "--sync=both") {
      run_sync_off = run_sync_on = true;
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::stod(arg.substr(8));
    }
  }

  bench::RegisterEverything();
  bench::Title("THROUGHPUT", "parallel sharded engine vs deterministic engine");
  bench::Note("messages phase: static token rings; migrations phase: chained self-migrations "
              "under stale-address traffic");
  bench::Note("host hardware_concurrency = " +
              std::to_string(std::thread::hardware_concurrency()));

  // Fixed total work across shard counts, so rates are directly comparable.
  TokenRingSpec messages_spec;
  messages_spec.rings = 8;
  messages_spec.nodes_per_ring = 8;
  messages_spec.tokens_per_node = 2;
  messages_spec.hops_per_token = static_cast<std::uint32_t>(1000 * scale);

  TokenRingSpec migrations_spec;
  migrations_spec.rings = 4;
  migrations_spec.nodes_per_ring = 4;
  migrations_spec.tokens_per_node = 1;
  migrations_spec.hops_per_token = static_cast<std::uint32_t>(200 * scale);
  migrations_spec.migrate_count = static_cast<std::uint32_t>(25 * scale);
  migrations_spec.migrate_after_tokens = 1;

  std::vector<PhaseResult> results;
  MetricsTimeSeries metrics_series;
  bool have_metrics_series = false;
  // Engine axis per shard count: sequential, free-running parallel, and
  // sync-enabled parallel (wide windows default-on) as --sync selects.
  std::vector<std::string> engines = {"sequential"};
  if (run_sync_off) {
    engines.push_back("parallel");
  }
  if (run_sync_on) {
    engines.push_back("parallel_sync");
  }
  for (const int shards : {1, 2, 4, 8}) {
    for (const std::string& engine : engines) {
      PhaseResult messages;
      PhaseResult migrations;
      const bool seq = engine == "sequential";
      const bool sync_on = engine == "parallel_sync";
      // The 4-shard free-running messages phase is the canonical metrics
      // capture: enough cross-shard traffic to populate every
      // mailbox/park/spill series.
      MetricsTimeSeries* capture = (engine == "parallel" && shards == 4 && !metrics_path.empty())
                                       ? &metrics_series
                                       : nullptr;
      const bool ok =
          seq ? RunSequentialPhase(shards, messages_spec, "messages", messages) &&
                    RunSequentialPhase(shards, migrations_spec, "migrations", migrations)
              : RunParallelPhase(shards, messages_spec, "messages", metrics_on, sync_on, capture,
                                 messages) &&
                    RunParallelPhase(shards, migrations_spec, "migrations", metrics_on, sync_on,
                                     nullptr, migrations);
      if (capture != nullptr) {
        have_metrics_series = metrics_on;
      }
      if (!ok) {
        return 1;
      }
      results.push_back(messages);
      results.push_back(migrations);
    }
  }

  bench::Table table({"engine", "phase", "shards", "wall_s", "messages", "msgs/sec",
                      "migrations", "migr/sec"});
  for (const PhaseResult& r : results) {
    table.Row({r.engine, r.phase, bench::Num(r.shards), bench::Num(r.wall_seconds, 3),
               bench::Num(r.messages), bench::Num(r.messages_per_sec, 0),
               bench::Num(r.migrations), bench::Num(r.migrations_per_sec, 0)});
  }
  table.Print();

  const double par1 = FindMessagesPerSec(results, "parallel", 1);
  const double par4 = FindMessagesPerSec(results, "parallel", 4);
  const double seq4 = FindMessagesPerSec(results, "sequential", 4);
  const double sync4 = FindMessagesPerSec(results, "parallel_sync", 4);
  const double scaling = par1 > 0 ? par4 / par1 : 0;
  const double par_vs_seq_4 = seq4 > 0 ? par4 / seq4 : 0;
  const double sync_overhead_ratio = (par4 > 0 && sync4 > 0) ? sync4 / par4 : 0;
  std::printf("\nparallel msgs/sec scaling, 4 shards vs 1 shard: %.2fx\n", scaling);
  std::printf("parallel vs sequential msgs/sec at 4 shards: %.2fx\n", par_vs_seq_4);
  if (sync_overhead_ratio > 0) {
    std::printf("sync-on vs sync-off parallel msgs/sec at 4 shards: %.2fx\n",
                sync_overhead_ratio);
  }
  if (std::thread::hardware_concurrency() < 4) {
    std::printf("(host has < 4 cores: aggregate scaling is not measurable here)\n");
  }

  if (!metrics_path.empty()) {
    if (!have_metrics_series) {
      std::fprintf(stderr, "--metrics-out requires --metrics=on\n");
      return 1;
    }
    if (!WriteMetricsJsonFile(metrics_series, metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("metrics: %s (%zu samples, 4-shard messages phase)\n", metrics_path.c_str(),
                metrics_series.samples.size());
  }

  if (!json_path.empty() &&
      !WriteJson(json_path, results, scaling, par_vs_seq_4, sync_overhead_ratio)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace demos

int main(int argc, char** argv) { return demos::Main(argc, argv); }
