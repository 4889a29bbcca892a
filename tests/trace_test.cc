// Tests for tracing (the flight recorder in retain-all mode, analysed by
// src/obs/trace_export.h): span reconstruction under concurrent migrations,
// message forwarding-hop tracking across a 3-machine chain, the tracing-off
// no-recorder guarantee, and Chrome trace_event JSON well-formedness in both
// engines.

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "src/kernel/cluster.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/run/parallel_cluster.h"
#include "tests/test_util.h"

namespace demos {
namespace {

ClusterConfig TracedConfig(int machines) {
  ClusterConfig config;
  config.machines = machines;
  config.EnableTracing();
  return config;
}

// The whole traced timeline of an engine.
std::vector<FlightRecord> Trace(Engine& engine) { return engine.flight_recorder()->Merged(); }

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (objects, arrays, strings, numbers, literals).
// Enough to prove the exporter emits parseable trace_event JSON.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    std::size_t len = std::string_view(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Value() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!String()) {
        return false;
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return false;
      }
      ++pos_;
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '}') {
      return false;
    }
    ++pos_;
    return true;
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != ']') {
      return false;
    }
    ++pos_;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

TEST(TraceTest, DisabledTracerRecordsNothing) {
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 2;  // tracing left at the default: off everywhere
  Cluster cluster(config);

  auto proc = cluster.kernel(0).SpawnProcess("counter", 4096, 2048, 1024);
  ASSERT_TRUE(proc.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, proc->pid, 0, 1);

  EXPECT_EQ(cluster.HostOf(proc->pid), 1);
  // No recorder anywhere: the kernels, network and reliable channel all
  // record into the engine's hub, which tracing off does not build.
  EXPECT_EQ(cluster.flight_recorder(), nullptr);
}

TEST(TraceTest, SingleMigrationYieldsAllEightPhases) {
  testutil::RegisterPrograms();
  Cluster cluster(TracedConfig(2));

  auto proc = cluster.kernel(0).SpawnProcess("counter", 4096, 2048, 1024);
  ASSERT_TRUE(proc.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, proc->pid, 0, 1);

  const std::vector<FlightRecord> records = Trace(cluster);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(cluster.flight_recorder()->TotalDropped(), 0u);

  auto spans = BuildMigrationSpans(records);
  ASSERT_EQ(spans.size(), 1u);
  const MigrationSpan& span = spans[0];
  EXPECT_TRUE(span.completed);
  EXPECT_FALSE(span.aborted);
  EXPECT_EQ(span.pid, proc->pid);
  EXPECT_EQ(span.source, 0);
  EXPECT_EQ(span.destination, 1);
  EXPECT_GT(span.duration(), 0u);
  EXPECT_GT(span.bytes_moved, 0u);

  // All 8 protocol phases reconstructed, each nested within the root span,
  // with monotonically non-decreasing start times.
  for (int i = 0; i < kNumMigrationPhases; ++i) {
    const MigrationPhaseSpan& phase = span.phases[i];
    EXPECT_TRUE(phase.valid) << "phase " << MigrationPhaseName(phase.kind);
    EXPECT_GE(phase.start, span.start) << MigrationPhaseName(phase.kind);
    EXPECT_LE(phase.end, span.end) << MigrationPhaseName(phase.kind);
    EXPECT_GE(phase.end, phase.start) << MigrationPhaseName(phase.kind);
    if (i > 0) {
      EXPECT_GE(phase.start, span.phases[i - 1].start)
          << MigrationPhaseName(phase.kind) << " starts before "
          << MigrationPhaseName(span.phases[i - 1].kind);
    }
  }

  // The three section moves carried the image.
  const auto& resident = span.phases[static_cast<int>(MigrationPhaseKind::kMoveResident)];
  const auto& image = span.phases[static_cast<int>(MigrationPhaseKind::kMoveImage)];
  EXPECT_GT(resident.bytes, 0u);
  EXPECT_GT(image.bytes, 0u);
}

TEST(TraceTest, ConcurrentMigrationsReconstructIndependently) {
  testutil::RegisterPrograms();
  Cluster cluster(TracedConfig(3));

  auto p0 = cluster.kernel(0).SpawnProcess("counter", 4096, 2048, 1024);
  auto p1 = cluster.kernel(1).SpawnProcess("idle", 2048, 1024, 512);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  cluster.RunUntilIdle();

  // Both migrations target m2 and run interleaved on the same timeline.
  ASSERT_TRUE(
      cluster.kernel(0).StartMigration(p0->pid, 2, cluster.kernel(0).kernel_address()).ok());
  ASSERT_TRUE(
      cluster.kernel(1).StartMigration(p1->pid, 2, cluster.kernel(1).kernel_address()).ok());
  cluster.RunUntilIdle();

  EXPECT_EQ(cluster.HostOf(p0->pid), 2);
  EXPECT_EQ(cluster.HostOf(p1->pid), 2);

  auto spans = BuildMigrationSpans(Trace(cluster));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].id, spans[1].id);
  for (const MigrationSpan& span : spans) {
    EXPECT_TRUE(span.completed);
    EXPECT_EQ(span.destination, 2);
    for (const MigrationPhaseSpan& phase : span.phases) {
      EXPECT_TRUE(phase.valid) << MigrationPhaseName(phase.kind);
      EXPECT_GE(phase.start, span.start);
      EXPECT_LE(phase.end, span.end);
    }
  }
  EXPECT_TRUE((spans[0].pid == p0->pid && spans[1].pid == p1->pid) ||
              (spans[0].pid == p1->pid && spans[1].pid == p0->pid));
}

TEST(TraceTest, ForwardingChainRecordsHops) {
  testutil::RegisterPrograms();
  Cluster cluster(TracedConfig(3));

  auto proc = cluster.kernel(0).SpawnProcess("counter", 4096, 2048, 1024);
  ASSERT_TRUE(proc.ok());
  cluster.RunUntilIdle();

  // Leave a forwarding address on m0 and then on m1.
  testutil::MigrateAndSettle(cluster, proc->pid, 0, 1);
  testutil::MigrateAndSettle(cluster, proc->pid, 1, 2);
  ASSERT_EQ(cluster.HostOf(proc->pid), 2);

  // A message addressed to the original home must chase the process through
  // both forwarding addresses: m0 -> m1 -> m2.
  cluster.kernel(0).SendFromKernel(ProcessAddress{0, proc->pid}, kIncrement, {});
  cluster.RunUntilIdle();

  auto messages = BuildMessageTraces(Trace(cluster));
  std::uint32_t max_hops = 0;
  bool delivered_with_hops = false;
  for (const MessageTrace& msg : messages) {
    max_hops = std::max(max_hops, msg.hops);
    if (msg.hops >= 2 && msg.was_delivered) {
      delivered_with_hops = true;
      EXPECT_GT(msg.Latency(), 0u);
    }
  }
  EXPECT_GE(max_hops, 2u);
  EXPECT_TRUE(delivered_with_hops);

  // The same fact lands in the derived histogram.
  StatsRegistry derived;
  BuildTraceStats(Trace(cluster), &derived);
  EXPECT_GE(derived.Histogram(HistId::kForwardHops).max, 2u);
}

TEST(TraceTest, ChromeTraceJsonIsWellFormed) {
  testutil::RegisterPrograms();
  Cluster cluster(TracedConfig(2));

  auto proc = cluster.kernel(0).SpawnProcess("counter", 4096, 2048, 1024);
  ASSERT_TRUE(proc.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, proc->pid, 0, 1);

  std::ostringstream out;
  WriteChromeTrace(Trace(cluster), out);
  const std::string json = out.str();

  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("migration_begin"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // reconstructed spans
  EXPECT_NE(json.find("forwarding_address_installed"), std::string::npos);
}

TEST(TraceTest, SummaryMentionsEveryPhase) {
  testutil::RegisterPrograms();
  Cluster cluster(TracedConfig(2));

  auto proc = cluster.kernel(0).SpawnProcess("counter", 4096, 2048, 1024);
  ASSERT_TRUE(proc.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, proc->pid, 0, 1);

  std::ostringstream out;
  WriteTraceSummary(Trace(cluster), out);
  const std::string text = out.str();
  for (int i = 0; i < kNumMigrationPhases; ++i) {
    EXPECT_NE(text.find(MigrationPhaseName(static_cast<MigrationPhaseKind>(i))),
              std::string::npos)
        << "summary missing phase " << i;
  }
}

TEST(TraceTest, ParallelChromeTraceHasMigrationSpans) {
  // The parallel engine stamps records with steady_clock, one axis across
  // shards, so a traced migration reconstructs straight from the merge.
  testutil::RegisterPrograms();
  ParallelClusterConfig config;
  config.machines = 2;
  config.trace_enabled = true;
  ParallelCluster cluster(config);
  auto proc = cluster.kernel(0).SpawnProcess("counter", 4096, 2048, 1024);
  ASSERT_TRUE(proc.ok());
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilQuiescent(std::chrono::milliseconds(30000)));
  cluster.Post(0, [&cluster, pid = proc->pid] {
    (void)cluster.kernel(0).StartMigration(pid, 1, cluster.kernel(0).kernel_address());
  });
  ASSERT_TRUE(cluster.RunUntilQuiescent(std::chrono::milliseconds(30000)));
  cluster.Stop();
  ASSERT_EQ(cluster.HostOf(proc->pid), 1);

  const std::vector<FlightRecord> records = Trace(cluster);
  const std::vector<MigrationSpan> spans = BuildMigrationSpans(records);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].completed);
  EXPECT_EQ(spans[0].source, 0);
  EXPECT_EQ(spans[0].destination, 1);

  std::ostringstream out;
  WriteChromeTrace(records, out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"migration_begin\""), std::string::npos);
  EXPECT_NE(json.find("\"restarted\""), std::string::npos);
  bool timed_span = false;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    const std::size_t dur = json.find("\"dur\":", at);
    ASSERT_NE(dur, std::string::npos);
    timed_span = timed_span || std::stoull(json.substr(dur + 6)) > 0;
  }
  EXPECT_TRUE(timed_span);
}

}  // namespace
}  // namespace demos
