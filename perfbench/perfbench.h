// Shared declarations of the benchmark program (see perfbench/README.md).
//
// The benchmark measures the simulator from outside: it stages the token-ring
// workload through the public harness (src/workload/token_ring_harness.h),
// times calls into public functions, reads public counters, and attaches a
// KernelObserver.  Nothing under src/ knows it is being measured.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/kernel/observer.h"
#include "src/run/parallel_cluster.h"
#include "src/workload/programs.h"
#include "src/workload/token_ring_harness.h"

namespace perfbench {

using demos::Bytes;
using demos::MachineId;

// ---- Command line. ----

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Small rounds and a short budget: the benchmark's own tests use it.
  bool tiny = false;
  // Adds one to every expected reception count, so a correct run must be
  // reported as failed (the self-test of the exactly-once check).
  bool plant_wrong_count = false;
  // Where span logs go (created by the caller); empty = do not write them.
  std::string out_dir;
};

// ---- Workloads. ----

enum class Engine { kSequential, kParallel };

struct Workload {
  const char* name;
  Engine engine;
  int machines;  // machines of the sequential cluster, or shards
  bool sync;     // conservative virtual-time sync (parallel only)
  demos::TokenRingSpec spec;
};

// Known workload by name, sized for a full or a tiny run; false if unknown.
bool FindWorkload(const std::string& name, bool tiny, Workload* out);

// ---- Results. ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Exactly-once bookkeeping, summed over every round of a run.  An operation
// is one expected token reception or one expected migration.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  // Count `want` operations of which `got` happened; any difference fails.
  void Expect(const std::string& what, std::int64_t got, std::int64_t want);
  // Every operation of the round failed (quiescence timeout).
  void FailAll(const std::string& what, std::int64_t ops);
  // A benchmark-level check (e.g. fidelity) that failed; counts as one op.
  void Fail(const std::string& what);
  bool ok() const { return failed == 0 && errors.empty(); }
};

// Host timestamps in nanoseconds on std::chrono::steady_clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double Seconds(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// Wall-clock bound on one quiescence wait; hitting it fails the round.
inline constexpr std::chrono::milliseconds kQuiesceTimeout{60000};
// Process user+sys CPU in seconds, and the peak resident set in MB.
double ProcessCpuSeconds();
double PeakRssMb();

double Median(std::vector<double> values);
// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
double Quantile(std::vector<double> values, double q);
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---- Host-speed reference (reference.cc). ----
//
// The host's vCPUs run up to 60% slower for minutes at a time, with no
// stolen time to show for it, so raw rates drift between runs of the same
// code.  The reference kernel runs after every untraced round; the gated
// metrics scale each workload's figures by the reference's speed relative to
// kReferenceNominalNsPerOp, so they read as on a host of nominal speed.
inline constexpr std::uint64_t kReferenceOps = 60000;
// The reference's fast-decile cost on a calm 4-vCPU Xeon (Sapphire Rapids
// class, KVM guest); any fixed value would do, this one keeps the scaled
// figures near the raw ones.
inline constexpr double kReferenceNominalNsPerOp = 330;

struct ReferenceSample {
  double wall_ns_per_op = 0;
  double cpu_ns_per_op = 0;
  std::uint64_t check = 0;  // the same on every call
};

class Reference {
 public:
  Reference();
  ReferenceSample Measure();

 private:
  std::uint64_t Work();
  std::vector<std::uint64_t> table_;
  std::uint64_t sink_ = 0;
};

// ---- Observer: migration hooks stamped with host time, message counts. ----
//
// Each hook runs on the thread that owns the reporting machine (one shard
// thread per machine in the parallel engine), so every machine gets its own
// single-writer log; the harness reads them only after quiescence.
class RecordingObserver final : public demos::KernelObserver {
 public:
  enum class Kind : std::uint8_t { kFrozen, kSection, kRestart };
  struct Stamp {
    std::uint64_t pid = 0;
    Kind kind = Kind::kFrozen;
    std::int64_t t_ns = 0;
    std::uint64_t bytes = 0;  // section size (kSection only)
  };
  // Per-migration phase times, host microseconds.
  struct Phases {
    double wall_us = 0;      // frozen -> restart
    double accept_us = 0;    // frozen -> first section
    double transfer_us = 0;  // first -> last section
    double restart_us = 0;   // last section -> restart
  };
  struct Counts {
    std::int64_t forwards = 0;
    std::int64_t bounces = 0;
    std::int64_t pending_resends = 0;
    std::int64_t aborted = 0;
    std::int64_t admin_sent = 0;  // fresh migration admin messages (tracing on)
  };

  // `capture_every` > 0 also copies every n-th consumed message's wire
  // encoding (up to `capture_cap` per machine) for the price list.
  RecordingObserver(int machines, bool count_messages, int capture_every = 0,
                    std::size_t capture_cap = 0);

  void OnMessageSend(MachineId machine, const demos::Message& msg) override;
  void OnMessageDeliver(MachineId machine, const demos::Message& msg) override;
  void OnMessageForward(MachineId machine, const demos::Message& msg, MachineId next) override;
  void OnMessageBounce(MachineId machine, const demos::Message& msg) override;
  void OnPendingResend(MachineId machine, const demos::Message& msg) override;
  void OnMigrationFrozen(MachineId source, MachineId dest, const demos::ProcessRecord& record,
                         const demos::PayloadRef& resident, const demos::PayloadRef& swappable,
                         const demos::PayloadRef& image) override;
  void OnMigrationSection(MachineId dest, const demos::ProcessId& pid,
                          demos::MigrationSection section, const Bytes& bytes) override;
  void OnMigrationRestart(MachineId dest, const demos::ProcessId& pid,
                          const demos::ProcessRecord& record) override;
  void OnMigrationAborted(MachineId source, const demos::ProcessId& pid) override;

  // Pair freezes with restarts per pid and chain index.  `unmatched` counts
  // freezes without a restart (and the reverse).
  std::vector<Phases> Match(std::int64_t* unmatched) const;
  Counts Totals() const;
  std::vector<Bytes> TakeCaptured();
  // Every stamp, for the span log.
  std::vector<Stamp> AllStamps() const;

 private:
  struct PerMachine {
    std::vector<Stamp> stamps;
    Counts counts;
    std::vector<Bytes> captured;
    std::uint64_t seen = 0;
  };
  PerMachine& At(MachineId m) { return machines_[m]; }

  std::vector<PerMachine> machines_;
  bool count_messages_;
  int capture_every_;
  std::size_t capture_cap_;
};

// ---- Runs. ----

// Exactly-once counters of a finished round, read from the programs;
// `find` maps a pid to its live record (null when it has none).
template <typename Find>
void CountTokens(const std::vector<demos::TokenRing>& rings, Find find,
                 std::int64_t* tokens_seen, std::int64_t* migrations) {
  *tokens_seen = 0;
  *migrations = 0;
  for (const demos::TokenRing& ring : rings) {
    for (const demos::ProcessAddress& node : ring) {
      demos::ProcessRecord* record = find(node.pid);
      if (auto* p = record == nullptr
                        ? nullptr
                        : dynamic_cast<demos::TokenRingProgram*>(record->program.get())) {
        *tokens_seen += static_cast<std::int64_t>(p->tokens_seen());
        *migrations += p->migrations_started();
      }
    }
  }
}

struct Round {
  double setup_s = 0;
  double run_s = 0;  // 0 when the round failed
  double cpu_s = 0;
  std::int64_t receptions = 0;
  std::int64_t migrations = 0;
  std::uint64_t final_virtual_us = 0;  // sequential engine only
  std::int64_t wire_bytes = 0;         // sequential engine only
};

// Called on the harness thread around a parallel round's timed phase, while
// the shard threads are alive and the cluster is quiescent.
class RoundProbe {
 public:
  virtual ~RoundProbe() = default;
  virtual void Staged(demos::ParallelCluster& cluster) {}
  virtual void Finished(demos::ParallelCluster& cluster) {}
};

// One round on a fresh ParallelCluster; checks the exactly-once counts.
Round ParallelRound(const Workload& w, const Options& opt, bool traced,
                    demos::KernelObserver* observer, RoundProbe* probe, Ledger& ledger);

// Untraced rounds for `budget_s` seconds (at least one round): fills the
// end-to-end metrics and, for hop_par, the migration figures.
struct E2eResult {
  double msgs_per_s = 0;
  double cpu_us_per_msg = 0;
  // The same, scaled to the nominal host speed of the reference kernel.
  double msgs_per_s_at_ref = 0;
  double cpu_us_per_msg_at_ref = 0;
  double ref_wall_ns_per_op = 0;  // fast decile over the rounds
  double ref_cpu_ns_per_op = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;  // after the first round: one cluster lifetime
  double migrations_per_s = 0;
  double migration_wall_us_p50 = 0;
  double migration_wall_us_p99 = 0;
  std::size_t migration_samples = 0;
  int rounds = 0;
  // Fidelity reference (sequential engine): the first round's outcome.
  std::uint64_t final_virtual_us = 0;
  std::int64_t receptions = 0;
  std::int64_t wire_bytes = 0;
};
E2eResult RunUntraced(const Workload& w, const Options& opt, double budget_s, Ledger& ledger);

// Traced rounds plus the price list: appends the per-layer metrics.
// `untraced` supplies the reference figures (tracing overhead, fidelity).
void RunTraced(const Workload& w, const Options& opt, double budget_s, const E2eResult& untraced,
               Ledger& ledger, std::vector<Metric>& metrics);

// The total expected reception count of one round, honouring the planted
// wrong count.
std::int64_t WantReceptions(const Workload& w, const Options& opt);
std::int64_t WantMigrations(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
