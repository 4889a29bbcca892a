// Shared scaffolding for the experiment benches: table printing in the style
// of the paper's Sec. 6 cost report, stat-delta capture, and cluster setup.
//
// Each bench binary regenerates one experiment row of DESIGN.md's index and
// prints paper-vs-measured lines that EXPERIMENTS.md records.

#ifndef DEMOS_BENCH_BENCH_UTIL_H_
#define DEMOS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/base/stats.h"
#include "src/kernel/cluster.h"
#include "src/obs/trace_export.h"
#include "src/sys/bootstrap.h"
#include "src/sys/fs/fs_client.h"
#include "src/workload/programs.h"

namespace demos {
namespace bench {

inline void Title(const std::string& id, const std::string& caption) {
  std::printf("\n================================================================\n");
  std::printf("%s  %s\n", id.c_str(), caption.c_str());
  std::printf("================================================================\n");
}

inline void PaperClaim(const std::string& claim) {
  std::printf("paper: %s\n", claim.c_str());
}

inline void Note(const std::string& text) { std::printf("note:  %s\n", text.c_str()); }

// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void Row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      widths[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < headers_.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : std::string();
        std::printf("  %-*s", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::string rule;
    for (std::size_t width : widths) {
      rule += "  " + std::string(width, '-');
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) {
      print_row(row);
    }
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

template <typename T>
  requires std::is_integral_v<T>
inline std::string Num(T v) {
  return std::to_string(v);
}

inline std::string Num(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

// Difference of one cluster-wide counter across a window.
class StatDelta {
 public:
  StatDelta(Cluster& cluster, const char* name)
      : cluster_(cluster), name_(name), before_(cluster.TotalStat(name)) {}
  std::int64_t Get() const { return cluster_.TotalStat(name_) - before_; }

 private:
  Cluster& cluster_;
  const char* name_;
  std::int64_t before_;
};

// Run one migration to completion and return virtual duration in us.
inline SimDuration MigrateNow(Cluster& cluster, const ProcessId& pid, MachineId from,
                              MachineId to) {
  const SimTime start = cluster.queue().Now();
  (void)cluster.kernel(from).StartMigration(pid, to, cluster.kernel(from).kernel_address());
  // Wait for the kMigrateDone to land back at the requesting kernel.
  const std::size_t done_before = cluster.kernel(from).migrate_done_log().size();
  while (cluster.kernel(from).migrate_done_log().size() == done_before) {
    if (cluster.queue().Empty()) {
      break;
    }
    cluster.queue().Step();
  }
  return cluster.queue().Now() - start;
}

inline void RegisterEverything() {
  RegisterSystemPrograms();
  RegisterWorkloadPrograms();  // also provides the generic idle/sink/counter
}

// `--trace-out=<path>` support: a bench that accepts it runs its clusters
// with tracing enabled, merges every cluster's timeline, and writes one
// Chrome trace_event JSON file at the end of the run.
class TraceSink {
 public:
  TraceSink(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--trace-out=", 0) == 0) {
        path_ = std::string(arg.substr(12));
      } else if (arg == "--trace-out" && i + 1 < argc) {
        path_ = argv[++i];
      }
    }
  }

  bool enabled() const { return !path_.empty(); }

  // Call on each ClusterConfig before constructing the cluster.
  void Configure(ClusterConfig& config) const {
    if (enabled()) {
      config.EnableTracing();
    }
  }

  // Call on each cluster after its run completes (and after every
  // measurement is read -- this settles the queue, so benches that stop
  // stepping early, like MigrateNow, still trace the trailing restart).
  // Histograms are derived per cluster here: independent clusters share
  // virtual time origins and process ids, so span reconstruction must not
  // mix their events.
  void Collect(Cluster& cluster) {
    if (enabled()) {
      cluster.RunUntilIdle();
      const std::vector<FlightRecord> records = cluster.flight_recorder()->Merged();
      BuildTraceStats(records, &derived_);
      merged_.insert(merged_.end(), records.begin(), records.end());
    }
  }

  // Write the merged timeline and report the derived histograms.
  void Finish() {
    if (!enabled()) {
      return;
    }
    std::printf("\ntrace-derived histograms:\n");
    derived_.Dump(std::cout);
    if (WriteChromeTraceFile(merged_, path_)) {
      std::printf("wrote %zu trace events to %s\n", merged_.size(), path_.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", path_.c_str());
    }
  }

 private:
  std::string path_;
  std::vector<FlightRecord> merged_;
  StatsRegistry derived_;
};

}  // namespace bench
}  // namespace demos

#endif  // DEMOS_BENCH_BENCH_UTIL_H_
