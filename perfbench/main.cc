// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload ring_seq|ring_par|hop_par --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--tiny] [--plant-wrong-count]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// spends part of the budget on untraced rounds again (the reference for the
// tracing overhead), then on traced rounds and the layer price list, and
// reports the per-layer metrics.  Human-readable lines come first; the last
// line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
//    "info": {...}}
// Exit status 1 when any exactly-once or fidelity check failed.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/workload/programs.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out-dir" && has_value) {
      opt->out_dir = argv[++i];
    } else if (arg == "--tiny") {
      opt->tiny = true;
    } else if (arg == "--plant-wrong-count") {
      opt->plant_wrong_count = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its 128 KiB default.  Left dynamic, it
  // rises after the first round frees a large block, and from then on a
  // round's cluster reuses the heap or faults in fresh pages by chance:
  // set-up time flipped between 0.4 and 1.8 ms from round to round.  Pinned,
  // every round builds its mailbox rings and recorders in fresh pages, as
  // the first cluster of a process does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--tiny] [--plant-wrong-count]\n");
    return 2;
  }
  Workload w;
  if (!FindWorkload(opt.workload, opt.tiny, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  demos::RegisterWorkloadPrograms();

  Ledger ledger;
  std::vector<Metric> metrics;
  std::vector<Metric> info;  // reported beside the gated metrics
  const double untraced_budget = opt.trace ? opt.seconds * 0.35 : opt.seconds;
  const E2eResult e2e = RunUntraced(w, opt, untraced_budget, ledger);
  if (opt.trace) {
    RunTraced(w, opt, opt.seconds - untraced_budget, e2e, ledger, metrics);
    // From the untraced rounds; zero on the workloads that do not migrate.
    metrics.push_back({"migration.per_s", e2e.migrations_per_s, "1/s"});
    metrics.push_back({"migration.wall_us_p50", e2e.migration_wall_us_p50, "us"});
    metrics.push_back({"migration.wall_us_p99", e2e.migration_wall_us_p99, "us"});
  } else {
    metrics.push_back({"msgs_per_s_at_ref", e2e.msgs_per_s_at_ref, "1/s"});
    metrics.push_back({"cpu_us_per_msg_at_ref", e2e.cpu_us_per_msg_at_ref, "us"});
    metrics.push_back({"setup_s", e2e.setup_s, "s"});
    metrics.push_back({"peak_rss_mb", e2e.peak_rss_mb, "MB"});
  }
  info.push_back({"msgs_per_s", e2e.msgs_per_s, "1/s"});
  info.push_back({"cpu_us_per_msg", e2e.cpu_us_per_msg, "us"});
  info.push_back({"ref_wall_ns_per_op", e2e.ref_wall_ns_per_op, "ns"});
  info.push_back({"ref_cpu_ns_per_op", e2e.ref_cpu_ns_per_op, "ns"});
  if (WantMigrations(w) > 0) {
    info.push_back({"migrations_per_s", e2e.migrations_per_s, "1/s"});
    info.push_back({"migration_wall_us_p50", e2e.migration_wall_us_p50, "us"});
    info.push_back({"migration_wall_us_p99", e2e.migration_wall_us_p99, "us"});
    info.push_back({"migration_samples", static_cast<double>(e2e.migration_samples), "count"});
  }
  info.push_back({"untraced_rounds", static_cast<double>(e2e.rounds), "count"});
  info.push_back({"fail_ratio",
                  Ratio(static_cast<double>(ledger.failed), static_cast<double>(ledger.attempted)),
                  "ratio"});

  for (const std::string& error : ledger.errors) {
    std::printf("FAIL: %s\n", error.c_str());
  }
  std::printf("workload %s  seed %llu  shards %d  build %s  compiler %s  trace %d\n", w.name,
              static_cast<unsigned long long>(opt.seed), w.machines, PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, opt.trace ? 1 : 0);
  for (const auto* list : {&metrics, &info}) {
    for (const Metric& m : *list) {
      std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += ledger.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(1, ledger.attempted));
  json += ", \"failed\": " + std::to_string(ledger.failed);
  const auto object = [](const std::vector<Metric>& list) {
    std::string s = "{";
    for (std::size_t i = 0; i < list.size(); ++i) {
      s += (i == 0 ? "" : ", ") + JsonString(list[i].name) + ": {\"value\": " +
           JsonNumber(list[i].value) + ", \"unit\": " + JsonString(list[i].unit) + "}";
    }
    return s + "}";
  };
  json += ", \"metrics\": " + object(metrics);
  json += ", \"info\": " + object(info);
  json += ", \"stamp\": {\"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
          ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
          ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency()) +
          ", \"seed\": " + std::to_string(opt.seed) + ", \"shards\": " +
          std::to_string(w.machines) + ", \"workload\": " + JsonString(w.name) + "}}";
  std::printf("%s\n", json.c_str());
  return ledger.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
