// Workload table, exactly-once ledger, the recording observer, the rounds
// of both engines, and the untraced runs that give the end-to-end metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>

#include "perfbench/perfbench.h"
#include "src/kernel/cluster.h"
#include "src/obs/trace.h"
#include "src/run/parallel_cluster.h"
#include "src/workload/programs.h"

namespace perfbench {

using demos::Cluster;
using demos::ClusterConfig;
using demos::ParallelCluster;
using demos::ParallelClusterConfig;
using demos::TokenRing;
using demos::TokenRingSpec;

namespace {

TokenRingSpec RingSpec(bool tiny) {
  TokenRingSpec spec;
  spec.rings = 8;
  spec.nodes_per_ring = 8;
  spec.tokens_per_node = 2;
  spec.hops_per_token = tiny ? 20 : 1000;
  return spec;
}

TokenRingSpec HopSpec(bool tiny) {
  TokenRingSpec spec;
  spec.rings = 4;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 1;
  spec.hops_per_token = tiny ? 40 : 2000;
  spec.migrate_count = tiny ? 3 : 100;
  spec.migrate_after_tokens = 1;
  return spec;
}

}  // namespace

bool FindWorkload(const std::string& name, bool tiny, Workload* out) {
  if (name == "ring_seq") {
    *out = Workload{"ring_seq", Engine::kSequential, 4, false, RingSpec(tiny)};
  } else if (name == "ring_par") {
    *out = Workload{"ring_par", Engine::kParallel, 2, false, RingSpec(tiny)};
  } else if (name == "hop_par") {
    *out = Workload{"hop_par", Engine::kParallel, 2, true, HopSpec(tiny)};
  } else {
    return false;
  }
  return true;
}

std::int64_t WantReceptions(const Workload& w, const Options& opt) {
  return demos::ExpectedTokenReceptions(w.spec) + (opt.plant_wrong_count ? 1 : 0);
}

std::int64_t WantMigrations(const Workload& w) {
  return static_cast<std::int64_t>(w.spec.rings) * w.spec.nodes_per_ring * w.spec.migrate_count;
}

// ---- Ledger. ----

void Ledger::Expect(const std::string& what, std::int64_t got, std::int64_t want) {
  attempted += want;
  if (got != want) {
    failed += std::max<std::int64_t>(1, std::llabs(got - want));
    errors.push_back(what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
  }
}

void Ledger::FailAll(const std::string& what, std::int64_t ops) {
  attempted += ops;
  failed += ops;
  errors.push_back(what);
}

void Ledger::Fail(const std::string& what) {
  attempted += 1;
  failed += 1;
  errors.push_back(what);
}

// ---- Host measurements. ----

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so a child of a large parent would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  if (q == 0.5 && values.size() % 2 == 0) {
    const std::size_t hi = values.size() / 2;
    return (values[hi - 1] + values[hi]) / 2;
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

// ---- RecordingObserver. ----

RecordingObserver::RecordingObserver(int machines, bool count_messages, int capture_every,
                                     std::size_t capture_cap)
    : machines_(static_cast<std::size_t>(machines)),
      count_messages_(count_messages),
      capture_every_(capture_every),
      capture_cap_(capture_cap) {}

void RecordingObserver::OnMessageSend(MachineId machine, const demos::Message& msg) {
  if (demos::IsMigrationAdminType(msg.type)) {
    ++At(machine).counts.admin_sent;
  }
}

void RecordingObserver::OnMessageDeliver(MachineId machine, const demos::Message& msg) {
  if (!count_messages_) {
    return;
  }
  PerMachine& m = At(machine);
  if (capture_every_ > 0 && m.captured.size() < capture_cap_ &&
      m.seen++ % static_cast<std::uint64_t>(capture_every_) == 0) {
    m.captured.push_back(msg.Serialize());
  }
}

void RecordingObserver::OnMessageForward(MachineId machine, const demos::Message&, MachineId) {
  ++At(machine).counts.forwards;
}

void RecordingObserver::OnMessageBounce(MachineId machine, const demos::Message&) {
  ++At(machine).counts.bounces;
}

void RecordingObserver::OnPendingResend(MachineId machine, const demos::Message&) {
  ++At(machine).counts.pending_resends;
}

void RecordingObserver::OnMigrationFrozen(MachineId source, MachineId,
                                          const demos::ProcessRecord& record,
                                          const demos::PayloadRef&, const demos::PayloadRef&,
                                          const demos::PayloadRef&) {
  At(source).stamps.push_back(
      Stamp{demos::MigrationSpanId(record.pid), Kind::kFrozen, NowNs(), 0});
}

void RecordingObserver::OnMigrationSection(MachineId dest, const demos::ProcessId& pid,
                                           demos::MigrationSection, const Bytes& bytes) {
  At(dest).stamps.push_back(
      Stamp{demos::MigrationSpanId(pid), Kind::kSection, NowNs(), bytes.size()});
}

void RecordingObserver::OnMigrationRestart(MachineId dest, const demos::ProcessId& pid,
                                           const demos::ProcessRecord&) {
  At(dest).stamps.push_back(Stamp{demos::MigrationSpanId(pid), Kind::kRestart, NowNs(), 0});
}

void RecordingObserver::OnMigrationAborted(MachineId source, const demos::ProcessId&) {
  ++At(source).counts.aborted;
}

std::vector<RecordingObserver::Stamp> RecordingObserver::AllStamps() const {
  std::vector<Stamp> all;
  for (const PerMachine& m : machines_) {
    all.insert(all.end(), m.stamps.begin(), m.stamps.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Stamp& a, const Stamp& b) { return a.t_ns < b.t_ns; });
  return all;
}

std::vector<RecordingObserver::Phases> RecordingObserver::Match(std::int64_t* unmatched) const {
  // Migrations of one pid are strictly sequential (each chain link starts
  // off the previous kMigrateDone), so in host-time order every pid's stamps
  // read freeze, sections..., restart, freeze, ...
  std::map<std::uint64_t, std::vector<Stamp>> by_pid;
  for (const Stamp& s : AllStamps()) {
    by_pid[s.pid].push_back(s);
  }
  std::vector<Phases> out;
  std::int64_t lost = 0;
  for (const auto& [pid, stamps] : by_pid) {
    const Stamp* frozen = nullptr;
    const Stamp* first = nullptr;
    const Stamp* last = nullptr;
    for (const Stamp& s : stamps) {
      switch (s.kind) {
        case Kind::kFrozen:
          lost += frozen != nullptr ? 1 : 0;  // a freeze that never restarted
          frozen = &s;
          first = last = nullptr;
          break;
        case Kind::kSection:
          if (first == nullptr) {
            first = &s;
          }
          last = &s;
          break;
        case Kind::kRestart:
          if (frozen == nullptr || first == nullptr) {
            ++lost;
            break;
          }
          out.push_back(Phases{static_cast<double>(s.t_ns - frozen->t_ns) * 1e-3,
                               static_cast<double>(first->t_ns - frozen->t_ns) * 1e-3,
                               static_cast<double>(last->t_ns - first->t_ns) * 1e-3,
                               static_cast<double>(s.t_ns - last->t_ns) * 1e-3});
          frozen = first = last = nullptr;
          break;
      }
    }
    lost += frozen != nullptr ? 1 : 0;
  }
  *unmatched = lost;
  return out;
}

RecordingObserver::Counts RecordingObserver::Totals() const {
  Counts total;
  for (const PerMachine& m : machines_) {
    total.forwards += m.counts.forwards;
    total.bounces += m.counts.bounces;
    total.pending_resends += m.counts.pending_resends;
    total.aborted += m.counts.aborted;
    total.admin_sent += m.counts.admin_sent;
  }
  return total;
}

std::vector<Bytes> RecordingObserver::TakeCaptured() {
  std::vector<Bytes> all;
  for (PerMachine& m : machines_) {
    for (Bytes& b : m.captured) {
      all.push_back(std::move(b));
    }
    m.captured.clear();
  }
  return all;
}

// ---- Rounds. ----

namespace {

Round SequentialRound(const Workload& w, const Options& opt, Ledger& ledger) {
  Round r;
  const std::int64_t t0 = NowNs();
  ClusterConfig config;
  config.machines = w.machines;
  config.kernel.seed = opt.seed;
  Cluster cluster(config);
  const std::vector<TokenRing> rings = demos::BuildTokenRings(cluster, w.spec);
  r.setup_s = Seconds(t0, NowNs());
  cluster.RunUntilIdle(0);  // deliver the staged attach messages, untimed
  const std::int64_t t1 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  demos::KickTokenRings(cluster, rings, w.spec.tokens_per_node, w.spec.hops_per_token);
  cluster.RunUntilIdle(0);
  const std::int64_t t2 = NowNs();
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.run_s = Seconds(t1, t2);
  CountTokens(
      rings, [&](const demos::ProcessId& pid) { return cluster.FindProcessAnywhere(pid); },
      &r.receptions, &r.migrations);
  r.final_virtual_us = cluster.queue().Now();
  r.wire_bytes = cluster.network().stats().Get(demos::stat::kNetBytesSent);
  ledger.Expect("token receptions", r.receptions, WantReceptions(w, opt));
  ledger.Expect("migrations", r.migrations, WantMigrations(w));
  return r;
}

}  // namespace

Round ParallelRound(const Workload& w, const Options& opt, bool traced,
                    demos::KernelObserver* observer, RoundProbe* probe, Ledger& ledger) {
  Round r;
  const std::int64_t t0 = NowNs();
  ParallelClusterConfig config;
  config.machines = w.machines;
  config.kernel.seed = opt.seed;
  config.sync.enabled = w.sync;
  config.trace_enabled = traced;
  ParallelCluster cluster(config);
  const std::vector<TokenRing> rings = demos::BuildTokenRings(cluster, w.spec);
  cluster.SetObserver(observer);
  cluster.Start();
  r.setup_s = Seconds(t0, NowNs());
  // Settle the staged attach messages, untimed.
  const std::int64_t ops = WantReceptions(w, opt) + WantMigrations(w);
  if (!cluster.RunUntilQuiescent(kQuiesceTimeout)) {
    ledger.FailAll("quiescence timeout while staging", ops);
    return Round{};
  }
  if (probe != nullptr) {
    probe->Staged(cluster);
  }
  const std::int64_t t1 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  cluster.Post(0, [&cluster, &rings, &w] {
    demos::KickTokenRings(cluster, rings, w.spec.tokens_per_node, w.spec.hops_per_token);
  });
  const bool quiet = cluster.RunUntilQuiescent(kQuiesceTimeout);
  const std::int64_t t2 = NowNs();
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  if (quiet && probe != nullptr) {
    probe->Finished(cluster);
  }
  cluster.Stop();
  cluster.SetObserver(nullptr);
  if (!quiet) {
    ledger.FailAll("quiescence timeout", ops);
    return Round{};
  }
  r.run_s = Seconds(t1, t2);
  CountTokens(
      rings, [&](const demos::ProcessId& pid) { return cluster.FindProcessAnywhere(pid); },
      &r.receptions, &r.migrations);
  ledger.Expect("token receptions", r.receptions, WantReceptions(w, opt));
  ledger.Expect("migrations", r.migrations, WantMigrations(w));
  return r;
}

E2eResult RunUntraced(const Workload& w, const Options& opt, double budget_s, Ledger& ledger) {
  std::vector<double> rates;
  std::vector<double> cpu_per_msg;
  std::vector<double> setups;
  std::vector<double> migration_rates;
  std::vector<double> migration_wall;
  std::vector<double> ref_wall;
  std::vector<double> ref_cpu;
  E2eResult out;
  const bool migrating = WantMigrations(w) > 0;
  std::unique_ptr<Reference> reference;  // made after the first round's peak RSS
  std::uint64_t reference_check = 0;
  const std::int64_t start = NowNs();
  while (out.rounds == 0 || Seconds(start, NowNs()) < budget_s) {
    std::unique_ptr<RecordingObserver> observer;
    if (migrating) {
      observer = std::make_unique<RecordingObserver>(w.machines, /*count_messages=*/false);
    }
    const std::int64_t failed_before = ledger.failed;
    const Round r = w.engine == Engine::kSequential
                        ? SequentialRound(w, opt, ledger)
                        : ParallelRound(w, opt, /*traced=*/false, observer.get(), nullptr, ledger);
    ++out.rounds;
    if (out.rounds == 1) {
      out.peak_rss_mb = PeakRssMb();
    }
    if (ledger.failed != failed_before || r.run_s <= 0) {
      continue;  // a broken round reports no rate
    }
    if (out.rounds == 1) {
      out.final_virtual_us = r.final_virtual_us;
      out.receptions = r.receptions;
      out.wire_bytes = r.wire_bytes;
    }
    // The reference runs right after the round, so that both see the host
    // in the same state.
    if (!reference) {
      reference = std::make_unique<Reference>();
    }
    const ReferenceSample ref = reference->Measure();
    if (reference_check == 0) {
      reference_check = ref.check;
    } else if (ref.check != reference_check) {
      ledger.Fail("reference kernel gave a different result");
    }
    ref_wall.push_back(ref.wall_ns_per_op);
    ref_cpu.push_back(ref.cpu_ns_per_op);
    rates.push_back(static_cast<double>(r.receptions) / r.run_s);
    cpu_per_msg.push_back(r.cpu_s * 1e6 / static_cast<double>(r.receptions));
    setups.push_back(r.setup_s);
    if (observer) {
      std::int64_t unmatched = 0;
      const std::vector<RecordingObserver::Phases> phases = observer->Match(&unmatched);
      const RecordingObserver::Counts counts = observer->Totals();
      if (unmatched != 0 || static_cast<std::int64_t>(phases.size()) != r.migrations) {
        ledger.Fail("migration freeze/restart pairs: " + std::to_string(phases.size()) +
                    " matched, " + std::to_string(unmatched) + " unmatched");
      }
      if (counts.aborted != 0) {
        ledger.Fail("aborted migrations: " + std::to_string(counts.aborted));
      }
      for (const RecordingObserver::Phases& p : phases) {
        migration_wall.push_back(p.wall_us);
      }
      migration_rates.push_back(static_cast<double>(r.migrations) / r.run_s);
    }
  }
  // Other tenants of the host only ever slow a round down (descheduled shard
  // threads, stolen vCPU time, shared caches), so rates and costs come from
  // the fastest decile of rounds: under contention the run-to-run spread of
  // the median reached 43% on ring_par, that of the fast decile 16%.
  out.msgs_per_s = Quantile(rates, 0.9);
  out.cpu_us_per_msg = Quantile(cpu_per_msg, 0.1);
  // The fast decile of the reference, like that of the workload: a slow
  // spell that holds the whole run slows both, and the ratio cancels it.
  out.ref_wall_ns_per_op = Quantile(ref_wall, 0.1);
  out.ref_cpu_ns_per_op = Quantile(ref_cpu, 0.1);
  out.msgs_per_s_at_ref = out.msgs_per_s * out.ref_wall_ns_per_op / kReferenceNominalNsPerOp;
  out.cpu_us_per_msg_at_ref =
      Ratio(out.cpu_us_per_msg * kReferenceNominalNsPerOp, out.ref_cpu_ns_per_op);
  out.setup_s = Median(setups);
  out.migrations_per_s = Quantile(migration_rates, 0.9);
  out.migration_wall_us_p50 = Quantile(migration_wall, 0.5);
  out.migration_wall_us_p99 = Quantile(migration_wall, 0.99);
  out.migration_samples = migration_wall.size();
  return out;
}

}  // namespace perfbench
