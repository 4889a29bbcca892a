// ParallelCluster: the parallel real-time execution engine.
//
// The deterministic Cluster (src/kernel/cluster.h) runs every kernel on one
// virtual clock -- perfect for byte-exact replay, useless for throughput.
// ParallelCluster gives each Kernel a *shard*: a dedicated worker thread, a
// private EventQueue (timers and dispatch quanta advance on the shard's own
// virtual clock), and a bounded lock-free MPSC mailbox fed by the ShardRouter
// transport.  This is the paper's actual topology -- one kernel per Z8000,
// communicating only by messages -- mapped onto cores.
//
// Ownership rules (what makes the hot path thread-correct with no locks):
//   - Every piece of kernel state (process table, link tables, pending
//     queues, forwarding addresses, stats, rng, flight recorder) is owned by
//     its shard and touched only from that shard's thread.
//   - Cross-shard effects travel exclusively as framed messages through the
//     ShardRouter; the handler runs on the *destination* shard's thread.
//   - The only shared-memory concurrency is PayloadRef refcounts (shared_ptr
//     atomics), stats/payload counters (relaxed atomics), and the
//     mailbox/quiescence/LBTS machinery in src/run.
//
// There is no coordinator thread: a shard that runs out of work verifies the
// cluster under one mutex, and the last shard to block opens the next LBTS
// window itself or, when everything is drained, wakes RunUntilQuiescent.
//
// Two time models, selected by ParallelClusterConfig::sync, run by one shard
// loop (ShardMain: drain mail, run posted work, step events, flush, and park
// when a round finds nothing):
//   - Free-running (default): the loop under a single unbounded window.
//     Shard clocks advance independently; mail is delivered the instant it
//     is drained (ShardRouter::Drain), and no LBTS state is touched.
//     Fastest, and correct for every workload whose semantics are
//     timing-independent.
//   - Conservative sync: shard clocks advance only up to a cluster-wide
//     lookahead bound (src/run/virtual_time.h), and cross-shard frames are
//     drained through ShardRouter::DrainTimed and delivered at send_ts + the
//     lookahead on the receiver's clock (ScheduleDelivery).  No shard
//     ever receives a frame in its virtual past, which is what makes
//     wall-clock policies -- MigrationDeadlines, suspect backoff -- fire for
//     real reasons instead of clock skew.  Arming any migration deadline
//     auto-enables sync.
//
// Lifecycle: construct; stage the workload single-threaded (SpawnProcess,
// SendFromKernel -- sends are parked in mailboxes); Start(); then alternate
// RunUntilQuiescent() with Post() injections; Stop() joins.  Aggregate reads
// (TotalStats, HostOf, FindProcessAnywhere, the flight-recorder merge) are
// only valid before Start or after a true RunUntilQuiescent/Stop.
//
// The same Kernel code runs the same 8-step Sec. 3.1 migration protocol and
// byte-identical wire format in both engines; the sequential-equivalence test
// in tests/parallel_cluster_test.cc holds both engines to the same final
// state through the shared Engine interface.

#ifndef DEMOS_RUN_PARALLEL_CLUSTER_H_
#define DEMOS_RUN_PARALLEL_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/stats.h"
#include "src/kernel/engine.h"
#include "src/kernel/kernel.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/run/shard_router.h"
#include "src/run/virtual_time.h"
#include "src/sim/event_queue.h"

namespace demos {

struct ParallelClusterConfig {
  int machines = 2;
  KernelConfig kernel;
  ShardRouterConfig router;
  // How long a shard with nothing to do parks before rechecking (also the
  // recovery bound for a theoretically lost wakeup).
  std::chrono::microseconds idle_park{200};
  // Tracing: message trace ids on, and the flight recorders below keep every
  // record (each still written only by its shard thread), stamped with
  // steady_clock so all shards share one time axis.
  bool trace_enabled = false;
  // Shard-local metrics slabs + always-on flight recorder (src/obs).  Both
  // default on: the hot-path cost is relaxed adds and ring stores, and the
  // <5% throughput budget is enforced by bench_throughput --metrics=off.
  bool metrics_enabled = true;
  bool flight_recorder_enabled = true;
  // Flight-recorder ring capacity per shard (rounded up to a power of two).
  std::size_t flight_capacity = 4096;

  // Conservative virtual-time sync (see the file comment and
  // src/run/virtual_time.h).  `enabled` is forced on when any
  // kernel.migration_deadlines phase is armed -- deadlines are meaningless
  // against free-running clocks.
  struct TimeSyncConfig {
    bool enabled = false;
    // Virtual latency of every cross-shard frame, and therefore the
    // cluster's lookahead.  Clamped to >= 1us; larger values mean wider
    // windows (fewer sync rounds) but coarser delivery timing.
    SimDuration min_link_latency_us = 100;

    // ---- Wide windows (docs/PROTOCOL.md, "Wide windows"). ----
    // While no shard needs tight bounds (no migration in flight, no armed
    // deadline watchdog -- Kernel::NeedsTightTime), windows may open up to
    // wide_window_spans x the lookahead past the minimum floor.  0 disables
    // widening entirely (every window is strictly conservative).  When
    // deadlines are armed the effective wide span is additionally capped at
    // a quarter of the shortest armed deadline, so the one-window clock skew
    // a wide era can leave behind stays far below what a watchdog measures.
    // The default is sized for the relaxed regime where skew is harmless --
    // each window barrier costs real context switches, so span directly buys
    // throughput; the deadline/4 cap is what keeps tight-consumer runs honest.
    std::uint32_t wide_window_spans = 512;
  };
  TimeSyncConfig sync;
  // Wall-clock budget for RunUntilSettled (the Engine-interface entry point;
  // direct RunUntilQuiescent callers pass their own timeout).
  std::chrono::milliseconds settle_timeout{10000};

  void EnableTracing() { trace_enabled = true; }
  EngineConfig EngineCore() const {
    return EngineConfig{machines,        kernel,           trace_enabled,
                        metrics_enabled, flight_recorder_enabled, flight_capacity};
  }
};

class ParallelCluster final : public Engine {
 public:
  explicit ParallelCluster(ParallelClusterConfig config);
  ~ParallelCluster() override;

  ParallelCluster(const ParallelCluster&) = delete;
  ParallelCluster& operator=(const ParallelCluster&) = delete;

  // ---- Engine interface. ----
  Kernel& kernel(MachineId m) override { return *shards_[m]->kernel; }
  using Engine::kernel;
  int size() const override { return static_cast<int>(shards_.size()); }
  // Drives RunUntilQuiescent under config_.settle_timeout; `max_events` is
  // unused (the wall clock is the runaway bound here).  `events` is the
  // cluster-wide events_executed delta, 0 when metrics are disabled.
  SettleResult RunUntilSettled(std::size_t max_events = 2'000'000) override;
  // Pre-Start: schedules directly on shard m's private clock.  While
  // running: hops through Post() so the owning thread does the scheduling.
  void ScheduleOn(MachineId m, SimTime at, std::function<void()> fn) override;
  void Execute(MachineId m, std::function<void()> fn) override;
  MetricsEngine* metrics() const override { return metrics_.get(); }
  FlightRecorderHub* flight_recorder() override { return flight_.get(); }

  // The shard's private virtual clock (setup/inspection only).
  EventQueue& queue(MachineId m) { return shards_[m]->queue; }
  ShardRouter& router() { return *router_; }
  bool sync_enabled() const { return sync_enabled_; }
  // Sync-mode internals, exposed for tests; null in free-running mode.
  const LbtsState* lbts() const { return lbts_.get(); }

  // Launch the worker threads (idempotent).
  void Start();
  // Block until the cluster is quiescent: every shard idle, every mailbox
  // empty, every posted closure done -- confirmed by two identical counter
  // snapshots taken on this thread, which sleeps on a condvar between
  // verifications (the shards open LBTS windows).  Returns false on timeout.
  // Threads stay parked afterwards, so Post() + another RunUntilQuiescent()
  // continues the run.
  bool RunUntilQuiescent(std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));
  // Ask all workers to exit and join them (idempotent; Start() restarts).
  void Stop();

  // Run `fn` on shard `m`'s thread (the only legal way to poke a kernel
  // while the cluster is running).  Counted by the quiescence detector.
  void Post(MachineId m, std::function<void()> fn);

  // ---- Observability. ----
  // The engine/hub have machines+1 slots: slot i belongs to shard i, the
  // last slot to verification and LBTS windows, written under advance_mu_ by
  // whichever thread verifies (a shard or the RunUntilQuiescent caller).
  int coordinator_slot() const { return static_cast<int>(shards_.size()); }
  // Refresh the mailbox/spill depth gauges from queue state; safe from any
  // thread (sampler collector), no-op when metrics are disabled.
  void RefreshDepthGauges();

 private:
  struct Shard {
    MachineId machine = kNoMachine;
    EventQueue queue;
    std::unique_ptr<Kernel> kernel;
    std::mutex posted_mu;
    std::vector<std::function<void()>> posted;
    // Mirror of posted.size() so the idle-spin predicates poll an atomic
    // instead of taking posted_mu per lap.  Incremented under the lock in
    // Post(); decremented after the swapped batch runs, so it may transiently
    // over-report (a spurious extra round) but never under-report.
    std::atomic<std::size_t> posted_count{0};
    // True while the shard believes it has nothing to do.  seq_cst pairs
    // with the router counters in the quiescence check.
    std::atomic<bool> idle{false};
    std::thread thread;
  };

  struct Snapshot {
    bool all_idle = false;
    std::uint64_t sent = 0;
    std::uint64_t consumed = 0;
    std::uint64_t posted = 0;
    std::uint64_t posted_done = 0;

    bool Quiet() const { return all_idle && sent == consumed && posted == posted_done; }
    bool SameCounters(const Snapshot& other) const {
      return sent == other.sent && consumed == other.consumed && posted == other.posted &&
             posted_done == other.posted_done;
    }
  };

  // The one shard loop.  Free-running runs it as a single unbounded window.
  void ShardMain(Shard& shard);
  // Park predicate: mail, posted work, a runnable event under `bound`, or
  // (sync) a window newer than `epoch`.
  bool HasWork(Shard& shard, std::uint64_t epoch, SimTime bound);
  // Sync drain sink: schedule the frame's delivery at send_ts + lookahead_ on
  // the receiving shard's clock.
  void ScheduleDelivery(Shard& shard, MachineId src, SimTime send_ts, PayloadRef payload);
  std::size_t DrainPosted(Shard& shard);
  Snapshot TakeSnapshot() const;
  // The double-snapshot check run on every shard idle edge and by
  // RunUntilQuiescent; VerifyLocked expects advance_mu_ held.  `record` =
  // false skips the quiescence_vote record (a repeated idle pass).
  enum class Verdict { kBusy, kOpened, kDrained };
  Verdict Verify(bool record = true);
  Verdict VerifyLocked(bool record = true);
  std::uint64_t TotalEventsExecuted() const;

  ParallelClusterConfig config_;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<MetricsEngine> metrics_;
  std::unique_ptr<FlightRecorderHub> flight_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Conservative-sync state; null in free-running mode.
  bool sync_enabled_ = false;
  // Virtual latency of every cross-shard frame (>= 1us), the LBTS lookahead.
  SimDuration lookahead_ = 1;
  std::unique_ptr<LbtsState> lbts_;
  // Effective wide-window span in virtual us (0 = widening disabled).
  SimDuration wide_span_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> posted_{0};
  std::atomic<std::uint64_t> posted_done_{0};
  bool started_ = false;
  // Serializes verification, window opening and the coordinator slot's
  // flight recorder.  drained_gen_ counts verified drains (drained_cv_ wakes
  // RunUntilQuiescent on each); views_ is the double snapshot's LBTS pair.
  std::mutex advance_mu_;
  std::condition_variable drained_cv_;
  std::uint64_t drained_gen_ = 0;
  LbtsState::ShardView views_[2];
};

}  // namespace demos

#endif  // DEMOS_RUN_PARALLEL_CLUSTER_H_
