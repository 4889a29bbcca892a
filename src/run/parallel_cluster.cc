#include "src/run/parallel_cluster.h"

#include <algorithm>
#include <utility>

#include "src/base/pool.h"

namespace demos {

namespace {

// ShardMainSync's idle-record gate: no idle pass recorded since the last work.
constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

bool DeadlinesArmed(const KernelConfig& kc) {
  return kc.migration_deadlines.offer_accept_us != 0 ||
         kc.migration_deadlines.transfer_progress_us != 0 ||
         kc.migration_deadlines.handoff_us != 0;
}

SimDuration MinArmedDeadline(const KernelConfig& kc) {
  SimDuration min = kSimTimeNever;
  for (const SimDuration d : {kc.migration_deadlines.offer_accept_us,
                              kc.migration_deadlines.transfer_progress_us,
                              kc.migration_deadlines.handoff_us}) {
    if (d != 0 && d < min) {
      min = d;
    }
  }
  return min;
}

// Fold this shard thread's allocation-pool stats (thread-local, monotonic)
// into its metrics slab as deltas.  Called at idle edges and on loop exit --
// cheap, and often enough for the sampler to see pool behaviour evolve.
void FoldPoolStats(MetricShard* metrics, PoolThreadStats& last) {
  if (metrics == nullptr) {
    return;
  }
  const PoolThreadStats cur = PayloadBufferPool::ThreadStats();
  if (cur.hits != last.hits) {
    metrics->Inc(CounterId::kPoolHits, cur.hits - last.hits);
  }
  if (cur.misses != last.misses) {
    metrics->Inc(CounterId::kPoolMisses, cur.misses - last.misses);
  }
  last = cur;
}

}  // namespace

ParallelCluster::ParallelCluster(ParallelClusterConfig config) : config_(config) {
  const EngineConfig core = config.EngineCore();
  router_ = std::make_unique<ShardRouter>(config.machines, config.router);
  // machines+1 observability slots: one per shard plus the coordinator slot,
  // which holds the verification counters and window events that any shard
  // or the RunUntilQuiescent caller writes under advance_mu_.
  EngineObservability obs = MakeObservability(core);
  metrics_ = std::move(obs.metrics);
  flight_ = std::move(obs.flight);
  router_->SetObservability(metrics_.get(), flight_.get());
  // Migration deadlines are virtual-time policies; they only mean anything
  // when the shard clocks agree, so arming any phase forces sync on.
  sync_enabled_ = config.sync.enabled || DeadlinesArmed(config.kernel);
  if (sync_enabled_) {
    lookahead_ = std::max<SimDuration>(config.sync.min_link_latency_us, 1);
    lbts_ = std::make_unique<LbtsState>(config.machines);
    // Wide windows are capped at wide_window_spans x the lookahead, and --
    // when deadline watchdogs can arm -- at a quarter of the shortest armed
    // deadline, so the one-window clock skew a wide era can leave behind
    // stays far below anything a watchdog measures.
    SimDuration wide_span = static_cast<SimDuration>(config.sync.wide_window_spans) * lookahead_;
    if (wide_span > 0 && DeadlinesArmed(config.kernel)) {
      wide_span = std::min(wide_span, MinArmedDeadline(config.kernel) / 4);
    }
    if (wide_span <= lookahead_) {
      wide_span = 0;  // no wider than a tight window: relaxing buys nothing
    }
    wide_span_ = wide_span;
  }
  shards_.reserve(static_cast<std::size_t>(config.machines));
  for (int i = 0; i < config.machines; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->machine = static_cast<MachineId>(i);
    shard->kernel = std::make_unique<Kernel>(shard->machine, &shard->queue, router_.get(),
                                             DeriveKernelConfig(core, i));
    WireKernelObservability(core, *shard->kernel, flight_.get(), i);
    if (metrics_) {
      shard->queue.SetMetrics(&metrics_->shard(i));
    }
    // Frames carry the sender's virtual clock even in free-running mode (the
    // stamp is one load; only the sync drain path reads it).
    router_->SetClock(shard->machine, &shard->queue);
    shards_.push_back(std::move(shard));
  }
}

ParallelCluster::~ParallelCluster() { Stop(); }

void ParallelCluster::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Single-threaded setup (harness injections, fixtures sending before
  // Start) publishes immediately in global send order; batching starts only
  // now, when every subsequent Send comes from the one thread that owns its
  // source shard and per-link FIFO is the only order the engine guarantees.
  // FlushAll covers staged leftovers from a previous Start/Stop cycle.
  router_->FlushAll();
  router_->SetBatchingEnabled(true);
  stop_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->idle.store(false, std::memory_order_seq_cst);
    if (sync_enabled_) {
      s->thread = std::thread([this, s] { ShardMainSync(*s); });
    } else {
      s->thread = std::thread([this, s] { ShardMain(*s); });
    }
  }
}

void ParallelCluster::Stop() {
  if (!started_) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  router_->WakeAll();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  // Back to single-threaded staging mode; flushes any frames a shard staged
  // in its final round so they are waiting in the mailboxes come next Start.
  router_->SetBatchingEnabled(false);
  started_ = false;
}

void ParallelCluster::Post(MachineId m, std::function<void()> fn) {
  Shard& shard = *shards_[m];
  posted_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(shard.posted_mu);
    shard.posted.push_back(std::move(fn));
    shard.posted_count.fetch_add(1, std::memory_order_seq_cst);
  }
  router_->Wake(m);
}

void ParallelCluster::ScheduleOn(MachineId m, SimTime at, std::function<void()> fn) {
  if (!started_) {
    shards_[m]->queue.At(at, std::move(fn));
    return;
  }
  // While running, only shard m's thread may touch its queue.
  Post(m, [this, m, at, fn = std::move(fn)]() mutable {
    shards_[m]->queue.At(at, std::move(fn));
  });
}

void ParallelCluster::Execute(MachineId m, std::function<void()> fn) {
  if (!started_) {
    fn();
    return;
  }
  Post(m, std::move(fn));
}

SettleResult ParallelCluster::RunUntilSettled(std::size_t /*max_events*/) {
  SettleResult out;
  const std::uint64_t before = TotalEventsExecuted();
  out.settled = RunUntilQuiescent(config_.settle_timeout);
  out.events = static_cast<std::size_t>(TotalEventsExecuted() - before);
  return out;
}

std::uint64_t ParallelCluster::TotalEventsExecuted() const {
  if (!metrics_) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += metrics_->shard(shard->machine).Counter(CounterId::kEventsExecuted);
  }
  return total;
}

// Both idle predicates run per lap of IdleWait's spin window: everything
// they touch is an atomic or a heap-top read (posted_count mirrors the
// posted vector so the spin never takes posted_mu).
bool ParallelCluster::HasLocalWork(Shard& shard) {
  return !shard.queue.Empty() || router_->HasMail(shard.machine) ||
         shard.posted_count.load(std::memory_order_seq_cst) != 0;
}

bool ParallelCluster::HasSyncWork(Shard& shard, std::uint64_t epoch) {
  if (lbts_->epoch() != epoch || router_->HasMail(shard.machine)) {
    return true;
  }
  if (shard.queue.NextEventTime() <= lbts_->bound()) {
    return true;
  }
  return shard.posted_count.load(std::memory_order_seq_cst) != 0;
}

std::size_t ParallelCluster::DrainPosted(Shard& shard) {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(shard.posted_mu);
    batch.swap(shard.posted);
  }
  for (auto& fn : batch) {
    fn();
    posted_done_.fetch_add(1, std::memory_order_seq_cst);
  }
  if (!batch.empty()) {
    shard.posted_count.fetch_sub(batch.size(), std::memory_order_seq_cst);
  }
  return batch.size();
}

void ParallelCluster::ScheduleDelivery(Shard& shard, MachineId src, SimTime send_ts,
                                       PayloadRef payload) {
  SimTime arrival = send_ts + lookahead_;
  if (arrival < shard.queue.Now()) {
    // A frame from the receiver's virtual past.  Never deliver backwards in
    // time: clamp to now (exactly-once and per-link FIFO are unaffected) and
    // classify.  After any wide window this is the expected, bounded residue
    // of relaxed timing (wide_frames_clamped); in a never-widened run the
    // strict LBTS proof (virtual_time.h) makes it impossible, so any nonzero
    // sync_frames_clamped count is a sync bug.
    arrival = shard.queue.Now();
    if (metrics_) {
      metrics_->shard(shard.machine)
          .Inc(lbts_->ever_wide() ? CounterId::kWideFramesClamped
                                  : CounterId::kSyncFramesClamped);
    }
  }
  const MachineId me = shard.machine;
  shard.queue.At(arrival, [this, me, src, payload = std::move(payload)]() mutable {
    router_->Deliver(me, src, std::move(payload));
  });
}

void ParallelCluster::ShardMain(Shard& shard) {
  MetricShard* metrics = metrics_ ? &metrics_->shard(shard.machine) : nullptr;
  PoolThreadStats pool_last{};
  const auto fold_pool_stats = [&] { FoldPoolStats(metrics, pool_last); };
  // Only the first idle pass after work records its vote and park: an idle
  // shard wakes every idle_park, and a traced (retain-all) recorder would
  // otherwise grow with idle wall time rather than with work.
  bool idle_recorded = false;
  while (!stop_.load(std::memory_order_acquire)) {
    std::size_t did = 0;
    did += router_->Drain(shard.machine, config_.drain_batch);
    const std::size_t posted = DrainPosted(shard);
    did += posted;
    std::size_t steps = 0;
    while (steps < config_.event_batch && shard.queue.Step()) {
      ++steps;
    }
    did += steps;
    // End of the scheduling round: publish every destination lane this round
    // staged (one mailbox push per destination).  A did==0 round staged
    // nothing, so an idle shard never sits on unpublished frames.
    router_->Flush(shard.machine);
    if (did != 0) {
      if (metrics != nullptr) {
        metrics->Inc(CounterId::kSchedulerRounds);
        if (posted != 0) {
          metrics->Inc(CounterId::kPostedTasks, posted);
        }
        if (steps != 0) {
          metrics->Observe(HistogramId::kEventsPerRound, steps);
        }
      }
      if (posted != 0 && flight_) {
        flight_->recorder(shard.machine).Record(FrEvent::kPostedTask, posted);
      }
      idle_recorded = false;
      continue;
    }
    // Nothing anywhere this round (so the event queue is empty; it can only
    // refill through mail or posted work, which the quiescence counters see).
    if (metrics != nullptr) {
      metrics->Set(GaugeId::kEventQueueDepth,
                   static_cast<std::int64_t>(shard.queue.PendingEvents()));
    }
    fold_pool_stats();
    shard.idle.store(true, std::memory_order_seq_cst);
    Verify(!idle_recorded);  // the last shard to go idle announces the drain
    router_->IdleWait(
        shard.machine, config_.idle_park,
        [this, &shard] { return HasLocalWork(shard) || stop_.load(std::memory_order_relaxed); },
        !idle_recorded);
    idle_recorded = true;
    shard.idle.store(false, std::memory_order_seq_cst);
  }
  fold_pool_stats();
}

void ParallelCluster::ShardMainSync(Shard& shard) {
  MetricShard* metrics = metrics_ ? &metrics_->shard(shard.machine) : nullptr;
  PoolThreadStats pool_last{};
  const auto fold_pool_stats = [&] { FoldPoolStats(metrics, pool_last); };
  const MachineId me = shard.machine;
  const ShardRouter::TimedSink sink = [this, &shard](MachineId src, SimTime send_ts,
                                                     PayloadRef payload) {
    ScheduleDelivery(shard, src, send_ts, std::move(payload));
  };
  // As in ShardMain, keyed by window: a shard records one vote and park per
  // epoch it blocks in, however many idle_park timeouts that takes.
  std::uint64_t recorded_epoch = kNoEpoch;
  while (!stop_.load(std::memory_order_acquire)) {
    // Snapshot the window first, then advertise busy *before* consuming any
    // input: the verifier's double snapshot relies on every consumption
    // being bracketed by busy==true or a fresh floor (virtual_time.h).
    const std::uint64_t epoch = lbts_->epoch();
    const SimTime bound = lbts_->bound();
    lbts_->MarkBusy(me);
    std::size_t did = 0;
    did += router_->DrainTimed(me, config_.drain_batch, sink);
    const std::size_t posted = DrainPosted(shard);
    did += posted;
    std::size_t steps = 0;
    while (steps < config_.event_batch && shard.queue.StepIfAtMost(bound)) {
      ++steps;
    }
    did += steps;
    // Publish this round's staged lanes before the idle check: the LBTS
    // floors below must never be published while frames sit staged (a did==0
    // round staged nothing, so the order is safe).
    router_->Flush(me);
    if (did != 0) {
      if (metrics != nullptr) {
        metrics->Inc(CounterId::kSchedulerRounds);
        if (posted != 0) {
          metrics->Inc(CounterId::kPostedTasks, posted);
        }
        if (steps != 0) {
          metrics->Observe(HistogramId::kEventsPerRound, steps);
        }
      }
      if (posted != 0 && flight_) {
        flight_->recorder(me).Record(FrEvent::kPostedTask, posted);
      }
      recorded_epoch = kNoEpoch;
      continue;
    }
    // Blocked on the window: no mail, no posted work, and the next local
    // event (if any) is past the bound.  Publish the floor for this epoch,
    // then verify: the last shard to block opens the next window itself and
    // keeps running; the others park until it does.
    if (metrics != nullptr) {
      metrics->Set(GaugeId::kEventQueueDepth,
                   static_cast<std::int64_t>(shard.queue.PendingEvents()));
    }
    fold_pool_stats();
    shard.idle.store(true, std::memory_order_seq_cst);
    lbts_->PublishIdle(me, epoch, shard.queue.NextEventTime(), shard.kernel->NeedsTightTime());
    const bool record = recorded_epoch != epoch;
    if (Verify(record) != Verdict::kOpened) {
      router_->IdleWait(
          me, config_.idle_park,
          [this, &shard, epoch] {
            return HasSyncWork(shard, epoch) || stop_.load(std::memory_order_relaxed);
          },
          record);
    }
    recorded_epoch = epoch;
    shard.idle.store(false, std::memory_order_seq_cst);
  }
  fold_pool_stats();
}

ParallelCluster::Snapshot ParallelCluster::TakeSnapshot() const {
  Snapshot snap;
  snap.all_idle = true;
  for (const auto& shard : shards_) {
    snap.all_idle = shard->idle.load(std::memory_order_seq_cst) && snap.all_idle;
  }
  snap.sent = router_->sent();
  snap.consumed = router_->consumed();
  snap.posted = posted_.load(std::memory_order_seq_cst);
  snap.posted_done = posted_done_.load(std::memory_order_seq_cst);
  return snap;
}

ParallelCluster::Verdict ParallelCluster::Verify(bool record) {
  std::lock_guard<std::mutex> lock(advance_mu_);
  return VerifyLocked(record);
}

ParallelCluster::Verdict ParallelCluster::VerifyLocked(bool record) {
  MetricShard* coord = metrics_ ? &metrics_->shard(coordinator_slot()) : nullptr;
  FlightRecorder* coord_flight = flight_ ? &flight_->recorder(coordinator_slot()) : nullptr;
  // The base snapshot rules out in-flight mail and posted work; under sync
  // the LBTS view rules out a shard mid-round (busy) or still on an older
  // window (done_epoch lag), and carries the floors the next bound derives
  // from.
  const Snapshot first = TakeSnapshot();
  bool blocked = first.Quiet();
  if (blocked && sync_enabled_) {
    lbts_->View(&views_[0]);
    blocked = !views_[0].any_busy && views_[0].all_done;
  }
  if (coord != nullptr) {
    coord->Inc(CounterId::kQuiescencePolls);
    if (blocked) {
      coord->Inc(CounterId::kQuiescenceVotes);
    }
  }
  if (coord_flight != nullptr && record) {
    coord_flight->Record(FrEvent::kQuiescenceVote, blocked ? 1 : 0, first.sent - first.consumed);
  }
  if (!blocked) {
    // Someone is still working; it verifies again on its own idle edge.
    return Verdict::kBusy;
  }
  // One blocked snapshot can race work between its reads; a second identical
  // one cannot -- any work in between bumps a monotonic counter or moves a
  // published floor.  The argument is about interleaving, not elapsed time,
  // so the confirming read follows immediately.
  const Snapshot second = TakeSnapshot();
  if (!second.Quiet() || !first.SameCounters(second)) {
    return Verdict::kBusy;
  }
  SimTime next = kSimTimeNever;
  bool widened = false;
  if (sync_enabled_) {
    lbts_->View(&views_[1]);
    if (!views_[0].Same(views_[1])) {
      return Verdict::kBusy;
    }
    // Verified: every shard is blocked on the current window with these
    // floors, and nothing is in flight.  Either everything is drained or the
    // cluster earns the next window -- strictly conservative while any shard
    // is tight, wide otherwise.
    next = lbts_->NextBound(views_[1].floors, lookahead_, views_[1].any_tight ? 0 : wide_span_,
                            &widened);
  }
  if (next == kSimTimeNever) {
    // Drained.  Only a hint to RunUntilQuiescent, which re-verifies: these
    // snapshots may predate the caller's latest Post().
    ++drained_gen_;
    drained_cv_.notify_all();
    return Verdict::kDrained;
  }
  const SimTime old_bound = lbts_->bound();
  lbts_->OpenWindow(next, widened);
  if (coord != nullptr) {
    coord->Inc(CounterId::kLbtsWindows);
    if (widened) {
      coord->Inc(CounterId::kWideWindowsOpened);
    }
    coord->Set(GaugeId::kLbtsBoundUs, static_cast<std::int64_t>(next));
    coord->Observe(HistogramId::kLbtsWindowSpanUs, next - old_bound);
  }
  if (coord_flight != nullptr) {
    coord_flight->Record(FrEvent::kLbtsWindow, lbts_->epoch(), next);
  }
  // A spinning peer sees the new epoch on its next poll and a running one
  // (the opener) never left; only parked peers need the syscall.
  for (const auto& shard : shards_) {
    router_->WakeIfParked(shard->machine);
  }
  return Verdict::kOpened;
}

bool ParallelCluster::RunUntilQuiescent(std::chrono::milliseconds timeout) {
  Start();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(advance_mu_);
  for (;;) {
    // Shards announce drains, but only a verification run here -- after this
    // thread's own Post()s -- may return true.  The bounded wait re-verifies
    // even if no shard ever notifies (a missed idle edge costs 1ms, not a hang).
    const std::uint64_t gen = drained_gen_;
    if (VerifyLocked() == Verdict::kDrained) {
      return true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    drained_cv_.wait_until(lock, std::min(deadline, now + std::chrono::milliseconds(1)),
                           [this, gen] { return drained_gen_ != gen; });
  }
}

void ParallelCluster::RefreshDepthGauges() {
  if (!metrics_) {
    return;
  }
  for (const auto& shard : shards_) {
    MetricShard& slab = metrics_->shard(shard->machine);
    slab.Set(GaugeId::kMailboxDepth,
             static_cast<std::int64_t>(router_->MailboxDepth(shard->machine)));
    slab.Set(GaugeId::kSpillDepth,
             static_cast<std::int64_t>(router_->SpillDepth(shard->machine)));
  }
}

}  // namespace demos
