// Traced rounds and the layer price list: the per-layer metrics.
//
// ring_seq is traced by assembling the sequential engine from its public
// pieces (EventQueue, SimNetwork, Kernel) with a timing Transport between the
// kernels and the network, and by stepping the queue here, so every event,
// send and wire delivery becomes a span.  The parallel engine cannot be
// entered from outside, so its traced rounds read the shard counters, the
// shard threads' CPU clocks and the migration clock's host timestamps.  The
// price list replays frames captured from the traced traffic through single
// layers, one thread, no contention.

#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <limits>
#include <memory>

#include "perfbench/perfbench.h"
#include "src/base/pool.h"
#include "src/kernel/engine.h"
#include "src/kernel/kernel.h"
#include "src/kernel/message.h"
#include "src/net/sim_network.h"
#include "src/obs/metrics.h"
#include "src/run/parallel_cluster.h"
#include "src/run/shard_router.h"
#include "src/sim/event_queue.h"

namespace perfbench {
namespace {

using demos::CounterId;
using demos::HistogramId;
using demos::HistogramSnapshot;
using demos::PayloadRef;
using demos::ShardSnapshot;

// Frames kept for the price list: every 16th, at most this many.
constexpr std::size_t kCaptureCap = 4096;

// ---- Spans (sequential assembly). ----

enum SpanName : std::uint8_t { kStep = 0, kSend = 1, kDelivery = 2 };
const char* const kSpanNames[] = {"sim.step", "net.send", "kernel.wire_delivery"};
constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

struct Span {
  std::uint32_t parent = kNoParent;
  SpanName name = kStep;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  // time covered by direct children
  std::uint64_t trace_id = 0;

  std::int64_t dur() const { return end_ns - start_ns; }
  std::int64_t self() const { return dur() - child_ns; }
};

// Single-threaded span recorder: a stack of open spans gives parent links;
// a closing child adds its duration to its parent's child time and lends the
// parent its trace id when the parent has none (a step takes the id of the
// message it delivered or sent).
class SpanLog {
 public:
  void Reserve(std::size_t n) { spans_.reserve(n); }
  std::uint32_t Begin(SpanName name, std::uint64_t trace_id) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.name = name;
    s.trace_id = trace_id;
    spans_.push_back(s);
    open_.push_back(id);
    spans_[id].start_ns = NowNs();
    return id;
  }
  void End(std::uint32_t id) {
    Span& s = spans_[id];
    s.end_ns = NowNs();
    open_.pop_back();
    if (s.parent != kNoParent) {
      Span& p = spans_[s.parent];
      p.child_ns += s.dur();
      if (p.trace_id == 0) {
        p.trace_id = s.trace_id;
      }
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

std::uint64_t TraceIdOf(const PayloadRef& frame) {
  auto view = demos::MessageView::Parse(frame);
  return view.ok() ? view.value().trace_id() : 0;
}

// Transport decorator between the kernels and the SimNetwork: a net.send
// span around every Send, a kernel.wire_delivery span around every delivery
// handler call, and a sample of the frames for the price list.
class TimingTransport final : public demos::Transport {
 public:
  TimingTransport(demos::Transport* inner, SpanLog* log) : inner_(inner), log_(log) {}

  void Attach(MachineId node, DeliveryHandler handler) override {
    inner_->Attach(node, [this, handler = std::move(handler)](MachineId src, PayloadRef payload) {
      const std::uint32_t span = log_->Begin(kDelivery, TraceIdOf(payload));
      handler(src, std::move(payload));
      log_->End(span);
    });
  }

  void Send(MachineId src, MachineId dst, PayloadRef payload) override {
    ++sends_;
    frame_bytes_ += payload.size();
    if (captured_.size() < kCaptureCap && sends_ % 16 == 1) {
      captured_.emplace_back(payload.begin(), payload.end());
    }
    const std::uint32_t span = log_->Begin(kSend, TraceIdOf(payload));
    inner_->Send(src, dst, std::move(payload));
    log_->End(span);
  }

  std::uint64_t sends() const { return sends_; }
  std::uint64_t frame_bytes() const { return frame_bytes_; }
  std::vector<Bytes>& captured() { return captured_; }

 private:
  demos::Transport* inner_;
  SpanLog* log_;
  std::uint64_t sends_ = 0;
  std::uint64_t frame_bytes_ = 0;
  std::vector<Bytes> captured_;
};

// The sequential engine rebuilt from its parts, wired the way Cluster wires
// them (same seeds, same network config), with the timing transport
// interposed.  Exposes the harness surface BuildTokenRings needs.
class TracedAssembly {
 public:
  TracedAssembly(int machines, std::uint64_t seed)
      : network_(&queue_, demos::SimNetworkConfig{}), transport_(&network_, &log_) {
    demos::EngineConfig core;
    core.machines = machines;
    core.kernel.seed = seed;
    core.trace_enabled = true;  // trace ids exist only with tracing on
    for (int i = 0; i < machines; ++i) {
      kernels_.push_back(std::make_unique<demos::Kernel>(
          static_cast<MachineId>(i), &queue_, &transport_, demos::DeriveKernelConfig(core, i)));
      demos::WireKernelObservability(core, *kernels_.back(), nullptr, i);
    }
  }

  demos::Kernel& kernel(MachineId m) { return *kernels_[m]; }
  int size() const { return static_cast<int>(kernels_.size()); }
  demos::EventQueue& queue() { return queue_; }
  demos::SimNetwork& network() { return network_; }
  TimingTransport& transport() { return transport_; }
  SpanLog& log() { return log_; }

  demos::ProcessRecord* FindProcess(const demos::ProcessId& pid) {
    for (auto& k : kernels_) {
      if (demos::ProcessRecord* record = k->FindProcess(pid)) {
        return record;
      }
    }
    return nullptr;
  }

 private:
  demos::EventQueue queue_;
  SpanLog log_;
  demos::SimNetwork network_;
  TimingTransport transport_;
  std::vector<std::unique_ptr<demos::Kernel>> kernels_;
};

// ---- Aggregates over the traced rounds. ----

struct Layers {
  int rounds = 0;
  std::vector<double> rates;  // traced msgs/s per round
  std::int64_t receptions = 0;
  // Sequential assembly.
  std::int64_t steps = 0;
  std::vector<double> step_ns_p50;  // per round
  double step_self_ns = 0;
  double send_ns = 0;
  std::int64_t sends = 0;
  double delivery_self_ns = 0;
  std::int64_t deliveries = 0;
  std::int64_t frame_bytes = 0;
  std::int64_t net_packets = 0;
  std::int64_t net_bytes = 0;
  // Parallel engine.
  ShardSnapshot shards;  // summed deltas over the shard slots
  ShardSnapshot coord;   // coordinator slot delta
  std::vector<double> shard_util;
  std::vector<double> shard_share;
  // Both.
  std::uint64_t frames_sent = 0;  // transport sends (seq) or router frames (par)
  std::uint64_t pool_hits = 0;    // sequential: the driving thread's pool
  std::uint64_t pool_misses = 0;
  std::int64_t migrations = 0;
  std::int64_t data_bytes = 0;
  std::int64_t link_update_msgs = 0;
  RecordingObserver::Counts counts;
  std::vector<double> accept_us;
  std::vector<double> transfer_us;
  std::vector<double> restart_us;
  std::vector<Bytes> frames;  // captured for the price list
};

ShardSnapshot Delta(const ShardSnapshot& after, const ShardSnapshot& before) {
  ShardSnapshot d;
  for (int i = 0; i < demos::kNumCounterIds; ++i) {
    d.counters[static_cast<std::size_t>(i)] =
        after.counters[static_cast<std::size_t>(i)] - before.counters[static_cast<std::size_t>(i)];
  }
  for (int h = 0; h < demos::kNumHistogramIds; ++h) {
    const HistogramSnapshot& a = after.histograms[static_cast<std::size_t>(h)];
    const HistogramSnapshot& b = before.histograms[static_cast<std::size_t>(h)];
    HistogramSnapshot& out = d.histograms[static_cast<std::size_t>(h)];
    for (int k = 0; k < demos::kHistogramBuckets; ++k) {
      out.buckets[static_cast<std::size_t>(k)] =
          a.buckets[static_cast<std::size_t>(k)] - b.buckets[static_cast<std::size_t>(k)];
    }
    out.count = a.count - b.count;
    out.sum = a.sum - b.sum;
  }
  return d;
}

std::uint64_t Count(const ShardSnapshot& s, CounterId id) {
  return s.counters[static_cast<std::size_t>(id)];
}
const HistogramSnapshot& Hist(const ShardSnapshot& s, HistogramId id) {
  return s.histograms[static_cast<std::size_t>(id)];
}

void WriteSpans(const Options& opt, const Workload& w, const std::vector<Span>& spans) {
  if (opt.out_dir.empty() || spans.empty()) {
    return;
  }
  const std::string path = opt.out_dir + "/spans-" + w.name + ".tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  const std::int64_t t0 = spans.front().start_ns;
  std::fprintf(f, "id\tparent\tname\tstart_ns\tdur_ns\tself_ns\ttrace_id\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%lld\t%s\t%lld\t%lld\t%lld\t%llu\n", i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 kSpanNames[s.name], static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.dur()), static_cast<long long>(s.self()),
                 static_cast<unsigned long long>(s.trace_id));
  }
  std::fclose(f);
}

void WriteStamps(const Options& opt, const Workload& w,
                 const std::vector<RecordingObserver::Stamp>& stamps) {
  if (opt.out_dir.empty() || stamps.empty()) {
    return;
  }
  const std::string path = opt.out_dir + "/spans-" + w.name + ".tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  static const char* const kKinds[] = {"migration.frozen", "migration.section",
                                       "migration.restart"};
  const std::int64_t t0 = stamps.front().t_ns;
  std::fprintf(f, "pid\tname\tt_ns\tbytes\n");
  for (const RecordingObserver::Stamp& s : stamps) {
    std::fprintf(f, "%llu\t%s\t%lld\t%llu\n", static_cast<unsigned long long>(s.pid),
                 kKinds[static_cast<int>(s.kind)], static_cast<long long>(s.t_ns - t0),
                 static_cast<unsigned long long>(s.bytes));
  }
  std::fclose(f);
}

// One traced ring_seq round on the assembly; checks fidelity against the
// untraced Cluster round.
void SequentialTracedRound(const Workload& w, const Options& opt, const E2eResult& ref,
                           Ledger& ledger, Layers& L) {
  TracedAssembly a(w.machines, opt.seed);
  const std::vector<demos::TokenRing> rings = demos::BuildTokenRings(a, w.spec);
  while (a.queue().Step()) {
  }
  SpanLog& log = a.log();
  log.Clear();
  log.Reserve(static_cast<std::size_t>(WantReceptions(w, opt)) * 5);
  const std::int64_t packets0 = a.network().stats().Get(demos::stat::kNetPacketsSent);
  const std::int64_t bytes0 = a.network().stats().Get(demos::stat::kNetBytesSent);
  const std::uint64_t sends0 = a.transport().sends();
  const std::uint64_t frame_bytes0 = a.transport().frame_bytes();
  const demos::PoolThreadStats pool0 = demos::PayloadBufferPool::ThreadStats();
  const std::int64_t t0 = NowNs();
  demos::KickTokenRings(a, rings, w.spec.tokens_per_node, w.spec.hops_per_token);
  while (!a.queue().Empty()) {
    const std::uint32_t span = log.Begin(kStep, 0);
    a.queue().Step();
    log.End(span);
    ++L.steps;
  }
  const std::int64_t t1 = NowNs();
  const demos::PoolThreadStats pool1 = demos::PayloadBufferPool::ThreadStats();

  std::int64_t receptions = 0;
  std::int64_t migrations = 0;
  CountTokens(
      rings, [&](const demos::ProcessId& pid) { return a.FindProcess(pid); }, &receptions,
      &migrations);
  const std::int64_t wire_bytes = a.network().stats().Get(demos::stat::kNetBytesSent);
  ledger.Expect("token receptions", receptions, WantReceptions(w, opt));
  if (a.queue().Now() != ref.final_virtual_us || receptions != ref.receptions ||
      wire_bytes != ref.wire_bytes) {
    ledger.Fail("fidelity: traced assembly ended at " + std::to_string(a.queue().Now()) +
                " us / " + std::to_string(receptions) + " receptions / " +
                std::to_string(wire_bytes) + " wire bytes; untraced Cluster at " +
                std::to_string(ref.final_virtual_us) + " / " + std::to_string(ref.receptions) +
                " / " + std::to_string(ref.wire_bytes));
  }

  ++L.rounds;
  L.receptions += receptions;
  L.rates.push_back(static_cast<double>(receptions) / Seconds(t0, t1));
  const std::vector<Span>& spans = log.spans();
  std::vector<double> step_ns;
  for (const Span& s : spans) {
    switch (s.name) {
      case kStep:
        step_ns.push_back(static_cast<double>(s.dur()));
        L.step_self_ns += static_cast<double>(s.self());
        break;
      case kSend:
        L.send_ns += static_cast<double>(s.dur());
        ++L.sends;
        break;
      case kDelivery:
        L.delivery_self_ns += static_cast<double>(s.self());
        ++L.deliveries;
        break;
    }
  }
  L.step_ns_p50.push_back(Median(std::move(step_ns)));
  L.net_packets += a.network().stats().Get(demos::stat::kNetPacketsSent) - packets0;
  L.net_bytes += wire_bytes - bytes0;
  L.frame_bytes += static_cast<std::int64_t>(a.transport().frame_bytes() - frame_bytes0);
  L.frames_sent += a.transport().sends() - sends0;
  L.pool_hits += pool1.hits - pool0.hits;
  L.pool_misses += pool1.misses - pool0.misses;
  if (L.rounds == 1) {
    L.frames = std::move(a.transport().captured());
    WriteSpans(opt, w, spans);
  }
}

// Reads the shard threads' CPU clocks, the metric slabs and the kernel
// counters at both ends of a traced parallel round's timed phase.
class ShardProbe final : public RoundProbe {
 public:
  void Staged(demos::ParallelCluster& cluster) override {
    const auto shards = static_cast<std::size_t>(cluster.size());
    ids_.assign(shards, clockid_t{});
    ok_.assign(shards, 0);
    for (std::size_t m = 0; m < shards; ++m) {
      cluster.Post(static_cast<MachineId>(m), [this, m] {
        ok_[m] = pthread_getcpuclockid(pthread_self(), &ids_[m]) == 0;
      });
    }
    if (!cluster.RunUntilQuiescent(kQuiesceTimeout)) {
      ok_.assign(shards, 0);
    }
    before_ = Read(cluster);
  }
  void Finished(demos::ParallelCluster& cluster) override { after_ = Read(cluster); }

  struct Reading {
    std::int64_t t_ns = 0;
    std::vector<double> cpu_s;
    demos::MetricsSnapshot metrics;
    demos::StatsRegistry stats;
    std::uint64_t router_sent = 0;
  };
  const Reading& before() const { return before_; }
  const Reading& after() const { return after_; }

 private:
  Reading Read(demos::ParallelCluster& cluster) const {
    Reading r;
    r.t_ns = NowNs();
    for (std::size_t m = 0; m < ids_.size(); ++m) {
      timespec ts{};
      r.cpu_s.push_back(ok_[m] && clock_gettime(ids_[m], &ts) == 0
                            ? static_cast<double>(ts.tv_sec) +
                                  static_cast<double>(ts.tv_nsec) * 1e-9
                            : 0);
    }
    r.metrics = cluster.metrics()->Snapshot();
    r.stats = cluster.TotalStats();
    r.router_sent = cluster.router().sent();
    return r;
  }

  std::vector<clockid_t> ids_;
  std::vector<int> ok_;  // written by the shard threads, read after quiescence
  Reading before_;
  Reading after_;
};

// One traced parallel round: tracing on, counting observer attached.
void ParallelTracedRound(const Workload& w, const Options& opt, Ledger& ledger, Layers& L) {
  RecordingObserver observer(w.machines, /*count_messages=*/true, /*capture_every=*/16,
                             kCaptureCap);
  ShardProbe probe;
  const std::int64_t failed_before = ledger.failed;
  const Round r = ParallelRound(w, opt, /*traced=*/true, &observer, &probe, ledger);
  if (ledger.failed != failed_before) {
    return;
  }
  const ShardProbe::Reading& b = probe.before();
  const ShardProbe::Reading& a = probe.after();
  ++L.rounds;
  L.receptions += r.receptions;
  L.rates.push_back(static_cast<double>(r.receptions) / r.run_s);
  const double wall = Seconds(b.t_ns, a.t_ns);
  std::uint64_t drained_total = 0;
  std::vector<std::uint64_t> drained;
  for (int m = 0; m < w.machines; ++m) {
    const auto i = static_cast<std::size_t>(m);
    const ShardSnapshot d = Delta(a.metrics.shards[i], b.metrics.shards[i]);
    L.shards.Merge(d);
    drained.push_back(Count(d, CounterId::kMsgsDrained));
    drained_total += drained.back();
    L.shard_util.push_back((a.cpu_s[i] - b.cpu_s[i]) / wall);
  }
  for (const std::uint64_t n : drained) {
    L.shard_share.push_back(Ratio(static_cast<double>(n), static_cast<double>(drained_total)));
  }
  const auto slot = static_cast<std::size_t>(w.machines);  // the coordinator's slab
  L.coord.Merge(Delta(a.metrics.shards[slot], b.metrics.shards[slot]));
  L.frames_sent += a.router_sent - b.router_sent;
  const auto stat_delta = [&](const char* name) { return a.stats.Get(name) - b.stats.Get(name); };
  L.migrations += stat_delta(demos::stat::kMigrations);
  L.data_bytes += stat_delta(demos::stat::kDataBytes);
  L.link_update_msgs += stat_delta(demos::stat::kLinkUpdateMsgs);
  const RecordingObserver::Counts c = observer.Totals();
  L.counts.forwards += c.forwards;
  L.counts.bounces += c.bounces;
  L.counts.pending_resends += c.pending_resends;
  L.counts.aborted += c.aborted;
  L.counts.admin_sent += c.admin_sent;
  std::int64_t unmatched = 0;
  for (const RecordingObserver::Phases& p : observer.Match(&unmatched)) {
    L.accept_us.push_back(p.accept_us);
    L.transfer_us.push_back(p.transfer_us);
    L.restart_us.push_back(p.restart_us);
  }
  if (unmatched != 0) {
    ledger.Fail("traced round: " + std::to_string(unmatched) + " unmatched migration stamps");
  }
  if (L.rounds == 1) {
    L.frames = observer.TakeCaptured();
    WriteStamps(opt, w, observer.AllStamps());
  }
}

// ---- Price list. ----

struct Prices {
  double parse_ns = 0;
  double frame_ns = 0;
  double event_ns = 0;
  double net_send_ns = 0;
  double router_ns = 0;
};

// Repeat `pass` (which handles `per_pass` operations) for `slice_s` seconds,
// at least once; ns per operation.
template <typename Fn>
double PricePerOp(double slice_s, std::size_t per_pass, Fn pass) {
  std::size_t ops = 0;
  std::int64_t busy = 0;
  const std::int64_t start = NowNs();
  do {
    const std::int64_t t0 = NowNs();
    pass();
    busy += NowNs() - t0;
    ops += per_pass;
  } while (Seconds(start, NowNs()) < slice_s);
  return ops == 0 ? 0 : static_cast<double>(busy) / static_cast<double>(ops);
}

Prices PriceList(const std::vector<Bytes>& frames, double budget_s) {
  Prices p;
  if (frames.empty()) {
    return p;
  }
  std::vector<PayloadRef> refs;
  for (const Bytes& b : frames) {
    refs.push_back(PayloadRef::Copy(b.data(), b.size()));
  }
  const double slice = budget_s / 5;
  std::size_t sink = 0;

  p.parse_ns = PricePerOp(slice, refs.size(), [&] {
    for (const PayloadRef& ref : refs) {
      sink += demos::MessageView::Parse(ref).ok() ? 1 : 0;
    }
  });
  p.frame_ns = PricePerOp(slice, refs.size(), [&] {
    for (const PayloadRef& ref : refs) {
      auto msg = demos::Message::Deserialize(ref);
      if (msg.ok()) {
        sink += msg.value().Frame().size();
      }
    }
  });

  constexpr std::size_t kEvents = 1024;
  demos::EventQueue queue;
  p.event_ns = PricePerOp(slice, kEvents, [&] {
    for (std::size_t i = 0; i < kEvents; ++i) {
      queue.At(queue.Now() + (i * 7) % 64, [&sink] { ++sink; });
    }
    while (queue.Step()) {
    }
  });

  // SimNetwork::Send alone is timed; the deliveries it schedules are drained
  // outside the timed pass.
  demos::EventQueue net_queue;
  demos::SimNetwork network(&net_queue, demos::SimNetworkConfig{});
  for (MachineId m = 0; m < 4; ++m) {
    network.Attach(m, [&sink](MachineId, PayloadRef payload) { sink += payload.size(); });
  }
  std::size_t ops = 0;
  std::int64_t busy = 0;
  const std::int64_t net_start = NowNs();
  do {
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < refs.size(); ++i) {
      network.Send(static_cast<MachineId>(i % 4), static_cast<MachineId>((i + 1) % 4), refs[i]);
    }
    busy += NowNs() - t0;
    ops += refs.size();
    net_queue.RunUntilIdle(0);
  } while (Seconds(net_start, NowNs()) < slice);
  p.net_send_ns = static_cast<double>(busy) / static_cast<double>(ops);

  // ShardRouter stage -> publish -> drain, on one thread.
  demos::ShardRouter router(2);
  router.SetBatchingEnabled(true);
  router.Attach(0, [&sink](MachineId, PayloadRef payload) { sink += payload.size(); });
  router.Attach(1, [&sink](MachineId, PayloadRef payload) { sink += payload.size(); });
  p.router_ns = PricePerOp(slice, refs.size(), [&] {
    for (const PayloadRef& ref : refs) {
      router.Send(0, 1, ref);
    }
    router.Flush(0);
    router.Drain(1, std::numeric_limits<std::size_t>::max());
  });
  if (sink == 0) {
    std::fprintf(stderr, "price list: replay did no work\n");
  }
  return p;
}

}  // namespace

void RunTraced(const Workload& w, const Options& opt, double budget_s, const E2eResult& untraced,
               Ledger& ledger, std::vector<Metric>& out) {
  Layers L;
  const bool seq = w.engine == Engine::kSequential;
  const double rounds_budget = budget_s * 0.75;
  const std::int64_t start = NowNs();
  while (L.rounds == 0 || Seconds(start, NowNs()) < rounds_budget) {
    const std::int64_t failed_before = ledger.failed;
    if (seq) {
      SequentialTracedRound(w, opt, untraced, ledger, L);
    } else {
      ParallelTracedRound(w, opt, ledger, L);
    }
    if (ledger.failed != failed_before) {
      break;  // the ledger has the failure; later rounds would repeat it
    }
  }
  const Prices price = PriceList(L.frames, std::max(0.05, budget_s - Seconds(start, NowNs())));

  const double msgs = static_cast<double>(L.receptions);
  const double migrations = static_cast<double>(L.migrations);
  const double rounds = std::max(1, L.rounds);
  const auto shard = [&](CounterId id) { return static_cast<double>(Count(L.shards, id)); };
  const auto coord = [&](CounterId id) { return static_cast<double>(Count(L.coord, id)); };
  const double events =
      seq ? static_cast<double>(L.steps) : shard(CounterId::kEventsExecuted);
  const double frames_per_msg = Ratio(static_cast<double>(L.frames_sent), msgs);
  const double events_per_msg = Ratio(events, msgs);
  double frame_bytes_mean = Ratio(static_cast<double>(L.frame_bytes), static_cast<double>(L.sends));
  if (!seq) {
    double bytes = 0;
    for (const Bytes& f : L.frames) {
      bytes += static_cast<double>(f.size());
    }
    frame_bytes_mean = Ratio(bytes, static_cast<double>(L.frames.size()));
  }
  const double transport_ns = seq ? price.net_send_ns : price.router_ns;
  const double sum_ns = frames_per_msg * (price.parse_ns + price.frame_ns + transport_ns) +
                        events_per_msg * price.event_ns;
  double util_min = 0;
  double util_max = 0;
  if (!L.shard_util.empty()) {
    util_min = *std::min_element(L.shard_util.begin(), L.shard_util.end());
    util_max = *std::max_element(L.shard_util.begin(), L.shard_util.end());
  }
  const double share_max =
      L.shard_share.empty() ? 0 : *std::max_element(L.shard_share.begin(), L.shard_share.end());
  const double parks = shard(CounterId::kCondvarParks);
  const double avoided = shard(CounterId::kParksAvoided);
  const double notifies = shard(CounterId::kCondvarNotifies);
  const double elided = shard(CounterId::kNotifiesElided);
  const double windows = coord(CounterId::kLbtsWindows);
  const double dispatch_ns =
      seq ? std::max(0.0, L.step_self_ns - static_cast<double>(L.steps) * price.event_ns) : 0;

  out.push_back({"sim.events_per_msg", events_per_msg, "count"});
  out.push_back({"sim.step_ns_p50", Median(L.step_ns_p50), "ns"});
  out.push_back(
      {"sim.self_ns_per_event", Ratio(L.step_self_ns, static_cast<double>(L.steps)), "ns"});
  out.push_back({"net.send_ns_mean", Ratio(L.send_ns, static_cast<double>(L.sends)), "ns"});
  out.push_back({"net.bytes_per_send",
                 Ratio(static_cast<double>(L.net_bytes), static_cast<double>(L.net_packets)), "B"});
  out.push_back({"wire.frame_bytes_mean", frame_bytes_mean, "B"});
  out.push_back({"kernel.wire_delivery_ns_mean",
                 Ratio(L.delivery_self_ns, static_cast<double>(L.deliveries)), "ns"});
  out.push_back({"kernel.dispatch_self_ns_per_msg", Ratio(dispatch_ns, msgs), "ns"});
  out.push_back({"kernel.forwards_per_migration",
                 Ratio(static_cast<double>(L.counts.forwards), migrations), "count"});
  out.push_back({"kernel.bounces_per_migration",
                 Ratio(static_cast<double>(L.counts.bounces), migrations), "count"});
  out.push_back({"kernel.link_update_msgs_per_forward",
                 Ratio(static_cast<double>(L.link_update_msgs),
                       static_cast<double>(L.counts.forwards)),
                 "count"});
  out.push_back({"migration.accept_us_p50", Median(L.accept_us), "us"});
  out.push_back({"migration.transfer_us_p50", Median(L.transfer_us), "us"});
  out.push_back({"migration.restart_us_p50", Median(L.restart_us), "us"});
  out.push_back({"kernel.pending_resends_per_migration",
                 Ratio(static_cast<double>(L.counts.pending_resends), migrations), "count"});
  out.push_back({"kernel.admin_msgs_per_migration",
                 Ratio(static_cast<double>(L.counts.admin_sent), migrations), "count"});
  out.push_back({"kernel.data_bytes_per_migration",
                 Ratio(static_cast<double>(L.data_bytes), migrations), "B"});
  out.push_back({"migration.aborted", static_cast<double>(L.counts.aborted), "count"});
  out.push_back(
      {"run.publish_batch_mean", Hist(L.shards, HistogramId::kBatchSize).Mean(), "count"});
  out.push_back(
      {"run.drain_batch_mean", Hist(L.shards, HistogramId::kDrainBatchSize).Mean(), "count"});
  out.push_back(
      {"run.backpressure_stalls", shard(CounterId::kBackpressureStalls) / rounds, "count"});
  out.push_back({"run.spill_rescued", shard(CounterId::kSpillRescued) / rounds, "count"});
  out.push_back({"run.spin_iters_per_msg", Ratio(shard(CounterId::kSpinIters), msgs), "count"});
  out.push_back({"run.parks_per_kmsg", Ratio(parks * 1000, msgs), "count"});
  out.push_back({"run.park_wait_us_total",
                 static_cast<double>(Hist(L.shards, HistogramId::kParkWaitUs).sum) / rounds, "us"});
  out.push_back({"run.parks_avoided_ratio", Ratio(avoided, avoided + parks), "ratio"});
  out.push_back({"run.notifies_elided_ratio", Ratio(elided, elided + notifies), "ratio"});
  out.push_back(
      {"run.events_per_round_mean", Hist(L.shards, HistogramId::kEventsPerRound).Mean(), "count"});
  out.push_back({"run.quiescence_polls", coord(CounterId::kQuiescencePolls) / rounds, "count"});
  out.push_back({"run.shard_cpu_util_min", util_min, "ratio"});
  out.push_back({"run.shard_cpu_util_max", util_max, "ratio"});
  out.push_back({"run.shard_msg_share_max", share_max, "ratio"});
  out.push_back({"run.lbts_windows_per_kmsg", Ratio(windows * 1000, msgs), "count"});
  out.push_back({"run.wide_windows_ratio", Ratio(coord(CounterId::kWideWindowsOpened), windows),
                 "ratio"});
  const HistogramSnapshot& spans = Hist(L.coord, HistogramId::kLbtsWindowSpanUs);
  out.push_back({"run.lbts_span_us_p99", static_cast<double>(spans.QuantileBound(0.99)), "us"});
  out.push_back({"run.sync_frames_clamped", shard(CounterId::kSyncFramesClamped), "count"});
  const double hits = seq ? static_cast<double>(L.pool_hits) : shard(CounterId::kPoolHits);
  const double misses = seq ? static_cast<double>(L.pool_misses) : shard(CounterId::kPoolMisses);
  out.push_back({"base.pool_hit_ratio", Ratio(hits, hits + misses), "ratio"});
  out.push_back(
      {"obs.tracing_overhead", Ratio(Quantile(L.rates, 0.9), untraced.msgs_per_s), "ratio"});
  out.push_back({"price.wire_parse_ns", price.parse_ns, "ns"});
  out.push_back({"price.wire_frame_ns", price.frame_ns, "ns"});
  out.push_back({"price.event_ns", price.event_ns, "ns"});
  out.push_back({"price.net_send_ns", price.net_send_ns, "ns"});
  out.push_back({"price.router_ns_per_frame", price.router_ns, "ns"});
  out.push_back({"price.sum_ns_per_msg", sum_ns, "ns"});
  out.push_back({"price.sum_share_of_cpu", Ratio(sum_ns, untraced.cpu_us_per_msg * 1000), "ratio"});
  out.push_back({"trace.rounds", static_cast<double>(L.rounds), "count"});
}

}  // namespace perfbench
