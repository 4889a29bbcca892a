// Conservative virtual-time synchronization for the parallel engine.
//
// The classic PDES problem: ParallelCluster's shards each own a private
// EventQueue, so without agreement shard A can execute an event at virtual
// time 50'000 before shard B's event at 1'000 has sent it a message that
// should have arrived at 1'100.  That is harmless for workloads whose
// correctness is timing-independent (the free-running default), but it makes
// every wall-clock policy -- most importantly MigrationDeadlines -- fire
// spuriously.
//
// The fix here is lookahead-based conservative windows (YAWNS-style rounds,
// not per-link null messages).  Every cross-shard frame takes a known minimum
// virtual latency L(src, dst) >= 1us, so once every shard is blocked with its
// next local event at floor_i, no event anywhere in the cluster can be
// affected by another shard before
//
//     LBTS = min_i (floor_i + min_dst L(i, dst))
//
// The next window therefore opens with bound = LBTS - 1 and every shard may
// execute all events with timestamp <= bound without ever receiving a frame
// in its past: a shard executing at t >= floor_src produces an arrival
// t + L(src, dst) >= floor_src + min-lookahead(src) >= bound + 1.
//
// Each shard, right after PublishIdle, runs the quiescence double-snapshot
// verification under one mutex, so the last shard to block opens the next
// window itself (ParallelCluster).  A window only closes when the router's
// sent == consumed (no frame in any mailbox), every posted closure has run,
// and every shard has published an identical (epoch, floor) across two
// snapshots while not busy.  The busy flag is set (seq_cst) *before* a shard
// consumes any input, which closes the race where a shard drains a frame but
// publishes its new floor only after the verifier has read the stale one:
// either the publish lands before the first snapshot (floor is fresh), or the
// verifier observes busy == true / differing counters and gives up (the busy
// shard verifies on its own next idle edge).
//
// Adaptive lookahead (docs/PROTOCOL.md, "Adaptive lookahead") relaxes the
// static bound in two ways when -- and only when -- no shard has published a
// *tight* flag (a migration in flight or an armed deadline watchdog):
//   - per-link learned lookahead: each source shard observes the virtual-time
//     gaps between its own consecutive sends and publishes a per-source
//     estimate that may exceed the static link minimum (AdaptiveLookahead);
//   - wide windows: the bound may additionally jump to
//     min_floor + wide_span - 1, where wide_span is a configured multiple of
//     the static base lookahead.
// Relaxed windows trade exact delivery timing for fewer coordination rounds:
// a frame whose latency-adjusted arrival lands at or before the receiver's
// clock is clamped forward to "now" (never delivered into the past, so
// exactly-once and per-link FIFO are untouched), and cross-shard clock skew
// stays bounded by one window span because every clock is capped by
// min_floor + span.  The instant any shard turns tight the next window falls
// back to the strictly conservative bound above, for which the zero-clamp
// proof holds window by window.

#ifndef DEMOS_RUN_VIRTUAL_TIME_H_
#define DEMOS_RUN_VIRTUAL_TIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/ids.h"
#include "src/sim/event_queue.h"

namespace demos {

// Minimum virtual latency of every shard-to-shard link, and the per-shard
// outgoing lookahead derived from it.  Latencies are clamped to >= 1us:
// a zero-lookahead link would make the LBTS bound unable to advance.
class LinkLatencyTable {
 public:
  LinkLatencyTable(int machines, SimDuration uniform_us);

  // Override one link's minimum latency (0 is clamped to 1us).  Cold path:
  // recomputes the source's cached lookahead.
  void SetLink(MachineId src, MachineId dst, SimDuration latency_us);

  SimDuration Latency(MachineId src, MachineId dst) const {
    if (src >= machines_ || dst >= machines_) {
      return uniform_;
    }
    const SimDuration link = overrides_[Index(src, dst)];
    return link == 0 ? uniform_ : link;
  }

  // min over destinations of Latency(src, dst): how far past its own next
  // event this shard is guaranteed not to affect anyone.  Cached per source
  // and maintained by SetLink, so NextBound costs O(shards) per window
  // instead of O(shards^2) row rescans.
  SimDuration LookaheadFrom(MachineId src) const {
    return src < machines_ ? lookahead_[src] : uniform_;
  }

  // min over sources of LookaheadFrom: the cluster's base window span.
  SimDuration MinLookahead() const;

  int machines() const { return machines_; }

 private:
  std::size_t Index(MachineId src, MachineId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(machines_) +
           static_cast<std::size_t>(dst);
  }
  void RecomputeLookahead(MachineId src);

  int machines_;
  SimDuration uniform_;
  std::vector<SimDuration> overrides_;  // 0 = use the uniform latency
  std::vector<SimDuration> lookahead_;  // cached per-source min over dst
};

// Learned per-link lookahead for relaxed LBTS windows.  Each source shard
// observes the virtual-time gap between its own consecutive sends per
// destination (owner-thread-only, one compare per Send) and publishes a
// per-source lookahead the window opener may use instead of the static link
// minimum while no consumer needs tight bounds.  The estimate starts at the
// static minimum, grows at most 2x per observation window (a windowed min
// over actual send_ts deltas, capped at growth_cap x static), shrinks
// immediately when a shorter gap shows up, and collapses back to the static
// minimum the moment its shard turns tight (a migration offer leaves, a
// deadline watchdog arms).  The published value is a heuristic: relaxed-mode
// correctness comes from consumer gating plus forward clamping
// (docs/PROTOCOL.md), not from this estimate -- a good estimate just keeps
// the clamp count near zero.
class AdaptiveLookahead {
 public:
  AdaptiveLookahead(const LinkLatencyTable& table, std::uint32_t growth_cap,
                    std::uint32_t window);

  // Owner-thread-only for shard `src`: record one send.  Returns true when
  // the observation shrank the published lookahead (counted by the caller as
  // lookahead_shrinks).
  bool Observe(MachineId src, MachineId dst, SimTime send_ts);

  // Owner-thread-only for shard `src`: forget everything learned and publish
  // the static minimum again (the shard turned tight).  Returns true when
  // the published value actually shrank.
  bool Collapse(MachineId src);

  // Any thread (the window opener): current published lookahead for `src`.
  // Always >= the static LookaheadFrom(src).
  SimDuration FromSource(MachineId src) const {
    return published_[src]->value.load(std::memory_order_seq_cst);
  }

  int machines() const { return static_cast<int>(sources_.size()); }

 private:
  struct LinkState {
    SimTime last_send_ts = kSimTimeNever;  // kSimTimeNever: no send observed
    SimDuration learned = 0;
    SimDuration window_min = kSimTimeNever;
    std::uint32_t window_count = 0;
  };
  // Owner-thread-only learning state for one source shard.
  struct SourceState {
    SimDuration static_la = 1;  // LookaheadFrom(src), the floor
    SimDuration cap = 1;        // static_la * growth_cap, the ceiling
    std::vector<LinkState> links;
  };
  struct alignas(64) Published {
    std::atomic<SimDuration> value{1};
  };

  // Recompute src's published value (min learned over observed links, or the
  // static floor when nothing was observed).  Returns true when it shrank.
  bool Republish(MachineId src);

  std::uint32_t window_;
  std::vector<SourceState> sources_;
  std::vector<std::unique_ptr<Published>> published_;
};

// Shared window state: the window opener publishes (epoch, bound); each
// shard publishes (busy, done_epoch, floor, tight).  All accesses are
// seq_cst -- this is the cold coordination path, executed once per shard idle
// edge, not per event.
class LbtsState {
 public:
  explicit LbtsState(int shards);

  // ---- Shard side. ----
  // Must be called before the shard consumes any input (mailbox, posted
  // closures, or local events); see the header comment for why.
  void MarkBusy(MachineId shard) { slots_[shard]->busy.store(true, std::memory_order_seq_cst); }

  // The shard has nothing left to do at or below the current bound: publish
  // its floor and tight-consumer flag for `epoch` and clear busy (in that
  // order).  `tight` means this shard's kernel needs strictly conservative
  // bounds (migration in flight / armed deadline watchdog).
  void PublishIdle(MachineId shard, std::uint64_t epoch, SimTime floor, bool tight = false) {
    Slot& slot = *slots_[shard];
    slot.floor.store(floor, std::memory_order_seq_cst);
    slot.tight.store(tight, std::memory_order_seq_cst);
    slot.done_epoch.store(epoch, std::memory_order_seq_cst);
    slot.busy.store(false, std::memory_order_seq_cst);
  }

  std::uint64_t epoch() const { return epoch_.load(std::memory_order_seq_cst); }
  SimTime bound() const { return bound_.load(std::memory_order_seq_cst); }

  // True once any relaxed (wider-than-static) window was opened this run.
  // Receivers use it to classify a clamped arrival as the expected residue of
  // a wide era (wide_frames_clamped) instead of a conservative-sync bug
  // (sync_frames_clamped, which must stay 0 in a never-widened run).
  bool ever_wide() const { return ever_wide_.load(std::memory_order_seq_cst); }

  // ---- Verifier side (whichever thread verifies, under its mutex). ----
  struct ShardView {
    bool any_busy = false;
    bool all_done = false;  // every done_epoch == the current epoch
    bool any_tight = false;
    std::vector<SimTime> floors;

    bool Same(const ShardView& other) const {
      return any_busy == other.any_busy && all_done == other.all_done &&
             any_tight == other.any_tight && floors == other.floors;
    }
  };

  // Fill `view` in place: reusing view->floors keeps it allocation-free.
  void View(ShardView* view) const;

  // New bound from a validated set of floors: min_i(floor_i + lookahead_i) - 1,
  // skipping drained shards.  Returns kSimTimeNever when every queue is empty
  // (the cluster is quiescent).  The result is always > the current bound:
  // floors are past the old bound by construction and lookahead is >= 1us.
  SimTime NextBound(const std::vector<SimTime>& floors, const LinkLatencyTable& latency) const;

  // Relaxed variant for windows where no shard is tight: lookahead per source
  // is the learned estimate (>= static; `adaptive` may be null), and the
  // bound may additionally widen to min_floor + wide_span - 1.  Never returns
  // less than NextBound.  `*widened` reports whether the result actually
  // exceeds the strictly conservative bound (the caller counts
  // wide_windows_opened and marks the run ever-wide).
  SimTime NextRelaxedBound(const std::vector<SimTime>& floors, const LinkLatencyTable& latency,
                           const AdaptiveLookahead* adaptive, SimDuration wide_span,
                           bool* widened) const;

  // Publish a new window.  The bound store precedes the epoch bump so a shard
  // that observes the new epoch always sees at least the new bound.  `wide`
  // latches ever_wide().
  void OpenWindow(SimTime new_bound, bool wide = false) {
    if (wide) {
      ever_wide_.store(true, std::memory_order_seq_cst);
    }
    bound_.store(new_bound, std::memory_order_seq_cst);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
  }

  int shards() const { return static_cast<int>(slots_.size()); }

 private:
  // One cache line per shard: floors are written by their shard on every
  // park and must not false-share with a neighbour's hot loop.
  struct alignas(64) Slot {
    std::atomic<bool> busy{false};
    std::atomic<std::uint64_t> done_epoch{0};
    std::atomic<SimTime> floor{0};
    std::atomic<bool> tight{false};
  };

  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<SimTime> bound_{0};
  std::atomic<bool> ever_wide_{false};
};

}  // namespace demos

#endif  // DEMOS_RUN_VIRTUAL_TIME_H_
