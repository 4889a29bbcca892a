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
// not per-link null messages).  Every cross-shard frame takes the same known
// virtual latency L >= 1us (the lookahead), so once every shard is blocked
// with its next local event at floor_i, no event anywhere in the cluster can
// be affected by another shard before
//
//     LBTS = min_i floor_i + L
//
// The next window therefore opens with bound = LBTS - 1 and every shard may
// execute all events with timestamp <= bound without ever receiving a frame
// in its past: a shard executing at t >= floor_src produces an arrival
// t + L >= min_floor + L >= bound + 1.
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
// Wide windows (docs/PROTOCOL.md, "Wide windows") relax the static bound
// when -- and only when -- no shard has published a *tight* flag (a
// migration in flight or an armed deadline watchdog): the bound may then jump
// to min_floor + wide_span - 1, where wide_span is a configured multiple of
// the lookahead.  Relaxed windows trade exact delivery timing for fewer
// coordination rounds: a frame whose latency-adjusted arrival lands at or
// before the receiver's clock is clamped forward to "now" (never delivered
// into the past, so exactly-once and per-link FIFO are untouched), and
// cross-shard clock skew stays bounded by one window span because every
// clock is capped by min_floor + span.  The instant any shard turns tight the
// next window falls back to the strictly conservative bound above, for which
// the zero-clamp proof holds window by window.

#ifndef DEMOS_RUN_VIRTUAL_TIME_H_
#define DEMOS_RUN_VIRTUAL_TIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/ids.h"
#include "src/sim/event_queue.h"

namespace demos {

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

  // New bound from a validated set of floors: min_floor + lookahead - 1,
  // skipping drained shards (lookahead 0 is clamped to 1us).  A nonzero
  // `wide_span` -- passed only while no shard is tight -- lets the bound
  // widen to min_floor + wide_span - 1; `*widened` reports whether the
  // result exceeds the strict bound (the caller counts wide_windows_opened
  // and marks the run ever-wide).  Returns kSimTimeNever when every queue is
  // empty (the cluster is quiescent).  The result is always > the current
  // bound: floors are past the old bound by construction and lookahead is
  // >= 1us.
  SimTime NextBound(const std::vector<SimTime>& floors, SimDuration lookahead,
                    SimDuration wide_span, bool* widened) const;

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
