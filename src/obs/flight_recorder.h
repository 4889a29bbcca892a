// The one event recorder: a per-shard buffer of typed, timestamped records,
// written by every layer (runtime, kernel, network) and read back either as a
// post-mortem dump or as the input of the Sec. 6 trace analysis
// (src/obs/trace_export.h).
//
// Two retention modes share one record format and one write path:
//   * ring (the default): a fixed-size ring that overwrites itself forever,
//     cheap enough to leave enabled in every run.  It answers the post-mortem
//     question -- "what were the last few thousand things each shard did
//     before the invariant tripped".  Chaos/fuzz failures, ClusterChecker
//     violations, and watchdog reap/adopt/cancel decisions trigger a merged
//     dump.
//   * retain-all (tracing on): the buffer grows instead of wrapping, so the
//     whole run survives for span reconstruction, per-message lifecycles and
//     the derived phase histograms.
//
// Concurrency contract (mirrors MetricShard): each FlightRecorder has exactly
// one writer, its owning shard thread, and Record() is plain stores into
// owned memory -- no atomics; the only branch besides the wrap is the
// retain-all growth check.  Snapshots and dumps read the buffer without
// synchronization, so they are only valid from the owner thread or when the
// writers are quiescent (which every trigger point guarantees: invariant
// checks, watchdog verdicts, and chaos verdicts all run at quiescence or on
// the owner thread).  The *trigger latch* on the hub is the one cross-thread
// piece and is an atomic.
//
// Timestamps come from an injectable clock so deterministic harnesses get
// deterministic dumps: the sequential engine feeds the virtual EventQueue
// clock (us x 1000), the parallel runtime feeds steady_clock, which is
// already one axis across shards.

#ifndef DEMOS_OBS_FLIGHT_RECORDER_H_
#define DEMOS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace demos {

// Which layer an event belongs to; also the Chrome-trace track it lands on.
enum class FrCategory : std::uint8_t {
  kRun,        // parallel runtime (router, scheduling, quiescence, LBTS), harness
  kAddr,       // churn-proof addressing (chain collapse, reclaim, gossip, locate)
  kMigration,  // Sec. 3.1 protocol steps and their failure paths
  kMessage,    // message lifecycle, correlated by the header trace id
  kNet,        // packet network and reliable channel
};

// ---------------------------------------------------------------------------
// The event catalog.  X(enum entry, exported name, category, a operand,
// b operand); a null operand name means the slot is unused.  Every record
// also carries `id`: MigrationSpanId(pid) for migration and addressing
// events about one process, the message trace id for lifecycle events, and 0
// otherwise.  docs/OBSERVABILITY.md tabulates the same list.
// ---------------------------------------------------------------------------

#define DEMOS_FR_EVENT_LIST(X)                                                         \
  /* Runtime: router, scheduling, quiescence, virtual-time windows. */               \
  X(kMailboxPush, "mailbox_push", kRun, "dst_shard", nullptr)                          \
  X(kDrainBatch, "drain_batch", kRun, "msgs", nullptr)                                 \
  X(kSpillEnter, "spill_enter", kRun, "msgs", nullptr)                                 \
  X(kSpillExit, "spill_exit", kRun, "msgs", nullptr)                                   \
  X(kBackpressure, "backpressure", kRun, "dst_shard", "spins")                         \
  X(kParkBegin, "park_begin", kRun, nullptr, nullptr)                                  \
  X(kParkEnd, "park_end", kRun, "woke_to_work", nullptr)                               \
  X(kPostedTask, "posted_task", kRun, "tasks", nullptr)                                \
  X(kQuiescenceVote, "quiescence_vote", kRun, "quiet", "in_flight")                    \
  X(kLbtsWindow, "lbts_window", kRun, "epoch", "bound_us")                             \
  /* Harness verdicts. */                                                              \
  X(kInvariantFail, "invariant_fail", kRun, "violations", nullptr)                     \
  /* Churn-proof addressing. */                                                        \
  X(kChainCollapse, "chain_collapse", kAddr, "via", nullptr)                           \
  X(kFwdReclaim, "fwd_reclaim", kAddr, "records", "tombstones")                        \
  X(kGossip, "gossip", kAddr, "peer", "triples")                                       \
  X(kLocateRetry, "locate_retry", kAddr, "target", "attempt")                          \
  /* Migration protocol, one or more per Sec. 3.1 step. */                             \
  X(kMigrationBegin, "migration_begin", kMigration, "dest", nullptr)                   \
  X(kRequestSent, "request_sent", kMigration, "host", nullptr)                         \
  X(kOfferSent, "offer_sent", kMigration, "dest", "bytes")                             \
  X(kOfferReceived, "offer_received", kMigration, "source", "bytes")                   \
  X(kAcceptSent, "accept_sent", kMigration, nullptr, nullptr)                          \
  X(kAcceptReceived, "accept_received", kMigration, nullptr, nullptr)                  \
  X(kRejectSent, "reject_sent", kMigration, "status", nullptr)                         \
  X(kPullRequested, "pull_requested", kMigration, "section", nullptr)                  \
  X(kSectionStreamed, "section_streamed", kMigration, "section", "bytes")              \
  X(kSectionReceived, "section_received", kMigration, "section", "bytes")              \
  X(kTransferDoneSent, "transfer_complete_sent", kMigration, nullptr, nullptr)         \
  X(kTransferDoneReceived, "transfer_complete_received", kMigration, nullptr, nullptr) \
  X(kPendingForwarded, "pending_forwarded", kMigration, "count", nullptr)              \
  X(kForwardingInstalled, "forwarding_address_installed", kMigration, "dest", nullptr) \
  X(kCleanupSent, "cleanup_done_sent", kMigration, nullptr, nullptr)                   \
  X(kRestarted, "restarted", kMigration, "state", nullptr)                             \
  X(kMigrationAborted, "migration_aborted", kMigration, "status", nullptr)             \
  /* Migration failure paths (watchdog deadlines, dead-peer recovery). */              \
  X(kWatchdogTimeout, "watchdog_timeout", kMigration, "deadline_us", "peer")           \
  X(kDestReaped, "dest_reaped", kMigration, "source", nullptr)                         \
  X(kDestAdopted, "dest_adopted", kMigration, "source", nullptr)                       \
  X(kCancelSent, "cancel_sent", kMigration, "dest", nullptr)                           \
  X(kCancelReceived, "cancel_received", kMigration, "source", nullptr)                 \
  X(kPeerSuspected, "peer_suspected", kMigration, "peer", "strikes")                   \
  /* Message lifecycle; recorded only for messages that carry a trace id. */           \
  X(kMsgSend, "send", kMessage, "type", "wire_bytes")                                  \
  X(kMsgForward, "forward", kMessage, "hops", "next")                                  \
  X(kMsgBounce, "bounce", kMessage, "type", nullptr)                                   \
  X(kMsgDeliver, "deliver", kMessage, "hops", nullptr)                                 \
  X(kLinkUpdateSent, "link_update_sent", kMessage, nullptr, "new_machine")             \
  X(kLinkUpdateApplied, "link_update_applied", kMessage, "links_patched", nullptr)     \
  /* Network and reliable channel, on the transmitting machine's recorder. */          \
  X(kPacketDropped, "packet_dropped", kNet, "dst", nullptr)                            \
  X(kPacketDuplicated, "packet_duplicated", kNet, "dst", nullptr)                      \
  X(kRetransmit, "retransmit", kNet, "dst", "seq")                                     \
  X(kGiveUp, "give_up", kNet, "dst", "seq")

enum class FrEvent : std::uint16_t {
  kNone = 0,
#define DEMOS_FR_ENUM(entry, name, category, a, b) entry,
  DEMOS_FR_EVENT_LIST(DEMOS_FR_ENUM)
#undef DEMOS_FR_ENUM
  kCount,
};

inline constexpr int kNumFrEvents = static_cast<int>(FrEvent::kCount);

struct FrEventInfo {
  const char* name;
  FrCategory category;
  const char* a;  // operand names, null when unused
  const char* b;
};

inline constexpr FrEventInfo kFrEventInfo[kNumFrEvents] = {
    {"none", FrCategory::kRun, nullptr, nullptr},
#define DEMOS_FR_INFO(entry, name, category, a, b) {name, FrCategory::category, a, b},
    DEMOS_FR_EVENT_LIST(DEMOS_FR_INFO)
#undef DEMOS_FR_INFO
};

constexpr const FrEventInfo& FrInfo(FrEvent e) {
  return kFrEventInfo[static_cast<int>(e) < kNumFrEvents ? static_cast<int>(e) : 0];
}
constexpr const char* FrEventName(FrEvent e) { return FrInfo(e).name; }
constexpr FrCategory FrCategoryOf(FrEvent e) { return FrInfo(e).category; }
const char* FrCategoryName(FrCategory c);

struct FlightRecord {
  std::uint64_t t_ns = 0;  // injectable clock; ns by convention
  std::uint64_t id = 0;    // correlation: span id, message trace id, or 0
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t seq = 0;   // per-recorder monotonic; total order within a shard
  FrEvent type = FrEvent::kNone;
  std::uint16_t shard = 0;  // the recording machine (or the harness slot)
};
static_assert(sizeof(FlightRecord) <= 40, "FlightRecord must stay within 40 bytes");

// Nanosecond clock used to stamp records.  Plain function pointer (not
// std::function) so Record() stays branch-predictable and allocation-free.
using FrClockFn = std::uint64_t (*)(void* ctx);

class FlightRecorderHub;

// One buffer.  Single writer; see the file comment for the read contract.
class FlightRecorder {
 public:
  // Capacity is rounded up to a power of two so the wrap is a mask.  With
  // `retain_all` the capacity is only the initial size: the buffer doubles
  // whenever it fills, so nothing is ever overwritten.
  FlightRecorder(std::uint16_t shard, std::size_t capacity, bool retain_all = false);

  void SetClock(FrClockFn fn, void* ctx) {
    clock_ = fn;
    clock_ctx_ = ctx;
  }

  void Record(FrEvent type, std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t id = 0) {
    if (total_ == grow_at_) [[unlikely]] {
      Grow();
    }
    FlightRecord& r = ring_[static_cast<std::size_t>(total_) & mask_];
    r.t_ns = clock_(clock_ctx_);
    r.id = id;
    r.a = a;
    r.b = b;
    r.seq = static_cast<std::uint32_t>(total_);
    r.type = type;
    r.shard = shard_;
    ++total_;
  }

  std::uint16_t shard() const { return shard_; }
  std::size_t capacity() const { return ring_.size(); }
  // Events recorded over the recorder's lifetime (>= retained count).
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  // The retained window, oldest first.  Owner thread or quiescence only.
  std::vector<FlightRecord> SnapshotRecords() const;

  void Clear() { total_ = 0; }

  // Latch a dump reason on the owning hub (see FlightRecorderHub::Trigger)
  // so writers that only hold their own recorder -- the kernels -- can flag
  // a failure.  Returns false for a standalone recorder.
  bool Trigger(const char* reason);

 private:
  friend class FlightRecorderHub;

  void Grow();

  std::vector<FlightRecord> ring_;
  std::size_t mask_;
  // total_ value at which the buffer doubles: its size in retain-all mode,
  // never in ring mode.
  std::uint64_t grow_at_;
  std::uint64_t total_ = 0;
  FrClockFn clock_;
  void* clock_ctx_ = nullptr;
  FlightRecorderHub* hub_ = nullptr;
  std::uint16_t shard_;
};

// One recorder per shard plus the cross-thread trigger latch.  The first
// trigger reason wins (a latch, not a log): concurrent failure paths race to
// set it, and dump sites check it at their next safe point instead of dumping
// from a foreign thread mid-run.
class FlightRecorderHub {
 public:
  explicit FlightRecorderHub(int shards, std::size_t capacity_per_shard = 8192,
                             bool retain_all = false);

  FlightRecorder& recorder(int shard) { return *recorders_[static_cast<std::size_t>(shard)]; }
  int shards() const { return static_cast<int>(recorders_.size()); }

  // Record into `slot`'s recorder; a slot the hub does not cover records
  // nothing.  For layers that serve every machine (network, reliable channel).
  void Record(int slot, FrEvent type, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t id = 0) {
    if (slot < shards()) {
      recorder(slot).Record(type, a, b, id);
    }
  }

  void SetClockAll(FrClockFn fn, void* ctx);

  // Latch a dump reason; returns true iff this call was the first.  `reason`
  // must have static storage duration.
  bool Trigger(const char* reason) {
    const char* expected = nullptr;
    return trigger_.compare_exchange_strong(expected, reason, std::memory_order_acq_rel);
  }
  bool triggered() const { return trigger_.load(std::memory_order_acquire) != nullptr; }
  const char* reason() const { return trigger_.load(std::memory_order_acquire); }
  void ResetTrigger() { trigger_.store(nullptr, std::memory_order_release); }

  // Merge every shard's retained window into one timeline ordered by
  // (t_ns, shard, seq).  Writers must be quiescent.
  std::vector<FlightRecord> Merged() const;

  std::uint64_t TotalDropped() const;

 private:
  std::vector<std::unique_ptr<FlightRecorder>> recorders_;
  std::atomic<const char*> trigger_{nullptr};
};

// Human-readable post-mortem: header (reason, per-shard counts), then one
// line per record with its named operands.  The Chrome trace writer for the
// same records is WriteChromeTrace in src/obs/trace_export.h.
void WriteFlightText(const std::vector<FlightRecord>& records, const char* reason,
                     std::ostream& os);
bool WriteFlightTextFile(const std::vector<FlightRecord>& records, const char* reason,
                         const std::string& path);

// Default real-time clock: steady_clock nanoseconds (ctx ignored).
std::uint64_t FrSteadyClock(void* ctx);

}  // namespace demos

#endif  // DEMOS_OBS_FLIGHT_RECORDER_H_
