// Structured event tracing for the DEMOS/MP cluster.
//
// The paper's evaluation (Sec. 6) is a phase-level cost characterization --
// 9 administrative messages, three bulk section moves, forwarding and
// link-update overhead per migration.  Flat end-of-run counters cannot
// reproduce that breakdown, so every kernel (and optionally the network
// layers) owns a Tracer that records typed, timestamped events:
//
//   * migration span instants for each of the 8 protocol steps of Sec. 3.1,
//     correlated by a per-migration span id;
//   * message-lifecycle instants (send, forwarding hop, bounce, delivery)
//     correlated by a trace id stamped into the message header;
//   * network-layer instants (drops, duplicates, retransmits).
//
// A disabled tracer records nothing and costs one branch per call site
// (call sites additionally guard with enabled() so no arguments are even
// evaluated).  Tracers merge cluster-wide exactly like StatsRegistry;
// src/obs/trace_export.h turns the merged stream into Chrome trace_event
// JSON, per-migration span trees, per-message lifecycles, and derived
// histograms.

#ifndef DEMOS_OBS_TRACE_H_
#define DEMOS_OBS_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/base/ids.h"
#include "src/sim/event_queue.h"

namespace demos {

// Chrome trace_event phase letters (the subset this system emits).
enum class TracePhase : char {
  kInstant = 'i',   // a point in time
  kBegin = 'b',     // async span begin (correlated by id)
  kEnd = 'e',       // async span end
  kComplete = 'X',  // a span with an explicit duration (exporter-synthesized)
};

struct TraceEvent {
  SimTime ts = 0;        // virtual microseconds
  SimDuration dur = 0;   // only for kComplete events
  MachineId machine = kNoMachine;
  TracePhase phase = TracePhase::kInstant;
  const char* category = "";  // static string: trace::kMigration, ...
  const char* name = "";      // static string: trace::kOfferSent, ...
  std::uint64_t id = 0;       // correlation id: migration span or message trace id
  ProcessId pid;              // subject process, if any
  std::uint64_t arg0 = 0;     // event-specific (section index, hop count, ...)
  std::uint64_t arg1 = 0;     // event-specific (byte count, machine, ...)
};

// Event vocabulary.  Centralized so tests, exporters, and docs cannot drift
// from the instrumentation (mirrors the stat:: convention in base/stats.h).
namespace trace {

// Categories.
inline constexpr const char* kMigration = "migration";
inline constexpr const char* kMessage = "msg";
inline constexpr const char* kNet = "net";

// Migration protocol instants, one (or more) per Sec. 3.1 step.  The
// exporter pairs them into the 8 phase spans listed in docs/PROTOCOL.md.
inline constexpr const char* kMigrationBegin = "migration_begin";  // root open; arg0 = dest
inline constexpr const char* kRequestSent = "request_sent";        // step 1 (requester kernel)
inline constexpr const char* kOfferSent = "offer_sent";  // step 2; arg1 = image bytes
inline constexpr const char* kOfferReceived = "offer_received";
inline constexpr const char* kAcceptSent = "accept_sent";  // step 3
inline constexpr const char* kAcceptReceived = "accept_received";
inline constexpr const char* kRejectSent = "reject_sent";  // arg0 = StatusCode
inline constexpr const char* kPullRequested = "pull_requested";    // step 4; arg0 = section
inline constexpr const char* kSectionStreamed = "section_streamed";  // arg0 = section, arg1 = bytes
inline constexpr const char* kSectionReceived = "section_received";  // arg0 = section, arg1 = bytes
inline constexpr const char* kTransferDoneSent = "transfer_complete_sent";  // step 5
inline constexpr const char* kTransferDoneReceived = "transfer_complete_received";
inline constexpr const char* kPendingForwarded = "pending_forwarded";  // step 6; arg0 = count
inline constexpr const char* kForwardingInstalled = "forwarding_address_installed";  // step 7
inline constexpr const char* kCleanupSent = "cleanup_done_sent";
inline constexpr const char* kRestarted = "restarted";  // step 8; arg0 = ExecState
inline constexpr const char* kMigrationAborted = "migration_aborted";  // arg0 = StatusCode

// Failure-path instants (watchdog deadlines, dead-peer recovery).
inline constexpr const char* kWatchdogTimeout = "watchdog_timeout";  // arg0 = phase deadline (us)
inline constexpr const char* kDestReaped = "dest_reaped";            // arg0 = source machine
inline constexpr const char* kDestAdopted = "dest_adopted";          // arg0 = source machine
inline constexpr const char* kPeerSuspected = "peer_suspected";  // arg0 = peer, arg1 = until (us)
inline constexpr const char* kCancelSent = "cancel_sent";        // arg0 = dest machine
inline constexpr const char* kCancelReceived = "cancel_received";  // arg0 = source machine

// Message lifecycle instants, correlated by Message::trace_id.
inline constexpr const char* kMsgSend = "send";        // arg0 = MsgType, arg1 = wire bytes
inline constexpr const char* kMsgForward = "forward";  // arg0 = hop count, arg1 = next machine
inline constexpr const char* kMsgBounce = "bounce";    // arg0 = MsgType
inline constexpr const char* kMsgDeliver = "deliver";  // arg0 = hop count
inline constexpr const char* kLinkUpdateSent = "link_update_sent";  // arg1 = new machine
inline constexpr const char* kLinkUpdateApplied = "link_update_applied";  // arg0 = links patched

// Network-layer instants.
inline constexpr const char* kPacketDropped = "packet_dropped";        // arg0 = src, arg1 = dst
inline constexpr const char* kPacketDuplicated = "packet_duplicated";  // arg0 = src, arg1 = dst
inline constexpr const char* kRetransmit = "retransmit";               // arg0 = seq, arg1 = attempt
inline constexpr const char* kGiveUp = "give_up";                      // arg0 = seq

}  // namespace trace

// One (virtual, real) clock correspondence observed on a shard.  In the
// parallel engine each shard's tracer stamps events with the shard's private
// virtual clock, which advances at a workload-dependent rate -- two shards'
// timestamps are not comparable, so a merged Chrome trace interleaves
// nonsense.  Shards record sync points (thread start, then every park, when
// the virtual clock is momentarily frozen) and the exporter
// (NormalizeShardClocks in trace_export.h) rebuilds a shared real-time axis
// by piecewise-linear interpolation between them.
struct ClockSyncPoint {
  MachineId machine = kNoMachine;
  SimTime virt_us = 0;
  std::uint64_t real_ns = 0;
};

// Correlation id of every migration span of `pid`.  Migrations of one process
// are strictly sequential, so the id is reused across them; the exporter
// splits instances at each kMigrationBegin.
inline std::uint64_t MigrationSpanId(const ProcessId& pid) {
  return (std::uint64_t{pid.creating_machine} << 32) | pid.local_id;
}

class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(MachineId machine) : machine_(machine) {}

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }
  void set_machine(MachineId machine) { machine_ = machine; }

  // Fresh message trace id, unique cluster-wide (namespaced by machine).
  // Only called when enabled, so disabled runs stay byte-identical.
  std::uint64_t NextMessageTraceId() {
    return ((std::uint64_t{machine_} + 1) << 40) | next_message_id_++;
  }

  void Record(SimTime ts, TracePhase phase, const char* category, const char* name,
              std::uint64_t id, ProcessId pid = {}, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0) {
    if (!enabled_) {
      return;
    }
    events_.push_back(TraceEvent{ts, 0, machine_, phase, category, name, id, pid, arg0, arg1});
  }

  void Instant(SimTime ts, const char* category, const char* name, std::uint64_t id,
               ProcessId pid = {}, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
    Record(ts, TracePhase::kInstant, category, name, id, pid, arg0, arg1);
  }

  // Full-control variant for layers that span machines (the network records
  // each event against the transmitting machine, not a fixed owner).
  void RecordEvent(const TraceEvent& ev) {
    if (enabled_) {
      events_.push_back(ev);
    }
  }

  // Parallel-mode clock correspondence (see ClockSyncPoint).  Recorded by the
  // owning shard thread; like events, only merged/read at quiescence.
  void RecordClockSync(SimTime virt_us, std::uint64_t real_ns) {
    if (enabled_) {
      syncs_.push_back(ClockSyncPoint{machine_, virt_us, real_ns});
    }
  }
  const std::vector<ClockSyncPoint>& sync_points() const { return syncs_; }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void Clear() { events_.clear(); }

  // Fold another tracer's events into this one (cluster-wide aggregation,
  // mirroring StatsRegistry::Merge).  Events from different machines
  // interleave out of order; SortByTime() restores a global timeline.
  void Merge(const Tracer& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
    syncs_.insert(syncs_.end(), other.syncs_.begin(), other.syncs_.end());
  }

  void SortByTime();

 private:
  bool enabled_ = false;
  MachineId machine_ = kNoMachine;
  std::uint64_t next_message_id_ = 1;
  std::vector<TraceEvent> events_;
  std::vector<ClockSyncPoint> syncs_;
};

}  // namespace demos

#endif  // DEMOS_OBS_TRACE_H_
