// Trace analysis and export: Chrome trace_event JSON, per-migration span
// trees, per-message lifecycles, summary tables, and derived histograms.
//
// The layers record *instants* into the flight recorder (cheap, one record
// per event); this layer pairs them into spans after the fact.  Pairing is
// keyed on the record's correlation id -- MigrationSpanId(pid) for migration
// events, Message::trace_id for message events -- so concurrent migrations
// and interleaved forwarding chains reconstruct independently.  Record
// timestamps are nanoseconds (virtual us x 1000 in the sequential engine,
// steady_clock in the parallel one); everything here reports microseconds.

#ifndef DEMOS_OBS_TRACE_EXPORT_H_
#define DEMOS_OBS_TRACE_EXPORT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"

namespace demos {

// The 8 phases of the Sec. 3.1 protocol as reconstructed from the event
// stream.  Each phase spans one message flight (or flight + local work), so
// all of them have nonzero virtual duration.
enum class MigrationPhaseKind : int {
  kRequest = 0,        // MIGRATE_REQUEST in flight (step 1)
  kOffer,              // freeze + MIGRATE_OFFER in flight (step 2)
  kAccept,             // allocate + MIGRATE_ACCEPT in flight (step 3)
  kMoveResident,       // pull request + resident-state stream (step 4)
  kMoveSwappable,      // pull request + swappable-state stream (step 4)
  kMoveImage,          // pull request + memory-image stream (step 4)
  kTransferComplete,   // TRANSFER_COMPLETE in flight (step 5)
  kRestart,            // queue forward + fwd addr + CLEANUP_DONE + restart (steps 6-8)
  kNumMigrationPhases,
};

inline constexpr int kNumMigrationPhases =
    static_cast<int>(MigrationPhaseKind::kNumMigrationPhases);

const char* MigrationPhaseName(MigrationPhaseKind kind);

struct MigrationPhaseSpan {
  MigrationPhaseKind kind = MigrationPhaseKind::kRequest;
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t bytes = 0;  // section phases: bytes received
  bool valid = false;       // both endpoints observed
  SimDuration duration() const { return end - start; }
};

struct MigrationSpan {
  ProcessId pid;
  std::uint64_t id = 0;
  MachineId source = kNoMachine;
  MachineId destination = kNoMachine;
  SimTime start = 0;
  SimTime end = 0;
  bool completed = false;  // restarted on the destination
  bool aborted = false;    // rejected or failed
  std::uint64_t bytes_moved = 0;
  std::uint64_t pending_forwarded = 0;  // step-6 queue length
  MigrationPhaseSpan phases[kNumMigrationPhases > 0 ? kNumMigrationPhases : 1];
  SimDuration duration() const { return end - start; }
};

// One message's life, reconstructed from its trace id.
struct MessageTrace {
  std::uint64_t id = 0;
  std::uint64_t type = 0;  // MsgType as sent
  MachineId origin = kNoMachine;
  SimTime sent = 0;
  SimTime delivered = 0;
  bool was_delivered = false;
  std::uint32_t hops = 0;     // forwarding hops transited
  std::uint32_t bounces = 0;  // return-to-sender / dead-letter events
  SimDuration Latency() const { return was_delivered ? delivered - sent : 0; }
};

// Pair migration instants into span trees.  Input need not be sorted.
std::vector<MigrationSpan> BuildMigrationSpans(const std::vector<FlightRecord>& records);

// Pair message-lifecycle instants into per-message records (send order).
std::vector<MessageTrace> BuildMessageTraces(const std::vector<FlightRecord>& records);

// Record the derived histograms into `registry`: HistId::kMigrationTotalUs,
// the eight HistId::kPhase*Us, HistId::kForwardHops, HistId::kLinkUpdateLagUs.
void BuildTraceStats(const std::vector<FlightRecord>& records, StatsRegistry* registry);

// Chrome trace_event JSON ({"traceEvents":[...]}) loadable in chrome://tracing
// or Perfetto.  Record microseconds map 1:1 to trace microseconds.  Raw
// records land on one track per (recorder shard, category); reconstructed
// migrations additionally render as nested duration ('X') span trees on a
// synthetic "migrations" process so each migration reads as a bar with 8
// sub-bars.
void WriteChromeTrace(const std::vector<FlightRecord>& records, std::ostream& os);

// Compact human-readable report: per-migration phase table and the lifecycle
// of every forwarded or bounced message.
void WriteTraceSummary(const std::vector<FlightRecord>& records, std::ostream& os);

// Convenience: WriteChromeTrace to a file path.  Returns false on I/O error.
bool WriteChromeTraceFile(const std::vector<FlightRecord>& records, const std::string& path);

// Trim a cluster timeline to the records relevant to a failure: keeps
// records whose correlation id is one of `ids` (message lifecycles) or the
// span id of one of `pids` (their migration and addressing events), and --
// so the repro has context -- every migration-category record.  Order is
// preserved.
std::vector<FlightRecord> FilterTrace(const std::vector<FlightRecord>& records,
                                      const std::vector<std::uint64_t>& ids,
                                      const std::vector<ProcessId>& pids);

}  // namespace demos

#endif  // DEMOS_OBS_TRACE_EXPORT_H_
