// Correlation ids for the event stream.
//
// The paper's evaluation (Sec. 6) is a phase-level cost characterization --
// 9 administrative messages, three bulk section moves, forwarding and
// link-update overhead per migration.  Every layer records typed,
// timestamped events into the flight recorder (src/obs/flight_recorder.h);
// src/obs/trace_export.h pairs them into spans after the fact.  Pairing is
// keyed on the record's `id`:
//
//   * migration events carry MigrationSpanId(pid), one id per process;
//   * message-lifecycle events carry the trace id stamped into the message
//     header on first transmission (Kernel::Transmit, tracing on only).

#ifndef DEMOS_OBS_TRACE_H_
#define DEMOS_OBS_TRACE_H_

#include <cstdint>

#include "src/base/ids.h"

namespace demos {

// Correlation id of every migration span of `pid`.  Migrations of one process
// are strictly sequential, so the id is reused across them; the exporter
// splits instances at each kMigrationBegin.
inline std::uint64_t MigrationSpanId(const ProcessId& pid) {
  return (std::uint64_t{pid.creating_machine} << 32) | pid.local_id;
}

// Inverse of MigrationSpanId.
inline ProcessId PidFromSpanId(std::uint64_t id) {
  return ProcessId{static_cast<MachineId>(id >> 32), static_cast<std::uint32_t>(id)};
}

}  // namespace demos

#endif  // DEMOS_OBS_TRACE_H_
