// A Figure 3-1-style narration of migration, driven by the src/obs flight
// recorder in tracing mode: two migrations (m0 -> m1 -> m2) are recorded as
// full span trees, a stale message chases the process across both forwarding
// addresses, and the whole timeline is exported as Chrome trace_event JSON.
//
//   ./build/examples/migration_timeline [trace-output.json]
//
// Open the output in chrome://tracing or https://ui.perfetto.dev: each
// migration renders as a root bar with the 8 protocol phases of Sec. 3.1
// nested beneath it.  Exits nonzero if the trace is missing any phase or the
// forwarded message did not record at least two hops.

#include <cstdio>
#include <iostream>
#include <vector>

#include "src/kernel/cluster.h"
#include "src/kernel/message.h"
#include "src/obs/trace_export.h"
#include "src/workload/programs.h"

namespace demos {
namespace {

// Ask `source` to migrate `pid` to `destination` on behalf of `requester` --
// the same kMigrateRequest a process-manager kernel would send (Sec. 3.1
// step 1).  Issuing it from a third machine gives the request phase a real
// network flight, so its span has nonzero virtual duration.
void RequestMigrationRemotely(Kernel& requester, MachineId source, const ProcessId& pid,
                              MachineId destination) {
  ByteWriter w;
  w.U16(destination);
  w.Address(requester.kernel_address());
  Message msg;
  msg.sender = requester.kernel_address();
  msg.receiver = ProcessAddress{source, pid};
  msg.flags = kLinkDeliverToKernel;
  msg.type = MsgType::kMigrateRequest;
  msg.payload = w.Take();
  requester.Transmit(std::move(msg));
}

int Main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "migration_timeline.trace.json";
  RegisterWorkloadPrograms();

  ClusterConfig config;
  config.machines = 3;
  config.EnableTracing();
  Cluster cluster(config);

  auto counter = cluster.kernel(0).SpawnProcess("counter", 4096, 2048, 1024);
  if (!counter.ok()) {
    return 1;
  }
  cluster.RunUntilIdle();
  std::printf("process %s (7 KiB image) lives on m0\n", counter->pid.ToString().c_str());

  // Freeze it so messages pile up, then migrate with a non-empty queue --
  // exercising step 6's pending-message forwarding in the trace.
  cluster.kernel(1).SendFromKernel(*counter, MsgType::kSuspendProcess, {}, {},
                                   kLinkDeliverToKernel);
  cluster.RunUntilIdle();
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, static_cast<MsgType>(1003), {});
  }
  cluster.RunUntilIdle();

  std::printf("\n--- migration 1: m2 requests m0 -> m1 (the 8 steps of Sec. 3.1) ---\n");
  RequestMigrationRemotely(cluster.kernel(2), 0, counter->pid, 1);
  cluster.RunUntilIdle();

  cluster.kernel(1).SendFromKernel(ProcessAddress{1, counter->pid}, MsgType::kResumeProcess, {},
                                   {}, kLinkDeliverToKernel);
  cluster.RunUntilIdle();

  std::printf("--- migration 2: m0 requests m1 -> m2 ---\n");
  RequestMigrationRemotely(cluster.kernel(0), 1, counter->pid, 2);
  cluster.RunUntilIdle();

  // A message addressed to the original home now chases the process through
  // both forwarding addresses: m0 -> m1 -> m2.
  std::printf("--- stale-addressed message chases the process through two hops ---\n\n");
  cluster.kernel(0).SendFromKernel(ProcessAddress{0, counter->pid},
                                   static_cast<MsgType>(1003), {});
  cluster.RunUntilIdle();

  ProcessRecord* moved = cluster.kernel(2).FindProcess(counter->pid);
  if (moved == nullptr) {
    std::fprintf(stderr, "process did not arrive on m2\n");
    return 1;
  }
  ByteReader r(moved->memory.ReadData(0, 8));
  std::printf("process finished on m%u in state %s with %llu increments applied\n\n", 2,
              ExecStateName(moved->state), static_cast<unsigned long long>(r.U64()));

  const std::vector<FlightRecord> records = cluster.flight_recorder()->Merged();
  WriteTraceSummary(records, std::cout);

  StatsRegistry derived;
  BuildTraceStats(records, &derived);
  std::printf("\nderived histograms:\n");
  derived.Dump(std::cout);

  if (!WriteChromeTraceFile(records, out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("\nwrote %zu trace events to %s (open in chrome://tracing)\n",
              records.size(), out_path);

  // Self-check: the first migration must show all 8 phases with nonzero
  // virtual duration, and the stale message must have transited >= 2 hops.
  const auto spans = BuildMigrationSpans(records);
  if (spans.empty()) {
    std::fprintf(stderr, "no migration spans reconstructed\n");
    return 1;
  }
  for (const MigrationPhaseSpan& phase : spans[0].phases) {
    if (!phase.valid || phase.duration() == 0) {
      std::fprintf(stderr, "phase %s missing or zero-length\n", MigrationPhaseName(phase.kind));
      return 1;
    }
  }
  std::uint32_t max_hops = 0;
  for (const MessageTrace& msg : BuildMessageTraces(records)) {
    max_hops = std::max(max_hops, msg.hops);
  }
  if (max_hops < 2) {
    std::fprintf(stderr, "expected a message with >= 2 forwarding hops, saw %u\n", max_hops);
    return 1;
  }
  std::printf("all 8 phases traced with nonzero duration; max forwarding hops: %u\n", max_hops);
  return 0;
}

}  // namespace
}  // namespace demos

int main(int argc, char** argv) { return demos::Main(argc, argv); }
