#include "src/kernel/engine.h"

namespace demos {

EngineObservability MakeObservability(const EngineConfig& core) {
  EngineObservability obs;
  if (core.metrics_enabled) {
    obs.metrics = std::make_unique<MetricsEngine>(core.machines + 1);
  }
  if (core.flight_recorder_enabled || core.trace_enabled) {
    // Tracing keeps the whole run: the recorders grow instead of wrapping.
    obs.flight = std::make_unique<FlightRecorderHub>(core.machines + 1, core.flight_capacity,
                                                     /*retain_all=*/core.trace_enabled);
  }
  return obs;
}

KernelConfig DeriveKernelConfig(const EngineConfig& core, int machine) {
  KernelConfig kc = core.kernel;
  kc.seed = core.kernel.seed + static_cast<std::uint64_t>(machine);
  if (kc.cluster_machines == 0) {
    kc.cluster_machines = core.machines;  // membership hint for locate probes
  }
  return kc;
}

void WireKernelObservability(const EngineConfig& core, Kernel& kernel,
                             FlightRecorderHub* flight, int slot) {
  if (core.trace_enabled) {
    kernel.EnableTraceIds();
  }
  if (flight != nullptr && slot < flight->shards()) {
    kernel.SetFlightRecorder(&flight->recorder(slot));
  }
}

void Engine::SetObserver(KernelObserver* observer) {
  for (MachineId m = 0; m < static_cast<MachineId>(size()); ++m) {
    kernel(m).SetObserver(observer);
  }
}

StatsRegistry Engine::TotalStats() const {
  StatsRegistry total;
  for (MachineId m = 0; m < static_cast<MachineId>(size()); ++m) {
    total.Merge(kernel(m).stats());
  }
  return total;
}

std::int64_t Engine::TotalStat(const char* name) const {
  std::int64_t sum = 0;
  for (MachineId m = 0; m < static_cast<MachineId>(size()); ++m) {
    sum += kernel(m).stats().Get(name);
  }
  return sum;
}

std::vector<const StatsRegistry*> Engine::KernelStats() const {
  std::vector<const StatsRegistry*> out;
  out.reserve(static_cast<std::size_t>(size()));
  for (MachineId m = 0; m < static_cast<MachineId>(size()); ++m) {
    out.push_back(&kernel(m).stats());
  }
  return out;
}

MetricsSnapshot Engine::BuildSnapshot() const {
  MetricsSnapshot snap = demos::BuildSnapshot(metrics(), KernelStats());
  snap.kernel_total.Merge(TransportStats());
  return snap;
}

ProcessRecord* Engine::FindProcessAnywhere(const ProcessId& pid) {
  for (MachineId m = 0; m < static_cast<MachineId>(size()); ++m) {
    if (ProcessRecord* record = kernel(m).FindProcess(pid)) {
      return record;
    }
  }
  return nullptr;
}

MachineId Engine::HostOf(const ProcessId& pid) {
  for (MachineId m = 0; m < static_cast<MachineId>(size()); ++m) {
    if (kernel(m).FindProcess(pid) != nullptr) {
      return kernel(m).machine();
    }
  }
  return kNoMachine;
}

}  // namespace demos
