// Simulated inter-machine network.
//
// Models the Z8000 network of the original system as a point-to-point packet
// network with per-packet propagation latency, per-node output-port
// serialization (bandwidth), optional jitter, and fault injection (loss and
// duplication).  With the default configuration (no loss, no jitter) delivery
// is in-order and exactly-once, matching the guarantee the DEMOS/MP kernel
// assumes from its low-level communication layer; fault-injection tests wrap
// this class in ReliableTransport instead.

#ifndef DEMOS_NET_SIM_NETWORK_H_
#define DEMOS_NET_SIM_NETWORK_H_

#include <cstdint>
#include <unordered_map>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/net/transport.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/event_queue.h"

namespace demos {

struct SimNetworkConfig {
  // One-way propagation delay between any two distinct machines.
  SimDuration propagation_us = 100;
  // Output-port bandwidth in bytes per microsecond (10 B/us = 80 Mbit/s).
  double bandwidth_bytes_per_us = 10.0;
  // Uniform extra delay in [0, jitter_us].  Non-zero jitter can reorder
  // packets, which only ReliableTransport-wrapped traffic tolerates.
  SimDuration jitter_us = 0;
  // Fault injection.
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  // Fixed per-packet overhead added to the payload when computing
  // serialization time (frame header, etc.).
  std::size_t frame_overhead_bytes = 8;
  std::uint64_t seed = 0x0DE305;
};

class SimNetwork final : public Transport {
 public:
  SimNetwork(EventQueue* queue, SimNetworkConfig config)
      : queue_(*queue), config_(config), rng_(config.seed) {}

  void Attach(MachineId node, DeliveryHandler handler) override {
    handlers_[node] = std::move(handler);
  }

  void Send(MachineId src, MachineId dst, PayloadRef payload) override;

  // Partition control: while a machine is "down", packets to and from it are
  // silently dropped (used by the fault-injection suite).
  void SetNodeUp(MachineId node, bool up) { node_down_[node] = !up; }
  bool IsNodeUp(MachineId node) const {
    auto it = node_down_.find(node);
    return it == node_down_.end() || !it->second;
  }

  StatsRegistry& stats() { return stats_; }
  const StatsRegistry& stats() const { return stats_; }
  // Optional event recording (src/obs): drops and duplicates land in the
  // transmitting machine's recorder.  The network runs on the one sequential
  // EventQueue, so it never races the kernels' writes.  Null detaches.
  void SetFlightRecorder(FlightRecorderHub* flight) { flight_ = flight; }

 private:
  void Deliver(MachineId src, MachineId dst, PayloadRef payload, SimDuration delay);
  SimDuration TransmitDelay(std::size_t payload_size, MachineId src);

  EventQueue& queue_;
  SimNetworkConfig config_;
  Rng rng_;
  std::unordered_map<MachineId, DeliveryHandler> handlers_;
  std::unordered_map<MachineId, bool> node_down_;
  // Earliest time each machine's output port is free (serialization model).
  std::unordered_map<MachineId, SimTime> port_free_at_;
  StatsRegistry stats_;
  FlightRecorderHub* flight_ = nullptr;
};

}  // namespace demos

#endif  // DEMOS_NET_SIM_NETWORK_H_
