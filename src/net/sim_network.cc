#include "src/net/sim_network.h"

#include <utility>

#include "src/base/log.h"

namespace demos {

void SimNetwork::Send(MachineId src, MachineId dst, PayloadRef payload) {
  stats_.Add(StatId::kNetPacketsSent);
  stats_.Add(StatId::kNetBytesSent,
             static_cast<std::int64_t>(payload.size() + config_.frame_overhead_bytes));

  if (src == dst) {
    // Intra-machine kernel traffic does not touch the wire; deliver on the
    // next event-loop turn to preserve asynchronous semantics.
    stats_.Add(StatId::kNetLocalDeliveries);
    Deliver(src, dst, std::move(payload), 0);
    return;
  }

  if (!IsNodeUp(src) || !IsNodeUp(dst)) {
    stats_.Add(StatId::kNetPacketsDropped);
    if (flight_ != nullptr) {
      flight_->Record(src, FrEvent::kPacketDropped, dst);
    }
    return;
  }
  if (config_.drop_probability > 0 && rng_.Chance(config_.drop_probability)) {
    stats_.Add(StatId::kNetPacketsDropped);
    if (flight_ != nullptr) {
      flight_->Record(src, FrEvent::kPacketDropped, dst);
    }
    return;
  }

  SimDuration delay = TransmitDelay(payload.size(), src);
  if (config_.duplicate_probability > 0 && rng_.Chance(config_.duplicate_probability)) {
    stats_.Add(StatId::kNetPacketsDuplicated);
    if (flight_ != nullptr) {
      flight_->Record(src, FrEvent::kPacketDuplicated, dst);
    }
    Deliver(src, dst, payload, delay + 1);  // refcount bump, not a byte copy
  }
  Deliver(src, dst, std::move(payload), delay);
}

void SimNetwork::Deliver(MachineId src, MachineId dst, PayloadRef payload, SimDuration delay) {
  queue_.After(delay, [this, src, dst, payload = std::move(payload)]() mutable {
    // Both ends must still be alive at delivery time: a frame queued behind a
    // busy output port dies with its sender (crash semantics), and a crashed
    // receiver hears nothing.
    if ((src != dst && !IsNodeUp(src)) || !IsNodeUp(dst)) {
      stats_.Add(StatId::kNetPacketsDropped);
      if (flight_ != nullptr) {
        flight_->Record(src, FrEvent::kPacketDropped, dst);
      }
      return;
    }
    auto it = handlers_.find(dst);
    if (it == handlers_.end()) {
      DEMOS_LOG(kWarn, "net") << "packet for unattached machine m" << dst << " discarded";
      stats_.Add(StatId::kNetPacketsDropped);
      return;
    }
    // Move our ref out: with the default exactly-once delivery the handler
    // becomes the sole owner of the frame, enabling in-place forwarding.
    it->second(src, std::move(payload));
  });
}

SimDuration SimNetwork::TransmitDelay(std::size_t payload_size, MachineId src) {
  const std::size_t frame = payload_size + config_.frame_overhead_bytes;
  const auto serialization =
      static_cast<SimDuration>(static_cast<double>(frame) / config_.bandwidth_bytes_per_us);

  // The output port transmits one frame at a time; later sends queue behind
  // earlier ones.
  SimTime& free_at = port_free_at_[src];
  SimTime start = std::max(free_at, queue_.Now());
  free_at = start + serialization;

  SimDuration jitter = config_.jitter_us == 0 ? 0 : rng_.Below(config_.jitter_us + 1);
  return (free_at - queue_.Now()) + config_.propagation_us + jitter;
}

}  // namespace demos
