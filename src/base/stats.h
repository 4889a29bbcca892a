// The counter and histogram catalog used for the paper's cost accounting.
//
// Each kernel and each transport layer owns a StatsRegistry; benches read the
// counters after a run to regenerate the Section 6 tables (administrative
// message counts, forwarded message overhead, bytes moved per migration,
// link-update latency, ...).
//
// Every counter and histogram is a fixed slot indexed by the StatId / HistId
// enums, so a count site is one relaxed atomic add: no string, no lock, no
// allocation, and the registry's size never grows.  Names exist only for
// readers (Get(name), Dump, the demos-metrics-v1 export) and come from the
// same lists as the enums, so a name cannot drift from its slot.

#ifndef DEMOS_BASE_STATS_H_
#define DEMOS_BASE_STATS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <type_traits>

namespace demos {

// ---------------------------------------------------------------------------
// The catalog.  X(enum entry, exported name).
// ---------------------------------------------------------------------------

#define DEMOS_STAT_LIST(X)                                                    \
  /* Kernel message system (Sec. 2.1, 4). */                                  \
  X(kMsgsSent, "msgs_sent")                                                   \
  X(kMsgsDelivered, "msgs_delivered")                                         \
  X(kMsgsForwarded, "msgs_forwarded")                                         \
  X(kMsgsBounced, "msgs_bounced")                                             \
  X(kWireBytesSent, "wire_bytes_sent")                                        \
  X(kDeliverToKernelMsgs, "deliver_to_kernel_msgs")                           \
  X(kLinkUpdateMsgs, "link_update_msgs")                                      \
  X(kLinksPatched, "links_patched")                                           \
  /* Migration protocol (Sec. 3.1) and its cost (Sec. 6). */                  \
  X(kAdminMsgs, "admin_msgs")                                                 \
  X(kAdminBytes, "admin_bytes")                                               \
  X(kDataPackets, "data_packets")                                             \
  X(kDataBytes, "data_bytes")                                                 \
  X(kDataAcks, "data_acks")                                                   \
  X(kMigrations, "migrations")                                                \
  X(kMigrationsOut, "migrations_out")                                         \
  X(kMigrationsNoop, "migrations_noop")                                       \
  X(kMigrationsRefused, "migrations_refused")                                 \
  X(kMigrationsTimedOut, "migrations_timed_out")                              \
  X(kMigrationsReaped, "migrations_reaped")                                   \
  X(kMigrationsAdopted, "migrations_adopted")                                 \
  X(kMigrationsRefusedSuspect, "migrations_refused_suspect")                  \
  X(kPeersSuspected, "peers_suspected")                                       \
  X(kStaleMigrationMsgs, "migrations_stale_msgs")                             \
  X(kPendingForwarded, "pending_forwarded")                                   \
  /* Forwarding addresses and their garbage collection (Sec. 4). */           \
  X(kForwardingAddresses, "forwarding_addresses")                             \
  X(kForwardingSuperseded, "forwarding_superseded")                           \
  X(kGcRerouted, "gc_rerouted")                                               \
  /* Churn-proof addressing: record reclaim, chain collapse, gossip. */       \
  X(kFwdRecordsLive, "fwd_records_live")                                      \
  X(kFwdReclaimed, "fwd_reclaimed")                                           \
  X(kChainCollapses, "chain_collapses")                                       \
  X(kChainCollapseApplied, "chain_collapse_applied")                          \
  X(kLinkUpdateAcks, "link_update_acks")                                      \
  X(kGossipRounds, "gossip_rounds")                                           \
  X(kGossipRumors, "gossip_rumors")                                           \
  X(kGossipAdvanced, "gossip_advanced")                                       \
  X(kTombstonesReclaimed, "tombstones_reclaimed")                             \
  X(kLocateRetries, "locate_retries")                                         \
  X(kLocateGaveUp, "locate_gave_up")                                          \
  X(kGossipReroutes, "gossip_reroutes")                                       \
  X(kSendsRefused, "sends_refused")                                           \
  /* SimNetwork. */                                                           \
  X(kNetPacketsSent, "net_packets_sent")                                      \
  X(kNetPacketsDropped, "net_packets_dropped")                                \
  X(kNetPacketsDuplicated, "net_packets_duplicated")                          \
  X(kNetBytesSent, "net_bytes_sent")                                          \
  X(kNetLocalDeliveries, "net_local_deliveries")                              \
  /* ReliableTransport. */                                                    \
  X(kRelRetransmits, "rel_retransmits")                                       \
  X(kRelAcksSent, "rel_acks_sent")                                            \
  X(kRelDuplicatesDropped, "rel_duplicates_dropped")                          \
  X(kRelGiveUps, "rel_give_ups")

// Histograms.  The kernel records the first six; BuildTraceStats
// (src/obs/trace_export.h) derives the rest from a trace, one per Sec. 3.1
// phase in MigrationPhaseKind order.
#define DEMOS_HIST_LIST(X)                                                    \
  X(kAdminPayloadBytes, "admin_payload_bytes")                                \
  X(kForwardHops, "forward_hops")                                             \
  X(kTransferUs, "transfer_us")                                               \
  X(kResidentStateBytes, "resident_state_bytes")                              \
  X(kSwappableStateBytes, "swappable_state_bytes")                            \
  X(kMemoryImageBytes, "memory_image_bytes")                                  \
  X(kMigrationTotalUs, "migration_total_us")                                  \
  X(kLinkUpdateLagUs, "link_update_lag_us")                                   \
  X(kPhaseRequestUs, "phase_request_us")                                      \
  X(kPhaseOfferUs, "phase_offer_us")                                          \
  X(kPhaseAcceptUs, "phase_accept_us")                                        \
  X(kPhaseMoveResidentUs, "phase_move_resident_us")                           \
  X(kPhaseMoveSwappableUs, "phase_move_swappable_us")                         \
  X(kPhaseMoveImageUs, "phase_move_image_us")                                 \
  X(kPhaseTransferCompleteUs, "phase_transfer_complete_us")                   \
  X(kPhaseRestartUs, "phase_restart_us")

#define DEMOS_CATALOG_ENUM(id, name) id,
enum class StatId : int { DEMOS_STAT_LIST(DEMOS_CATALOG_ENUM) kNumStats };
enum class HistId : int { DEMOS_HIST_LIST(DEMOS_CATALOG_ENUM) kNumHists };
#undef DEMOS_CATALOG_ENUM

inline constexpr int kNumStatIds = static_cast<int>(StatId::kNumStats);
inline constexpr int kNumHistIds = static_cast<int>(HistId::kNumHists);

// Counter names as constants, for readers that look a counter up by name.
namespace stat {
#define DEMOS_CATALOG_NAME(id, name) inline constexpr const char* id = name;
DEMOS_STAT_LIST(DEMOS_CATALOG_NAME)
#undef DEMOS_CATALOG_NAME
}  // namespace stat

#define DEMOS_CATALOG_STRING(id, name) name,
inline constexpr std::array<const char*, kNumStatIds> kStatNames = {
    DEMOS_STAT_LIST(DEMOS_CATALOG_STRING)};
inline constexpr std::array<const char*, kNumHistIds> kHistNames = {
    DEMOS_HIST_LIST(DEMOS_CATALOG_STRING)};
#undef DEMOS_CATALOG_STRING

inline const char* StatName(StatId id) { return kStatNames[static_cast<std::size_t>(id)]; }
inline const char* HistName(HistId id) { return kHistNames[static_cast<std::size_t>(id)]; }

// ---------------------------------------------------------------------------
// Fixed-bucket histograms: power-of-two buckets so Observe() is a bit_width
// and one relaxed add.  Bucket 0 holds value 0, bucket i (i >= 1) holds
// values in [2^(i-1), 2^i - 1], and the last bucket absorbs the tail.  The
// one bucket scheme in the repo: StatsRegistry and the metrics engine's
// per-shard slabs (src/obs/metrics.h) both record through AtomicHistogram.
// ---------------------------------------------------------------------------

inline constexpr int kHistogramBuckets = 20;

inline int HistogramBucketOf(std::uint64_t value) {
  const int b = static_cast<int>(std::bit_width(value));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

// Inclusive lower bound of bucket `b` (0, 1, 2, 4, 8, ...).
inline std::uint64_t HistogramBucketLowerBound(int b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

// Inclusive upper bound of bucket `b`; the last bucket is unbounded
// (UINT64_MAX stands in for +inf in exports).
inline std::uint64_t HistogramBucketUpperBound(int b) {
  if (b == 0) {
    return 0;
  }
  if (b >= kHistogramBuckets - 1) {
    return ~std::uint64_t{0};
  }
  return (std::uint64_t{1} << b) - 1;
}

struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // exact; 0 when count == 0
  std::uint64_t max = 0;  // exact; 0 when count == 0

  void Merge(const HistogramSnapshot& other) {
    if (other.count == 0) {
      return;
    }
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    count += other.count;
    sum += other.sum;
  }
  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }

  // Upper bound of the bucket containing the q-th quantile (q in [0,1]).
  std::uint64_t QuantileBound(double q) const {
    if (count == 0) {
      return 0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
    std::uint64_t seen = 0;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      seen += buckets[static_cast<std::size_t>(b)];
      if (seen >= target) {
        return HistogramBucketUpperBound(b);
      }
    }
    return HistogramBucketUpperBound(kHistogramBuckets - 1);
  }
};

// Lock-free recorder behind HistogramSnapshot.  Any number of writers; a
// reader may snapshot at any time and sees a point-in-time view (exact once
// the writers are quiescent).
class AtomicHistogram {
 public:
  void Observe(std::uint64_t value) {
    // Extremes first, so a reader that sees the bucket also sees them.
    LowerTo(min_, value);
    RaiseTo(max_, value);
    buckets_[static_cast<std::size_t>(HistogramBucketOf(value))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  void Merge(const HistogramSnapshot& h) {
    if (h.count == 0) {
      return;
    }
    LowerTo(min_, h.min);
    RaiseTo(max_, h.max);
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      buckets_[b].fetch_add(h.buckets[b], std::memory_order_relaxed);
    }
    sum_.fetch_add(h.sum, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot out;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      out.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
      out.count += out.buckets[b];
    }
    out.sum = sum_.load(std::memory_order_relaxed);
    if (out.count != 0) {
      out.min = min_.load(std::memory_order_relaxed);
      out.max = max_.load(std::memory_order_relaxed);
    }
    return out;
  }

  void Clear() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  static void LowerTo(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void RaiseTo(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

// ---------------------------------------------------------------------------
// StatsRegistry: one slot per catalog entry.
// ---------------------------------------------------------------------------

// Thread-safety: in the parallel engine (src/run) shard threads increment
// their own kernels' registries while the coordinator aggregates at
// quiescence, and cross-cutting code (benches, invariants) may read any
// registry.  Every slot is a relaxed atomic, so any thread may add or read.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry& other) { Merge(other); }
  StatsRegistry& operator=(const StatsRegistry& other) {
    if (this != &other) {
      for (auto& c : counters_) {
        c.store(0, std::memory_order_relaxed);
      }
      for (auto& h : histograms_) {
        h.Clear();
      }
      Merge(other);
    }
    return *this;
  }

  void Add(StatId id, std::int64_t delta = 1) {
    counters_[static_cast<std::size_t>(id)].fetch_add(delta, std::memory_order_relaxed);
  }
  void Observe(HistId id, std::uint64_t value) {
    histograms_[static_cast<std::size_t>(id)].Observe(value);
  }

  std::int64_t Get(StatId id) const {
    return counters_[static_cast<std::size_t>(id)].load(std::memory_order_relaxed);
  }
  // By exported name (stat::k*).  A name outside the catalog is a caller bug
  // (a typo would otherwise read as a silent 0), so it aborts.
  std::int64_t Get(const char* name) const {
    for (int i = 0; i < kNumStatIds; ++i) {
      if (std::strcmp(kStatNames[static_cast<std::size_t>(i)], name) == 0) {
        return Get(static_cast<StatId>(i));
      }
    }
    std::fprintf(stderr, "StatsRegistry::Get: unknown stat name '%s'\n", name);
    std::abort();
  }
  HistogramSnapshot Histogram(HistId id) const {
    return histograms_[static_cast<std::size_t>(id)].Snapshot();
  }

  // Fold another registry into this one (used to aggregate per-kernel stats
  // into cluster-wide totals).
  void Merge(const StatsRegistry& other) {
    for (int i = 0; i < kNumStatIds; ++i) {
      Add(static_cast<StatId>(i), other.Get(static_cast<StatId>(i)));
    }
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
      histograms_[i].Merge(other.histograms_[i].Snapshot());
    }
  }

  // Human-readable report: nonzero counters, then non-empty histograms, in
  // catalog order.  Percentiles are bucket upper bounds (capped at the exact
  // max).  Shared by benches, examples, and debugging sessions so the format
  // cannot drift between them.
  void Dump(std::ostream& os) const {
    for (int i = 0; i < kNumStatIds; ++i) {
      if (const std::int64_t value = Get(static_cast<StatId>(i)); value != 0) {
        os << "  " << StatName(static_cast<StatId>(i)) << " = " << value << "\n";
      }
    }
    for (int i = 0; i < kNumHistIds; ++i) {
      const HistogramSnapshot h = Histogram(static_cast<HistId>(i));
      if (h.count == 0) {
        continue;
      }
      const auto p = [&h](double q) { return std::min(h.QuantileBound(q), h.max); };
      os << "  " << HistName(static_cast<HistId>(i)) << ": n=" << h.count
         << " mean=" << h.Mean() << " min=" << h.min << " p50=" << p(0.50)
         << " p95=" << p(0.95) << " p99=" << p(0.99) << " max=" << h.max << "\n";
    }
  }

 private:
  std::array<std::atomic<std::int64_t>, kNumStatIds> counters_{};
  std::array<AtomicHistogram, kNumHistIds> histograms_{};
};

// Fixed slots only: the registry can never own memory that grows with a run.
static_assert(std::is_trivially_destructible_v<StatsRegistry>);

}  // namespace demos

#endif  // DEMOS_BASE_STATS_H_
