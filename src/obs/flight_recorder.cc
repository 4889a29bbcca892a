#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>

#include "src/obs/trace.h"

namespace demos {

const char* FrCategoryName(FrCategory c) {
  switch (c) {
    case FrCategory::kRun:
      return "run";
    case FrCategory::kAddr:
      return "addr";
    case FrCategory::kMigration:
      return "migration";
    case FrCategory::kMessage:
      return "msg";
    case FrCategory::kNet:
      return "net";
  }
  return "unknown";
}

std::uint64_t FrSteadyClock(void* /*ctx*/) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

FlightRecorder::FlightRecorder(std::uint16_t shard, std::size_t capacity, bool retain_all)
    : ring_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
      mask_(ring_.size() - 1),
      grow_at_(retain_all ? ring_.size() : std::numeric_limits<std::uint64_t>::max()),
      clock_(&FrSteadyClock),
      shard_(shard) {}

void FlightRecorder::Grow() {
  // Retain-all mode never wrapped, so record i sits at index i and the
  // doubled buffer keeps every position.
  ring_.resize(ring_.size() * 2);
  mask_ = ring_.size() - 1;
  grow_at_ = ring_.size();
}

std::vector<FlightRecord> FlightRecorder::SnapshotRecords() const {
  std::vector<FlightRecord> out;
  const std::uint64_t retained = total_ < ring_.size() ? total_ : ring_.size();
  out.reserve(static_cast<std::size_t>(retained));
  const std::uint64_t first = total_ - retained;
  for (std::uint64_t i = first; i < total_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
  }
  return out;
}

bool FlightRecorder::Trigger(const char* reason) {
  return hub_ != nullptr && hub_->Trigger(reason);
}

FlightRecorderHub::FlightRecorderHub(int shards, std::size_t capacity_per_shard,
                                     bool retain_all) {
  recorders_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    recorders_.push_back(std::make_unique<FlightRecorder>(static_cast<std::uint16_t>(i),
                                                          capacity_per_shard, retain_all));
    recorders_.back()->hub_ = this;
  }
}

void FlightRecorderHub::SetClockAll(FrClockFn fn, void* ctx) {
  for (auto& r : recorders_) {
    r->SetClock(fn, ctx);
  }
}

std::vector<FlightRecord> FlightRecorderHub::Merged() const {
  std::vector<FlightRecord> out;
  for (const auto& r : recorders_) {
    std::vector<FlightRecord> shard_records = r->SnapshotRecords();
    out.insert(out.end(), shard_records.begin(), shard_records.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const FlightRecord& x, const FlightRecord& y) {
    if (x.t_ns != y.t_ns) {
      return x.t_ns < y.t_ns;
    }
    if (x.shard != y.shard) {
      return x.shard < y.shard;
    }
    return x.seq < y.seq;
  });
  return out;
}

std::uint64_t FlightRecorderHub::TotalDropped() const {
  std::uint64_t dropped = 0;
  for (const auto& r : recorders_) {
    dropped += r->dropped();
  }
  return dropped;
}

// ---------------------------------------------------------------------------
// Text dump.
// ---------------------------------------------------------------------------

namespace {

void WriteOneRecordText(const FlightRecord& r, std::ostream& os) {
  const FrEventInfo& info = FrInfo(r.type);
  os << r.t_ns << " s" << r.shard << " #" << r.seq << " " << info.name;
  if (r.id != 0) {
    if (info.category == FrCategory::kMessage) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " trace=0x%" PRIx64, r.id);
      os << buf;
    } else {
      os << " pid=" << PidFromSpanId(r.id).ToString();
    }
  }
  if (info.a != nullptr) {
    os << " " << info.a << "=" << r.a;
  }
  if (info.b != nullptr) {
    os << " " << info.b << "=" << r.b;
  }
  os << "\n";
}

}  // namespace

void WriteFlightText(const std::vector<FlightRecord>& records, const char* reason,
                     std::ostream& os) {
  os << "flight recorder dump";
  if (reason != nullptr) {
    os << " (trigger: " << reason << ")";
  }
  os << "\n";
  std::map<std::uint16_t, std::size_t> per_shard;
  for (const FlightRecord& r : records) {
    ++per_shard[r.shard];
  }
  os << records.size() << " records across " << per_shard.size() << " shard(s):";
  for (const auto& [shard, n] : per_shard) {
    os << " s" << shard << "=" << n;
  }
  os << "\n---\n";
  for (const FlightRecord& r : records) {
    WriteOneRecordText(r, os);
  }
}

bool WriteFlightTextFile(const std::vector<FlightRecord>& records, const char* reason,
                         const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  WriteFlightText(records, reason, os);
  return static_cast<bool>(os);
}

}  // namespace demos
