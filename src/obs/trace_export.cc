#include "src/obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <unordered_map>

namespace demos {

namespace {

// Record time in microseconds, the unit of every span and histogram.
SimTime Us(const FlightRecord& r) { return r.t_ns / 1000; }

// Records sorted by (time, original order): a merge of several engines'
// timelines interleaves arbitrarily, but pairing logic wants a timeline.
std::vector<FlightRecord> Sorted(const std::vector<FlightRecord>& records) {
  std::vector<FlightRecord> sorted = records;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FlightRecord& a, const FlightRecord& b) { return a.t_ns < b.t_ns; });
  return sorted;
}

bool InCategory(const FlightRecord& r, FrCategory c) { return FrCategoryOf(r.type) == c; }

void SetPhase(MigrationSpan& span, MigrationPhaseKind kind, SimTime start, SimTime end,
              std::uint64_t bytes = 0) {
  MigrationPhaseSpan& phase = span.phases[static_cast<int>(kind)];
  phase.kind = kind;
  phase.start = start;
  phase.end = end;
  phase.bytes = bytes;
  phase.valid = end >= start;
}

MigrationPhaseKind SectionPhase(std::uint64_t section) {
  switch (section) {
    case 0:
      return MigrationPhaseKind::kMoveResident;
    case 1:
      return MigrationPhaseKind::kMoveSwappable;
    default:
      return MigrationPhaseKind::kMoveImage;
  }
}

std::string JsonHexId(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, id);
  return buf;
}

}  // namespace

const char* MigrationPhaseName(MigrationPhaseKind kind) {
  switch (kind) {
    case MigrationPhaseKind::kRequest:
      return "request";
    case MigrationPhaseKind::kOffer:
      return "offer";
    case MigrationPhaseKind::kAccept:
      return "accept";
    case MigrationPhaseKind::kMoveResident:
      return "move_resident";
    case MigrationPhaseKind::kMoveSwappable:
      return "move_swappable";
    case MigrationPhaseKind::kMoveImage:
      return "move_image";
    case MigrationPhaseKind::kTransferComplete:
      return "transfer_complete";
    case MigrationPhaseKind::kRestart:
      return "restart";
    default:
      return "unknown";
  }
}

std::vector<MigrationSpan> BuildMigrationSpans(const std::vector<FlightRecord>& records) {
  const std::vector<FlightRecord> sorted = Sorted(records);

  // Group by correlation id, preserving time order within each group.
  std::map<std::uint64_t, std::vector<const FlightRecord*>> by_id;
  for (const FlightRecord& r : sorted) {
    if (InCategory(r, FrCategory::kMigration) && r.id != 0) {
      by_id[r.id].push_back(&r);
    }
  }

  std::vector<MigrationSpan> spans;
  for (const auto& [id, group] : by_id) {
    // Split the group into migration instances.  A process migrates strictly
    // sequentially, so a new kRequestSent (or an orphan kMigrationBegin)
    // opens a new instance.
    std::vector<std::vector<const FlightRecord*>> instances;
    const auto is_begin = [](const FlightRecord* e) {
      return e->type == FrEvent::kMigrationBegin;
    };
    for (const FlightRecord* r : group) {
      const bool opens =
          r->type == FrEvent::kRequestSent ||
          (is_begin(r) && (instances.empty() || std::any_of(instances.back().begin(),
                                                            instances.back().end(), is_begin)));
      if (opens || instances.empty()) {
        instances.emplace_back();
      }
      instances.back().push_back(r);
    }

    for (const auto& instance : instances) {
      MigrationSpan span;
      span.id = id;
      span.pid = PidFromSpanId(id);
      // Raw instants indexed by event for pairing (first occurrence wins; a
      // well-formed instance has each step at most once).
      const FlightRecord* at[kNumFrEvents] = {};
      const FlightRecord* section_req[3] = {nullptr, nullptr, nullptr};
      const FlightRecord* section_got[3] = {nullptr, nullptr, nullptr};
      for (const FlightRecord* r : instance) {
        if (r->type == FrEvent::kPullRequested && r->a < 3) {
          if (section_req[r->a] == nullptr) {
            section_req[r->a] = r;
          }
          continue;
        }
        if (r->type == FrEvent::kSectionReceived && r->a < 3) {
          if (section_got[r->a] == nullptr) {
            section_got[r->a] = r;
          }
          continue;
        }
        const FlightRecord*& slot = at[static_cast<int>(r->type)];
        if (slot == nullptr) {
          slot = r;
        }
      }

      auto find = [&](FrEvent e) { return at[static_cast<int>(e)]; };
      const FlightRecord* request_sent = find(FrEvent::kRequestSent);
      const FlightRecord* begin = find(FrEvent::kMigrationBegin);
      const FlightRecord* offer_sent = find(FrEvent::kOfferSent);
      const FlightRecord* offer_received = find(FrEvent::kOfferReceived);
      const FlightRecord* accept_sent = find(FrEvent::kAcceptSent);
      const FlightRecord* accept_received = find(FrEvent::kAcceptReceived);
      const FlightRecord* done_sent = find(FrEvent::kTransferDoneSent);
      const FlightRecord* done_received = find(FrEvent::kTransferDoneReceived);
      const FlightRecord* cleanup_sent = find(FrEvent::kCleanupSent);
      const FlightRecord* restarted = find(FrEvent::kRestarted);
      const FlightRecord* aborted = find(FrEvent::kMigrationAborted);
      const FlightRecord* pending = find(FrEvent::kPendingForwarded);

      span.start = Us(request_sent != nullptr ? *request_sent : *instance.front());
      span.end = Us(*instance.back());
      if (begin != nullptr) {
        span.source = begin->shard;
        span.destination = static_cast<MachineId>(begin->a);
      }
      if (offer_received != nullptr) {
        span.destination = offer_received->shard;
      }
      span.completed = restarted != nullptr;
      span.aborted = aborted != nullptr;
      if (span.completed) {
        span.end = Us(*restarted);
      } else if (span.aborted) {
        span.end = Us(*aborted);
      }
      if (pending != nullptr) {
        span.pending_forwarded = pending->a;
      }

      if (request_sent != nullptr && begin != nullptr) {
        SetPhase(span, MigrationPhaseKind::kRequest, Us(*request_sent), Us(*begin));
      }
      if (offer_sent != nullptr && offer_received != nullptr) {
        SetPhase(span, MigrationPhaseKind::kOffer, Us(*offer_sent), Us(*offer_received));
      }
      if (accept_sent != nullptr && accept_received != nullptr) {
        SetPhase(span, MigrationPhaseKind::kAccept, Us(*accept_sent), Us(*accept_received));
      }
      for (int s = 0; s < 3; ++s) {
        if (section_req[s] != nullptr && section_got[s] != nullptr) {
          SetPhase(span, SectionPhase(static_cast<std::uint64_t>(s)), Us(*section_req[s]),
                   Us(*section_got[s]), section_got[s]->b);
          span.bytes_moved += section_got[s]->b;
        }
      }
      if (done_sent != nullptr && done_received != nullptr) {
        SetPhase(span, MigrationPhaseKind::kTransferComplete, Us(*done_sent),
                 Us(*done_received));
      }
      if (cleanup_sent != nullptr && restarted != nullptr) {
        // Steps 6-8 collapse into one phase: the source's queue-forward and
        // forwarding-address install happen at cleanup_sent's instant, then
        // CLEANUP_DONE flies and the destination restarts the process.
        SetPhase(span, MigrationPhaseKind::kRestart, Us(*cleanup_sent), Us(*restarted));
      }
      spans.push_back(std::move(span));
    }
  }

  std::sort(spans.begin(), spans.end(),
            [](const MigrationSpan& a, const MigrationSpan& b) { return a.start < b.start; });
  return spans;
}

std::vector<MessageTrace> BuildMessageTraces(const std::vector<FlightRecord>& records) {
  const std::vector<FlightRecord> sorted = Sorted(records);
  std::map<std::uint64_t, MessageTrace> by_id;
  std::vector<std::uint64_t> order;
  for (const FlightRecord& r : sorted) {
    if (!InCategory(r, FrCategory::kMessage) || r.id == 0) {
      continue;
    }
    auto [it, inserted] = by_id.try_emplace(r.id);
    MessageTrace& t = it->second;
    if (inserted) {
      t.id = r.id;
      order.push_back(r.id);
    }
    switch (r.type) {
      case FrEvent::kMsgSend:
      case FrEvent::kLinkUpdateSent:
        t.sent = Us(r);
        t.type = r.a;
        t.origin = r.shard;
        break;
      case FrEvent::kMsgForward:
        t.hops = std::max<std::uint32_t>(t.hops, static_cast<std::uint32_t>(r.a));
        break;
      case FrEvent::kMsgBounce:
        t.bounces++;
        break;
      case FrEvent::kMsgDeliver:
        t.hops = std::max<std::uint32_t>(t.hops, static_cast<std::uint32_t>(r.a));
        [[fallthrough]];
      case FrEvent::kLinkUpdateApplied:
        t.delivered = Us(r);
        t.was_delivered = true;
        break;
      default:
        break;
    }
  }
  std::vector<MessageTrace> out;
  out.reserve(order.size());
  for (std::uint64_t id : order) {
    out.push_back(by_id[id]);
  }
  return out;
}

namespace {

// The phase histograms sit in the catalog in MigrationPhaseKind order.
static_assert(static_cast<int>(HistId::kPhaseRestartUs) - static_cast<int>(HistId::kPhaseRequestUs) +
                  1 ==
              kNumMigrationPhases);

HistId PhaseHist(MigrationPhaseKind kind) {
  return static_cast<HistId>(static_cast<int>(HistId::kPhaseRequestUs) + static_cast<int>(kind));
}

}  // namespace

void BuildTraceStats(const std::vector<FlightRecord>& records, StatsRegistry* registry) {
  for (const MigrationSpan& span : BuildMigrationSpans(records)) {
    if (span.completed) {
      registry->Observe(HistId::kMigrationTotalUs, span.duration());
    }
    for (const MigrationPhaseSpan& phase : span.phases) {
      if (phase.valid) {
        registry->Observe(PhaseHist(phase.kind), phase.duration());
      }
    }
  }

  // Link-update lag: from the forwarding kernel emitting the LINK_UPDATE to
  // the sender's kernel patching the link table (Sec. 5's lazy update).
  std::unordered_map<std::uint64_t, SimTime> update_sent;
  for (const FlightRecord& r : Sorted(records)) {
    if (r.type == FrEvent::kLinkUpdateSent) {
      update_sent.emplace(r.id, Us(r));
    } else if (r.type == FrEvent::kLinkUpdateApplied) {
      auto it = update_sent.find(r.id);
      if (it != update_sent.end()) {
        registry->Observe(HistId::kLinkUpdateLagUs, Us(r) - it->second);
        update_sent.erase(it);
      }
    }
  }

  for (const MessageTrace& msg : BuildMessageTraces(records)) {
    if (msg.hops > 0) {
      registry->Observe(HistId::kForwardHops, msg.hops);
    }
  }
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON.
// ---------------------------------------------------------------------------

namespace {

// Synthetic Chrome "process" hosting the reconstructed migration span trees.
constexpr int kMigrationsPid = 10000;

// One track per category within a shard's process.
int CategoryTid(FrCategory category) { return static_cast<int>(category) + 1; }

void WriteMeta(std::ostream& os, bool& first, int pid, int tid, const char* what,
               const std::string& value) {
  os << (first ? "" : ",\n") << "  {\"ph\":\"M\",\"name\":\"" << what << "\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << value << "\"}}";
  first = false;
}

void WriteCompleteEvent(std::ostream& os, bool& first, int pid, int tid, const std::string& name,
                        SimTime ts, SimDuration dur, const std::string& extra_args) {
  os << (first ? "" : ",\n") << "  {\"ph\":\"X\",\"name\":\"" << name << "\",\"cat\":\""
     << FrCategoryName(FrCategory::kMigration) << "\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{" << extra_args << "}}";
  first = false;
}

}  // namespace

void WriteChromeTrace(const std::vector<FlightRecord>& records, std::ostream& os) {
  const std::vector<FlightRecord> sorted = Sorted(records);

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // Track metadata: one Chrome "process" per recorder shard (a machine, or
  // the engine's harness/coordinator slot), one "thread" per category.
  std::set<std::uint16_t> shards;
  std::set<std::pair<std::uint16_t, FrCategory>> tracks;
  for (const FlightRecord& r : sorted) {
    shards.insert(r.shard);
    tracks.insert({r.shard, FrCategoryOf(r.type)});
  }
  for (std::uint16_t shard : shards) {
    WriteMeta(os, first, shard, 0, "process_name", "machine m" + std::to_string(shard));
  }
  for (const auto& [shard, category] : tracks) {
    WriteMeta(os, first, shard, CategoryTid(category), "thread_name",
              FrCategoryName(category));
  }

  // Raw records as instants on per-shard tracks, operands under their names.
  for (const FlightRecord& r : sorted) {
    const FrEventInfo& info = FrInfo(r.type);
    os << (first ? "" : ",\n") << "  {\"ph\":\"i\",\"name\":\"" << info.name << "\",\"cat\":\""
       << FrCategoryName(info.category) << "\",\"pid\":" << r.shard
       << ",\"tid\":" << CategoryTid(info.category) << ",\"ts\":" << Us(r)
       << ",\"s\":\"t\",\"args\":{\"id\":\"" << JsonHexId(r.id) << "\"";
    if (r.id != 0 && info.category != FrCategory::kMessage) {
      os << ",\"process\":\"" << PidFromSpanId(r.id).ToString() << "\"";
    }
    if (info.a != nullptr) {
      os << ",\"" << info.a << "\":" << r.a;
    }
    if (info.b != nullptr) {
      os << ",\"" << info.b << "\":" << r.b;
    }
    os << ",\"seq\":" << r.seq << "}}";
    first = false;
  }

  // Reconstructed migration span trees on a synthetic process: the root span
  // on top, the 8 protocol phases nested beneath it (same tid, contained
  // time ranges -- Chrome renders containment as nesting).
  const std::vector<MigrationSpan> spans = BuildMigrationSpans(sorted);
  if (!spans.empty()) {
    WriteMeta(os, first, kMigrationsPid, 0, "process_name", "migrations");
    int tid = 0;
    for (const MigrationSpan& span : spans) {
      ++tid;
      WriteMeta(os, first, kMigrationsPid, tid, "thread_name",
                span.pid.ToString() + " m" + std::to_string(span.source) + "->m" +
                    std::to_string(span.destination));
      const std::string root_args = "\"id\":\"" + JsonHexId(span.id) + "\",\"bytes\":" +
                                    std::to_string(span.bytes_moved) + ",\"pending_forwarded\":" +
                                    std::to_string(span.pending_forwarded) + ",\"completed\":" +
                                    (span.completed ? "true" : "false");
      WriteCompleteEvent(os, first, kMigrationsPid, tid, "migrate " + span.pid.ToString(),
                         span.start, std::max<SimDuration>(span.duration(), 1), root_args);
      for (const MigrationPhaseSpan& phase : span.phases) {
        if (!phase.valid) {
          continue;
        }
        WriteCompleteEvent(os, first, kMigrationsPid, tid, MigrationPhaseName(phase.kind),
                           phase.start, std::max<SimDuration>(phase.duration(), 1),
                           "\"bytes\":" + std::to_string(phase.bytes));
      }
    }
  }

  os << "\n]}\n";
}

bool WriteChromeTraceFile(const std::vector<FlightRecord>& records, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  WriteChromeTrace(records, file);
  return static_cast<bool>(file);
}

// ---------------------------------------------------------------------------
// Summary tables.
// ---------------------------------------------------------------------------

void WriteTraceSummary(const std::vector<FlightRecord>& records, std::ostream& os) {
  const std::vector<MigrationSpan> spans = BuildMigrationSpans(records);
  const std::vector<MessageTrace> messages = BuildMessageTraces(records);
  std::size_t completed = 0;
  for (const MigrationSpan& span : spans) {
    completed += span.completed ? 1 : 0;
  }
  os << "migrations: " << spans.size() << " traced, " << completed << " completed\n";
  for (const MigrationSpan& span : spans) {
    os << "  " << span.pid.ToString() << "  m" << span.source << " -> m" << span.destination
       << "  " << (span.completed ? "ok" : span.aborted ? "aborted" : "incomplete") << "  total "
       << span.duration() << " us  bytes " << span.bytes_moved << "  pending "
       << span.pending_forwarded << "\n";
    for (const MigrationPhaseSpan& phase : span.phases) {
      if (!phase.valid) {
        continue;
      }
      os << "    " << MigrationPhaseName(phase.kind) << "  " << phase.duration() << " us";
      if (phase.bytes > 0) {
        os << "  (" << phase.bytes << " B)";
      }
      os << "\n";
    }
  }

  std::size_t forwarded = 0;
  std::size_t bounced = 0;
  std::uint32_t max_hops = 0;
  for (const MessageTrace& msg : messages) {
    forwarded += msg.hops > 0 ? 1 : 0;
    bounced += msg.bounces > 0 ? 1 : 0;
    max_hops = std::max(max_hops, msg.hops);
  }
  os << "messages: " << messages.size() << " traced, " << forwarded << " forwarded (max "
     << max_hops << " hops), " << bounced << " bounced\n";
  for (const MessageTrace& msg : messages) {
    if (msg.hops == 0 && msg.bounces == 0) {
      continue;
    }
    os << "  " << JsonHexId(msg.id) << "  type " << msg.type << "  from m" << msg.origin
       << "  hops " << msg.hops << "  bounces " << msg.bounces;
    if (msg.was_delivered) {
      os << "  latency " << msg.Latency() << " us";
    } else {
      os << "  undelivered";
    }
    os << "\n";
  }
}

std::vector<FlightRecord> FilterTrace(const std::vector<FlightRecord>& records,
                                      const std::vector<std::uint64_t>& ids,
                                      const std::vector<ProcessId>& pids) {
  std::set<std::uint64_t> keep(ids.begin(), ids.end());
  for (const ProcessId& pid : pids) {
    keep.insert(MigrationSpanId(pid));
  }
  std::vector<FlightRecord> out;
  for (const FlightRecord& r : records) {
    const bool suspect = r.id != 0 && keep.count(r.id) != 0;
    if (suspect || InCategory(r, FrCategory::kMigration)) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace demos
