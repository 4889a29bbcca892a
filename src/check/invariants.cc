#include "src/check/invariants.h"

#include <algorithm>
#include <cstdio>

namespace demos {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t CombineHash(std::uint64_t h, std::uint64_t v) {
  h ^= v + 1;  // +1 so machine 0 still perturbs
  h *= kFnvPrime;
  return h;
}

// "m<id>", built by appending: gcc 12 flags the inlined insert-at-front of
// `"m" + std::to_string(m)` with a false -Wrestrict.
std::string MachineName(int m) {
  std::string out = "m";
  out += std::to_string(m);
  return out;
}

std::string Hex(std::uint64_t v) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::uint64_t HashBytes(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

ClusterChecker::ClusterChecker(Engine* engine, CheckerConfig config)
    : cluster_(*engine), config_(config) {}

void ClusterChecker::ExpectLive(const ProcessId& pid) {
  std::lock_guard<std::mutex> lock(mu_);
  expected_live_.push_back(pid);
}

void ClusterChecker::MarkMachineDead(MachineId machine) {
  std::lock_guard<std::mutex> lock(mu_);
  dead_machines_.insert(machine);
}

void ClusterChecker::AddViolation(const std::string& invariant, const std::string& detail) {
  violations_.push_back(Violation{invariant, detail});
}

void ClusterChecker::SuspectMessage(std::uint64_t trace_id) { suspect_ids_.push_back(trace_id); }

void ClusterChecker::SuspectProcess(const ProcessId& pid) { suspect_pids_.push_back(pid); }

bool ClusterChecker::Tracked(const Message& msg) const {
  // User traffic between real processes.  Kernel protocol messages have their
  // own delivery semantics (acks, retransmitted admin traffic) and are
  // audited indirectly through the migration/ownership invariants.
  return msg.trace_id != 0 &&
         static_cast<std::uint16_t>(msg.type) >=
             static_cast<std::uint16_t>(MsgType::kUserBase) &&
         !IsKernelPid(msg.receiver.pid) && msg.receiver.pid.valid();
}

void ClusterChecker::ExtendPath(std::uint64_t trace_id, MachineId machine) {
  auto it = tracked_.find(trace_id);
  if (it != tracked_.end()) {
    it->second.path_hash = CombineHash(it->second.path_hash, machine);
  }
}

void ClusterChecker::OnMessageSend(MachineId machine, const Message& msg) {
  if (!Tracked(msg)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  MsgState st;
  st.sender = msg.sender.pid;
  st.receiver = msg.receiver.pid;
  st.type = static_cast<std::uint16_t>(msg.type);
  st.pair_seq = pair_next_seq_[PairKey{st.sender, st.receiver}]++;
  st.path_hash = CombineHash(kFnvOffset, machine);
  st.origin = machine;
  st.last_dest = msg.receiver.last_known_machine;
  tracked_.emplace(msg.trace_id, st);
}

void ClusterChecker::OnMessageDeliver(MachineId machine, const Message& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  ++consumed_;

  // I3 held-order: if this message was frozen in a pending queue, its
  // consumption must respect the frozen order.
  if (config_.check_held_order) {
    for (HeldSet& held : held_sets_) {
      auto it = held.index_of.find(msg.trace_id);
      if (it == held.index_of.end()) {
        continue;
      }
      if (held.any_consumed && it->second < held.last_consumed_index) {
        AddViolation("held-order",
                     "msg " + Hex(msg.trace_id) + " to " + held.pid.ToString() +
                         " consumed out of frozen pending-queue order (pos " +
                         std::to_string(it->second) + " after pos " +
                         std::to_string(held.last_consumed_index) + ")");
        SuspectMessage(msg.trace_id);
        SuspectProcess(held.pid);
      } else {
        held.last_consumed_index = it->second;
        held.any_consumed = true;
      }
    }
  }

  auto it = tracked_.find(msg.trace_id);
  if (it == tracked_.end()) {
    return;
  }
  MsgState& st = it->second;
  ++st.delivers;

  // I2 path-FIFO, evaluated on first consumption only (duplicates are I1's
  // problem).  The group key folds in the consuming machine so a receiver
  // that moved between two deliveries never joins messages into one group.
  if (config_.check_path_fifo && st.delivers == 1) {
    std::uint64_t group = CombineHash(st.path_hash, machine);
    group = CombineHash(group, ProcessIdHash{}(st.sender));
    group = CombineHash(group, ProcessIdHash{}(st.receiver));
    auto [slot, inserted] = group_last_.try_emplace(group, st.pair_seq, msg.trace_id);
    if (!inserted) {
      if (st.pair_seq < slot->second.first) {
        AddViolation("path-fifo",
                     "msg " + Hex(msg.trace_id) + " (" + st.sender.ToString() + "->" +
                         st.receiver.ToString() + " seq " + std::to_string(st.pair_seq) +
                         ") consumed after later msg " + Hex(slot->second.second) + " (seq " +
                         std::to_string(slot->second.first) + ") on the same path");
        SuspectMessage(msg.trace_id);
        SuspectMessage(slot->second.second);
      } else {
        slot->second = {st.pair_seq, msg.trace_id};
      }
    }
  }
}

void ClusterChecker::OnMessageForward(MachineId machine, const Message& msg, MachineId next) {
  std::lock_guard<std::mutex> lock(mu_);
  ExtendPath(msg.trace_id, machine);
  auto it = tracked_.find(msg.trace_id);
  if (it != tracked_.end()) {
    it->second.last_dest = next;
    it->second.last_hop = machine;
  }
}

void ClusterChecker::OnMessageBounce(MachineId machine, const Message& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  ExtendPath(msg.trace_id, machine);
  auto it = tracked_.find(msg.trace_id);
  if (it != tracked_.end()) {
    ++it->second.bounces;
  }
}

void ClusterChecker::OnPendingResend(MachineId machine, const Message& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  ExtendPath(msg.trace_id, machine);
  auto it = tracked_.find(msg.trace_id);
  if (it != tracked_.end()) {
    it->second.last_dest = msg.receiver.last_known_machine;
    it->second.last_hop = machine;
  }
}

void ClusterChecker::OnMigrationFrozen(MachineId source, MachineId dest,
                                       const ProcessRecord& record, const PayloadRef& resident,
                                       const PayloadRef& swappable, const PayloadRef& image) {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.check_section_integrity) {
    ActiveMigration active;
    active.source = source;
    active.dest = dest;
    active.section_hash[static_cast<int>(MigrationSection::kResidentState)] =
        HashBytes(resident.data(), resident.size());
    active.section_bytes[static_cast<int>(MigrationSection::kResidentState)] = resident.size();
    active.section_hash[static_cast<int>(MigrationSection::kSwappableState)] =
        HashBytes(swappable.data(), swappable.size());
    active.section_bytes[static_cast<int>(MigrationSection::kSwappableState)] = swappable.size();
    active.section_hash[static_cast<int>(MigrationSection::kMemoryImage)] =
        HashBytes(image.data(), image.size());
    active.section_bytes[static_cast<int>(MigrationSection::kMemoryImage)] = image.size();
    active_migrations_[record.pid] = active;
  }

  if (config_.check_held_order) {
    HeldSet held;
    held.pid = record.pid;
    std::uint64_t index = 0;
    for (const Message& pending : record.queue) {
      if (pending.trace_id != 0) {
        held.index_of.emplace(pending.trace_id, index++);
      }
    }
    if (!held.index_of.empty()) {
      held_sets_.push_back(std::move(held));
    }
  }
}

void ClusterChecker::OnMigrationSection(MachineId dest, const ProcessId& pid,
                                        MigrationSection section, const Bytes& bytes) {
  if (!config_.check_section_integrity) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_migrations_.find(pid);
  if (it == active_migrations_.end()) {
    return;
  }
  const ActiveMigration& active = it->second;
  const std::uint64_t got = HashBytes(bytes.data(), bytes.size());
  const int idx = static_cast<int>(section);
  if (bytes.size() != active.section_bytes[idx] || got != active.section_hash[idx]) {
    AddViolation("section-integrity",
                 std::string(MigrationSectionName(section)) + " of " + pid.ToString() +
                     " arrived at m" + std::to_string(dest) + " with " +
                     std::to_string(bytes.size()) + " bytes, hash " + Hex(got) + "; frozen " +
                     std::to_string(active.section_bytes[idx]) + " bytes, hash " +
                     Hex(active.section_hash[idx]));
    SuspectProcess(pid);
  }
}

void ClusterChecker::OnMigrationRestart(MachineId dest, const ProcessId& pid,
                                        const ProcessRecord& record) {
  (void)dest;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_migrations_.find(pid);
  if (it == active_migrations_.end()) {
    return;
  }
  if (config_.check_section_integrity) {
    const Bytes image = record.memory.Serialize();
    const std::uint64_t got = HashBytes(image.data(), image.size());
    const int idx = static_cast<int>(MigrationSection::kMemoryImage);
    if (got != it->second.section_hash[idx]) {
      AddViolation("section-integrity",
                   "restarted memory image of " + pid.ToString() + " re-serializes to hash " +
                       Hex(got) + ", frozen image hash " + Hex(it->second.section_hash[idx]));
      SuspectProcess(pid);
    }
  }
  active_migrations_.erase(it);
}

void ClusterChecker::OnMigrationAborted(MachineId source, const ProcessId& pid) {
  (void)source;
  std::lock_guard<std::mutex> lock(mu_);
  active_migrations_.erase(pid);
}

// ---------------------------------------------------------------------------
// Quiescence audit.
// ---------------------------------------------------------------------------

void ClusterChecker::CollectDeadPids() {
  if (dead_machines_.empty()) {
    return;
  }
  // A process died with its machine iff it has a live (non-forwarding) record
  // on a dead machine and no live record on any live machine.  A process that
  // rolled back to a live source, or was adopted by a live destination, has a
  // live record elsewhere and is NOT dead -- losing its messages would still
  // be a violation.
  for (MachineId dead : dead_machines_) {
    if (dead >= cluster_.size()) {
      continue;
    }
    for (const auto& [pid, entry] : cluster_.kernel(dead).process_table().entries()) {
      if (entry.IsForwarding()) {
        continue;
      }
      bool alive_elsewhere = false;
      for (int m = 0; m < cluster_.size(); ++m) {
        const MachineId mid = static_cast<MachineId>(m);
        if (MachineDead(mid)) {
          continue;
        }
        const ProcessTable::Entry* other = cluster_.kernel(mid).process_table().FindEntry(pid);
        if (other != nullptr && !other->IsForwarding()) {
          alive_elsewhere = true;
          break;
        }
      }
      if (!alive_elsewhere) {
        dead_pids_.insert(pid);
      }
    }
  }
}

void ClusterChecker::CheckExactlyOnce() {
  // In the return-to-sender baseline, a message that races a chain of
  // migrations can exhaust the hop cap and be dead-lettered (the sender is
  // notified; a kernel sender is dropped silently).  That at-most-once
  // degradation is exactly the weakness that made the paper pick forwarding
  // (Sec. 4), so it is tolerated there -- but only with bounce evidence;
  // silent loss is a violation in every mode.
  const bool return_to_sender = cluster_.kernel(0).config().delivery_mode ==
                                KernelConfig::DeliveryMode::kReturnToSender;
  for (const auto& [trace_id, st] : tracked_) {
    if (st.delivers == 1) {
      continue;
    }
    if (st.delivers == 0) {
      if (return_to_sender && st.bounces > 0) {
        continue;
      }
      // Permanent machine death excuses loss (never duplication): the send
      // originated on a machine that died with it queued, the message was
      // last headed into a machine that died, the intermediate that last
      // forwarded it died before its outbound frame drained (a clogged
      // retransmit window can hold a forwarded message for several rto
      // periods), or the receiver itself died with its machine.
      if (MachineDead(st.origin) || MachineDead(st.last_dest) ||
          MachineDead(st.last_hop) || dead_pids_.count(st.receiver) != 0) {
        continue;
      }
      AddViolation("exactly-once", "msg " + Hex(trace_id) + " type " + std::to_string(st.type) +
                                       " " + st.sender.ToString() + "->" +
                                       st.receiver.ToString() + " never consumed (" +
                                       std::to_string(st.bounces) + " bounces): lost");
    } else {
      AddViolation("exactly-once", "msg " + Hex(trace_id) + " type " + std::to_string(st.type) +
                                       " " + st.sender.ToString() + "->" +
                                       st.receiver.ToString() + " consumed " +
                                       std::to_string(st.delivers) + " times: duplicated");
    }
    SuspectMessage(trace_id);
    SuspectProcess(st.receiver);
  }
}

void ClusterChecker::CheckOwnership() {
  for (const ProcessId& pid : expected_live_) {
    std::vector<MachineId> hosts;
    for (int m = 0; m < cluster_.size(); ++m) {
      const MachineId mid = static_cast<MachineId>(m);
      if (MachineDead(mid)) {
        continue;  // a corpse's table is not ownership
      }
      if (cluster_.kernel(mid).FindProcess(pid) != nullptr) {
        hosts.push_back(mid);
      }
    }
    if (hosts.empty()) {
      if (dead_pids_.count(pid) != 0) {
        continue;  // died with its machine -- legitimately gone
      }
      AddViolation("single-owner", pid.ToString() + " has no live record on any kernel: lost");
      SuspectProcess(pid);
    } else if (hosts.size() > 1) {
      std::string detail = pid.ToString() + " live on machines";
      for (MachineId m : hosts) {
        detail += " m" + std::to_string(m);
      }
      AddViolation("single-owner", detail);
      SuspectProcess(pid);
    }
  }
}

// I8: no live kernel may still be mid-migration at quiescence.  With the
// per-phase watchdogs armed, a silent partner must resolve to rollback
// (source), reap, or adopt (destination); a half-open entry or a process
// frozen in kInMigration means some failure path never fired.
void ClusterChecker::CheckLiveness() {
  for (int m = 0; m < cluster_.size(); ++m) {
    const MachineId mid = static_cast<MachineId>(m);
    if (MachineDead(mid)) {
      continue;
    }
    Kernel& kernel = cluster_.kernel(mid);
    if (kernel.HasMigrationInProgress()) {
      AddViolation("liveness",
                   MachineName(m) + " still has migration state at quiescence");
    }
    for (const auto& [pid, entry] : kernel.process_table().entries()) {
      if (!entry.IsForwarding() && entry.process->state == ExecState::kInMigration) {
        AddViolation("liveness", pid.ToString() + " stuck in kInMigration on m" +
                                     std::to_string(m) + " at quiescence");
        SuspectProcess(pid);
      }
    }
  }
  for (const auto& [pid, active] : active_migrations_) {
    if (MachineDead(active.source) || MachineDead(active.dest)) {
      continue;  // the partner died; the surviving end is audited above
    }
    AddViolation("liveness", "migration of " + pid.ToString() + " (m" +
                                 std::to_string(active.source) + "->m" +
                                 std::to_string(active.dest) +
                                 ") never restarted or aborted");
    SuspectProcess(pid);
  }
}

void ClusterChecker::CheckForwardingChains() {
  const KernelConfig& kc = cluster_.kernel(0).config();
  // Epoch reclamation removes addresses, so chain completeness only holds
  // where no reclaim actually happened.  Requiring evidence (kFwdReclaimed >
  // 0) keeps the check sharp in runs where the sweeper never fired.
  const bool expiry_legal =
      kc.forwarding_reclaim_enabled && cluster_.TotalStat(stat::kFwdReclaimed) > 0;
  const int n = cluster_.size();

  // Walk from (machine, pid): returns the live host reached, or kNoMachine.
  // `cycle` is set when the walk exceeds every possible chain length;
  // `hit_dead` when the chain routes into a permanently dead machine (the
  // chain is then broken by the crash, not by a protocol bug).
  auto walk = [&](MachineId start_next, const ProcessId& pid, bool& cycle,
                  bool& hit_dead) -> MachineId {
    cycle = false;
    hit_dead = false;
    MachineId cur = start_next;
    for (int hops = 0; hops <= n; ++hops) {
      if (cur == kNoMachine || cur >= n) {
        return kNoMachine;
      }
      if (MachineDead(cur)) {
        hit_dead = true;
        return kNoMachine;
      }
      const ProcessTable::Entry* entry = cluster_.kernel(cur).process_table().FindEntry(pid);
      if (entry == nullptr) {
        return kNoMachine;
      }
      if (!entry->IsForwarding()) {
        return cur;
      }
      cur = entry->forward_to;
    }
    cycle = true;
    return kNoMachine;
  };

  for (int m = 0; m < n; ++m) {
    if (MachineDead(static_cast<MachineId>(m))) {
      continue;
    }
    for (const auto& [pid, entry] : cluster_.kernel(static_cast<MachineId>(m)).process_table().entries()) {
      if (!entry.IsForwarding()) {
        continue;
      }
      bool cycle = false;
      bool hit_dead = false;
      const MachineId host = walk(entry.forward_to, pid, cycle, hit_dead);
      if (cycle) {
        AddViolation("forwarding-chain", "forwarding chain for " + pid.ToString() + " from m" +
                                             std::to_string(m) + " cycles");
        SuspectProcess(pid);
      } else if (host == kNoMachine && !expiry_legal && !hit_dead &&
                 dead_pids_.count(pid) == 0) {
        AddViolation("forwarding-chain", "forwarding chain for " + pid.ToString() + " from m" +
                                             std::to_string(m) +
                                             " dead-ends without reaching a live record");
        SuspectProcess(pid);
      }
    }
  }

  // Completeness: while a process lives, every past host must still chain to
  // it ("forwarding addresses present until chains drain").  Expiry and
  // return-to-sender legitimately remove addresses.
  if (kc.delivery_mode == KernelConfig::DeliveryMode::kForwarding && !expiry_legal) {
    for (const ProcessId& pid : expected_live_) {
      ProcessRecord* record = cluster_.FindProcessAnywhere(pid);
      if (record == nullptr) {
        continue;  // reported by CheckOwnership
      }
      const MachineId host = cluster_.HostOf(pid);
      if (host != kNoMachine && MachineDead(host)) {
        continue;  // the live record is a corpse's; completeness is moot
      }
      // Crash-touched history is exempt: a past host that died takes its
      // forwarding address to the grave, and every hop beyond it is
      // unreachable anyway.
      bool history_touches_dead = false;
      for (const MachineId past : record->migration_history) {
        if (past < n && MachineDead(past)) {
          history_touches_dead = true;
          break;
        }
      }
      if (history_touches_dead) {
        continue;
      }
      for (const MachineId past : record->migration_history) {
        if (past == host || past >= n) {
          continue;
        }
        bool cycle = false;
        bool hit_dead = false;
        const MachineId reached = walk(past, pid, cycle, hit_dead);
        if (reached != host && !hit_dead) {
          AddViolation("forwarding-chain",
                       "past host m" + std::to_string(past) + " of " + pid.ToString() +
                           (cycle ? " cycles" : " no longer chains to the live record on m" +
                                                    std::to_string(host)));
          SuspectProcess(pid);
        }
      }
    }
  }
}

// I9: with collapse machinery on, no resting chain between live machines may
// exceed max_chain_hops once the cluster settles.  Collapse-on-traversal
// shortens chains that carry traffic and the per-migration rolling window
// bounds idle ones, so a longer chain at quiescence means a collapse was
// computed and then lost or mis-applied.
void ClusterChecker::CheckChainBound() {
  const KernelConfig& kc = cluster_.kernel(0).config();
  if (kc.delivery_mode != KernelConfig::DeliveryMode::kForwarding || kc.max_chain_hops <= 0 ||
      !kc.link_update_enabled) {
    return;  // collapse disabled: chains grow one hop per migration, as in the paper
  }
  const int n = cluster_.size();
  for (int m = 0; m < n; ++m) {
    const MachineId mid = static_cast<MachineId>(m);
    if (MachineDead(mid)) {
      continue;
    }
    for (const auto& [pid, entry] : cluster_.kernel(mid).process_table().entries()) {
      if (!entry.IsForwarding() || dead_pids_.count(pid) != 0) {
        continue;
      }
      int hops = 1;
      MachineId cur = entry.forward_to;
      bool broken = false;
      while (hops <= n) {
        if (cur == kNoMachine || cur >= n || MachineDead(cur)) {
          broken = true;  // crash or legal GC broke the chain; no bound applies
          break;
        }
        const ProcessTable::Entry* next = cluster_.kernel(cur).process_table().FindEntry(pid);
        if (next == nullptr) {
          broken = true;
          break;
        }
        if (!next->IsForwarding()) {
          break;  // reached the live record in `hops` hops
        }
        cur = next->forward_to;
        ++hops;
      }
      if (broken || hops > n) {
        continue;  // dead-ends and cycles are I5's problem
      }
      if (hops > kc.max_chain_hops) {
        AddViolation("chain-bound",
                     "forwarding chain for " + pid.ToString() + " from m" + std::to_string(m) +
                         " is " + std::to_string(hops) + " hops at quiescence (bound " +
                         std::to_string(kc.max_chain_hops) + ")");
        SuspectProcess(pid);
      }
    }
  }
}

// I10: the forwarding-GC bookkeeping itself.  Three ways to drift: a record
// the sweeper cannot see (leaks forever), bookkeeping without a record (the
// fwd_records_live gauge drifts), and an eligible record a later sweep
// skipped (reclamation stalled).
void ClusterChecker::CheckReclaimMeta() {
  const KernelConfig& kc = cluster_.kernel(0).config();
  if (!kc.forwarding_reclaim_enabled) {
    return;
  }
  for (int m = 0; m < cluster_.size(); ++m) {
    const MachineId mid = static_cast<MachineId>(m);
    if (MachineDead(mid)) {
      continue;
    }
    Kernel& kernel = cluster_.kernel(mid);
    const auto& meta_map = kernel.forwarding_meta();
    const SimTime last_sweep = kernel.last_forwarding_sweep();
    for (const auto& [pid, entry] : kernel.process_table().entries()) {
      if (!entry.IsForwarding()) {
        continue;
      }
      auto it = meta_map.find(pid);
      if (it == meta_map.end()) {
        AddViolation("reclaim-meta", "forwarding record for " + pid.ToString() + " on m" +
                                         std::to_string(m) +
                                         " has no GC bookkeeping: invisible to reclamation");
        SuspectProcess(pid);
        continue;
      }
      const Kernel::ForwardingMeta& meta = it->second;
      // Earliest virtual time the sweeper was obliged to reclaim the record:
      // grace after the peer set drained, or the epoch watermark, whichever
      // came first.  A sweep strictly after that is a skipped reclamation.
      SimTime eligible = meta.installed_at + kc.reclaim_watermark_us;
      if (meta.peers.empty()) {
        const SimTime drained = std::max(meta.installed_at, meta.peers_emptied_at);
        eligible = std::min(eligible, drained + kc.reclaim_grace_us);
      }
      if (last_sweep > eligible) {
        AddViolation("reclaim-meta",
                     "forwarding record for " + pid.ToString() + " on m" + std::to_string(m) +
                         " was reclaim-eligible at t=" + std::to_string(eligible) +
                         " but survived a sweep at t=" + std::to_string(last_sweep));
        SuspectProcess(pid);
      }
    }
    for (const auto& [pid, meta] : meta_map) {
      const ProcessTable::Entry* entry = kernel.process_table().FindEntry(pid);
      if (entry == nullptr || !entry->IsForwarding()) {
        AddViolation("reclaim-meta", "GC bookkeeping for " + pid.ToString() + " on m" +
                                         std::to_string(m) +
                                         " has no forwarding record: fwd_records_live drifts");
        SuspectProcess(pid);
      }
    }
  }
}

void ClusterChecker::CheckMemoryAccounting() {
  for (int m = 0; m < cluster_.size(); ++m) {
    if (MachineDead(static_cast<MachineId>(m))) {
      continue;  // crashed mid-operation; its counter is whatever it was
    }
    Kernel& kernel = cluster_.kernel(static_cast<MachineId>(m));
    std::uint64_t live_bytes = 0;
    for (const auto& [pid, entry] : kernel.process_table().entries()) {
      if (!entry.IsForwarding()) {
        live_bytes += entry.process->memory.TotalSize();
      }
    }
    if (live_bytes != kernel.memory_used()) {
      AddViolation("memory-accounting",
                   MachineName(m) + " accounts " + std::to_string(kernel.memory_used()) +
                       " bytes but hosts " + std::to_string(live_bytes) + " bytes of processes");
    }
  }
}

std::vector<Violation> ClusterChecker::CheckAtQuiescence() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!audited_) {
    audited_ = true;
    CollectDeadPids();
    if (config_.check_exactly_once) {
      CheckExactlyOnce();
    }
    if (config_.check_single_owner) {
      CheckOwnership();
    }
    if (config_.check_liveness) {
      CheckLiveness();
    }
    if (config_.check_forwarding_chains) {
      CheckForwardingChains();
    }
    if (config_.check_chain_bound) {
      CheckChainBound();
    }
    if (config_.check_reclaim_meta) {
      CheckReclaimMeta();
    }
    if (config_.check_memory_accounting) {
      CheckMemoryAccounting();
    }
    std::sort(violations_.begin(), violations_.end(), [](const Violation& a, const Violation& b) {
      if (a.invariant != b.invariant) {
        return a.invariant < b.invariant;
      }
      return a.detail < b.detail;
    });
    // Trimmed traces keep a message by its trace id alone, so a suspect
    // process brings along every tracked message addressed to it.
    const std::unordered_set<ProcessId, ProcessIdHash> pids(suspect_pids_.begin(),
                                                            suspect_pids_.end());
    for (const auto& [trace_id, st] : tracked_) {
      if (pids.count(st.receiver) != 0) {
        suspect_ids_.push_back(trace_id);
      }
    }
    std::sort(suspect_ids_.begin(), suspect_ids_.end());
    suspect_ids_.erase(std::unique(suspect_ids_.begin(), suspect_ids_.end()), suspect_ids_.end());
    std::sort(suspect_pids_.begin(), suspect_pids_.end());
    suspect_pids_.erase(std::unique(suspect_pids_.begin(), suspect_pids_.end()),
                        suspect_pids_.end());
  }
  return violations_;
}

}  // namespace demos
