// Cluster-wide invariant checker for the paper's transparency claims.
//
// The paper's argument (Secs. 4-5) is that migration is invisible to
// communicating processes under *any* interleaving: messages pending, in
// transit, or sent over stale links are delivered exactly once; forwarding
// addresses stay in place until their chains drain; and lazy link update
// drives the steady-state forward-hop count back to zero.  This class turns
// that prose into machine-checked invariants.  It attaches to every kernel as
// a KernelObserver, records the life of every user message and migration, and
// at quiescence audits the cluster:
//
//   I1 exactly-once   every tracked message consumed exactly once -- no loss
//                     (0 deliveries) and no duplication (>1).
//   I2 path-FIFO      messages from the same sender to the same receiver that
//                     traversed the same machine path are consumed in send
//                     order.  (Messages on *different* paths -- e.g. one
//                     raced through a forwarding chain while a later one went
//                     direct after link update -- carry no ordering promise.)
//   I3 held-order     messages frozen in a migrating process's pending queue
//                     are consumed at the destination in their frozen order
//                     (the step-6 re-send preserves the queue).
//   I4 single-owner   no process has live records on two kernels; every
//                     expected process has exactly one; no migration state or
//                     kInMigration record lingers.
//   I5 chains         every forwarding address chains, cycle-free, to a live
//                     record; unless the epoch reclaimer has removed a record,
//                     every past host of a live process still chains to it.
//   I6 byte-exact     each MOVE_DATA section arrives with exactly the bytes
//                     frozen at the source, and the restarted process's
//                     memory image re-serializes to the frozen image.
//   I7 accounting     each kernel's memory_used() equals the sum of its live
//                     processes' memory.
//   I8 liveness       no live kernel holds migration state -- a half-open
//                     source/dest entry or a kInMigration record -- once the
//                     cluster quiesces.  With per-phase migration deadlines
//                     armed, every partner failure must resolve to rollback,
//                     reap, or adopt; a process frozen forever is a liveness
//                     bug even though no message was lost.
//   I9 chain-bound    with chain collapse on (max_chain_hops > 0 and link
//                     updates enabled), no resting forwarding chain between
//                     live machines exceeds max_chain_hops at quiescence.
//                     Chains broken by a dead machine or by legal GC carry no
//                     bound (the collapse traffic died with the crash).
//   I10 reclaim-meta  forwarding-GC bookkeeping discipline: every live
//                     forwarding record has a peer-set entry (a record the
//                     sweeper cannot see is a leak), no bookkeeping outlives
//                     its record (the fwd_records_live gauge would drift),
//                     and no record whose peer set drained survives a sweep
//                     that ran after its grace window closed.
//
// Machines that crash permanently and never revive are declared with
// MarkMachineDead() before the audit.  Dead machines are exempt from the
// state-based checks (their tables are corpses), processes whose only live
// record sat on a dead machine are legitimately gone, and messages whose
// origin, last known destination machine, or receiver died with a machine
// are exempt from the loss half of exactly-once.  Duplication is never
// excused by a crash.
//
// Link convergence (steady-state forward count returning to 0) needs active
// probing and is asserted by the chaos harness (chaos.h), not here.

#ifndef DEMOS_CHECK_INVARIANTS_H_
#define DEMOS_CHECK_INVARIANTS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/kernel/engine.h"
#include "src/kernel/observer.h"

namespace demos {

struct Violation {
  std::string invariant;  // "exactly-once", "path-fifo", "single-owner", ...
  std::string detail;

  std::string ToString() const { return "[" + invariant + "] " + detail; }
};

struct CheckerConfig {
  bool check_exactly_once = true;
  bool check_path_fifo = true;
  bool check_held_order = true;
  bool check_single_owner = true;
  bool check_forwarding_chains = true;
  bool check_section_integrity = true;
  bool check_memory_accounting = true;
  bool check_liveness = true;
  bool check_chain_bound = true;
  bool check_reclaim_meta = true;
};

// FNV-1a, the hash used for section fingerprints and path signatures.
std::uint64_t HashBytes(const std::uint8_t* data, std::size_t size);

// Attaches to any Engine (sequential Cluster or ParallelCluster).  Under the
// parallel engine the observer callbacks arrive concurrently from every shard
// thread, so all recording is serialized behind one internal mutex -- the
// checker is an audit tool, not a hot path.  The quiescence audit itself must
// still run at true quiescence (after Engine::RunUntilSettled returns
// settled), when the kernel tables are safe to read.
class ClusterChecker : public KernelObserver {
 public:
  explicit ClusterChecker(Engine* engine, CheckerConfig config = {});

  // Declare a process that must be alive (exactly one live record) at
  // quiescence.  The chaos harness registers every spawn.
  void ExpectLive(const ProcessId& pid);

  // Declare a machine permanently dead (crashed, never revived).  Call before
  // CheckAtQuiescence; see the header comment for which exemptions apply.
  void MarkMachineDead(MachineId machine);

  // KernelObserver:
  void OnMessageSend(MachineId machine, const Message& msg) override;
  void OnMessageDeliver(MachineId machine, const Message& msg) override;
  void OnMessageForward(MachineId machine, const Message& msg, MachineId next) override;
  void OnMessageBounce(MachineId machine, const Message& msg) override;
  void OnPendingResend(MachineId machine, const Message& msg) override;
  void OnMigrationFrozen(MachineId source, MachineId dest, const ProcessRecord& record,
                         const PayloadRef& resident, const PayloadRef& swappable,
                         const PayloadRef& image) override;
  void OnMigrationSection(MachineId dest, const ProcessId& pid, MigrationSection section,
                          const Bytes& bytes) override;
  void OnMigrationRestart(MachineId dest, const ProcessId& pid,
                          const ProcessRecord& record) override;
  void OnMigrationAborted(MachineId source, const ProcessId& pid) override;

  // Audit the cluster.  Call only when the event queue has drained; returns
  // every violation, deterministically ordered.  Idempotent.
  std::vector<Violation> CheckAtQuiescence();

  // Correlation ids / pids implicated by recorded violations, for trace
  // trimming (FilterTrace).  The ids include every tracked message addressed
  // to a suspect pid.
  const std::vector<std::uint64_t>& suspect_trace_ids() const { return suspect_ids_; }
  const std::vector<ProcessId>& suspect_pids() const { return suspect_pids_; }

  std::uint64_t tracked_messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tracked_.size();
  }
  std::uint64_t consumed_messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return consumed_;
  }

 private:
  struct MsgState {
    ProcessId sender;
    ProcessId receiver;
    std::uint16_t type = 0;
    std::uint64_t pair_seq = 0;   // send order within (sender, receiver)
    std::uint64_t path_hash = 0;  // machines visited, in order
    std::uint32_t delivers = 0;
    std::uint32_t bounces = 0;
    MachineId origin = kNoMachine;     // machine the send happened on
    MachineId last_dest = kNoMachine;  // last machine the message headed for
    MachineId last_hop = kNoMachine;   // last machine that handled (forwarded) it
  };

  struct PairKey {
    ProcessId sender;
    ProcessId receiver;
    friend bool operator==(const PairKey&, const PairKey&) = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const {
      return ProcessIdHash{}(k.sender) * 0x9E3779B97F4A7C15ull ^ ProcessIdHash{}(k.receiver);
    }
  };

  // One frozen pending queue: the relative consumption order of these trace
  // ids must match their frozen order.
  struct HeldSet {
    ProcessId pid;
    std::unordered_map<std::uint64_t, std::uint64_t> index_of;  // trace id -> frozen pos
    std::uint64_t last_consumed_index = 0;
    bool any_consumed = false;
  };

  struct ActiveMigration {
    MachineId source = kNoMachine;
    MachineId dest = kNoMachine;
    std::uint64_t section_hash[kNumMigrationSections] = {};
    std::uint64_t section_bytes[kNumMigrationSections] = {};
  };

  void AddViolation(const std::string& invariant, const std::string& detail);
  void SuspectMessage(std::uint64_t trace_id);
  void SuspectProcess(const ProcessId& pid);
  bool Tracked(const Message& msg) const;
  void ExtendPath(std::uint64_t trace_id, MachineId machine);

  bool MachineDead(MachineId machine) const { return dead_machines_.count(machine) != 0; }
  // Processes whose only live record is on a dead machine: they died with it.
  void CollectDeadPids();

  void CheckExactlyOnce();
  void CheckOwnership();
  void CheckLiveness();
  void CheckForwardingChains();
  void CheckChainBound();
  void CheckReclaimMeta();
  void CheckMemoryAccounting();

  Engine& cluster_;
  CheckerConfig config_;
  // Serializes every callback and the audit; see the class comment.
  mutable std::mutex mu_;

  std::unordered_map<std::uint64_t, MsgState> tracked_;  // by trace id
  std::unordered_map<PairKey, std::uint64_t, PairKeyHash> pair_next_seq_;
  // (pair, path, final machine) group -> last consumed (seq, trace id).
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> group_last_;
  std::vector<HeldSet> held_sets_;
  std::unordered_map<ProcessId, ActiveMigration, ProcessIdHash> active_migrations_;
  std::vector<ProcessId> expected_live_;
  std::unordered_set<MachineId> dead_machines_;
  std::unordered_set<ProcessId, ProcessIdHash> dead_pids_;  // filled at audit
  std::uint64_t consumed_ = 0;

  std::vector<Violation> violations_;
  std::vector<std::uint64_t> suspect_ids_;
  std::vector<ProcessId> suspect_pids_;
  bool audited_ = false;
};

}  // namespace demos

#endif  // DEMOS_CHECK_INVARIANTS_H_
