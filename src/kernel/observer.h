// Kernel observer points: a passive hook interface the invariant checker (and
// any future monitor) attaches to every kernel in a cluster.
//
// The hooks mirror the moments the paper's transparency argument reasons
// about (Secs. 4-5): a message entering the system, being consumed by its
// receiver, crossing a forwarding address, bouncing off an absent receiver,
// and the freeze/stream/restart sequence of a migration.  Observers must not
// mutate kernel state; they only record.
//
// Delivery semantics: OnMessageDeliver fires at *consumption* (the dispatch
// loop popping the message for its handler), not at enqueue.  A message
// enqueued at the source and then frozen into the migrating process's pending
// queue is re-transmitted in step 6 and enqueued again at the destination --
// counting enqueues would report two deliveries for a message the process
// only ever sees once.  Consumption happens exactly once.

#ifndef DEMOS_KERNEL_OBSERVER_H_
#define DEMOS_KERNEL_OBSERVER_H_

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/kernel/data_mover.h"
#include "src/kernel/message.h"
#include "src/kernel/process.h"

namespace demos {

class KernelObserver {
 public:
  virtual ~KernelObserver() = default;

  // A fresh message entering the message system at `machine` (first Transmit;
  // forwards, bounces, and pending re-sends keep their original trace id and
  // do not re-fire this hook).  Requires tracing to be enabled, since trace
  // ids are what make a message identifiable across hops.
  virtual void OnMessageSend(MachineId machine, const Message& msg) {}

  // The message was consumed by its receiver (popped by the dispatch loop at
  // `machine`, kernel control handlers included).  Fires at most once per
  // delivery attempt that reaches a handler.
  virtual void OnMessageDeliver(MachineId machine, const Message& msg) {}

  // The message crossed a forwarding address at `machine`; `next` is the next
  // hop it was re-addressed to.
  virtual void OnMessageForward(MachineId machine, const Message& msg, MachineId next) {}

  // The message arrived at `machine` but no entry (process or forwarding
  // address) was found for its receiver.
  virtual void OnMessageBounce(MachineId machine, const Message& msg) {}

  // A message held in a migrating process's pending queue is being
  // re-transmitted from `machine` (migration step 6).
  virtual void OnPendingResend(MachineId machine, const Message& msg) {}

  // The kernel at `machine` took back a bounced message (a NOT_DELIVERABLE
  // carrying it arrived) to re-route it: the sender-side re-send is one more
  // hop of the message's path.
  virtual void OnBounceResend(MachineId machine, const Message& msg) {}

  // Migration step 1-2 boundary: `record` was frozen at `source` for transfer
  // to `dest`; the three serialized sections are exactly what MOVE_DATA will
  // stream.  `record.queue` is the pending queue as frozen.
  virtual void OnMigrationFrozen(MachineId source, MachineId dest, const ProcessRecord& record,
                                 const PayloadRef& resident, const PayloadRef& swappable,
                                 const PayloadRef& image) {}

  // One migration section fully arrived at the destination (pre-assembly).
  virtual void OnMigrationSection(MachineId dest, const ProcessId& pid, MigrationSection section,
                                  const Bytes& bytes) {}

  // The migrated process was restarted at `dest` (migration step 8 complete
  // from the destination's point of view); `record` is the live record.
  virtual void OnMigrationRestart(MachineId dest, const ProcessId& pid,
                                  const ProcessRecord& record) {}

  // The source abandoned an in-progress migration (reject, timeout, error).
  virtual void OnMigrationAborted(MachineId source, const ProcessId& pid) {}
};

}  // namespace demos

#endif  // DEMOS_KERNEL_OBSERVER_H_
