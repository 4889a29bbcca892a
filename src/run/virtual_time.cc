#include "src/run/virtual_time.h"

#include <algorithm>

namespace demos {

LbtsState::LbtsState(int shards) : slots_(static_cast<std::size_t>(shards)) {
  for (auto& slot : slots_) {
    slot = std::make_unique<Slot>();
  }
}

void LbtsState::View(ShardView* view) const {
  view->any_busy = false;
  view->all_done = true;
  view->any_tight = false;
  const std::uint64_t current = epoch();
  view->floors.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = *slots_[i];
    view->any_busy = slot.busy.load(std::memory_order_seq_cst) || view->any_busy;
    view->all_done = slot.done_epoch.load(std::memory_order_seq_cst) == current && view->all_done;
    view->any_tight = slot.tight.load(std::memory_order_seq_cst) || view->any_tight;
    view->floors[i] = slot.floor.load(std::memory_order_seq_cst);
  }
}

SimTime LbtsState::NextBound(const std::vector<SimTime>& floors, SimDuration lookahead,
                             SimDuration wide_span, bool* widened) const {
  *widened = false;
  const SimTime min_floor =
      floors.empty() ? kSimTimeNever : *std::min_element(floors.begin(), floors.end());
  if (min_floor == kSimTimeNever) {
    return kSimTimeNever;  // every queue drained: the cluster is quiescent
  }
  // Defensive: the window must always make progress.
  const SimTime strict = std::max(min_floor + std::max<SimDuration>(lookahead, 1) - 1, bound() + 1);
  if (wide_span == 0) {
    return strict;
  }
  const SimTime next = std::max(strict, min_floor + wide_span - 1);
  *widened = next > strict;
  return next;
}

}  // namespace demos
