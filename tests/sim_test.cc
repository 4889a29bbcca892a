// Unit tests for the discrete-event engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "src/base/small_fn.h"
#include "src/sim/event_queue.h"

namespace demos {
namespace {

TEST(EventQueueTest, StartsAtZero) {
  EventQueue q;
  EXPECT_EQ(q.Now(), 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.At(30, [&] { order.push_back(3); });
  q.At(10, [&] { order.push_back(1); });
  q.At(20, [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30u);
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.At(5, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueueTest, AfterIsRelative) {
  EventQueue q;
  SimTime fired_at = 0;
  q.At(100, [&] {
    q.After(50, [&] { fired_at = q.Now(); });
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueueTest, PastTimesClampToNow) {
  EventQueue q;
  bool ran = false;
  q.At(100, [&] {
    q.At(10, [&] { ran = true; });  // in the past; runs at now
  });
  q.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.Now(), 100u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.At(10, [&] { ++count; });
  q.At(20, [&] { ++count; });
  q.At(30, [&] { ++count; });
  q.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.Now(), 20u);
  q.RunUntilIdle();
  EXPECT_EQ(count, 3);
}

TEST(EventQueueTest, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.RunUntil(500);
  EXPECT_EQ(q.Now(), 500u);
}

TEST(EventQueueTest, RunForIsRelative) {
  EventQueue q;
  q.RunFor(100);
  q.RunFor(100);
  EXPECT_EQ(q.Now(), 200u);
}

TEST(EventQueueTest, MaxEventsBoundsRunaway) {
  EventQueue q;
  std::size_t fired = 0;
  std::function<void()> loop = [&] {
    ++fired;
    q.After(1, loop);
  };
  q.After(1, loop);
  const std::size_t executed = q.RunUntilIdle(1000);
  EXPECT_EQ(executed, 1000u);
  EXPECT_EQ(fired, 1000u);
  EXPECT_FALSE(q.Empty());
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.Step());
  q.At(1, [] {});
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
}

TEST(EventQueueTest, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  q.At(1, [&] {
    q.At(2, [&] {
      q.At(3, [&] { depth = 3; });
    });
  });
  q.RunUntilIdle();
  EXPECT_EQ(depth, 3);
}

namespace {
struct CopyProbe {
  CopyProbe() = default;
  CopyProbe(const CopyProbe& other) : copies(other.copies) { ++*copies; }
  CopyProbe& operator=(const CopyProbe& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  CopyProbe(CopyProbe&&) = default;
  CopyProbe& operator=(CopyProbe&&) = default;
  int* copies = nullptr;
};
}  // namespace

// Dispatch must move the callback out of the heap, never copy it: a copy per
// event would re-copy every captured payload on the hot path.
TEST(SmallFnTest, InlineCapturesAvoidTheHeapAndMoveCleanly) {
  // The event queue's Callback is SmallFn<56>: captures up to 56 bytes live
  // inline in its callback slab slot.  Prove the inline path runs, moves, and
  // destroys exactly one live copy of its capture.
  struct LifeProbe {
    int* alive;
    explicit LifeProbe(int* a) : alive(a) { ++*alive; }
    LifeProbe(LifeProbe&& o) noexcept : alive(o.alive) { ++*alive; }
    LifeProbe(const LifeProbe&) = delete;
    ~LifeProbe() { --*alive; }
  };
  static_assert(sizeof(LifeProbe) <= 56, "must take the inline path");

  int alive = 0;
  int runs = 0;
  {
    SmallFn<56> fn([probe = LifeProbe(&alive), &runs] { ++runs; });
    EXPECT_EQ(alive, 1) << "exactly the inline copy lives";
    SmallFn<56> moved = std::move(fn);
    EXPECT_EQ(alive, 1) << "move transfers, never duplicates";
    EXPECT_FALSE(static_cast<bool>(fn)) << "moved-from fn is empty";
    moved();
    moved();
    EXPECT_EQ(runs, 2);
  }
  EXPECT_EQ(alive, 0) << "capture destroyed with the SmallFn";
}

TEST(SmallFnTest, OversizedCapturesFallBackToTheHeapTransparently) {
  struct Big {
    unsigned char padding[128];  // > 56 bytes: forced onto the heap path
    int* runs;
  };
  int runs = 0;
  Big big{};
  big.runs = &runs;
  SmallFn<56> fn([big] { ++*big.runs; });
  SmallFn<56> moved = std::move(fn);
  moved();
  EXPECT_EQ(runs, 1);

  // Move-assignment over a live callable destroys the old one first.
  moved = SmallFn<56>([&runs] { runs += 10; });
  moved();
  EXPECT_EQ(runs, 11);
}

TEST(EventQueueTest, MoveOnlyCapturesSchedule) {
  // std::function rejected move-only captures outright; the point of SmallFn
  // as EventQueue::Callback is that an event can own its payload.
  EventQueue q;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  q.At(5, [owned = std::move(payload), &seen] { seen = *owned + 1; });
  q.RunUntilIdle();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueueTest, StepMovesCallbacksWithoutCopying) {
  EventQueue q;
  int copies = 0;
  int runs = 0;
  for (int i = 0; i < 16; ++i) {
    CopyProbe probe;
    probe.copies = &copies;
    q.At(static_cast<SimTime>(i), [probe, &runs] { ++runs; });
  }
  const int after_scheduling = copies;
  q.RunUntilIdle();
  EXPECT_EQ(runs, 16);
  EXPECT_EQ(copies, after_scheduling) << "Step() copied a callback";
}

// The callable itself counts its moves and copies, so every time the queue
// relocates a callback -- into the slab, out of it, or through a heap sift --
// shows up in `counts`.
struct CallbackCounts {
  int moves = 0;
  int copies = 0;
};

struct CountingCallback {
  CountingCallback(CallbackCounts* c, int* r) : counts(c), runs(r) {}
  CountingCallback(const CountingCallback& other) : counts(other.counts), runs(other.runs) {
    ++counts->copies;
  }
  CountingCallback(CountingCallback&& other) noexcept : counts(other.counts), runs(other.runs) {
    ++counts->moves;
  }
  CountingCallback& operator=(const CountingCallback&) = delete;
  CountingCallback& operator=(CountingCallback&&) = delete;
  void operator()() const { ++*runs; }
  CallbackCounts* counts;
  int* runs;
};

// Keeps about `depth` events pending at mixed offsets, then measures callback
// moves over `rounds` steady-state At+Step pairs.  Each round's callback is
// built before the snapshot, so only the queue's own relocations are counted.
CallbackCounts SteadyStateRelocations(int depth, int rounds) {
  EventQueue q;
  CallbackCounts counts;
  int runs = 0;
  for (int i = 0; i < depth; ++i) {
    q.At(static_cast<SimTime>((i * 7) % 64), CountingCallback(&counts, &runs));
  }
  EXPECT_TRUE(q.Step());  // warm-up: leaves one free slab slot to recycle
  CallbackCounts measured;
  for (int i = 0; i < rounds; ++i) {
    EventQueue::Callback next(CountingCallback(&counts, &runs));
    const CallbackCounts before = counts;
    q.After(static_cast<SimDuration>((i * 7) % 64), std::move(next));
    EXPECT_TRUE(q.Step());
    measured.moves += counts.moves - before.moves;
    measured.copies += counts.copies - before.copies;
  }
  EXPECT_EQ(q.PendingEvents(), static_cast<std::size_t>(depth - 1));
  return measured;
}

TEST(EventQueueTest, CallbackMovesPerEventDoNotGrowWithQueueDepth) {
  constexpr int kRounds = 256;
  const CallbackCounts shallow = SteadyStateRelocations(16, kRounds);
  const CallbackCounts deep = SteadyStateRelocations(1024, kRounds);
  // One move into a free slab slot, one out of it; heap sifts move only keys.
  EXPECT_LE(shallow.moves, 2 * kRounds);
  EXPECT_EQ(deep.moves, shallow.moves);
  EXPECT_EQ(shallow.copies, 0);
  EXPECT_EQ(deep.copies, 0);
}

TEST(EventQueueTest, CallbackSchedulingThousandsWhileTheSlabRegrows) {
  // The running callback schedules far more events than the slab holds, so
  // the slab reallocates under it.  Its own captures must stay intact, and
  // every new event must still run in (when, seq) order.
  EventQueue q;
  constexpr int kFanOut = 2000;
  std::vector<std::pair<SimTime, int>> order;
  int tag_after_fan_out = 0;
  auto captured = std::make_unique<int>(7);
  q.At(1, [&q, &order, &tag_after_fan_out, tag = std::move(captured)] {
    for (int i = 0; i < kFanOut; ++i) {
      q.After(static_cast<SimDuration>(1 + (i * 7) % 64),
              [&q, &order, i] { order.emplace_back(q.Now(), i); });
    }
    tag_after_fan_out = *tag;
  });
  q.RunUntilIdle();
  ASSERT_EQ(tag_after_fan_out, 7);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFanOut));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  for (const auto& [when, i] : order) {
    EXPECT_EQ(when, static_cast<SimTime>(2 + (i * 7) % 64));
  }
}

TEST(EventQueueTest, SameTimeFifoHoldsAcrossSlotReuse) {
  // Each round frees a low slab slot (the early event) and then schedules a
  // newer event at the shared time, which lands in that recycled slot.  Slot
  // numbers run against age, so ordering by slot would run newest first.
  EventQueue q;
  std::vector<int> order;
  constexpr SimTime kShared = 100;
  constexpr int kRounds = 8;
  for (int i = 0; i < kRounds; ++i) {
    q.At(static_cast<SimTime>(i), [] {});
  }
  for (int i = 0; i < kRounds; ++i) {
    q.At(kShared, [&order, i] { order.push_back(i); });
  }
  for (int i = kRounds; i < 2 * kRounds; ++i) {
    ASSERT_TRUE(q.Step());
    q.At(kShared, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  std::vector<int> want(2 * kRounds);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
  EXPECT_EQ(q.Now(), kShared);
}

}  // namespace
}  // namespace demos
