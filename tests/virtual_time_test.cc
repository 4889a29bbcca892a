// Units for the conservative virtual-time sync layer (src/run/virtual_time.h)
// and the pieces of EventQueue / ShardRouter it builds on: bounded stepping,
// floors, the LBTS bound derivation (strict and wide), the busy/floor publish
// protocol, and timestamped frame draining.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/base/bytes.h"
#include "src/run/shard_router.h"
#include "src/run/virtual_time.h"
#include "src/sim/event_queue.h"

namespace demos {
namespace {

// ---------------------------------------------------------------------------
// EventQueue: bounded advance and floors.
// ---------------------------------------------------------------------------

TEST(VirtualTimeQueueTest, NextEventTimeIsFloorOrNever) {
  EventQueue queue;
  EXPECT_EQ(queue.NextEventTime(), kSimTimeNever);
  queue.At(500, [] {});
  queue.At(100, [] {});
  EXPECT_EQ(queue.NextEventTime(), 100u);
  EXPECT_TRUE(queue.Step());
  EXPECT_EQ(queue.NextEventTime(), 500u);
  EXPECT_TRUE(queue.Step());
  EXPECT_EQ(queue.NextEventTime(), kSimTimeNever);
}

TEST(VirtualTimeQueueTest, StepIfAtMostRespectsBoundWithoutAdvancingClock) {
  EventQueue queue;
  int ran = 0;
  queue.At(100, [&ran] { ++ran; });
  queue.At(200, [&ran] { ++ran; });
  queue.At(300, [&ran] { ++ran; });

  EXPECT_TRUE(queue.StepIfAtMost(250));
  EXPECT_TRUE(queue.StepIfAtMost(250));
  EXPECT_FALSE(queue.StepIfAtMost(250)) << "the 300us event is past the bound";
  EXPECT_EQ(ran, 2);
  // Unlike RunUntil, the clock stays at the last *executed* event, so a later
  // window can still schedule between 200 and the old bound.
  EXPECT_EQ(queue.Now(), 200u);
  queue.At(220, [&ran] { ++ran; });
  EXPECT_TRUE(queue.StepIfAtMost(250));
  EXPECT_EQ(ran, 3);
  EXPECT_FALSE(queue.StepIfAtMost(250));
  EXPECT_TRUE(queue.StepIfAtMost(300));
  EXPECT_EQ(ran, 4);
}

TEST(VirtualTimeQueueTest, PastSchedulesClampToNow) {
  EventQueue queue;
  queue.At(1000, [] {});
  EXPECT_TRUE(queue.Step());
  EXPECT_EQ(queue.Now(), 1000u);
  SimTime observed = 0;
  queue.At(50, [&] { observed = queue.Now(); });  // in the past: clamps
  EXPECT_EQ(queue.NextEventTime(), 1000u);
  EXPECT_TRUE(queue.Step());
  EXPECT_EQ(observed, 1000u);
}

// ---------------------------------------------------------------------------
// LbtsState: bound derivation and the publish protocol.
// ---------------------------------------------------------------------------

TEST(LbtsStateTest, NextBoundIsMinFloorPlusLookaheadMinusOne) {
  LbtsState lbts(3);
  bool widened = true;
  // floors 1000/5000/2000 with a 100us lookahead: bound = 1099.
  EXPECT_EQ(lbts.NextBound({1000, 5000, 2000}, /*lookahead=*/100, /*wide_span=*/0, &widened),
            1099u);
  EXPECT_FALSE(widened) << "a zero wide span is the strict bound";
}

TEST(LbtsStateTest, NextBoundClampsZeroLookaheadToOne) {
  LbtsState lbts(2);
  bool widened = true;
  // A zero lookahead would pin the bound at min_floor - 1 and stall LBTS.
  EXPECT_EQ(lbts.NextBound({400, 900}, /*lookahead=*/0, /*wide_span=*/0, &widened), 400u);
  EXPECT_FALSE(widened);
}

TEST(LbtsStateTest, NextBoundSkipsDrainedShardsAndDetectsQuiescence) {
  LbtsState lbts(3);
  bool widened = true;
  EXPECT_EQ(lbts.NextBound({kSimTimeNever, 400, kSimTimeNever}, 50, 0, &widened), 449u);
  EXPECT_FALSE(widened);
  EXPECT_EQ(lbts.NextBound({kSimTimeNever, 400, kSimTimeNever}, 50, 500, &widened), 899u)
      << "a drained shard does not hold the wide bound back either";
  EXPECT_TRUE(widened);
  EXPECT_EQ(lbts.NextBound({kSimTimeNever, kSimTimeNever, kSimTimeNever}, 50, 0, &widened),
            kSimTimeNever)
      << "every queue drained = cluster quiescent";
  EXPECT_FALSE(widened);
}

TEST(LbtsStateTest, NextBoundAlwaysAdvancesPastCurrentBound) {
  LbtsState lbts(2);
  bool widened = false;
  lbts.OpenWindow(500);
  // Degenerate floors at/below the bound still yield strict progress.
  EXPECT_GT(lbts.NextBound({400, 300}, 1, 0, &widened), 500u);
}

TEST(LbtsStateTest, WindowSequenceNeverRegresses) {
  LbtsState lbts(2);
  bool widened = false;
  SimTime bound = lbts.bound();
  std::vector<SimTime> floors = {100, 130};
  for (int round = 0; round < 20; ++round) {
    const SimTime next = lbts.NextBound(floors, 10, 0, &widened);
    ASSERT_NE(next, kSimTimeNever);
    ASSERT_GT(next, bound) << "LBTS bound regressed at round " << round;
    lbts.OpenWindow(next);
    bound = next;
    floors[0] = next + 1 + static_cast<SimTime>(round % 3);
    floors[1] = next + 5;
  }
  EXPECT_EQ(lbts.epoch(), 20u);
}

TEST(LbtsStateTest, RelaxedBoundNeverBelowTightAndReportsWidening) {
  LbtsState lbts(2);
  const std::vector<SimTime> floors = {1000, 2000};
  bool widened = true;
  ASSERT_EQ(lbts.NextBound(floors, 100, 0, &widened), 1099u);
  EXPECT_FALSE(widened);
  // A wide span measures from the minimum floor.
  EXPECT_EQ(lbts.NextBound(floors, 100, 800, &widened), 1799u);
  EXPECT_TRUE(widened);
  // A wide span below the lookahead never narrows the strict bound.
  EXPECT_EQ(lbts.NextBound(floors, 100, 50, &widened), 1099u);
  EXPECT_FALSE(widened);
}

TEST(LbtsStateTest, RelaxedBoundPreservesQuiescenceSignal) {
  LbtsState lbts(2);
  bool widened = true;
  EXPECT_EQ(lbts.NextBound({kSimTimeNever, kSimTimeNever}, 100, 1'000'000, &widened),
            kSimTimeNever)
      << "a wide span must not turn a quiescent cluster into a live one";
  EXPECT_FALSE(widened);
}

TEST(LbtsStateTest, PublishProtocolVisibleToCoordinatorView) {
  LbtsState lbts(2);
  // Fresh slots are born done for epoch 0; a real window resets the contract.
  lbts.OpenWindow(2000);
  lbts.MarkBusy(0);
  LbtsState::ShardView view;
  lbts.View(&view);
  EXPECT_TRUE(view.any_busy);
  EXPECT_FALSE(view.all_done) << "nobody has published for the new epoch yet";

  lbts.PublishIdle(0, lbts.epoch(), 2100);
  lbts.PublishIdle(1, lbts.epoch(), kSimTimeNever);
  lbts.View(&view);
  EXPECT_FALSE(view.any_busy);
  EXPECT_TRUE(view.all_done);
  ASSERT_EQ(view.floors.size(), 2u);
  EXPECT_EQ(view.floors[0], 2100u);
  EXPECT_EQ(view.floors[1], kSimTimeNever);

  // The next window invalidates the published epochs until shards republish.
  lbts.OpenWindow(3000);
  lbts.View(&view);
  EXPECT_FALSE(view.all_done);
  lbts.PublishIdle(0, lbts.epoch(), 3100);
  lbts.PublishIdle(1, lbts.epoch(), 3200);
  lbts.View(&view);
  EXPECT_TRUE(view.all_done);
}

TEST(LbtsStateTest, ViewSameDetectsFloorChanges) {
  LbtsState lbts(2);
  lbts.PublishIdle(0, 0, 100);
  lbts.PublishIdle(1, 0, 200);
  LbtsState::ShardView a;
  LbtsState::ShardView b;
  lbts.View(&a);
  lbts.View(&b);
  EXPECT_TRUE(a.Same(b));
  // Refilling a view reuses its floor buffer: verification runs on every
  // shard idle edge, so it must not allocate.
  const SimTime* buffer = b.floors.data();
  lbts.PublishIdle(1, 0, 300);  // same epoch, moved floor
  lbts.View(&b);
  EXPECT_EQ(b.floors.data(), buffer);
  EXPECT_FALSE(a.Same(b));
}

TEST(LbtsStateTest, ViewReportsTightConsumersAndSameDetectsTheEdge) {
  LbtsState lbts(2);
  lbts.PublishIdle(0, 0, 100);
  lbts.PublishIdle(1, 0, 200);
  LbtsState::ShardView relaxed;
  lbts.View(&relaxed);
  EXPECT_FALSE(relaxed.any_tight);
  lbts.PublishIdle(1, 0, 200, /*tight=*/true);  // migration offer left shard 1
  LbtsState::ShardView tight;
  lbts.View(&tight);
  EXPECT_TRUE(tight.any_tight);
  EXPECT_FALSE(relaxed.Same(tight)) << "a tight edge must invalidate the snapshot pair";
}

TEST(LbtsStateTest, EverWideLatchesOnFirstWideWindow) {
  LbtsState lbts(2);
  EXPECT_FALSE(lbts.ever_wide());
  lbts.OpenWindow(1000);
  EXPECT_FALSE(lbts.ever_wide()) << "a strictly conservative window must not latch";
  lbts.OpenWindow(2000, /*wide=*/true);
  EXPECT_TRUE(lbts.ever_wide());
  lbts.OpenWindow(3000);
  EXPECT_TRUE(lbts.ever_wide()) << "the latch is sticky for the rest of the run";
}

// ---------------------------------------------------------------------------
// ShardRouter: send timestamps and the timed drain.
// ---------------------------------------------------------------------------

TEST(ShardRouterTimedTest, FramesCarrySenderClockAndDrainTimedHandsThemOver) {
  ShardRouter router(2);
  EventQueue clock0;
  router.SetClock(0, &clock0);
  router.Attach(1, [](MachineId, PayloadRef) { FAIL() << "timed drain must not deliver"; });

  clock0.At(700, [] {});
  ASSERT_TRUE(clock0.Step());  // sender's clock now reads 700

  ByteWriter w;
  w.U32(42);
  router.Send(0, 1, w.Take());

  std::vector<std::pair<MachineId, SimTime>> seen;
  const std::size_t drained =
      router.DrainTimed(1, 16, [&](MachineId src, SimTime send_ts, PayloadRef payload) {
        ByteReader r(payload);
        EXPECT_EQ(r.U32(), 42u);
        seen.emplace_back(src, send_ts);
      });
  EXPECT_EQ(drained, 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 0);
  EXPECT_EQ(seen[0].second, 700u);
  EXPECT_EQ(router.sent(), router.consumed()) << "sink return = frame consumed";
}

TEST(ShardRouterTimedTest, BatchedFramesKeepExactSendTimesAndNeverAdmitThePast) {
  // Safety property behind batching + conservative sync: a batch is published
  // with the EARLIEST staged send_ts as its MailItem timestamp (the value LBTS
  // floor accounting sees), while every frame inside keeps its own exact
  // clock reading.  Earliest-first means the conservative bound derived from
  // the batch head is <= every frame it admits, so no frame can be scheduled
  // into the receiver's past.
  ShardRouterConfig config;
  config.max_batch_frames = 8;
  ShardRouter router(2, config);
  router.SetBatchingEnabled(true);
  EventQueue clock0;
  router.SetClock(0, &clock0);

  clock0.At(700, [] {});
  ASSERT_TRUE(clock0.Step());  // sender's clock reads 700
  router.Send(0, 1, Bytes{1});
  clock0.At(900, [] {});
  ASSERT_TRUE(clock0.Step());  // ...then 900, same drain round, same lane
  router.Send(0, 1, Bytes{2});

  EXPECT_EQ(router.StagedFrames(0), 2u) << "both frames staged in one lane";
  router.Flush(0);  // one publish for the whole lane
  EXPECT_EQ(router.StagedFrames(0), 0u);

  std::vector<SimTime> stamps;
  EXPECT_EQ(router.DrainTimed(1, 16,
                              [&](MachineId src, SimTime send_ts, PayloadRef) {
                                EXPECT_EQ(src, 0);
                                stamps.push_back(send_ts);
                              }),
            2u);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], 700u) << "frame keeps its own send time, not the batch's";
  EXPECT_EQ(stamps[1], 900u);
  // FIFO staging makes the batch head the earliest frame: every frame's exact
  // timestamp is >= the conservative value the batch was admitted under.
  EXPECT_LE(stamps[0], stamps[1]);
  EXPECT_EQ(router.sent(), router.consumed());
}

TEST(ShardRouterTimedTest, UnregisteredSenderStampsZeroAndDeliverRunsHandler) {
  ShardRouter router(2);
  int delivered = 0;
  router.Attach(1, [&](MachineId src, PayloadRef) {
    EXPECT_EQ(src, 0);
    ++delivered;
  });
  router.Send(0, 1, Bytes{1});  // no clock registered: staging-time send
  SimTime stamped = 99;
  EXPECT_EQ(router.DrainTimed(1, 16,
                              [&](MachineId src, SimTime send_ts, PayloadRef payload) {
                                stamped = send_ts;
                                router.Deliver(1, src, std::move(payload));
                              }),
            1u);
  EXPECT_EQ(stamped, 0u);
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace demos
