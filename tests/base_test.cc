// Unit tests for src/base: ids, status, bytes, rng, stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"

namespace demos {
namespace {

TEST(IdsTest, ProcessIdEqualityAndOrdering) {
  ProcessId a{1, 10};
  ProcessId b{1, 10};
  ProcessId c{1, 11};
  ProcessId d{2, 10};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_LT(a, d);
}

TEST(IdsTest, InvalidProcessId) {
  ProcessId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE((ProcessId{3, 7}).valid());
  EXPECT_EQ(kNoProcess, ProcessId{});
}

TEST(IdsTest, AddressToString) {
  ProcessAddress addr{5, {2, 42}};
  EXPECT_EQ(addr.ToString(), "p2.42@m5");
}

TEST(IdsTest, HashDistinguishesIds) {
  ProcessIdHash hash;
  EXPECT_NE(hash(ProcessId{1, 2}), hash(ProcessId{2, 1}));
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("nope");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: nope");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kInvalidArgument,
                          StatusCode::kPermissionDenied, StatusCode::kUnavailable,
                          StatusCode::kRefused, StatusCode::kExhausted,
                          StatusCode::kNotDeliverable, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(InvalidArgumentError("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BytesTest, RoundTripScalars) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-12345);
  Bytes buf = w.Take();
  EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8 + 8);

  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -12345);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, RoundTripBlobAndString) {
  ByteWriter w;
  w.Blob({1, 2, 3});
  w.Str("hello");
  Bytes buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.Blob(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.ok());
}

TEST(BytesTest, AddressIsEightBytes) {
  // Sec. 4: a forwarding address (one process address) uses 8 bytes.
  ByteWriter w;
  w.Address(ProcessAddress{3, {1, 99}});
  EXPECT_EQ(w.size(), 8u);
  ByteReader r(w.bytes());
  ProcessAddress a = r.Address();
  EXPECT_EQ(a.last_known_machine, 3);
  EXPECT_EQ(a.pid, (ProcessId{1, 99}));
}

TEST(BytesTest, OverrunIsDetected) {
  Bytes small{1, 2};
  ByteReader r(small);
  (void)r.U32();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, OverrunBlobReturnsEmpty) {
  ByteWriter w;
  w.U32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.Blob().empty());
  EXPECT_FALSE(r.ok());
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
    const std::uint64_t v = rng.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng forked = a.Fork();
  EXPECT_NE(a.Next(), forked.Next());
}

TEST(StatsTest, CountersAccumulate) {
  StatsRegistry stats;
  stats.Add(StatId::kMsgsSent);
  stats.Add(StatId::kMsgsSent, 4);
  stats.Add(StatId::kFwdRecordsLive, 2);
  stats.Add(StatId::kFwdRecordsLive, -1);  // level-style counters go down too
  EXPECT_EQ(stats.Get(StatId::kMsgsSent), 5);
  EXPECT_EQ(stats.Get(stat::kMsgsSent), 5);
  EXPECT_EQ(stats.Get(StatId::kFwdRecordsLive), 1);
  EXPECT_EQ(stats.Get(StatId::kMsgsDelivered), 0);
}

TEST(StatsTest, EveryCatalogEntryHasAUniqueNameThatReadsItsSlot) {
  std::set<std::string> names;
  StatsRegistry stats;
  for (int i = 0; i < kNumStatIds; ++i) {
    const auto id = static_cast<StatId>(i);
    EXPECT_TRUE(names.insert(StatName(id)).second) << StatName(id);
    stats.Add(id, i + 1);
  }
  for (int i = 0; i < kNumStatIds; ++i) {
    const auto id = static_cast<StatId>(i);
    EXPECT_EQ(stats.Get(StatName(id)), stats.Get(id)) << StatName(id);
    EXPECT_EQ(stats.Get(id), i + 1) << StatName(id);
  }
  for (int i = 0; i < kNumHistIds; ++i) {
    const char* name = HistName(static_cast<HistId>(i));
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

// A typo in a counter name used to read as a silent 0.
TEST(StatsDeathTest, UnknownNameAborts) {
  StatsRegistry stats;
  EXPECT_DEATH((void)stats.Get("msgs_snet"), "unknown stat name 'msgs_snet'");
}

TEST(StatsTest, HistogramKeepsExactSummaryAndBucketedP99) {
  StatsRegistry stats;
  std::vector<std::uint64_t> values;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    values.push_back(3 + rng.Below(5000));
  }
  std::uint64_t sum = 0;
  for (const std::uint64_t v : values) {
    stats.Observe(HistId::kTransferUs, v);
    sum += v;
  }
  const HistogramSnapshot h = stats.Histogram(HistId::kTransferUs);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.count, values.size());
  EXPECT_EQ(h.sum, sum);
  EXPECT_EQ(h.min, values.front());
  EXPECT_EQ(h.max, values.back());
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(sum) / 1000.0);
  // Nearest-rank p99 of the exact samples shares a bucket with the bound.
  const std::uint64_t exact_p99 = values[static_cast<std::size_t>(0.99 * 999)];
  EXPECT_EQ(HistogramBucketOf(h.QuantileBound(0.99)), HistogramBucketOf(exact_p99));
  // An untouched histogram reads as all zeros.
  const HistogramSnapshot empty = stats.Histogram(HistId::kForwardHops);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.min, 0u);
  EXPECT_EQ(empty.max, 0u);
}

TEST(StatsTest, MergeCombines) {
  StatsRegistry a;
  StatsRegistry b;
  a.Add(StatId::kMsgsSent, 2);
  b.Add(StatId::kMsgsSent, 3);
  a.Observe(HistId::kForwardHops, 4);
  b.Observe(HistId::kForwardHops, 1);
  b.Observe(HistId::kForwardHops, 9);
  a.Merge(b);
  EXPECT_EQ(a.Get(StatId::kMsgsSent), 5);
  const HistogramSnapshot h = a.Histogram(HistId::kForwardHops);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 14u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 9u);
}

TEST(StatsTest, CopyTakesSnapshot) {
  StatsRegistry a;
  a.Add(StatId::kMsgsSent, 7);
  a.Observe(HistId::kForwardHops, 1);
  StatsRegistry b = a;
  a.Add(StatId::kMsgsSent, 1);
  a.Observe(HistId::kForwardHops, 5);
  EXPECT_EQ(b.Get(StatId::kMsgsSent), 7);
  EXPECT_EQ(b.Histogram(HistId::kForwardHops).count, 1u);
  // Assignment replaces, not adds.
  b = a;
  EXPECT_EQ(b.Get(StatId::kMsgsSent), 8);
  EXPECT_EQ(b.Histogram(HistId::kForwardHops).count, 2u);
  EXPECT_EQ(b.Histogram(HistId::kForwardHops).max, 5u);
}

// The parallel engine increments counters from every shard thread (and the
// coordinator merges them); hammer one registry from many threads and check
// nothing tears or is lost.
TEST(StatsTest, ConcurrentIncrementsDoNotTear) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  StatsRegistry stats;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      const auto own = static_cast<StatId>(1 + t);
      for (int i = 0; i < kPerThread; ++i) {
        stats.Add(StatId::kMsgsSent);
        stats.Add(own);
        if (i % 64 == 0) {
          stats.Observe(HistId::kForwardHops, static_cast<std::uint64_t>(i));
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(stats.Get(StatId::kMsgsSent), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(stats.Get(static_cast<StatId>(1 + t)), kPerThread);
  }
  const HistogramSnapshot h = stats.Histogram(HistId::kForwardHops);
  EXPECT_EQ(h.count, static_cast<std::uint64_t>(kThreads) * ((kPerThread + 63) / 64));
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, static_cast<std::uint64_t>((kPerThread - 1) / 64 * 64));
}

TEST(PayloadCountersTest, ConcurrentCountsDoNotTear) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  PayloadCounters::Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        PayloadCounters::CountAllocation();
        PayloadCounters::CountCopied(3);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(PayloadCounters::allocations.load(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(PayloadCounters::copied_bytes.load(),
            static_cast<std::uint64_t>(kThreads) * kPerThread * 3);
  PayloadCounters::Reset();
}

}  // namespace
}  // namespace demos
