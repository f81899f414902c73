#include "util/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <regex>
#include <thread>
#include <vector>

namespace cesm::trace {
namespace {

/// Every test starts and ends with a clean, disabled trace state; the
/// subsystem is process-global.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

TEST_F(TraceTest, DisabledByDefaultAndRecordsNothing) {
  EXPECT_FALSE(enabled());
  { Span s("should.not.appear"); }
  const ReportNode root = collect_tree();
  EXPECT_TRUE(root.children.empty());
  EXPECT_EQ(root.stats.count, 0u);
}

TEST_F(TraceTest, RecordsNestedSpansAsATree) {
  set_enabled(true);
  {
    Span outer("outer");
    {
      Span inner("inner");
      Span leaf("leaf");
    }
    { Span inner("inner"); }
  }
  const ReportNode root = collect_tree();
  const ReportNode* outer = root.child("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->stats.count, 1u);
  const ReportNode* inner = outer->child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->stats.count, 2u);  // same label, same position: merged
  const ReportNode* leaf = inner->child("leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->stats.count, 1u);
  // Nesting is positional: "leaf" is NOT a child of "outer".
  EXPECT_EQ(outer->child("leaf"), nullptr);
}

TEST_F(TraceTest, TimingIsMonotoneAndContained) {
  set_enabled(true);
  {
    Span outer("outer");
    Span inner("inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const ReportNode root = collect_tree();
  const ReportNode* outer = root.child("outer");
  ASSERT_NE(outer, nullptr);
  const ReportNode* inner = outer->child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->stats.total_ns, 1'000'000u);          // slept >= 1ms
  EXPECT_GE(outer->stats.total_ns, inner->stats.total_ns);  // child contained
  EXPECT_EQ(outer->stats.max_ns, outer->stats.total_ns);    // single sample
  EXPECT_NEAR(outer->stats.mean_seconds(), outer->stats.total_seconds(), 1e-12);
}

TEST_F(TraceTest, CountersAccumulateAcrossCalls) {
  add(Counter::kCodecBytesOut, 100);
  add(Counter::kCodecBytesOut, 23);
  add(Counter::kCodecEncodeCalls);
  const auto snapshot = counters();
  EXPECT_EQ(snapshot.at("codec.bytes_out"), 123u);
  EXPECT_EQ(snapshot.at("codec.encode_calls"), 1u);
}

TEST_F(TraceTest, CountersCountWhileSpansAreDisabled) {
  ASSERT_FALSE(enabled());
  add(Counter::kCacheHit, 5);
  EXPECT_EQ(counters().at("cache.hit"), 5u);
}

TEST_F(TraceTest, SnapshotHoldsEveryRowOnceWithALayeredName) {
  const auto snapshot = counters();
  // A duplicate name would collapse two rows into one map entry.
  EXPECT_EQ(snapshot.size(), kCounterCount);
  const std::regex layered("[a-z0-9]+\\.[a-z0-9_]+");
  for (const auto& [name, value] : snapshot) {
    EXPECT_TRUE(std::regex_match(name, layered)) << name;
    EXPECT_EQ(value, 0u) << name;
  }
}

TEST_F(TraceTest, ConcurrentAddsSumExactlyWhileSnapshotsRead) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAdds = 20'000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) EXPECT_LE(counters().at("pvt.member_roundtrips"), kThreads * kAdds);
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (std::uint64_t i = 0; i < kAdds; ++i) add(Counter::kPvtMemberRoundtrips);
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(counters().at("pvt.member_roundtrips"), kThreads * kAdds);
}

TEST_F(TraceTest, SpansFromWorkerThreadsMergeByLabel) {
  set_enabled(true);
  { Span s("work"); }
  std::thread t1([] { Span s("work"); });
  std::thread t2([] {
    Span outer("work");
    Span inner("sub");
  });
  t1.join();
  t2.join();
  const ReportNode root = collect_tree();
  const ReportNode* work = root.child("work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->stats.count, 3u);  // one per thread, merged by label
  ASSERT_NE(work->child("sub"), nullptr);
  EXPECT_EQ(work->child("sub")->stats.count, 1u);
}

TEST_F(TraceTest, AggregateByLabelSumsAcrossTreePositions) {
  set_enabled(true);
  {
    Span a("a");
    { Span x("x"); }
  }
  {
    Span b("b");
    { Span x("x"); }
    { Span x("x"); }
  }
  const auto agg = aggregate_by_label();
  ASSERT_TRUE(agg.count("x"));
  EXPECT_EQ(agg.at("x").count, 3u);  // both positions summed
  EXPECT_EQ(agg.at("a").count, 1u);
  EXPECT_EQ(agg.at("b").count, 1u);
}

TEST_F(TraceTest, ResetDropsSpansAndCounters) {
  set_enabled(true);
  { Span s("gone"); }
  add(Counter::kSuiteVariables, 7);
  reset();
  EXPECT_TRUE(collect_tree().children.empty());
  const auto snapshot = counters();
  EXPECT_EQ(snapshot.size(), kCounterCount);  // rows stay, at zero
  EXPECT_EQ(snapshot.at("suite.variables"), 0u);
}

TEST_F(TraceTest, SpanOpenAcrossDisableStillCloses) {
  set_enabled(true);
  {
    Span s("closing");
    set_enabled(false);
  }
  const ReportNode root = collect_tree();
  ASSERT_NE(root.child("closing"), nullptr);
  EXPECT_EQ(root.child("closing")->stats.count, 1u);
}

TEST_F(TraceTest, DisabledSpanConstructionIsCheap) {
  // The contract is "one relaxed atomic load"; assert the observable
  // half: a million disabled spans leave no trace and finish promptly.
  for (int i = 0; i < 1'000'000; ++i) {
    Span s("hot");
  }
  EXPECT_TRUE(collect_tree().children.empty());
}

}  // namespace
}  // namespace cesm::trace
