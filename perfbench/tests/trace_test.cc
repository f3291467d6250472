#include "trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Reset();
    trace::SetEnabled(true);
  }
  void TearDown() override {
    trace::SetEnabled(false);
    trace::Reset();
  }
};

const trace::SpanRecord* Find(const std::vector<trace::SpanRecord>& spans,
                              const std::string& name) {
  for (const trace::SpanRecord& span : spans) {
    if (name == span.name) return &span;
  }
  return nullptr;
}

TEST_F(TraceTest, NestedSpansRecordTheirParent) {
  {
    trace::Span outer("outer");
    trace::Span inner("inner");
  }
  const auto spans = trace::Spans();
  ASSERT_EQ(spans.size(), 2u);
  const trace::SpanRecord* outer = Find(spans, "outer");
  const trace::SpanRecord* inner = Find(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_GE(outer->end_ns, inner->end_ns);
}

TEST(TraceAggregateTest, SelfTimeExcludesTheUnionOfChildren) {
  // Parent [0, 100); children [10, 30), [20, 40) overlap, [60, 70) alone:
  // covered = 30 + 10 = 40, self = 60. Times in ns, reported in us.
  std::vector<trace::SpanRecord> spans = {
      {"parent", 0, 100'000, 1, 0, 0},
      {"child", 10'000, 30'000, 2, 1, 0},
      {"child", 20'000, 40'000, 3, 1, 0},
      {"child", 60'000, 70'000, 4, 1, 0},
  };
  const auto layers = trace::AggregateLayers(spans);
  EXPECT_EQ(layers.at("parent").calls, 1);
  EXPECT_DOUBLE_EQ(layers.at("parent").total_us, 100.0);
  EXPECT_DOUBLE_EQ(layers.at("parent").self_us, 60.0);
  EXPECT_EQ(layers.at("child").calls, 3);
  EXPECT_DOUBLE_EQ(layers.at("child").self_us, 50.0);
}

TEST_F(TraceTest, ClaimTagsOnlyUnclaimedSpansOfThisThread) {
  trace::Claim(0);  // start a fresh claim window on this thread
  { trace::Span span("acquire"); }
  trace::Claim(7);
  { trace::Span span("later"); }
  trace::SetRequest(9);
  { trace::Span span("tagged"); }
  trace::SetRequest(0);
  trace::Claim(8);
  const auto spans = trace::Spans();
  EXPECT_EQ(Find(spans, "acquire")->request, 7u);
  EXPECT_EQ(Find(spans, "later")->request, 8u);
  EXPECT_EQ(Find(spans, "tagged")->request, 9u);
}

TEST_F(TraceTest, ThreadsKeepSeparateStacksAndCounters) {
  std::thread other([] {
    trace::Span span("other");
    trace::Count("events", 2.0);
  });
  {
    trace::Span span("main");
    trace::Count("events", 3.0);
  }
  other.join();
  const auto spans = trace::Spans();
  EXPECT_EQ(Find(spans, "other")->parent, 0u);
  EXPECT_EQ(Find(spans, "main")->parent, 0u);
  const auto counters = trace::Counters();
  EXPECT_DOUBLE_EQ(counters.at("events").sum, 5.0);
  EXPECT_EQ(counters.at("events").events, 2);
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  trace::SetEnabled(false);
  {
    trace::Span span("ignored");
    trace::Count("ignored", 1.0);
  }
  EXPECT_TRUE(trace::Spans().empty());
  EXPECT_TRUE(trace::Counters().empty());
}

}  // namespace
}  // namespace perfbench
