// Tests of the benchmark's own arithmetic: the tail percentile, failure
// counting, span self time and coverage, and seeded input generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, LeavesExactlyTenSamplesBeyond) {
  const Tail tail = tailPercentile(oneTo(100));
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 100u);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
}

TEST(TailPercentile, ElevenSamplesGiveTheMinimum) {
  const Tail tail = tailPercentile(oneTo(11));
  EXPECT_EQ(tail.value, 1.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_NEAR(tail.percentile, 100.0 / 11.0, 1e-12);
}

TEST(TailPercentile, TenOrFewerSamplesReportTheMaximum) {
  const Tail tail = tailPercentile(oneTo(10));
  EXPECT_EQ(tail.value, 10.0);
  EXPECT_EQ(tail.beyond, 0u);
  EXPECT_EQ(tail.percentile, 100.0);
  EXPECT_EQ(tailPercentile({}).samples, 0u);
}

TEST(TailPercentile, LargeRunsPickTheEleventhLargest) {
  const Tail tail = tailPercentile(oneTo(4000));
  EXPECT_EQ(tail.value, 3990.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.75);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Median, OfGroupMeansStaysOnTheMiddleGroup) {
  // Three models: a's ops are fast, b's middling, c's slow. The plain median
  // of these seven samples would land on a; the group median lands on b's
  // mean.
  EXPECT_EQ(medianOfGroupMeans({1, 2, 3, 50, 60, 100, 1000},
                               {"a", "a", "a", "b", "b", "b", "c"}),
            70.0);
  EXPECT_EQ(medianOfGroupMeans({5, 8}, {"x", "x"}), 6.5);
  EXPECT_EQ(medianOfGroupMeans({}, {}), 0.0);
}

TEST(OpCount, CountsFailuresAgainstAttempts) {
  OpCount ops;
  EXPECT_EQ(ops.failRatio(), 0.0);
  for (int i = 0; i < 8; ++i) ops.record(i % 4 != 0);
  EXPECT_EQ(ops.attempted, 8u);
  EXPECT_EQ(ops.failed, 2u);
  EXPECT_DOUBLE_EQ(ops.failRatio(), 0.25);
}

TEST(Intervals, CoverageMergesOverlapsAndClipsToTheWindow) {
  const Interval window{100, 200};
  EXPECT_EQ(coveredLength(window, {}), 0);
  EXPECT_EQ(coveredLength(window, {{110, 130}, {120, 150}, {160, 170}}), 50);
  EXPECT_EQ(coveredLength(window, {{50, 120}, {190, 300}}), 30);
  EXPECT_EQ(coveredLength(window, {{0, 50}, {250, 300}}), 0);
  EXPECT_EQ(coveredLength(window, {{100, 200}, {120, 130}}), 100);
}

TEST(Intervals, SelfTimeSubtractsChildCover) {
  EXPECT_EQ(selfTime({0, 100}, {}), 100);
  EXPECT_EQ(selfTime({0, 100}, {{10, 40}, {30, 60}}), 50);
  EXPECT_EQ(selfTime({0, 100}, {{0, 100}}), 0);
}

SpanRecord span(const char* name, int id, int parent, int op, std::int64_t start,
                std::int64_t end) {
  SpanRecord s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.op = op;
  s.time = {start, end};
  return s;
}

TEST(SpanAnalysis, CoverageOverOps) {
  const std::vector<SpanRecord> spans = {
      // op 0: 100 ns, children cover 60 of it (one grandchild inside).
      span("service.batch", 1, 0, 0, 10, 50),
      span("stt.enumerate", 2, 1, 0, 20, 30),
      span("network.compose", 3, 0, 0, 60, 80),
      span("network.explore", 0, -1, 0, 0, 100),
      // op 1: 100 ns, fully covered.
      span("service.batch", 5, 4, 1, 200, 300),
      span("network.explore", 4, -1, 1, 200, 300),
      // A probe outside any op never counts toward coverage.
      span("service.batch_1t", 6, -1, -1, 400, 500),
  };
  EXPECT_DOUBLE_EQ(opCoverage(spans), 160.0 / 200.0);
  EXPECT_DOUBLE_EQ(spanTotalMs(spans, "service.batch"), 140e-6);
  EXPECT_EQ(opCoverage({}), 0.0);
}

TEST(SpanRecorder, NestsChildrenUnderTheirOp) {
  setTracing(true);
  {
    Span op("network.explore", 7);
    Span child("service.batch");
  }
  { Span probe("stt.enumerate"); }
  const auto spans = recordedSpans();
  setTracing(false);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "service.batch");
  EXPECT_EQ(spans[0].op, 7);
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(spans[2].op, -1);
  EXPECT_TRUE(recordedSpans().empty());
  { Span off("service.batch", 1); }
  EXPECT_TRUE(recordedSpans().empty());
}

TEST(Inputs, ExploreColdIsAPermutationFixedBySeed) {
  const auto a = exploreColdModels(5);
  EXPECT_EQ(a, exploreColdModels(5));
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(std::count(a.begin(), a.end(), "resnet-block"), 0);
  auto sorted = a;
  std::sort(sorted.begin(), sorted.end());
  auto other = exploreColdModels(6);
  std::sort(other.begin(), other.end());
  EXPECT_EQ(sorted, other);
}

std::multiset<std::string> names(const std::vector<ModelItem>& items) {
  std::multiset<std::string> out;
  for (const ModelItem& item : items)
    out.insert(item.builtin.empty() ? "fuzz-" + std::to_string(item.networkSeed)
                                    : item.builtin);
  return out;
}

TEST(Inputs, ModelVerifyRoundsAreDeterministicAndSkipKnownFailures) {
  const auto reference = names(modelVerifyRound(1, 0));
  EXPECT_EQ(reference.size(), 6u + kRandomNetworksPerRound);
  bool reordered = false;
  for (std::size_t round = 0; round < 20; ++round) {
    const auto items = modelVerifyRound(3, round);
    const auto again = modelVerifyRound(3, round);
    ASSERT_EQ(items.size(), again.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i].builtin, again[i].builtin);
      EXPECT_EQ(items[i].networkSeed, again[i].networkSeed);
      if (items[i].builtin.empty()) {
        for (const std::uint64_t bad : kKnownFailingNetworkSeeds)
          EXPECT_NE(items[i].networkSeed, bad);
        EXPECT_TRUE(items[i].networkSeed >= 1 &&
                    items[i].networkSeed <= kNetworkSeedPool);
      }
    }
    // Same models in every round and for every seed; only the order moves.
    EXPECT_EQ(names(items), reference);
    const auto other = modelVerifyRound(4, round);
    for (std::size_t i = 0; i < items.size(); ++i)
      reordered = reordered || items[i].builtin != other[i].builtin ||
                  items[i].networkSeed != other[i].networkSeed;
  }
  EXPECT_TRUE(reordered);
}

TEST(Inputs, DataSeedFoldsOntoVerifiedRange) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const std::uint64_t d = modelVerifyDataSeed(seed);
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 8u);
  }
}

TEST(Inputs, ServeStreamCoversEveryKeyAndIsFixedBySeed) {
  const auto keys = serveKeys();
  EXPECT_EQ(keys.size(), 96u);
  const auto stream = serveStream(11, 3000, keys.size());
  EXPECT_EQ(stream, serveStream(11, 3000, keys.size()));
  EXPECT_NE(stream, serveStream(12, 3000, keys.size()));
  ASSERT_EQ(stream.size(), 3000u);
  std::vector<std::size_t> counts(keys.size(), 0);
  for (const std::size_t k : stream) {
    ASSERT_LT(k, keys.size());
    ++counts[k];
  }
  for (const std::size_t c : counts) EXPECT_GE(c, 1u);
  // Skewed: the hottest key takes far more than a uniform share.
  EXPECT_GT(*std::max_element(counts.begin(), counts.end()), 3000u / 96u * 4u);
  EXPECT_EQ(keys[0].line(),
            "{\"workload\": \"gemm\", \"rows\": 8, \"cols\": 8, \"objective\": "
            "\"performance\", \"backend\": \"asic\", \"max_entry\": 1}");
}

}  // namespace
}  // namespace perfbench
