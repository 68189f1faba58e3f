// Pareto-frontier unit tests: hand-constructed dominated/non-dominated
// sets, exact-cost ties, NaN/infinite-cost rejection, insertion-order
// independence, and the Objective::Power "within 10% of best performance"
// band edge cases.
#include "driver/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace tensorlib::driver {
namespace {

ParetoEntry entry(double cycles, double power, double area, std::size_t order,
                  double util = 0.0) {
  ParetoEntry e;
  e.cost = {cycles, power, area, util};
  e.order = order;
  return e;
}

std::vector<std::size_t> sortedOrders(const ParetoFrontier& f) {
  std::vector<std::size_t> out;
  for (const auto& e : f.sorted()) out.push_back(e.order);
  return out;
}

TEST(Dominance, StrictAndTied) {
  EXPECT_TRUE(dominates({1, 1, 1, 0}, {2, 2, 2, 0}));
  EXPECT_TRUE(dominates({1, 2, 2, 0}, {2, 2, 2, 0}));  // <= all, < in one
  EXPECT_FALSE(dominates({2, 2, 2, 0}, {2, 2, 2, 0}));  // equal: no strict dim
  EXPECT_FALSE(dominates({1, 3, 1, 0}, {2, 2, 2, 0}));  // incomparable
  EXPECT_FALSE(dominates({2, 2, 2, 0}, {1, 1, 1, 0}));
}

TEST(Frontier, DominatedInsertRejected) {
  ParetoFrontier f;
  EXPECT_TRUE(f.insert(entry(10, 10, 10, 0)));
  EXPECT_FALSE(f.insert(entry(11, 10, 10, 1)));
  EXPECT_FALSE(f.insert(entry(10, 10, 10.5, 2)));
  EXPECT_EQ(f.size(), 1u);
}

TEST(Frontier, DominatingInsertPrunes) {
  ParetoFrontier f;
  EXPECT_TRUE(f.insert(entry(10, 10, 10, 0)));
  EXPECT_TRUE(f.insert(entry(20, 5, 10, 1)));  // incomparable: kept
  std::vector<std::size_t> pruned;
  EXPECT_TRUE(f.insert(entry(9, 5, 9, 2), &pruned));  // dominates both
  EXPECT_EQ(f.size(), 1u);
  std::sort(pruned.begin(), pruned.end());
  EXPECT_EQ(pruned, (std::vector<std::size_t>{0, 1}));
}

TEST(Frontier, IncomparablePointsAccumulate) {
  ParetoFrontier f;
  EXPECT_TRUE(f.insert(entry(1, 30, 3, 0)));
  EXPECT_TRUE(f.insert(entry(2, 20, 2, 1)));
  EXPECT_TRUE(f.insert(entry(3, 10, 1, 2)));
  EXPECT_EQ(sortedOrders(f), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Frontier, ExactCostTiesCollapseToSmallestOrder) {
  ParetoFrontier a;
  EXPECT_TRUE(a.insert(entry(5, 5, 5, 7)));
  EXPECT_FALSE(a.insert(entry(5, 5, 5, 9)));  // same cost, later order
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.entries()[0].order, 7u);

  // Reverse arrival: the earlier order must win and evict the resident.
  ParetoFrontier b;
  EXPECT_TRUE(b.insert(entry(5, 5, 5, 9)));
  std::vector<std::size_t> pruned;
  EXPECT_TRUE(b.insert(entry(5, 5, 5, 7), &pruned));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.entries()[0].order, 7u);
  EXPECT_EQ(pruned, (std::vector<std::size_t>{9}));
}

TEST(Frontier, NonFiniteCostsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ParetoFrontier f;
  EXPECT_FALSE(f.insert(entry(nan, 1, 1, 0)));
  EXPECT_FALSE(f.insert(entry(1, inf, 1, 1)));
  EXPECT_FALSE(f.insert(entry(1, 1, -inf, 2)));
  EXPECT_TRUE(f.empty());
  // A NaN point must also never evict residents.
  EXPECT_TRUE(f.insert(entry(1, 1, 1, 3)));
  EXPECT_FALSE(f.insert(entry(nan, 0, 0, 4)));
  EXPECT_EQ(f.size(), 1u);
}

TEST(Frontier, InsertionOrderNeverMatters) {
  const std::vector<ParetoEntry> points = {
      entry(1, 30, 3, 0), entry(2, 20, 2, 1), entry(3, 10, 1, 2),
      entry(2, 25, 3, 3),  // dominated by 1
      entry(1, 30, 3, 4),  // exact tie with 0, larger order
      entry(3, 10, 2, 5),  // dominated by 2
  };
  std::vector<std::size_t> perm = {0, 1, 2, 3, 4, 5};
  std::vector<std::vector<std::size_t>> seen;
  for (int trial = 0; trial < 24; ++trial) {
    ParetoFrontier f;
    for (std::size_t i : perm) f.insert(points[i]);
    seen.push_back(sortedOrders(f));
    std::next_permutation(perm.begin(), perm.end());
  }
  for (const auto& orders : seen)
    EXPECT_EQ(orders, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Frontier, MergeEqualsBulkInsert) {
  ParetoFrontier left, right, bulk;
  const std::vector<ParetoEntry> points = {
      entry(1, 9, 1, 0), entry(2, 8, 2, 1), entry(3, 7, 3, 2),
      entry(4, 6, 4, 3), entry(1, 9, 1, 4)};
  for (std::size_t i = 0; i < points.size(); ++i) {
    (i % 2 ? right : left).insert(points[i]);
    bulk.insert(points[i]);
  }
  left.merge(right);
  EXPECT_EQ(sortedOrders(left), sortedOrders(bulk));
}

TEST(PickBest, PerformancePrefersUtilizationThenPower) {
  std::vector<ParetoEntry> entries = {
      entry(20, 5, 1, 0, /*util=*/0.5),
      entry(10, 9, 1, 1, /*util=*/1.0),
      entry(10, 7, 1, 2, /*util=*/1.0),  // util tie: lower power wins
  };
  const auto best = pickBest(entries, Objective::Performance);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 2u);
}

TEST(PickBest, PerformanceFullTieFallsBackToOrder) {
  std::vector<ParetoEntry> entries = {
      entry(10, 7, 1, 4, 1.0), entry(10, 7, 1, 2, 1.0)};
  const auto best = pickBest(entries, Objective::Performance);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(entries[*best].order, 2u);
}

TEST(PickBest, PowerBandEdgeInclusive) {
  // util exactly 0.9 * best (0.9 * 1.0) must stay in the band: only
  // `< 0.9 * best` is excluded (Objective::Power).
  std::vector<ParetoEntry> entries = {
      entry(10, 9, 1, 0, 1.0),
      entry(11, 5, 1, 1, 0.9),     // on the edge: eligible, cheapest
      entry(12, 1, 1, 2, 0.899),   // just below: excluded despite 1 mW
  };
  const auto best = pickBest(entries, Objective::Power);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
}

TEST(PickBest, PowerTieBreaksTowardUtilization) {
  std::vector<ParetoEntry> entries = {
      entry(10, 5, 1, 0, 0.95), entry(9, 5, 1, 1, 1.0)};
  const auto best = pickBest(entries, Objective::Power);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
}

TEST(PickBest, PowerAllZeroUtilizationKeepsEveryoneEligible) {
  std::vector<ParetoEntry> entries = {
      entry(10, 5, 1, 0, 0.0), entry(9, 3, 1, 1, 0.0)};
  const auto best = pickBest(entries, Objective::Power);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
}

TEST(PickBest, EnergyDelayMinimizesProduct) {
  std::vector<ParetoEntry> entries = {
      entry(10, 10, 1, 0, 1.0),  // 100
      entry(50, 1, 1, 1, 0.2),   // 50
      entry(25, 2, 1, 2, 0.4),   // 50: product tie, fewer cycles wins
  };
  const auto best = pickBest(entries, Objective::EnergyDelay);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 2u);
}

TEST(PickBest, EmptyEntries) {
  EXPECT_FALSE(pickBest({}, Objective::Performance).has_value());
}

}  // namespace
}  // namespace tensorlib::driver
