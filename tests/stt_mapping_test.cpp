// Tests for tiling/mapping onto a physical array: tile choice, spatial
// spans, replication (the paper's 15-of-16-rows case), traffic footprints.
#include "stt/mapping.hpp"

#include <gtest/gtest.h>

#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::stt {
namespace {

namespace wl = tensor::workloads;

DataflowSpec gemmSpec(const std::string& label, std::int64_t m, std::int64_t n,
                      std::int64_t k) {
  const auto g = wl::gemm(m, n, k);
  auto spec = findDataflowByLabel(g, label);
  EXPECT_TRUE(spec.has_value()) << label;
  return *spec;
}

TEST(Mapping, GemmSstTileAndCycles) {
  // 8x8x4 GEMM with the Fig.1(b) SST transform on a 4x4 array.
  const auto spec = gemmSpec("MNK-SST", 8, 8, 4);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  const auto mapping = computeMapping(spec, cfg);
  EXPECT_EQ(mapping.fullTile[2], 4);  // k unconstrained spatially
  EXPECT_EQ(mapping.spatialRowsUsed, 4);
  EXPECT_EQ(mapping.spatialColsUsed, 4);
  EXPECT_EQ(mapping.replication, 1);
  EXPECT_EQ(mapping.outerIterations, 1);
  // 2x2 tiles of (4,4,4).
  ASSERT_EQ(mapping.tiles.size(), 1u);
  EXPECT_EQ(mapping.tiles[0].count, 4);
  EXPECT_EQ(mapping.tiles[0].macs, 64);
  // time row extent: (4-1)+(4-1)+(4-1)+1 = 10 for t = m+n+k.
  EXPECT_EQ(mapping.tiles[0].computeCycles, 10);
  EXPECT_EQ(mapping.totalMacs(), 8 * 8 * 4);
}

TEST(Mapping, GemmMmtHasNoPipelineSkew) {
  const auto spec = gemmSpec("MNK-MMT", 8, 8, 4);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  const auto mapping = computeMapping(spec, cfg);
  ASSERT_EQ(mapping.tiles.size(), 1u);
  EXPECT_EQ(mapping.tiles[0].computeCycles, 4);  // t = k only
}

TEST(Mapping, TrafficFootprints) {
  const auto spec = gemmSpec("MNK-MMT", 4, 4, 4);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  const auto mapping = computeMapping(spec, cfg);
  ASSERT_EQ(mapping.tiles.size(), 1u);
  const auto& tc = mapping.tiles[0];
  // A[m,k]: 4x4, B[n,k]: 4x4, C[m,n]: 4x4.
  EXPECT_EQ(tc.tensorFootprints, (std::vector<std::int64_t>{16, 16, 16}));
  EXPECT_EQ(tc.trafficWords, 48);
}

TEST(Mapping, ReplicationPacksSmallTiles) {
  // 2x2x8 GEMM on a 4x4 array: tile footprint 2x2 -> 4 concurrent copies.
  const auto spec = gemmSpec("MNK-MMT", 2, 2, 8);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  const auto mapping = computeMapping(spec, cfg);
  EXPECT_EQ(mapping.spatialRowsUsed, 2);
  EXPECT_EQ(mapping.spatialColsUsed, 2);
  EXPECT_EQ(mapping.replication, 4);
}

TEST(Mapping, PaperFifteenOfSixteenRows) {
  // A kernel loop of extent 3 mapped spatially on a 16-wide array packs
  // floor(16/3)=5 copies: 15 of 16 rows busy (paper Section VI-A).
  const auto conv = wl::conv2d(16, 16, 14, 14, 3, 3);
  const auto spec = findDataflowByLabel(conv, "XPQ-MMB");
  ASSERT_TRUE(spec.has_value());
  ArrayConfig cfg;  // 16x16
  const auto mapping = computeMapping(*spec, cfg);
  const std::int64_t spatialP =
      std::min(mapping.spatialRowsUsed, mapping.spatialColsUsed);
  EXPECT_EQ(spatialP, 3);
  EXPECT_EQ(mapping.replication, 5);
}

TEST(Mapping, RemainderTilesAccounted) {
  const auto spec = gemmSpec("MNK-SST", 10, 10, 10);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  const auto mapping = computeMapping(spec, cfg);
  // 10 = 2 full tiles of 4 + remainder 2, per spatial loop.
  EXPECT_EQ(mapping.totalMacs(), 1000);
  std::int64_t tileCount = 0;
  for (const auto& t : mapping.tiles) tileCount += t.count;
  EXPECT_EQ(tileCount, 3 * 3 * 1);
}

TEST(Mapping, OuterLoopsMultiply) {
  const auto conv = wl::conv2d(8, 8, 8, 8, 3, 3);
  const auto spec = findDataflowByLabel(conv, "KCX-SST");
  ASSERT_TRUE(spec.has_value());
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const auto mapping = computeMapping(*spec, cfg);
  // outer loops: y (8), p (3), q (3).
  EXPECT_EQ(mapping.outerIterations, 8 * 3 * 3);
  EXPECT_EQ(mapping.totalMacs(), conv.totalMacs());
}

TEST(Mapping, SkewedSpaceRowStillFits) {
  // Force a transform with a skewed space row (p1 = m+k): the tile must
  // shrink so the diagonal footprint fits.
  const auto g = wl::gemm(16, 16, 16);
  const SpaceTimeTransform t(linalg::IntMatrix{{1, 0, 1}, {0, 1, 0}, {0, 0, 1}});
  const auto spec = analyzeDataflow(g, LoopSelection(g, {0, 1, 2}), t);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const auto mapping = computeMapping(spec, cfg);
  EXPECT_LE(mapping.spatialRowsUsed, 8);
  EXPECT_LE(mapping.spatialColsUsed, 8);
  EXPECT_EQ(mapping.totalMacs(), 16 * 16 * 16);
}

TEST(Mapping, SpatialSpanHelper) {
  EXPECT_EQ(spatialSpan(linalg::IntVector{1, 0, 0}, 16, 16), 16);
  EXPECT_EQ(spatialSpan(linalg::IntVector{0, 1, 0}, 16, 8), 8);
  EXPECT_EQ(spatialSpan(linalg::IntVector{1, 1, 0}, 16, 8), 8);   // diagonal
  EXPECT_EQ(spatialSpan(linalg::IntVector{2, 0, 0}, 16, 16), 8);  // stride 2
}

TEST(Mapping, TotalsScaleWithProblem) {
  for (std::int64_t size : {8, 16, 32}) {
    const auto spec = gemmSpec("MNK-SST", size, size, size);
    ArrayConfig cfg;
    cfg.rows = cfg.cols = 8;
    const auto mapping = computeMapping(spec, cfg);
    EXPECT_EQ(mapping.totalMacs(), size * size * size);
    EXPECT_GT(mapping.totalTrafficWords(), 0);
    EXPECT_GT(mapping.serialComputeCycles(), 0);
  }
}

}  // namespace
}  // namespace tensorlib::stt
