#include "stt/mapping.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/error.hpp"

namespace tensorlib::stt {

namespace {

/// Spatial span of a tile shape along space row r: the number of distinct
/// coordinates the row's affine form takes over the tile box.
std::int64_t rowSpan(const linalg::IntMatrix& t, std::size_t r,
                     const linalg::IntVector& shape) {
  std::int64_t span = 1;
  for (std::size_t j = 0; j < 3; ++j)
    span += std::abs(t.at(r, j)) * (shape[j] - 1);
  return span;
}

std::int64_t timeSpan(const linalg::IntMatrix& t, const linalg::IntVector& shape) {
  std::int64_t span = 1;
  for (std::size_t j = 0; j < 3; ++j)
    span += std::abs(t.at(2, j)) * (shape[j] - 1);
  return span;
}

TileCost makeTileCost(const DataflowSpec& spec, linalg::IntVector shape,
                      std::int64_t count) {
  TileCost tc;
  tc.shape = shape;
  tc.count = count;
  tc.macs = shape[0] * shape[1] * shape[2];
  tc.computeCycles = timeSpan(spec.transform().matrix(), shape);
  for (const auto& role : spec.tensors()) {
    const std::int64_t fp = accessFootprint(role.access, shape);
    tc.tensorFootprints.push_back(fp);
    tc.trafficWords += fp;
  }
  return tc;
}

}  // namespace

/// Per dimension the affine form sweeps an interval; dims are charged as
/// independent (exact for all Table-II workloads).
std::int64_t accessFootprint(const tensor::AffineAccess& access,
                             const linalg::IntVector& shape) {
  std::int64_t total = 1;
  for (std::size_t d = 0; d < access.tensorRank(); ++d) {
    std::int64_t range = 1;
    for (std::size_t j = 0; j < 3; ++j)
      range += std::abs(access.coeff().at(d, j)) * (shape[j] - 1);
    total = linalg::checkedMul(total, range);
  }
  return total;
}

std::int64_t TileMapping::totalMacs() const {
  std::int64_t total = 0;
  for (const auto& t : tiles) total += t.count * t.macs;
  return total * outerIterations;
}

std::int64_t TileMapping::totalTrafficWords() const {
  std::int64_t total = 0;
  for (const auto& t : tiles) total += t.count * t.trafficWords;
  return total * outerIterations;
}

std::int64_t TileMapping::serialComputeCycles() const {
  std::int64_t total = 0;
  for (const auto& t : tiles) total += t.count * t.computeCycles;
  return total * outerIterations;
}

TileMapping computeMapping(const DataflowSpec& spec, const ArrayConfig& config) {
  const linalg::IntMatrix& t = spec.transform().matrix();
  const linalg::IntVector extents = spec.selection().extents();

  // --- Choose the full tile. Loops with no spatial coefficient take their
  // full extent (they only stretch the time axis). Spatially-involved loops
  // are chosen by exhaustive search (their candidate sizes are bounded by
  // the array side), maximizing steady-state MACs per cycle — skewed space
  // rows make greedy allocation badly suboptimal here.
  const std::int64_t maxSide = std::max(config.rows, config.cols);
  std::vector<std::vector<std::int64_t>> candidates(3);
  for (std::size_t j = 0; j < 3; ++j) {
    const bool spatial = t.at(0, j) != 0 || t.at(1, j) != 0;
    if (!spatial) {
      candidates[j] = {extents[j]};
    } else {
      const std::int64_t cap = std::min(extents[j], maxSide);
      for (std::int64_t g = 1; g <= cap; ++g) candidates[j].push_back(g);
    }
  }
  linalg::IntVector tile(3, 1);
  double bestRate = -1.0;
  std::int64_t bestMacs = 0;
  const double wordsPerCycle = config.wordsPerCycle();
  for (std::int64_t g0 : candidates[0])
    for (std::int64_t g1 : candidates[1])
      for (std::int64_t g2 : candidates[2]) {
        const linalg::IntVector g{g0, g1, g2};
        if (rowSpan(t, 0, g) > config.rows || rowSpan(t, 1, g) > config.cols)
          continue;
        const std::int64_t macs = g0 * g1 * g2;
        // Steady-state cycles per tile: compute span or memory service
        // time, whichever binds (a 1-cycle tile that moves 300 words is no
        // bargain).
        std::int64_t traffic = 0;
        for (const auto& role : spec.tensors())
          traffic += accessFootprint(role.access, g);
        const double cycles = std::max(
            static_cast<double>(timeSpan(t, g)),
            static_cast<double>(traffic) / wordsPerCycle);
        const double rate = static_cast<double>(macs) / cycles;
        if (rate > bestRate || (rate == bestRate && macs > bestMacs)) {
          bestRate = rate;
          bestMacs = macs;
          tile = g;
        }
      }
  TL_CHECK(bestRate > 0, "no feasible tile fits the array");

  TileMapping out;
  out.fullTile = tile;
  out.spatialRowsUsed = rowSpan(t, 0, tile);
  out.spatialColsUsed = rowSpan(t, 1, tile);
  TL_CHECK(out.spatialRowsUsed <= config.rows && out.spatialColsUsed <= config.cols,
           "tile footprint exceeds array");

  // --- Replication: pack multiple tile copies when the footprint is small
  // (the paper's 15-of-16-rows utilization case for 3-wide kernel loops).
  const std::int64_t repRows = config.rows / out.spatialRowsUsed;
  const std::int64_t repCols = config.cols / out.spatialColsUsed;
  out.replication = std::max<std::int64_t>(1, repRows) *
                    std::max<std::int64_t>(1, repCols);

  // --- Outer (non-selected) loops run sequentially.
  out.outerIterations = 1;
  for (std::size_t idx : spec.selection().outerIndices())
    out.outerIterations = linalg::checkedMul(
        out.outerIterations, spec.algebra().loops()[idx].extent);

  // --- Tile grid grouped by shape: full and remainder extents per loop give
  // at most 2^3 distinct shapes.
  std::int64_t fullCount[3], rem[3];
  for (std::size_t j = 0; j < 3; ++j) {
    fullCount[j] = extents[j] / tile[j];
    rem[j] = extents[j] % tile[j];
  }
  for (int mask = 0; mask < 8; ++mask) {
    linalg::IntVector shape(3);
    std::int64_t count = 1;
    bool valid = true;
    for (std::size_t j = 0; j < 3; ++j) {
      if (mask & (1 << j)) {
        if (rem[j] == 0) { valid = false; break; }
        shape[j] = rem[j];
      } else {
        if (fullCount[j] == 0) { valid = false; break; }
        shape[j] = tile[j];
        count *= fullCount[j];
      }
    }
    if (!valid || count == 0) continue;
    out.tiles.push_back(makeTileCost(spec, shape, count));
  }
  TL_CHECK(!out.tiles.empty(), "mapping produced no tiles");
  return out;
}

std::int64_t spatialSpan(const linalg::IntVector& direction, std::int64_t rows,
                         std::int64_t cols) {
  TL_CHECK(direction.size() >= 2, "spatialSpan needs a 2-D spatial direction");
  const std::int64_t d1 = std::abs(direction[0]);
  const std::int64_t d2 = std::abs(direction[1]);
  TL_CHECK(d1 != 0 || d2 != 0, "spatialSpan of a zero direction");
  std::int64_t steps = INT64_MAX;
  if (d1 != 0) steps = std::min(steps, (rows - 1) / d1);
  if (d2 != 0) steps = std::min(steps, (cols - 1) / d2);
  return steps + 1;
}

}  // namespace tensorlib::stt
