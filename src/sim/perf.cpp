#include "sim/perf.hpp"

#include <algorithm>
#include <limits>
#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace tensorlib::sim {

std::string PerfResult::str() const {
  std::ostringstream os;
  os << "cycles=" << totalCycles << " (compute=" << computeCycles
     << ", bw=" << bandwidthCycles << ") macs=" << macs
     << " traffic=" << trafficWords << " util=" << utilization
     << (bandwidthBound ? " [bandwidth-bound]" : " [compute-bound]");
  return os.str();
}

PerfResult finalizePerf(PerfResult raw, const stt::ArrayConfig& config) {
  raw.bandwidthBound = raw.bandwidthCycles > raw.computeCycles;
  const double peCycles = static_cast<double>(config.rows * config.cols) *
                          static_cast<double>(raw.totalCycles);
  raw.utilization =
      peCycles > 0.0 ? static_cast<double>(raw.macs) / peCycles : 0.0;
  const double seconds =
      static_cast<double>(raw.totalCycles) / (config.frequencyMHz * 1e6);
  raw.throughputGops =
      seconds > 0.0 && std::isfinite(seconds)
          ? 2.0 * static_cast<double>(raw.macs) / seconds / 1e9
          : 0.0;
  return raw;
}

namespace {

/// Accumulates the closed-form pass costs of one mapping.
PerfResult accumulate(const stt::TileMapping& mapping,
                      const stt::ArrayConfig& config) {
  const double wordsPerCycle = config.wordsPerCycle();
  PerfResult out;
  for (const auto& tc : mapping.tiles) {
    const std::int64_t tilesTotal = tc.count * mapping.outerIterations;
    const std::int64_t passes =
        (tilesTotal + mapping.replication - 1) / mapping.replication;

    const std::int64_t bwCycles = static_cast<std::int64_t>(std::ceil(
        static_cast<double>(tc.trafficWords * mapping.replication) /
        wordsPerCycle));
    const std::int64_t passCycles = std::max(tc.computeCycles, bwCycles);

    out.computeCycles += passes * tc.computeCycles;
    out.bandwidthCycles += passes * bwCycles;
    out.totalCycles += passes * passCycles;
    out.macs += tilesTotal * tc.macs;
    out.trafficWords += tilesTotal * tc.trafficWords;
  }
  return out;
}

/// Max product of distinct selected-loop extents assignable injectively to
/// tensor dimensions with a nonzero coefficient — the covered-extent bound
/// behind the bandwidth term of cyclesLowerBound.
std::int64_t coveredExtents(const linalg::IntMatrix& coeff,
                            const linalg::IntVector& extents, std::size_t dim,
                            unsigned usedMask) {
  if (dim == coeff.rows()) return 1;
  std::int64_t best = coveredExtents(coeff, extents, dim + 1, usedMask);
  for (std::size_t j = 0; j < 3; ++j) {
    if ((usedMask & (1u << j)) != 0 || coeff.at(dim, j) == 0) continue;
    best = std::max(
        best, linalg::checkedMul(extents[j], coveredExtents(coeff, extents,
                                                            dim + 1,
                                                            usedMask | (1u << j))));
  }
  return best;
}

/// coveredExtents over a packed |coefficient| block (rank rows x 3,
/// row-major): same recursion, same result — the scalar version only reads
/// the coefficients' zero pattern.
std::int64_t coveredExtentsPacked(const std::int64_t* absC, std::size_t rank,
                                  const std::int64_t* extents, std::size_t dim,
                                  unsigned usedMask) {
  if (dim == rank) return 1;
  std::int64_t best = coveredExtentsPacked(absC, rank, extents, dim + 1, usedMask);
  for (std::size_t j = 0; j < 3; ++j) {
    if ((usedMask & (1u << j)) != 0 || absC[dim * 3 + j] == 0) continue;
    best = std::max(best, linalg::checkedMul(
                              extents[j],
                              coveredExtentsPacked(absC, rank, extents, dim + 1,
                                                   usedMask | (1u << j))));
  }
  return best;
}

}  // namespace

PerfResult perfFromMapping(const stt::TileMapping& mapping,
                           const stt::ArrayConfig& config) {
  return finalizePerf(accumulate(mapping, config), config);
}

PerfResult estimatePerformance(const stt::DataflowSpec& spec,
                               const stt::ArrayConfig& config) {
  return perfFromMapping(stt::computeMapping(spec, config), config);
}

std::int64_t cyclesLowerBound(const stt::DataflowSpec& spec,
                              const stt::ArrayConfig& config) {
  // Compute bound: a full-rank transform maps at most one MAC per PE per
  // cycle at any tiling and replication, so totalCycles >= totalMacs / rate
  // with rate capped at rows * cols. (floor, not ceil, below absorbs the
  // floating-point division's last ulp.)
  const std::int64_t macs = spec.algebra().totalMacs();
  double rate = static_cast<double>(config.rows * config.cols);
  if (rate <= 0.0) rate = 1.0;

  // Bandwidth rate cap: a pass of any tile g sustains at most
  // wordsPerCycle * intensity(g) MACs per cycle (replication scales traffic
  // and MACs alike), and for every injective matching of a tensor's
  // dimensions to selected loops, intensity(g) <= product of the UNMATCHED
  // loops' tile extents. Tile extents are individually capped by the array
  // fit (1 + |t_spatial_j| * (g_j - 1) must fit the rows/cols span), so
  //   intensity <= min over tensors of prod(caps) / bestMatchedProduct.
  const double wordsPerCycle = config.wordsPerCycle();
  if (wordsPerCycle > 0.0 && std::isfinite(wordsPerCycle)) {
    const linalg::IntMatrix& t = spec.transform().matrix();
    const linalg::IntVector& extents = spec.selection().extents();
    linalg::IntVector caps(3);
    for (std::size_t j = 0; j < 3; ++j) {
      std::int64_t cap = extents[j];
      if (t.at(0, j) != 0)
        cap = std::min(cap, 1 + (config.rows - 1) / std::abs(t.at(0, j)));
      if (t.at(1, j) != 0)
        cap = std::min(cap, 1 + (config.cols - 1) / std::abs(t.at(1, j)));
      caps[j] = std::max<std::int64_t>(cap, 1);
    }
    const double capProduct = static_cast<double>(
        linalg::checkedMul(caps[0], linalg::checkedMul(caps[1], caps[2])));
    double intensityCap = std::numeric_limits<double>::infinity();
    for (const auto& role : spec.tensors()) {
      const double matched = static_cast<double>(
          coveredExtents(role.access.coeff(), caps, 0, 0u));
      intensityCap = std::min(intensityCap, capProduct / matched);
    }
    rate = std::min(rate, wordsPerCycle * intensityCap);
  }
  std::int64_t bound = static_cast<std::int64_t>(
      std::floor(static_cast<double>(macs) / rate));

  // Bandwidth bound: each tensor's summed tile footprints cover at least
  // the product of the extents of distinct selected loops matched (one per
  // tensor dimension) to nonzero access coefficients — the per-dimension
  // interval the footprint model charges is at least the tile's extent of
  // that loop, and tile extents of one loop sum to the full extent across
  // any grid tiling. Outer iterations repeat the whole sweep.
  if (wordsPerCycle > 0.0 && std::isfinite(wordsPerCycle)) {
    std::int64_t outer = 1;
    for (std::size_t idx : spec.selection().outerIndices())
      outer = linalg::checkedMul(outer, spec.algebra().loops()[idx].extent);
    std::int64_t minTraffic = 0;
    for (const auto& role : spec.tensors())
      minTraffic += linalg::checkedMul(
          outer, coveredExtents(role.access.coeff(), spec.selection().extents(),
                                0, 0u));
    // floor, not ceil: immune to last-ulp rounding of the division while
    // still a valid integer lower bound.
    bound = std::max(bound, static_cast<std::int64_t>(std::floor(
                                static_cast<double>(minTraffic) / wordsPerCycle)));
  }
  return std::max<std::int64_t>(bound, 1);
}

std::int64_t cyclesLowerBound(const stt::SpecBlockSet& set, std::size_t i,
                              const stt::ArrayConfig& config) {
  // Mirrors the scalar overload term by term (see the comments there); the
  // differential tests pin the two equal over whole enumerated spaces.
  const std::int64_t macs = set.algebraMacs;
  double rate = static_cast<double>(config.rows * config.cols);
  if (rate <= 0.0) rate = 1.0;

  const std::int64_t* absT = set.specAbsT(i);
  const std::int64_t* extents = set.specExtents(i);
  const double wordsPerCycle = config.wordsPerCycle();
  if (wordsPerCycle > 0.0 && std::isfinite(wordsPerCycle)) {
    std::int64_t caps[3];
    for (std::size_t j = 0; j < 3; ++j) {
      std::int64_t cap = extents[j];
      if (absT[0 * 3 + j] != 0)
        cap = std::min(cap, 1 + (config.rows - 1) / absT[0 * 3 + j]);
      if (absT[1 * 3 + j] != 0)
        cap = std::min(cap, 1 + (config.cols - 1) / absT[1 * 3 + j]);
      caps[j] = std::max<std::int64_t>(cap, 1);
    }
    const double capProduct = static_cast<double>(
        linalg::checkedMul(caps[0], linalg::checkedMul(caps[1], caps[2])));
    double intensityCap = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < set.tensorsPerSpec; ++k) {
      const double matched = static_cast<double>(coveredExtentsPacked(
          set.tensorAbsC(i, k), set.tensorRank[k], caps, 0, 0u));
      intensityCap = std::min(intensityCap, capProduct / matched);
    }
    rate = std::min(rate, wordsPerCycle * intensityCap);
  }
  std::int64_t bound =
      static_cast<std::int64_t>(std::floor(static_cast<double>(macs) / rate));

  if (wordsPerCycle > 0.0 && std::isfinite(wordsPerCycle)) {
    const std::int64_t outer = set.outer[i];
    std::int64_t minTraffic = 0;
    for (std::size_t k = 0; k < set.tensorsPerSpec; ++k)
      minTraffic += linalg::checkedMul(
          outer, coveredExtentsPacked(set.tensorAbsC(i, k), set.tensorRank[k],
                                      extents, 0, 0u));
    bound = std::max(bound, static_cast<std::int64_t>(std::floor(
                                static_cast<double>(minTraffic) / wordsPerCycle)));
  }
  return std::max<std::int64_t>(bound, 1);
}

}  // namespace tensorlib::sim
