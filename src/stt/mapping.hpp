// Mapping a DataflowSpec onto a physical PE array.
//
// The selected loops are tiled so the tile's image under the space rows of T
// fits the rows x cols array (Section IV: "when PE and memory sizes are
// determined, the loops are performed tiling to fit the hardware").
// A tile whose spatial footprint is smaller than the array is replicated
// (the paper's trick that keeps 15 of 16 rows busy when a kernel loop of
// extent 3 is mapped spatially). The mapping also derives, per tile shape,
// the cycle count of one pass and the per-tensor memory traffic, which the
// performance model combines with the bandwidth budget.
#pragma once

#include <cstdint>
#include <vector>

#include "stt/spec.hpp"

namespace tensorlib::stt {

/// Physical array + memory-system configuration (paper Section VI-A:
/// 16x16 PEs, 320 MHz, 32 GB/s on-chip bandwidth).
struct ArrayConfig {
  std::int64_t rows = 16;
  std::int64_t cols = 16;
  double frequencyMHz = 320.0;
  double bandwidthGBps = 32.0;
  std::int64_t dataBytes = 2;  ///< INT16 by default; 4 for FP32

  /// Memory words deliverable per cycle at the configured bandwidth.
  double wordsPerCycle() const {
    return bandwidthGBps * 1e9 / (frequencyMHz * 1e6) /
           static_cast<double>(dataBytes);
  }
};

/// One tile shape (extents of the three selected loops) plus derived costs.
struct TileCost {
  linalg::IntVector shape;       ///< extents of the selected loops in a tile
  std::int64_t count = 0;        ///< how many tiles of this shape exist
  std::int64_t macs = 0;         ///< MACs per tile = product(shape)
  std::int64_t computeCycles = 0;  ///< time-row extent of the tile image
  std::int64_t trafficWords = 0;   ///< per-tensor footprints summed
  std::vector<std::int64_t> tensorFootprints;  ///< label order
};

/// Complete mapping of a spec to an array.
struct TileMapping {
  linalg::IntVector fullTile;        ///< chosen tile extents (selected loops)
  std::int64_t spatialRowsUsed = 0;  ///< p1 span of a full tile
  std::int64_t spatialColsUsed = 0;  ///< p2 span of a full tile
  std::int64_t replication = 1;      ///< concurrent tile copies on the array
  std::int64_t outerIterations = 1;  ///< product of non-selected loop extents
  std::vector<TileCost> tiles;       ///< grouped by shape (<= 8 groups)

  std::int64_t totalMacs() const;
  std::int64_t totalTrafficWords() const;
  /// Sum over tiles of computeCycles (ignoring replication/bandwidth).
  std::int64_t serialComputeCycles() const;
};

/// Computes the tile mapping for a spec on an array. Throws if even a 1x1x1
/// tile does not fit (cannot happen for full-rank T on a >=1x1 array).
TileMapping computeMapping(const DataflowSpec& spec, const ArrayConfig& config);

/// Number of distinct tensor elements the model charges when the selected
/// loops sweep a box of the given shape (the per-dimension interval-product
/// footprint computeMapping uses for tile traffic).
std::int64_t accessFootprint(const tensor::AffineAccess& access,
                             const linalg::IntVector& shape);

/// Spatial span (number of distinct positions) of the array along a rank-1
/// reuse direction (dp1, dp2) — the multicast group size / systolic chain
/// length for that tensor on a rows x cols array.
std::int64_t spatialSpan(const linalg::IntVector& direction, std::int64_t rows,
                         std::int64_t cols);

}  // namespace tensorlib::stt
