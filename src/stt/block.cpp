#include "stt/block.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace tensorlib::stt {

TileMapping computeMappingPacked(const SpecBlockSet& set, std::size_t i,
                                 const ArrayConfig& config) {
  const std::int64_t* absT = set.specAbsT(i);
  const std::int64_t* extents = set.specExtents(i);
  const std::size_t T = set.tensorsPerSpec;

  const std::int64_t maxSide = std::max(config.rows, config.cols);
  std::int64_t caps[3];
  bool spatial[3];
  for (std::size_t j = 0; j < 3; ++j) {
    spatial[j] = absT[0 * 3 + j] != 0 || absT[1 * 3 + j] != 0;
    caps[j] = spatial[j] ? std::min(extents[j], maxSide) : extents[j];
  }
  const double wordsPerCycle = config.wordsPerCycle();
  std::int64_t tile[3] = {1, 1, 1};
  double bestRate = -1.0;
  std::int64_t bestMacs = 0;

  // Same candidate grid as computeMapping — spatial loops scan 1..cap,
  // non-spatial loops take the full extent — but with the fit check
  // hoisted: spatial spans are monotone nondecreasing in every tile
  // extent, so once the *minimal* remaining coordinates overflow the
  // array, every later candidate in that loop overflows too (the scalar
  // search merely `continue`s those same candidates, so skipping them
  // cannot change the winner). Per-tensor footprint factors fixed by the
  // outer two loops are hoisted into `base`.
  std::int64_t base[kBlockMaxTensors * kBlockMaxRank];
  for (std::int64_t g0 = spatial[0] ? 1 : caps[0]; g0 <= caps[0]; ++g0) {
    const std::int64_t s0r = 1 + absT[0] * (g0 - 1);
    const std::int64_t s0c = 1 + absT[3] * (g0 - 1);
    {
      const std::int64_t g1m = spatial[1] ? 1 : caps[1];
      const std::int64_t g2m = spatial[2] ? 1 : caps[2];
      if (s0r + absT[1] * (g1m - 1) + absT[2] * (g2m - 1) > config.rows ||
          s0c + absT[4] * (g1m - 1) + absT[5] * (g2m - 1) > config.cols)
        break;
    }
    for (std::int64_t g1 = spatial[1] ? 1 : caps[1]; g1 <= caps[1]; ++g1) {
      const std::int64_t s01r = s0r + absT[1] * (g1 - 1);
      const std::int64_t s01c = s0c + absT[4] * (g1 - 1);
      {
        const std::int64_t g2m = spatial[2] ? 1 : caps[2];
        if (s01r + absT[2] * (g2m - 1) > config.rows ||
            s01c + absT[5] * (g2m - 1) > config.cols)
          break;
      }
      const std::int64_t t01 = 1 + absT[6] * (g0 - 1) + absT[7] * (g1 - 1);
      for (std::size_t k = 0; k < T; ++k) {
        const std::int64_t* absC = set.tensorAbsC(i, k);
        for (std::size_t d = 0; d < set.tensorRank[k]; ++d)
          base[k * kBlockMaxRank + d] =
              1 + absC[d * 3 + 0] * (g0 - 1) + absC[d * 3 + 1] * (g1 - 1);
      }
      const std::int64_t macs01 = g0 * g1;
      for (std::int64_t g2 = spatial[2] ? 1 : caps[2]; g2 <= caps[2]; ++g2) {
        if (s01r + absT[2] * (g2 - 1) > config.rows ||
            s01c + absT[5] * (g2 - 1) > config.cols)
          break;
        const std::int64_t macs = macs01 * g2;
        std::int64_t traffic = 0;
        for (std::size_t k = 0; k < T; ++k) {
          const std::int64_t* absC = set.tensorAbsC(i, k);
          std::int64_t fp = 1;
          for (std::size_t d = 0; d < set.tensorRank[k]; ++d)
            fp = linalg::checkedMul(
                fp, base[k * kBlockMaxRank + d] + absC[d * 3 + 2] * (g2 - 1));
          traffic += fp;
        }
        const double cycles =
            std::max(static_cast<double>(t01 + absT[8] * (g2 - 1)),
                     static_cast<double>(traffic) / wordsPerCycle);
        const double rate = static_cast<double>(macs) / cycles;
        if (rate > bestRate || (rate == bestRate && macs > bestMacs)) {
          bestRate = rate;
          bestMacs = macs;
          tile[0] = g0;
          tile[1] = g1;
          tile[2] = g2;
        }
      }
    }
  }
  TL_CHECK(bestRate > 0, "no feasible tile fits the array");

  TileMapping out;
  out.fullTile = {tile[0], tile[1], tile[2]};
  out.spatialRowsUsed = 1 + absT[0] * (tile[0] - 1) + absT[1] * (tile[1] - 1) +
                        absT[2] * (tile[2] - 1);
  out.spatialColsUsed = 1 + absT[3] * (tile[0] - 1) + absT[4] * (tile[1] - 1) +
                        absT[5] * (tile[2] - 1);
  const std::int64_t repRows = config.rows / out.spatialRowsUsed;
  const std::int64_t repCols = config.cols / out.spatialColsUsed;
  out.replication =
      std::max<std::int64_t>(1, repRows) * std::max<std::int64_t>(1, repCols);
  out.outerIterations = set.outer[i];

  // The <=8 tile-shape groups of the remainder grid, in mask order exactly
  // as computeMapping emits them.
  std::int64_t fullCount[3], rem[3];
  for (std::size_t j = 0; j < 3; ++j) {
    fullCount[j] = extents[j] / tile[j];
    rem[j] = extents[j] % tile[j];
  }
  for (int mask = 0; mask < 8; ++mask) {
    std::int64_t shape[3];
    std::int64_t count = 1;
    bool valid = true;
    for (std::size_t j = 0; j < 3; ++j) {
      if (mask & (1 << j)) {
        if (rem[j] == 0) {
          valid = false;
          break;
        }
        shape[j] = rem[j];
      } else {
        if (fullCount[j] == 0) {
          valid = false;
          break;
        }
        shape[j] = tile[j];
        count *= fullCount[j];
      }
    }
    if (!valid || count == 0) continue;
    TileCost tc;
    tc.shape = {shape[0], shape[1], shape[2]};
    tc.count = count;
    tc.macs = shape[0] * shape[1] * shape[2];
    tc.computeCycles = 1 + absT[6] * (shape[0] - 1) + absT[7] * (shape[1] - 1) +
                       absT[8] * (shape[2] - 1);
    tc.tensorFootprints.reserve(T);
    for (std::size_t k = 0; k < T; ++k) {
      const std::int64_t* absC = set.tensorAbsC(i, k);
      std::int64_t fp = 1;
      for (std::size_t d = 0; d < set.tensorRank[k]; ++d)
        fp = linalg::checkedMul(fp, 1 + absC[d * 3 + 0] * (shape[0] - 1) +
                                        absC[d * 3 + 1] * (shape[1] - 1) +
                                        absC[d * 3 + 2] * (shape[2] - 1));
      tc.tensorFootprints.push_back(fp);
      tc.trafficWords += fp;
    }
    out.tiles.push_back(std::move(tc));
  }
  TL_CHECK(!out.tiles.empty(), "mapping produced no tiles");
  return out;
}

BlockMappingStore::BlockMappingStore(std::size_t slots)
    : slots_(slots > 0 ? std::make_unique<Slot[]>(slots) : nullptr),
      count_(slots) {}

const TileMapping& BlockMappingStore::get(const SpecBlockSet& set,
                                          std::size_t i,
                                          const ArrayConfig& config,
                                          std::size_t slot) {
  TL_CHECK(slot < count_, "block mapping slot out of range");
  Slot& s = slots_[slot];
  std::call_once(s.once, [&] {
    s.mapping = computeMappingPacked(set, i, config);
    s.searched = true;
  });
  return s.mapping;
}

std::size_t BlockMappingStore::searches() const {
  std::size_t n = 0;
  for (std::size_t k = 0; k < count_; ++k) n += slots_[k].searched ? 1 : 0;
  return n;
}

}  // namespace tensorlib::stt
