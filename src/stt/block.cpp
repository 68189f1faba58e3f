#include "stt/block.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "support/error.hpp"

namespace tensorlib::stt {

namespace {

/// Appends the raw bytes of `n` int64s to `key` (mapping-class hashing).
void appendWords(std::string& key, const std::int64_t* words, std::size_t n) {
  key.append(reinterpret_cast<const char*>(words), n * sizeof(std::int64_t));
}

/// Sizes a set's per-spec arrays for `n` specs, so packing a whole list
/// allocates each array once and keeps no growth slack.
void reserveSpecBlocks(SpecBlockSet& set, std::size_t n) {
  const std::size_t T = set.tensorsPerSpec;
  set.extents.reserve(n * 3);
  set.outer.reserve(n);
  set.absT.reserve(n * 9);
  set.labels.reserve(n);
  set.classTag.reserve(n * T);
  set.absDir.reserve(n * T * 2);
  set.systolicDt.reserve(n * T);
  set.absC.reserve(n * T * set.rankStride * 3);
}

}  // namespace

std::shared_ptr<const SpecBlockSet> packSpecBlocks(
    const std::vector<DataflowSpec>& list) {
  // The same three steps that pack a bound-first window: per-selection
  // constants from the selection geometry, one append per spec carrying
  // its class data, then the mapping-class partition.
  auto set = std::make_shared<SpecBlockSet>();
  const SpecContext* context = nullptr;
  SelectionGeometry geometry;
  std::uint8_t classTag[kBlockMaxTensors];
  std::int64_t absDir[kBlockMaxTensors * 2];
  std::int64_t systolicDt[kBlockMaxTensors];
  for (const DataflowSpec& spec : list) {
    if (spec.context().get() != context) {  // one selection after another
      context = spec.context().get();
      geometry = makeSelectionGeometry(*context);
      if (set->count == 0) {
        resetSpecBlocks(*set, geometry);
        reserveSpecBlocks(*set, list.size());
      }
      TL_CHECK(geometry.tensorRank == set->tensorRank &&
                   geometry.tensorIsOutput == set->tensorIsOutput,
               "block packing: tensor layout varies within one list");
    }
    const std::size_t T = geometry.tensorCount;
    TL_CHECK(spec.tensors().size() == T,
             "block packing: tensor count varies within one list");
    for (std::size_t k = 0; k < T; ++k) {
      const TensorDataflow& df = spec.tensors()[k].dataflow;
      classTag[k] = static_cast<std::uint8_t>(df.dataflowClass);
      const bool ranked = df.direction.size() >= 2;
      absDir[k * 2 + 0] = ranked ? std::abs(df.direction[0]) : 0;
      absDir[k * 2 + 1] = ranked ? std::abs(df.direction[1]) : 0;
      systolicDt[k] = df.dataflowClass == DataflowClass::Systolic
                          ? std::abs(df.latticeBasis.at(2, 0))
                          : 0;
    }
    appendSpecBlock(*set, geometry, spec.transform().matrix(), classTag,
                    absDir, systolicDt, spec.label());
  }
  assignSpecBlockClasses(*set);
  return set;
}

SelectionGeometry makeSelectionGeometry(const SpecContext& context) {
  SelectionGeometry g;
  const linalg::IntVector& e = context.selection.extents();
  for (std::size_t j = 0; j < 3; ++j) g.extents[j] = e[j];
  g.outer = 1;
  for (std::size_t idx : context.selection.outerIndices())
    g.outer = linalg::checkedMul(g.outer, context.algebra.loops()[idx].extent);
  g.macs = context.algebra.totalMacs();
  g.inputCount = context.algebra.inputs().size();
  g.tensorCount = context.restrictedAccesses.size();
  TL_CHECK(g.tensorCount >= 1 && g.tensorCount <= kBlockMaxTensors,
           "selection geometry: tensor count out of range");
  g.tensorRank.resize(g.tensorCount);
  g.tensorIsOutput.resize(g.tensorCount);
  g.rankStride = 0;
  for (std::size_t k = 0; k < g.tensorCount; ++k) {
    const std::size_t rank = context.restrictedAccesses[k].coeff().rows();
    TL_CHECK(rank <= kBlockMaxRank,
             "selection geometry: tensor rank out of range");
    g.tensorRank[k] = rank;
    g.tensorIsOutput[k] = k + 1 == g.tensorCount ? 1 : 0;
    g.rankStride = std::max(g.rankStride, rank);
  }
  if (g.rankStride == 0) g.rankStride = 1;
  g.absC.assign(g.tensorCount * g.rankStride * 3, 0);
  for (std::size_t k = 0; k < g.tensorCount; ++k) {
    const linalg::IntMatrix& c = context.restrictedAccesses[k].coeff();
    std::int64_t* absC = g.absC.data() + k * g.rankStride * 3;
    for (std::size_t d = 0; d < g.tensorRank[k]; ++d)
      for (std::size_t j = 0; j < 3; ++j)
        absC[d * 3 + j] = std::abs(c.at(d, j));
  }
  g.selectionLabel = context.selection.label();
  return g;
}

void resetSpecBlocks(SpecBlockSet& set, const SelectionGeometry& geometry) {
  set.count = 0;
  set.tensorsPerSpec = geometry.tensorCount;
  set.inputCount = geometry.inputCount;
  set.algebraMacs = geometry.macs;
  set.tensorIsOutput = geometry.tensorIsOutput;
  set.tensorRank = geometry.tensorRank;
  set.rankStride = geometry.rankStride;
  set.extents.clear();
  set.outer.clear();
  set.absT.clear();
  set.labels.clear();
  set.classTag.clear();
  set.absDir.clear();
  set.systolicDt.clear();
  set.absC.clear();
  set.mapClass.clear();
  set.mapClassCount = 0;
}

std::size_t appendSpecBlock(SpecBlockSet& set, const SelectionGeometry& geometry,
                            const linalg::IntMatrix& matrix,
                            const std::uint8_t* classTag,
                            const std::int64_t* absDir,
                            const std::int64_t* systolicDt, std::string label) {
  const std::size_t i = set.count++;
  const std::size_t T = geometry.tensorCount;
  set.extents.insert(set.extents.end(), geometry.extents.begin(),
                     geometry.extents.end());
  set.outer.push_back(geometry.outer);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t j = 0; j < 3; ++j)
      set.absT.push_back(std::abs(matrix.at(r, j)));
  set.labels.push_back(std::move(label));
  set.classTag.insert(set.classTag.end(), classTag, classTag + T);
  set.absDir.insert(set.absDir.end(), absDir, absDir + T * 2);
  set.systolicDt.insert(set.systolicDt.end(), systolicDt, systolicDt + T);
  set.absC.insert(set.absC.end(), geometry.absC.begin(), geometry.absC.end());
  return i;
}

void assignSpecBlockClasses(SpecBlockSet& set) {
  const std::size_t n = set.count;
  const std::size_t T = set.tensorsPerSpec;
  set.mapClass.resize(n);
  std::unordered_map<std::string, std::uint32_t> classes;
  std::string key;
  key.reserve((3 + 1 + 9 + T * set.rankStride * 3) * sizeof(std::int64_t));
  for (std::size_t i = 0; i < n; ++i) {
    key.clear();
    appendWords(key, set.specExtents(i), 3);
    appendWords(key, &set.outer[i], 1);
    appendWords(key, set.specAbsT(i), 9);
    appendWords(key, set.tensorAbsC(i, 0), T * set.rankStride * 3);
    const auto [it, inserted] =
        classes.emplace(key, static_cast<std::uint32_t>(classes.size()));
    (void)inserted;
    set.mapClass[i] = it->second;
  }
  set.mapClassCount = classes.size();
}

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
