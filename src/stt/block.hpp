// Struct-of-arrays packing of an enumerated design space.
//
// The scalar models walk pointer-rich DataflowSpec objects one candidate
// at a time; every bound, mapping search and cost model re-reads
// the same transform matrix, extents and access coefficients through
// shared_ptr indirections. A SpecBlockSet packs the read sets of those
// models — |transform| entries, selected extents, outer-iteration product,
// per-tensor |access| coefficients, dataflow class tags — into contiguous
// arrays built once per design space (stt::packDesignSpace fills it), so
// block-shaped bound/perf/cost entry points (sim::cyclesLowerBound over a
// set, cost::CostBackend's block overloads) run as tight loops with no
// per-candidate allocation.
//
// The packed arrays store *absolute values*: every consumer (tile-mapping
// search, cycle lower bound, structural inventory) is provably
// sign-invariant, which is also why the mapping-class partition below is
// coarser than spec identity. Packing never changes results: the packed
// mapping search and the packed models are pinned bit-identical to their
// scalar counterparts by tests/block_eval_test.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stt/mapping.hpp"

namespace tensorlib::stt {

/// Contiguous struct-of-arrays view of one enumerated design space. All
/// specs of one space share an algebra, so per-space facts (tensor count,
/// per-tensor rank, total MACs) are stored once. Tensors keep label order:
/// inputs in formula order, the output last.
struct SpecBlockSet {
  std::size_t count = 0;           ///< specs in the set
  std::size_t tensorsPerSpec = 0;  ///< uniform across the space
  std::size_t inputCount = 0;      ///< algebra().inputs().size()
  std::int64_t algebraMacs = 0;    ///< algebra().totalMacs()

  // Per spec, contiguous.
  std::vector<std::int64_t> extents;  ///< 3/spec: selected loop extents
  std::vector<std::int64_t> outer;    ///< 1/spec: outer-iteration product
  std::vector<std::int64_t> absT;     ///< 9/spec: |transform|, row-major
  std::vector<std::string> labels;    ///< spec.label(), for frontier entries

  // Per (spec, tensor).
  std::vector<std::uint8_t> classTag;    ///< DataflowClass, 1/tensor
  std::vector<std::int64_t> absDir;      ///< 2/tensor: |dp1|,|dp2| (rank-1)
  std::vector<std::int64_t> systolicDt;  ///< |lattice dt| (Systolic only)

  // Per tensor, uniform across the space.
  std::vector<std::uint8_t> tensorIsOutput;  ///< role.isOutput flags
  std::vector<std::size_t> tensorRank;       ///< restricted-access rank
  std::size_t rankStride = 0;                ///< max rank: absC row block

  /// |restricted access| coefficients: per (spec, tensor) a rankStride x 3
  /// row-major block, rows beyond the tensor's rank zero-padded.
  std::vector<std::int64_t> absC;

  /// Mapping-class partition: specs whose packed mapping read set
  /// (extents, outer, |T|, |C|) is identical share an id in
  /// [0, mapClassCount) — they provably map identically on every array,
  /// so a block evaluation runs one tile search per class, not per spec.
  std::vector<std::uint32_t> mapClass;
  std::size_t mapClassCount = 0;

  const std::int64_t* specExtents(std::size_t i) const {
    return extents.data() + i * 3;
  }
  const std::int64_t* specAbsT(std::size_t i) const { return absT.data() + i * 9; }
  std::size_t tensorIndex(std::size_t i, std::size_t k) const {
    return i * tensorsPerSpec + k;
  }
  const std::int64_t* tensorAbsC(std::size_t i, std::size_t k) const {
    return absC.data() + tensorIndex(i, k) * rankStride * 3;
  }
};

/// Scratch-size ceilings for the allocation-free block loops. Generously
/// above anything a real tensor algebra produces (the paper's widest
/// workload has 4 tensors of rank <= 3); packing fails loudly if exceeded.
inline constexpr std::size_t kBlockMaxTensors = 8;
inline constexpr std::size_t kBlockMaxRank = 8;

/// computeMapping on packed data: bit-identical to computeMapping on the
/// spec packed in slot i — pinned by tests — but allocation-free until the
/// winning mapping is materialized, and with monotone early exits in the
/// tile search (spatial spans only grow with tile extents, so the first
/// non-fitting candidate ends its loop).
TileMapping computeMappingPacked(const SpecBlockSet& set, std::size_t i,
                                 const ArrayConfig& config);

/// Per-query mapping store for block evaluation — the one tile-search memo
/// of the exploration pipeline: one slot per mapping class (times the
/// backend's operating-point fan-out), each computed once under a
/// once_flag on first use. There is no key, no lock contention and no
/// eviction — a slot index is the whole lookup.
class BlockMappingStore {
 public:
  explicit BlockMappingStore(std::size_t slots);

  /// The mapping for packed spec `i` under `config`, memoized in `slot`.
  /// Callers must use a consistent (spec class, config) per slot.
  const TileMapping& get(const SpecBlockSet& set, std::size_t i,
                         const ArrayConfig& config, std::size_t slot);

  /// Tile searches run so far: one per slot ever filled. Read it only once
  /// the evaluations that call get() have joined (the per-slot flags are
  /// plain fields written under each slot's once_flag).
  std::size_t searches() const;

 private:
  struct Slot {
    std::once_flag once;
    bool searched = false;
    TileMapping mapping;
  };
  std::unique_ptr<Slot[]> slots_;
  std::size_t count_ = 0;
};

}  // namespace tensorlib::stt
