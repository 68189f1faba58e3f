// Design-space enumeration (the engine behind Fig. 6 and dataflow search).
//
// The engine builds 3x3 integer STT matrices with entries in
// [-maxEntry, maxEntry] DIRECTLY in canonical form, row by row with an
// incremental cross-product determinant: exactly one representative per
// orbit of the STT symmetry group (row sign flips = array mirror / time
// reversal; spatial row swap = array transpose) is ever materialized — no
// decode-everything pass, no dedupe set. The candidate list is memoized
// process-wide; the original decode-all-filter-canonicalize engine
// survives only as a test oracle (tests/legacy_enumeration.hpp).
//
// One sweep turns that stream into a design space (packDesignSpace): per
// loop selection, the dropFullReuse/dropAllUnicast filters are decided
// once through one reuse-rank check, every candidate is fast-classified
// without materializing a DataflowSpec, and — by default — one
// representative per EVALUATION class is packed straight into a
// SpecBlockSet. enumerateTransforms/enumerateDesignSpace analyze exactly
// those representatives, so every scalar consumer sees the space the
// exploration service prices. Also provides label-directed search used to
// construct every named dataflow in the paper (e.g. "MNK-MTM", "KCX-STS").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "stt/block.hpp"
#include "stt/spec.hpp"

namespace tensorlib::stt {

/// Traffic through the process-wide candidate-matrix memo, which every
/// enumeration and findDataflow lookup goes through. The memo is bounded:
/// once more distinct option keys than the capacity have been seen, the
/// oldest list is evicted FIFO (in-flight holders keep evicted lists alive
/// through their shared_ptr).
struct CandidateCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

CandidateCacheStats candidateCacheStats();

/// Drops every memoized candidate list (stats are preserved): the
/// cold-start hook for honest enumeration timing.
void clearCandidateCache();

/// Sets the memo's capacity (distinct option keys kept); returns the
/// previous capacity. Values below 1 clamp to 1.
std::size_t setCandidateCacheCapacity(std::size_t capacity);

/// One memoized candidate-matrix list together with the option key that
/// produced it — the unit of candidate-memo snapshot/restore (see
/// driver/snapshot.*). The three key fields are exactly the
/// EnumerationOptions knobs the candidate generator reads.
struct CandidateCacheEntry {
  int maxEntry = 1;
  bool requireUnimodular = true;
  bool canonicalize = true;
  std::shared_ptr<const std::vector<linalg::IntMatrix>> matrices;
};

/// The memo's current contents in FIFO (insertion) order.
std::vector<CandidateCacheEntry> exportCandidateCache();

/// Re-inserts exported entries, oldest first (insert-if-absent: a resident
/// list for the same key wins, and capacity-driven FIFO eviction still
/// applies). Counts as neither hit nor miss; returns how many entries were
/// actually inserted.
std::size_t importCandidateCache(const std::vector<CandidateCacheEntry>& entries);

/// Design-space generation controls. Every knob defines WHICH specs exist;
/// docs/TUNING.md documents each one with defaults and flip-guidance.
struct EnumerationOptions {
  int maxEntry = 1;               ///< entry range [-maxEntry, maxEntry]
  bool requireUnimodular = true;  ///< |det| == 1 (integral inverse)
  bool canonicalize = true;       ///< quotient mirror/transpose symmetries
  /// Keep one representative per evaluation class: within a loop
  /// selection, candidates with equal |T| and equal per-tensor (dataflow
  /// class, |direction|, |dt|) — the whole read set of the packed models —
  /// price bit-identically, so the quotient loses no frontier value. Off:
  /// the exact candidate stream, the reference the exactness tests compare
  /// the quotient against.
  bool dedupeBySignature = true;
  /// Drop specs containing a FullReuse (rank-3) tensor: the tensor would be
  /// a single scalar for the whole pass, a degenerate design.
  bool dropFullReuse = true;
  /// Drop specs whose *output* is Unicast AND some input is Unicast too —
  /// such designs stream everything and reuse nothing.
  bool dropAllUnicast = true;
};

/// All 3-loop selections of the algebra in nest order (C(n,3) of them).
std::vector<LoopSelection> allLoopSelections(const tensor::TensorAlgebra& algebra);

/// One (algebra, enumeration) design space, packed once: the SpecBlockSet
/// every packed model prices, plus what turns slot i back into a
/// DataflowSpec — its signed matrix (an index into the memoized candidate
/// list, which the space keeps alive) and its selection's shared context.
/// Slots run selection by selection in allLoopSelections order and
/// simplest-first within a selection, so the slot index is the frontier's
/// enumeration-order tie-break.
struct DesignSpace {
  SpecBlockSet blocks;
  std::shared_ptr<const std::vector<linalg::IntMatrix>> candidates;
  std::vector<std::uint32_t> candidateOf;  ///< per slot: into *candidates
  std::vector<SpecContextPtr> contexts;    ///< per selection with slots
  std::vector<std::uint32_t> contextOf;    ///< per slot: into contexts

  std::size_t size() const { return blocks.count; }
  const linalg::IntMatrix& matrix(std::size_t i) const {
    return (*candidates)[candidateOf[i]];
  }
  const SpecContextPtr& context(std::size_t i) const {
    return contexts[contextOf[i]];
  }
  /// Slot i's per-tensor letters, e.g. "SST" (its label after the dash).
  std::string_view letters(std::size_t i) const;
  /// analyzeDataflow on slot i: how a packed design becomes a DataflowSpec
  /// (frontier keepers, scalar consumers). Its label equals blocks.labels[i].
  DataflowSpec spec(std::size_t i) const;
};

/// The one design-space sweep: for each loop selection that passes the
/// dropFullReuse/dropAllUnicast filters, every memoized canonical candidate
/// is fast-classified straight from the selection's reuse nullspace bases
/// (no DataflowSpec, no matrix inverse) and appended to the packed set —
/// only if its evaluation class is new when options.dedupeBySignature.
/// The set's mapping-class partition is built before it is returned.
DesignSpace packDesignSpace(const tensor::TensorAlgebra& algebra,
                            const EnumerationOptions& options = {});

/// Enumerate the transform design space for one selection: the analyzed
/// slots of that selection's sweep.
std::vector<DataflowSpec> enumerateTransforms(const tensor::TensorAlgebra& algebra,
                                              const LoopSelection& selection,
                                              const EnumerationOptions& options = {});

/// Enumerate over all selections of the algebra: every slot of
/// packDesignSpace(algebra, options), analyzed, in slot order.
std::vector<DataflowSpec> enumerateDesignSpace(const tensor::TensorAlgebra& algebra,
                                               const EnumerationOptions& options = {});

/// Finds the simplest transform whose per-tensor letters match `letters`
/// (e.g. "SST"); among matches prefers fewest nonzero entries, then
/// lexicographically smallest matrix, which keeps results deterministic.
std::optional<DataflowSpec> findDataflow(const tensor::TensorAlgebra& algebra,
                                         const LoopSelection& selection,
                                         const std::string& letters,
                                         const EnumerationOptions& options = {});

/// findDataflow with a paper-style full label "XPQ-MMT": parses the loop
/// initials and the letters. Throws if the label is malformed or no loop
/// matches an initial; returns nullopt if no transform realizes the letters.
std::optional<DataflowSpec> findDataflowByLabel(const tensor::TensorAlgebra& algebra,
                                                const std::string& label,
                                                const EnumerationOptions& options = {});

// ---- orbit quotient -----------------------------------------------------

/// The canonical representative of `m`'s orbit under the STT symmetry
/// group (row sign flips x space-row swap): sign-canonicalize all three
/// rows, then order the space rows lexicographically. Idempotent; the
/// direct engine only ever materializes matrices with
/// canonicalTransform(m) == m.
linalg::IntMatrix canonicalTransform(const linalg::IntMatrix& m);

/// The full orbit of `m` under the 16-element STT symmetry group, as a
/// deduplicated list (orbits of matrices with zero rows or equal space
/// rows are smaller than 16). Every element of an orbit describes the
/// same hardware; summing orbit sizes over all representatives recovers
/// the full-cube count — the orbit-accounting proof of true quotienting.
std::vector<linalg::IntMatrix> symmetryOrbit(const linalg::IntMatrix& m);

/// The memoized candidate-matrix list for `options` (canonical
/// representatives, sorted simplest-first) — the exact stream every
/// design-space sweep iterates, exposed for the orbit-soundness tests and
/// benches.
std::shared_ptr<const std::vector<linalg::IntMatrix>> candidateTransformMatrices(
    const EnumerationOptions& options = {});

}  // namespace tensorlib::stt
