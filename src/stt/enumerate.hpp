// Design-space enumeration (the engine behind Fig. 6 and dataflow search).
//
// The engine builds 3x3 integer STT matrices with entries in
// [-maxEntry, maxEntry] DIRECTLY in canonical form, row by row with an
// incremental cross-product determinant: exactly one representative per
// orbit of the STT symmetry group (row sign flips = array mirror / time
// reversal; spatial row swap = array transpose) is ever materialized — no
// decode-everything pass, no dedupe set. The candidate list is memoized
// process-wide and analysis fans out over the thread pool; the original
// decode-all-filter-canonicalize engine survives only as a test oracle
// (tests/legacy_enumeration.hpp). On top of the candidate stream sit two
// consumers: the classic analyze-then-dedupe sweep (enumerateTransforms)
// and the bound-first branch-and-bound search (enumerateBoundFirst), which
// cuts candidates against admissible partial-transform cost bounds and
// quotients by evaluation class before any DataflowSpec exists. Both apply
// the dropFullReuse/dropAllUnicast filters once per loop selection, through
// one reuse-rank check, before any candidate is analyzed. Also provides
// label-directed search used to construct every named dataflow in the
// paper (e.g. "MNK-MTM", "KCX-STS").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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
/// EnumerationOptions knobs the candidate generator reads, so list and
/// bound-first enumeration at one maxEntry share one entry.
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
  bool dedupeBySignature = true;  ///< one spec per dataflow signature
  /// Drop specs containing a FullReuse (rank-3) tensor: the tensor would be
  /// a single scalar for the whole pass, a degenerate design.
  bool dropFullReuse = true;
  /// Drop specs whose *output* is Unicast AND some input is Unicast too —
  /// such designs stream everything and reuse nothing.
  bool dropAllUnicast = true;
  /// Bound-first branch-and-bound enumeration: candidates are classified
  /// without materializing a DataflowSpec, cut against admissible
  /// partial-transform cost bounds (when the caller supplies them), and —
  /// when dedupeBySignature is on — quotiented by EVALUATION class
  /// (|T| plus per-tensor class/|direction|/|dt|, the exact read set of
  /// the packed models) instead of by dataflow signature. With
  /// dedupeBySignature off the surviving list is identical to the classic
  /// engine's. Spec-defining: the quotient keeps different representatives
  /// than signature dedupe (same evaluated figures, pinned by tests).
  bool boundFirst = false;
};

/// All 3-loop selections of the algebra in nest order (C(n,3) of them).
std::vector<LoopSelection> allLoopSelections(const tensor::TensorAlgebra& algebra);

/// Enumerate the transform design space for one selection.
std::vector<DataflowSpec> enumerateTransforms(const tensor::TensorAlgebra& algebra,
                                              const LoopSelection& selection,
                                              const EnumerationOptions& options = {});

/// Enumerate over all selections of the algebra.
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
/// representatives, sorted simplest-first) — the exact stream both
/// enumerateTransforms and enumerateBoundFirst iterate, exposed for the
/// orbit-soundness tests and benches.
std::shared_ptr<const std::vector<linalg::IntMatrix>> candidateTransformMatrices(
    const EnumerationOptions& options = {});

// ---- bound-first branch-and-bound search --------------------------------

/// One survivor of the bound-first search, handed to BoundFirstHooks::emit.
/// Every pointer borrows search-internal storage valid ONLY during the
/// callback — consumers must copy what they keep (appendSpecBlock does).
struct BoundFirstCandidate {
  const linalg::IntMatrix* matrix = nullptr;  ///< canonical representative
  const std::uint8_t* classTag = nullptr;     ///< DataflowClass, 1/tensor
  const std::int64_t* absDir = nullptr;       ///< 2/tensor: |dp1|,|dp2|
  const std::int64_t* systolicDt = nullptr;   ///< 1/tensor: |dt| (Systolic)
  const char* letters = nullptr;              ///< NUL-terminated, 1/tensor
};

/// Caller-supplied hooks of the bound-first search. All optional.
struct BoundFirstHooks {
  /// Cut predicate, called once per candidate with both space rows placed
  /// (time row free). Return true to discard the candidate unseen. The
  /// caller must only cut when an admissible bound proves every completion
  /// dominated (see cost::CostBackend::lowerBoundPartial) — the search
  /// itself never second-guesses the predicate.
  std::function<bool(const PartialTransform&)> cut;
  /// Receives each surviving representative in deterministic
  /// (simplest-first) candidate order.
  std::function<void(const BoundFirstCandidate&)> emit;
  /// Polled every few hundred candidates; returning true stops the search
  /// cleanly (BoundFirstStats::stopped reports it). Deadline hook.
  std::function<bool()> shouldStop;
};

/// Accounting of one bound-first sweep: visited == cut + deduped + emitted
/// (+ candidates never reached when stopped).
struct BoundFirstStats {
  std::size_t visited = 0;  ///< candidates considered
  std::size_t cut = 0;      ///< discarded by the cut predicate
  std::size_t deduped = 0;  ///< quotiented into an emitted class
  std::size_t emitted = 0;  ///< survivors handed to emit
  bool stopped = false;     ///< shouldStop ended the sweep early
};

/// Bound-first branch-and-bound sweep over one selection: iterates the
/// memoized canonical candidate list, prices each candidate's partial
/// transform through hooks.cut BEFORE any classification, fast-classifies
/// survivors straight from precomputed nullspace bases (no DataflowSpec,
/// no SpecContext copy, no matrix inverse), applies the
/// dropFullReuse/dropAllUnicast filters (the selection-level check
/// enumerateTransforms shares) and the evaluation-class quotient (when
/// options.dedupeBySignature), and emits the remainder. `geometry` must be
/// makeSelectionGeometry(*context).
BoundFirstStats enumerateBoundFirst(const SpecContextPtr& context,
                                    const SelectionGeometry& geometry,
                                    const EnumerationOptions& options,
                                    const BoundFirstHooks& hooks);

}  // namespace tensorlib::stt
