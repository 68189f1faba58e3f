// DataflowSpec: a fully analyzed (algebra, loop selection, STT) triple —
// the unit of TensorLib's design space. Produces paper-style labels such as
// "MNK-SST" (selected loops, then one dataflow letter per tensor: inputs in
// formula order followed by the output).
//
// Specs are cheap to copy: the algebra and selection live in an immutable
// SpecContext shared (via shared_ptr) by every spec of one enumeration
// sweep, so a spec carries only the small-value transform, the per-tensor
// roles, and the cached letter string. Enumerating ~4k transforms of one
// selection no longer deep-copies the TensorAlgebra 4k times.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stt/classify.hpp"
#include "stt/transform.hpp"
#include "tensor/algebra.hpp"

namespace tensorlib::stt {

/// Dataflow of one tensor within a spec.
struct TensorRole {
  std::string tensor;
  bool isOutput = false;
  tensor::AffineAccess access;           ///< restricted to the selected loops
  tensor::AffineAccess fullAccess;       ///< over the whole nest
  TensorDataflow dataflow;
};

/// The immutable (algebra, selection) pair shared by every spec of one
/// enumeration sweep, plus the per-tensor restricted accesses (computed once
/// per selection instead of once per candidate transform).
struct SpecContext {
  SpecContext(tensor::TensorAlgebra algebra, LoopSelection selection);

  tensor::TensorAlgebra algebra;
  LoopSelection selection;
  /// Accesses restricted to the selected loops, in label order (inputs in
  /// formula order, output last).
  std::vector<tensor::AffineAccess> restrictedAccesses;
};

using SpecContextPtr = std::shared_ptr<const SpecContext>;

/// Builds the shared immutable context for one (algebra, selection) pair.
SpecContextPtr makeSpecContext(tensor::TensorAlgebra algebra,
                               LoopSelection selection);

/// A complete analyzed dataflow design point.
class DataflowSpec {
 public:
  DataflowSpec(SpecContextPtr context, SpaceTimeTransform transform,
               std::vector<TensorRole> tensors);
  /// Compatibility constructor: wraps the pair into a fresh context.
  DataflowSpec(tensor::TensorAlgebra algebra, LoopSelection selection,
               SpaceTimeTransform transform, std::vector<TensorRole> tensors);

  const tensor::TensorAlgebra& algebra() const { return context_->algebra; }
  const LoopSelection& selection() const { return context_->selection; }
  const SpaceTimeTransform& transform() const { return transform_; }
  /// The shared (algebra, selection) context this spec aliases.
  const SpecContextPtr& context() const { return context_; }
  /// Tensors in label order: inputs in formula order, output last.
  const std::vector<TensorRole>& tensors() const { return tensors_; }
  const TensorRole& outputRole() const { return tensors_.back(); }

  /// Paper-style label, e.g. "MNK-SST", "KCX-STS", "IKL-UBBB".
  std::string label() const;
  /// Just the per-tensor letters, e.g. "SST" (cached at construction).
  const std::string& letters() const { return letters_; }

  /// Canonical dataflow signature: the selection plus, per tensor, the
  /// dataflow class and (rank-1) direction / (rank-2) canonicalized basis.
  std::string signature() const;

  std::string describe() const;

 private:
  SpecContextPtr context_;
  SpaceTimeTransform transform_;
  std::vector<TensorRole> tensors_;
  std::string letters_;
};

/// Runs the full analysis pipeline: restrict accesses to the selection,
/// compute reuse subspaces under T, classify each tensor (Table I).
DataflowSpec analyzeDataflow(const tensor::TensorAlgebra& algebra,
                             const LoopSelection& selection,
                             const SpaceTimeTransform& transform);

/// Zero-copy variant: analyzes one transform against a shared context. All
/// specs produced from the same context alias one algebra/selection.
DataflowSpec analyzeDataflow(const SpecContextPtr& context,
                             const SpaceTimeTransform& transform);

}  // namespace tensorlib::stt
