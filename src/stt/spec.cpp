#include "stt/spec.hpp"

#include <sstream>

#include "support/error.hpp"

namespace tensorlib::stt {

SpecContext::SpecContext(tensor::TensorAlgebra a, LoopSelection s)
    : algebra(std::move(a)), selection(std::move(s)) {
  for (const tensor::TensorRef* ref : algebra.tensorsInLabelOrder())
    restrictedAccesses.push_back(ref->access.restrictedTo(selection.indices()));
}

SpecContextPtr makeSpecContext(tensor::TensorAlgebra algebra,
                               LoopSelection selection) {
  return std::make_shared<const SpecContext>(std::move(algebra),
                                             std::move(selection));
}

DataflowSpec::DataflowSpec(SpecContextPtr context, SpaceTimeTransform transform,
                           std::vector<TensorRole> tensors)
    : context_(std::move(context)),
      transform_(std::move(transform)),
      tensors_(std::move(tensors)) {
  TL_CHECK(context_ != nullptr, "DataflowSpec: null context");
  TL_CHECK(tensors_.size() == context_->algebra.inputs().size() + 1,
           "DataflowSpec: tensor role count mismatch");
  TL_CHECK(tensors_.back().isOutput, "DataflowSpec: output role must be last");
  letters_.reserve(tensors_.size());
  for (const auto& t : tensors_)
    letters_ += dataflowLetter(t.dataflow.dataflowClass);
}

DataflowSpec::DataflowSpec(tensor::TensorAlgebra algebra, LoopSelection selection,
                           SpaceTimeTransform transform,
                           std::vector<TensorRole> tensors)
    : DataflowSpec(makeSpecContext(std::move(algebra), std::move(selection)),
                   std::move(transform), std::move(tensors)) {}

std::string DataflowSpec::label() const {
  return selection().label() + "-" + letters_;
}

std::string DataflowSpec::signature() const {
  std::ostringstream os;
  os << selection().label();
  for (const auto& t : tensors_) {
    os << "|" << t.tensor << ":" << static_cast<int>(t.dataflow.dataflowClass);
    if (t.dataflow.reuseRank == 1) {
      os << ":" << linalg::str(t.dataflow.direction);
    } else if (t.dataflow.reuseRank >= 2) {
      // Canonicalize the plane: row-reduce the basis transpose so any basis
      // of the same subspace yields the same string.
      const auto red = linalg::rref(
          linalg::toRational(t.dataflow.reuseBasis.transposed()));
      os << ":";
      for (std::size_t i = 0; i < red.rank; ++i) {
        linalg::RatVector row = red.matrix.row(i);
        os << linalg::str(linalg::clearDenominators(row));
      }
    }
  }
  return os.str();
}

std::string DataflowSpec::describe() const {
  std::ostringstream os;
  os << label() << "  T=" << transform_.str();
  for (const auto& t : tensors_) {
    os << "\n  " << t.tensor << (t.isOutput ? " (out)" : "      ") << ": "
       << dataflowClassName(t.dataflow.dataflowClass);
    if (t.dataflow.reuseRank == 1)
      os << " dir=" << linalg::str(t.dataflow.direction);
  }
  return os.str();
}

DataflowSpec analyzeDataflow(const SpecContextPtr& context,
                             const SpaceTimeTransform& transform) {
  TL_CHECK(context != nullptr, "analyzeDataflow: null context");
  const auto refs = context->algebra.tensorsInLabelOrder();
  std::vector<TensorRole> roles;
  roles.reserve(refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const tensor::TensorRef* ref = refs[i];
    TensorRole role;
    role.tensor = ref->tensor;
    role.isOutput = (ref == &context->algebra.output());
    role.fullAccess = ref->access;
    role.access = context->restrictedAccesses[i];
    role.dataflow = classify(analyzeReuse(role.access, transform));
    roles.push_back(std::move(role));
  }
  return DataflowSpec(context, transform, std::move(roles));
}

DataflowSpec analyzeDataflow(const tensor::TensorAlgebra& algebra,
                             const LoopSelection& selection,
                             const SpaceTimeTransform& transform) {
  return analyzeDataflow(makeSpecContext(algebra, selection), transform);
}

}  // namespace tensorlib::stt
