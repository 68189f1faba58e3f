// Pluggable cost backends: one objective surface over the ASIC model
// (Fig. 6 / Synopsys-DC role) and the FPGA model (Table III / Vivado role).
//
// The exploration service evaluates every design point through a
// CostBackend, so a query selects its implementation target the same way it
// selects an objective; both backends report CostFigures (power mW + an
// area axis) and keep their full native report alongside. Backends are
// stateless and cheap to construct; cacheKey() makes evaluations from
// differently-configured backends distinguishable in the cross-query cache.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cost/fpga.hpp"
#include "sim/perf.hpp"

namespace tensorlib::cost {

enum class BackendKind { Asic, Fpga };

/// "asic" / "fpga" (the names accepted by tools and batch files).
std::string backendKindName(BackendKind kind);
/// Parses "asic"/"fpga"; nullopt for anything else.
std::optional<BackendKind> parseBackendKind(const std::string& name);

/// One evaluated cost: the backend-neutral figures plus whichever native
/// report the backend produced.
struct CostReport {
  CostFigures figures;
  AsicReport asic;                 ///< populated when kind == Asic
  std::optional<FpgaReport> fpga;  ///< populated when kind == Fpga
  std::string str() const;
};

/// Provable lower bound on one design point's Pareto axes, computable
/// without the tile-mapping search: `figures` (power, area) derive from the
/// structural inventory alone and are exact; `cycles` is the perf model's
/// cyclesLowerBound at this backend's operating point. If an incumbent
/// frontier point strictly dominates (cycles, powerMw, area), the true
/// evaluation is guaranteed to be dominated too, so the full evaluation can
/// be skipped without changing the frontier.
struct CostBound {
  double cycles = 0.0;
  CostFigures figures;
};

/// One block-path evaluation: exactly what estimatePerf + evaluate would
/// have produced for the same spec (the scalar/block equivalence contract —
/// see docs/ARCHITECTURE.md and tests/block_eval_test.cpp).
struct BlockEval {
  sim::PerfResult perf;
  CostReport cost;
};

class CostBackend {
 public:
  virtual ~CostBackend() = default;
  virtual BackendKind kind() const = 0;
  virtual std::string name() const = 0;
  /// Distinguishes evaluations in the cross-query cache: two backends with
  /// the same cacheKey must produce identical reports for every spec.
  virtual std::string cacheKey() const = 0;
  virtual CostReport evaluate(const stt::DataflowSpec& spec,
                              const stt::ArrayConfig& array) const = 0;
  /// Performance of `spec` under this backend's operating point — the ASIC
  /// backend runs the array as configured; the FPGA backend models the
  /// achieved post-route frequency and the datapath's word size, so
  /// cycles/utilization on a frontier always match the cost model beside
  /// them.
  virtual sim::PerfResult estimatePerf(const stt::DataflowSpec& spec,
                                       const stt::ArrayConfig& array) const = 0;
  /// Cheap provable lower bound on what evaluate/estimatePerf would report
  /// (see CostBound). Never exceeds the true figures in any axis.
  virtual CostBound lowerBound(const stt::DataflowSpec& spec,
                               const stt::ArrayConfig& array) const = 0;

  // ---- block-shaped entry points -------------------------------------
  // The struct-of-arrays siblings of lowerBound/estimatePerf/evaluate that
  // run()/runBatch() price every design through: same results bit for
  // bit, but reading packed SpecBlockSet arrays in tight loops with no
  // per-candidate allocation, and sharing one tile search per mapping
  // class through a BlockMappingStore. Every backend implements them.

  /// Mapping-store slots a block evaluation of `set` needs (mapping
  /// classes times this backend's operating-point fan-out).
  virtual std::size_t blockSlotCount(const stt::SpecBlockSet& set) const = 0;

  /// Lower bounds for `count` packed candidates (indices into `set`),
  /// written to out[0..count): each equals lowerBound on the same spec.
  virtual void lowerBoundBlock(const stt::SpecBlockSet& set,
                               const std::size_t* indices, std::size_t count,
                               const stt::ArrayConfig& array,
                               CostBound* out) const = 0;

  /// Full evaluation of packed candidate `i`, memoizing its tile search in
  /// `store`; equals {estimatePerf(spec, array), evaluate(spec, array)}.
  virtual BlockEval evaluateBlock(const stt::SpecBlockSet& set, std::size_t i,
                                  const stt::ArrayConfig& array,
                                  stt::BlockMappingStore& store) const = 0;
};

/// Free-function face of CostBackend::lowerBound: provable lower bounds on
/// (cycles, power, area) for `spec` on `array` priced by `backend`.
CostBound boundFigures(const stt::DataflowSpec& spec,
                       const stt::ArrayConfig& array,
                       const CostBackend& backend);

std::shared_ptr<const CostBackend> makeAsicBackend(int dataWidth = 16,
                                                   AsicCostTable table = {});
std::shared_ptr<const CostBackend> makeFpgaBackend(FpgaConfig config = {});

}  // namespace tensorlib::cost
