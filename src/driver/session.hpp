// High-level driver: the one-call interface a downstream user starts with.
//
// A Session owns a workload + target configuration and exposes the
// end-to-end flows of Fig. 2 of the paper:
//   compileLabel("MNK-SST")  — dataflow generation + hardware implementation
//   compileBest(objective)   — design-space exploration, pick the winner
//   exploreAll()             — the full evaluated space (Fig. 5/6 material)
// plus artifact generation (Verilog) and verification (RTL and behavioral)
// for any produced design. compileBest explores through the process-wide
// ExplorationService's packed, pruned run(); exploreAll returns the
// cache-free exhaustive reference (verify::exhaustiveReports); compileLabel
// prices its one spec through the cost backend directly.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cost/backend.hpp"
#include "driver/pareto.hpp"
#include "sim/perf.hpp"
#include "stt/enumerate.hpp"
#include "verify/conformance.hpp"

namespace tensorlib::driver {

/// One evaluated design point: the spec plus its measured performance and
/// implementation cost on the target array. The cost comes from one of the
/// pluggable backends — `asic` is populated for the ASIC backend (the
/// Session default), `fpga` for the FPGA backend; `figures()` is the
/// backend-neutral view objectives and Pareto frontiers use.
struct DesignReport {
  stt::DataflowSpec spec;
  sim::PerfResult perf;
  cost::AsicReport asic;
  std::optional<cost::FpgaReport> fpga;
  cost::BackendKind backend = cost::BackendKind::Asic;

  DesignReport(stt::DataflowSpec s, sim::PerfResult p, cost::CostReport c)
      : spec(std::move(s)),
        perf(p),
        asic(std::move(c.asic)),
        fpga(std::move(c.fpga)),
        backend(fpga ? cost::BackendKind::Fpga : cost::BackendKind::Asic) {}

  cost::CostFigures figures() const {
    return fpga ? fpga->figures() : asic.figures();
  }
  double energyDelay() const {
    return figures().powerMw * static_cast<double>(perf.totalCycles);
  }
  std::string summary() const;
};

class Session {
 public:
  Session(tensor::TensorAlgebra algebra, stt::ArrayConfig array,
          int dataWidth = 16);

  const tensor::TensorAlgebra& algebra() const { return algebra_; }
  const stt::ArrayConfig& array() const { return array_; }

  /// Analyzes and evaluates one named dataflow; nullopt if unrealizable.
  std::optional<DesignReport> compileLabel(const std::string& label) const;

  /// Evaluates the whole enumerated design space (all loop selections), in
  /// enumeration order, through verify::exhaustiveReports: no cache, no
  /// pruning, every report materialized.
  std::vector<DesignReport> exploreAll() const;

  /// Explores through the shared service's run() and returns its objective
  /// winner (driver::pickBest over the Pareto frontier; its objective value
  /// is the best over exploreAll(), exact ties broken canonically). Stores
  /// the explored design count in `*designs` when given. Throws if the
  /// design space is empty.
  DesignReport compileBest(Objective objective,
                           std::size_t* designs = nullptr) const;

  /// Emits synthesizable Verilog for a design (throws for rank-2 outputs,
  /// which the netlist generator does not support).
  std::string emitVerilog(const DesignReport& report) const;

  /// Generates the design's netlist and verifies one tile at RTL level
  /// against golden values; returns true on exact match.
  bool verifyRtl(const DesignReport& report, std::uint64_t seed = 1) const;

  /// Verifies the full workload with the behavioral simulator against the
  /// software reference; returns true on exact match.
  bool verifyBehavioral(const DesignReport& report, std::uint64_t seed = 1) const;

  /// Runs the cross-layer conformance oracle over this session's algebra on
  /// its array: every (capped) design point through the dense reference,
  /// both behavioral trace paths, and both RTL engines; the report names the
  /// first divergent layer per failing design with a replay seed.
  /// `options.array` is overridden by the session's array.
  verify::ConformanceReport verifyConformance(
      verify::ConformanceOptions options = {}) const;

 private:
  tensor::TensorAlgebra algebra_;
  stt::ArrayConfig array_;
  int dataWidth_;
};

}  // namespace tensorlib::driver
