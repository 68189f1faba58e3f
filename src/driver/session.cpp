#include "driver/session.hpp"

#include <sstream>

#include "arch/testbench.hpp"
#include "driver/explore_service.hpp"
#include "hwir/verilog.hpp"
#include "sim/dfsim.hpp"
#include "support/error.hpp"
#include "tensor/reference.hpp"
#include "verify/exhaustive.hpp"

namespace tensorlib::driver {

std::string DesignReport::summary() const {
  const cost::CostFigures f = figures();
  std::ostringstream os;
  os << spec.label() << ": util " << 100.0 * perf.utilization << "%, "
     << perf.totalCycles << " cycles, " << f.powerMw << " mW, ";
  if (backend == cost::BackendKind::Fpga)
    os << 100.0 * f.area << "% of device";
  else
    os << f.area << " mm2";
  os << (perf.bandwidthBound ? " [bandwidth-bound]" : "");
  return os.str();
}

Session::Session(tensor::TensorAlgebra algebra, stt::ArrayConfig array,
                 int dataWidth)
    : algebra_(std::move(algebra)), array_(array), dataWidth_(dataWidth) {}

/// The session as a service query: ASIC backend at the session's data
/// width, default enumeration — the seed exploreAll() contract.
static ExploreQuery sessionQuery(const tensor::TensorAlgebra& algebra,
                                 const stt::ArrayConfig& array, int dataWidth) {
  ExploreQuery q(algebra);
  q.array = array;
  q.dataWidth = dataWidth;
  return q;
}

std::optional<DesignReport> Session::compileLabel(const std::string& label) const {
  auto spec = stt::findDataflowByLabel(algebra_, label);
  if (!spec) return std::nullopt;
  const auto backend = makeBackend(sessionQuery(algebra_, array_, dataWidth_));
  const sim::PerfResult perf = backend->estimatePerf(*spec, array_);
  cost::CostReport cost = backend->evaluate(*spec, array_);
  return DesignReport(std::move(*spec), perf, std::move(cost));
}

std::vector<DesignReport> Session::exploreAll() const {
  return verify::exhaustiveReports(sessionQuery(algebra_, array_, dataWidth_));
}

DesignReport Session::compileBest(Objective objective,
                                  std::size_t* designs) const {
  ExploreQuery q = sessionQuery(algebra_, array_, dataWidth_);
  q.objective = objective;
  QueryResult result = ExplorationService::shared().run(q);
  TL_CHECK(result.best.has_value(),
           "design space is empty for " + algebra_.name());
  if (designs != nullptr) *designs = result.designs;
  return std::move(*result.best);
}

std::string Session::emitVerilog(const DesignReport& report) const {
  arch::HardwareConfig hw;
  hw.dataWidth = dataWidth_;
  const auto acc = arch::generateAccelerator(report.spec, array_, hw);
  return hwir::emitVerilog(acc.netlist);
}

bool Session::verifyRtl(const DesignReport& report, std::uint64_t seed) const {
  arch::HardwareConfig hw;
  hw.dataWidth = dataWidth_;
  const auto acc = arch::generateAccelerator(report.spec, array_, hw);
  const auto env = tensor::makeRandomInputs(algebra_, seed);
  return arch::runAcceleratorTile(acc, env).matches();
}

bool Session::verifyBehavioral(const DesignReport& report,
                               std::uint64_t seed) const {
  const auto env = tensor::makeRandomInputs(algebra_, seed);
  const auto result = sim::simulate(report.spec, array_, &env);
  const auto golden = tensor::referenceExecute(algebra_, env);
  return result.output.maxAbsDiff(golden) == 0.0;
}

verify::ConformanceReport Session::verifyConformance(
    verify::ConformanceOptions options) const {
  options.array = array_;
  return verify::checkAlgebra(algebra_, options);
}

}  // namespace tensorlib::driver
