#include "verify/exhaustive.hpp"

namespace tensorlib::verify {

std::vector<driver::DesignReport> exhaustiveReports(
    const driver::ExploreQuery& query) {
  const auto backend = driver::makeBackend(query);
  std::vector<driver::DesignReport> reports;
  for (stt::DataflowSpec& spec :
       stt::enumerateDesignSpace(query.algebra, query.enumeration)) {
    const sim::PerfResult perf = backend->estimatePerf(spec, query.array);
    cost::CostReport cost = backend->evaluate(spec, query.array);
    reports.emplace_back(std::move(spec), perf, std::move(cost));
  }
  return reports;
}

}  // namespace tensorlib::verify
