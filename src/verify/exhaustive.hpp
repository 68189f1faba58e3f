// The exhaustive reference for driver::ExplorationService: every design
// point of a query, enumerated by stt::enumerateDesignSpace and priced by
// the query's backend scalar models (estimatePerf + evaluate) in
// enumeration order. No cache, no pool, no packing, no pruning: nothing is
// shared with the service it checks. The run()/runBatch() differential
// tests fold their expected frontiers from it; Session::exploreAll returns it.
#pragma once

#include <vector>

#include "driver/explore_service.hpp"

namespace tensorlib::verify {

/// Every design point of `query` in enumeration order, each priced by the
/// query's backend on the query's array. The deadline is ignored.
std::vector<driver::DesignReport> exhaustiveReports(
    const driver::ExploreQuery& query);

}  // namespace tensorlib::verify
