// Batched exploration walkthrough: many queries, one service.
//
// Submits an overlapping batch — the same GEMM under three objectives and
// two cost backends, plus an attention kernel — to an ExplorationService
// and prints each query's Pareto frontier, its objective winner, and the
// cache traffic that shows the overlap being amortized: the three ASIC
// GEMM queries evaluate the design space once, the other two objectives
// ride entirely on cache hits.
#include <cstdio>
#include <future>

#include "driver/explore_service.hpp"
#include "tensor/workloads.hpp"

using namespace tensorlib;

namespace {

driver::ExploreQuery gemmQuery(driver::Objective objective,
                               cost::BackendKind backend) {
  driver::ExploreQuery q(tensor::workloads::gemm(64, 64, 64));
  q.array.rows = q.array.cols = 8;
  q.objective = objective;
  q.backend = backend;
  return q;
}

}  // namespace

int main() {
  std::vector<driver::ExploreQuery> batch;
  batch.push_back(gemmQuery(driver::Objective::Performance, cost::BackendKind::Asic));
  batch.push_back(gemmQuery(driver::Objective::Power, cost::BackendKind::Asic));
  batch.push_back(gemmQuery(driver::Objective::EnergyDelay, cost::BackendKind::Asic));
  batch.push_back(gemmQuery(driver::Objective::Performance, cost::BackendKind::Fpga));
  batch.push_back(gemmQuery(driver::Objective::Power, cost::BackendKind::Fpga));
  {
    driver::ExploreQuery attn(tensor::workloads::attention(32, 32, 32));
    attn.array.rows = attn.array.cols = 8;
    attn.objective = driver::Objective::Performance;
    batch.push_back(attn);
  }

  driver::ExplorationService service;
  const auto results = service.runBatch(batch);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& q = batch[i];
    const auto& r = results[i];
    std::printf("query %zu: %s / %s / %s — %zu designs, frontier %zu, "
                "cache %llu hits / %llu misses\n",
                i, q.algebra.name().c_str(),
                cost::backendKindName(q.backend).c_str(),
                driver::objectiveName(q.objective).c_str(), r.designs, r.frontier.size(),
                static_cast<unsigned long long>(r.cache.hits),
                static_cast<unsigned long long>(r.cache.misses));
    for (const auto& rep : r.frontier) std::printf("  %s\n", rep.summary().c_str());
    if (r.best) std::printf("  best: %s\n", r.best->summary().c_str());
  }

  const auto stats = service.cacheStats();
  std::printf("service cache: %s\n", stats.str().c_str());

  // An async one-off rides the same cache: this repeat of the first query
  // costs only lookups.
  auto future = std::async(std::launch::async,
                           [&] { return service.run(batch[0]); });
  const auto again = future.get();
  std::printf("async repeat: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(again.cache.hits),
              static_cast<unsigned long long>(again.cache.misses));
  return 0;
}
