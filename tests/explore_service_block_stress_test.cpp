// Block-pipeline stress (runs under TSan via the service-stress label):
// repeated mixed batches — both backends, duplicate queries, a
// deadline-bounded query — through run()/runBatch() at 8 workers and
// 16-spec work units must stay bit-identical run to run and match the
// exhaustive reference, while every query keeps exact cache-bucket
// accounting. Concurrent run() calls on std::async threads share the same
// caches without racing each other.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "service_reference.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;

ServiceOptions stressOptions(std::size_t threads) {
  ServiceOptions o;
  o.threads = threads;
  o.workUnitSpecs = 16;
  return o;
}

ExploreQuery query(tensor::TensorAlgebra algebra, cost::BackendKind backend) {
  ExploreQuery q(std::move(algebra));
  q.array.rows = q.array.cols = 4;
  q.backend = backend;
  return q;
}

std::vector<ExploreQuery> mixedBatch() {
  std::vector<ExploreQuery> batch;
  batch.push_back(query(wl::gemm(6, 6, 6), cost::BackendKind::Asic));
  batch.push_back(query(wl::gemm(6, 6, 6), cost::BackendKind::Fpga));
  batch.push_back(query(wl::gemm(6, 6, 6), cost::BackendKind::Asic));  // dup
  batch.push_back(query(wl::attention(6, 6, 6), cost::BackendKind::Asic));
  ExploreQuery bounded = query(wl::attention(6, 6, 6), cost::BackendKind::Fpga);
  bounded.deadlineMs = 60'000;  // armed but generous: exercises the checks
  batch.push_back(bounded);
  return batch;
}

TEST(BlockStress, RepeatedMixedBatchesStayBitIdentical) {
  const auto batch = mixedBatch();

  std::vector<QueryResult> reference;
  for (const auto& q : batch) reference.push_back(referenceResult(q));

  for (int round = 0; round < 3; ++round) {
    ExplorationService block(stressOptions(8));
    const auto results = block.runBatch(batch);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " query " +
                   std::to_string(i));
      EXPECT_FALSE(results[i].timedOut);
      expectSameResult(reference[i], results[i]);
      expectExactAccounting(results[i]);
    }
  }
}

TEST(BlockStress, WarmRepeatOnOneServiceStaysBitIdentical) {
  const auto batch = mixedBatch();
  ExplorationService block(stressOptions(8));
  const auto cold = block.runBatch(batch);
  const auto warm = block.runBatch(batch);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expectSameResult(cold[i], warm[i]);
    expectExactAccounting(warm[i]);
  }
}

TEST(BlockStress, ConcurrentSubmitsShareCachesSafely) {
  ExplorationService block(stressOptions(8));

  std::vector<ExploreQuery> queries;
  queries.push_back(query(wl::gemm(5, 5, 5), cost::BackendKind::Asic));
  queries.push_back(query(wl::gemm(5, 5, 5), cost::BackendKind::Fpga));
  queries.push_back(query(wl::attention(5, 5, 5), cost::BackendKind::Asic));
  queries.push_back(query(wl::gemm(5, 5, 5), cost::BackendKind::Asic));

  std::vector<std::future<QueryResult>> futures;
  futures.reserve(queries.size());
  for (const auto& q : queries)
    futures.push_back(
        std::async(std::launch::async, [&block, &q] { return block.run(q); }));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const QueryResult result = futures[i].get();
    expectSameResult(referenceResult(queries[i]), result);
    expectExactAccounting(result);
  }
}

}  // namespace
}  // namespace tensorlib::driver
