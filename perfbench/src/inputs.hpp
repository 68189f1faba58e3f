// Seeded input generation for the three workloads. Every function is a
// pure function of its arguments: the same seed gives the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// explore-cold: five of the six builtin models, in a seed-drawn order.
/// resnet-block is left out: its 8-9 s exploration alone would fill a run.
/// Every run explores the same five, so every seed does the same work, and
/// an odd op count per round puts the median on one model.
std::vector<std::string> exploreColdModels(std::uint64_t seed);

/// model-verify's random networks (verify::randomNetwork seeds) come from
/// 1..kNetworkSeedPool, minus the seeds below, which diverge today
/// (conformance_runner --network-seeds 1 --seed-base 22 reproduces it).
constexpr std::uint64_t kNetworkSeedPool = 64;
constexpr std::uint64_t kKnownFailingNetworkSeeds[] = {22};
/// Random networks in every round next to the six builtin models.
constexpr std::size_t kRandomNetworksPerRound = 3;

struct ModelItem {
  std::string builtin;           ///< builtin model name; empty for random
  std::uint64_t networkSeed = 0; ///< verify::randomNetwork seed when random
};

/// One round of model-verify: the six builtins plus kRandomNetworksPerRound
/// random networks, in a seed-drawn order. The random networks are one
/// fixed draw from the pool, the same for every seed and round, so every
/// run does the same work (nine models, an odd count, keeps the median on
/// one model); the seed sets the order and, through modelVerifyDataSeed,
/// the tensor contents.
std::vector<ModelItem> modelVerifyRound(std::uint64_t seed, std::size_t round);

/// The tensor-content seed of a model-verify run: taken from the workload
/// seed and folded onto 1..8, the data seeds the network pool is known to
/// conform under.
std::uint64_t modelVerifyDataSeed(std::uint64_t seed);

/// serve-mix request key: one workload-table entry on one array, objective
/// and backend, at max_entry 1.
struct ServeKey {
  std::string workload;
  int rows = 0;
  int cols = 0;
  std::string objective;
  std::string backend;

  /// The JSONL request line a client sends for this key.
  std::string line() const;
};

/// allWorkloads() x {8x8, 16x16} x {performance, power} x {asic, fpga}.
std::vector<ServeKey> serveKeys();

/// A request stream of `count` key indices (count >= keyCount): every key
/// once, the rest drawn from a Zipf(1) law over a fixed key ranking, then
/// shuffled. Every key appearing keeps the per-run key set (and so the
/// served winners) independent of the seed; the fixed ranking keeps the
/// hot set the same across seeds.
std::vector<std::size_t> serveStream(std::uint64_t seed, std::size_t count,
                                     std::size_t keyCount);

}  // namespace perfbench
