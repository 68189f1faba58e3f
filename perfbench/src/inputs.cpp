#include "inputs.hpp"

#include <algorithm>
#include <iterator>

#include "support/prng.hpp"
#include "tensor/network.hpp"
#include "tensor/workloads.hpp"

namespace perfbench {

namespace {

/// Decorrelates (seed, stream) pairs so each generator gets its own PRNG.
tensorlib::Prng prngFor(std::uint64_t seed, std::uint64_t stream) {
  tensorlib::Prng mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return tensorlib::Prng(mix.next());
}

template <typename T>
void shuffle(std::vector<T>& items, tensorlib::Prng& prng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1],
              items[static_cast<std::size_t>(
                  prng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);
}

bool knownFailing(std::uint64_t networkSeed) {
  return std::find(std::begin(kKnownFailingNetworkSeeds),
                   std::end(kKnownFailingNetworkSeeds),
                   networkSeed) != std::end(kKnownFailingNetworkSeeds);
}

}  // namespace

std::vector<std::string> exploreColdModels(std::uint64_t seed) {
  std::vector<std::string> names;
  for (const auto& network : tensorlib::tensor::workloads::builtinNetworks())
    if (network.name() != "resnet-block") names.push_back(network.name());
  tensorlib::Prng prng = prngFor(seed, 1);
  shuffle(names, prng);
  return names;
}

std::vector<ModelItem> modelVerifyRound(std::uint64_t seed, std::size_t round) {
  std::vector<ModelItem> items;
  for (const auto& network : tensorlib::tensor::workloads::builtinNetworks())
    items.push_back({network.name(), 0});
  tensorlib::Prng pool = prngFor(0, 2);
  for (std::size_t drawn = 0; drawn < kRandomNetworksPerRound;) {
    const auto networkSeed = static_cast<std::uint64_t>(
        pool.uniformInt(1, static_cast<std::int64_t>(kNetworkSeedPool)));
    if (knownFailing(networkSeed)) continue;
    items.push_back({"", networkSeed});
    ++drawn;
  }
  tensorlib::Prng order = prngFor(seed, 2 + round);
  shuffle(items, order);
  return items;
}

std::uint64_t modelVerifyDataSeed(std::uint64_t seed) { return 1 + seed % 8; }

std::string ServeKey::line() const {
  return "{\"workload\": \"" + workload + "\", \"rows\": " + std::to_string(rows) +
         ", \"cols\": " + std::to_string(cols) + ", \"objective\": \"" +
         objective + "\", \"backend\": \"" + backend + "\", \"max_entry\": 1}";
}

std::vector<ServeKey> serveKeys() {
  std::vector<ServeKey> keys;
  for (const auto& w : tensorlib::tensor::workloads::allWorkloads())
    for (const int size : {8, 16})
      for (const char* objective : {"performance", "power"})
        for (const char* backend : {"asic", "fpga"})
          keys.push_back({w.name, size, size, objective, backend});
  return keys;
}

std::vector<std::size_t> serveStream(std::uint64_t seed, std::size_t count,
                                     std::size_t keyCount) {
  // The popularity ranking is fixed (the same hot keys in every run); the
  // seed draws the requests and their order.
  tensorlib::Prng rankPrng = prngFor(0, 1000);
  std::vector<std::size_t> ranking(keyCount);
  for (std::size_t i = 0; i < keyCount; ++i) ranking[i] = i;
  shuffle(ranking, rankPrng);
  tensorlib::Prng prng = prngFor(seed, 1001);

  std::vector<double> cumulative(keyCount);
  double total = 0.0;
  for (std::size_t r = 0; r < keyCount; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative[r] = total;
  }

  std::vector<std::size_t> stream(ranking);
  while (stream.size() < count) {
    const double u = prng.uniformDouble() * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    stream.push_back(ranking[std::min(rank, keyCount - 1)]);
  }
  shuffle(stream, prng);
  return stream;
}

}  // namespace perfbench
