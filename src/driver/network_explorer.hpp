// Network-level co-exploration: per-layer design-space exploration through
// the ExplorationService, composed into ONE Pareto frontier for the whole
// model on a shared PE array.
//
// A NetworkQuery maps a tensor::NetworkSpec (named layers, each a tensor
// algebra) onto one or more *candidate* shared array configurations. For
// every candidate array the explorer runs each layer as an ExploreQuery —
// all layers of all candidate arrays in ONE service batch, so repeated
// layer shapes, the cross-query evaluation cache and the lower-bound
// dominance cuts all apply — then composes the
// per-layer frontiers under the shared-array execution model:
//
//   * layers time-share the array, so network cycles = SUM of layer cycles;
//   * the array must provision for the hungriest layer, so network power
//     and area = MAX over the chosen per-layer designs;
//   * network utilization = total MACs / (PEs * total cycles) — the same
//     Fig. 5 metric lifted to the model.
//
// Composition folds layer-by-layer through an intermediate ParetoFrontier:
// a partial assignment that is dominated in (cycles, power, area) stays
// dominated under any completion (sum and max are monotone), so pruning
// partials is exact. Ties collapse on a canonical composition order
// derived from each layer's sorted frontier, which makes the network
// frontier — like every per-layer frontier beneath it — bit-identical at
// any worker count, warm or cold cache, pruned or exhaustive evaluation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/explore_service.hpp"
#include "tensor/network.hpp"

namespace tensorlib::driver {

/// One network-level exploration request: the model, the candidate shared
/// arrays, and the same objective / backend / enumeration controls an
/// ExploreQuery carries (applied uniformly to every layer).
struct NetworkQuery {
  explicit NetworkQuery(tensor::NetworkSpec n) : network(std::move(n)) {}

  tensor::NetworkSpec network;
  /// Candidate shared array configurations; every layer runs on each, and
  /// the network frontier spans all of them. Must be non-empty.
  std::vector<stt::ArrayConfig> arrays = {stt::ArrayConfig{}};
  Objective objective = Objective::Performance;
  cost::BackendKind backend = cost::BackendKind::Asic;
  int dataWidth = 16;     ///< ASIC datapath width (ignored by FPGA)
  cost::FpgaConfig fpga;  ///< FPGA backend configuration (ignored by ASIC)
  /// Per-layer enumeration; dropAllUnicast is overridden per layer from
  /// NetworkLayer::allowAllUnicast (pointwise layers have no other designs).
  stt::EnumerationOptions enumeration;
};

/// One layer's share of a network design: the winning dataflow label and
/// its evaluated figures on the shared array.
struct LayerAssignment {
  std::string layer;     ///< NetworkLayer::name
  std::string dataflow;  ///< paper-style label, e.g. "MNK-SST"
  std::int64_t cycles = 0;
  double powerMw = 0.0;
  double area = 0.0;
  double utilization = 0.0;
};

/// One point of the network frontier: a complete per-layer dataflow
/// assignment on one candidate array.
struct NetworkDesign {
  std::size_t arrayIndex = 0;  ///< into NetworkQuery::arrays
  /// cycles = sum over layers; powerMw/area = max over layers;
  /// utilization = network MACs / (PEs * cycles).
  ParetoCost cost;
  std::vector<LayerAssignment> layers;  ///< one per layer, in network order
  /// Canonical composition order (ties collapse to the smallest; the
  /// network-level analogue of a design point's enumeration index).
  std::size_t order = 0;
};

/// Exploration traffic of one (candidate array, layer) pair.
struct NetworkLayerStats {
  std::size_t arrayIndex = 0;
  std::string layer;
  std::size_t designs = 0;       ///< enumerated design points
  std::size_t frontierSize = 0;  ///< per-layer Pareto frontier residents
  QueryCacheCounts cache;        ///< hits/misses/pruned for this layer query
};

struct NetworkResult {
  /// Network-level Pareto frontier over (cycles, power, area), sorted by
  /// (cycles, power, area, arrayIndex, order) — bit-identical across
  /// thread counts and cache states.
  std::vector<NetworkDesign> frontier;
  /// The objective winner among frontier designs (pickBest tie-breaks).
  std::optional<NetworkDesign> best;
  /// Stats in (array-major, layer) order: arrays.size() * layerCount rows.
  std::vector<NetworkLayerStats> layers;
  std::size_t designs = 0;  ///< design points summed over all layer queries
};

/// Composes already-explored per-layer frontiers into the network frontier.
/// `layerResults` holds one QueryResult per (array, layer) in array-major
/// order, positionally aligned with query.arrays x query.network.layers().
/// Throws support::Error when a layer's frontier is empty on some array
/// (no realizable design — the shared array cannot run that layer).
/// Exposed separately so benchmarks can compose naive per-layer runs
/// through the exact same code path.
NetworkResult composeLayerFrontiers(
    const NetworkQuery& query,
    const std::vector<std::vector<QueryResult>>& layerResults);

/// Parses a comma-separated "RxC[,RxC...]" candidate-array list (e.g.
/// "8x8,16x16") into configs inheriting `base`'s bandwidth, frequency and
/// word size — the format the network_explorer CLI and the explore_server
/// "arrays" field accept (docs/PROTOCOL.md). Throws support::Error on
/// malformed entries or sides outside wire::kArraySideRange.
std::vector<stt::ArrayConfig> parseArrayList(const std::string& list,
                                             const stt::ArrayConfig& base);

/// Builds the per-layer ExploreQuery the explorer submits for one
/// (candidate array, layer) pair — the single place the uniform query
/// controls meet the per-layer enumeration hints.
ExploreQuery layerQuery(const NetworkQuery& query,
                        const stt::ArrayConfig& array,
                        const tensor::NetworkLayer& layer);

/// Runs network queries against an ExplorationService (borrowed or owned).
class NetworkExplorer {
 public:
  /// Borrows `service`: layer queries share its pool and caches with any
  /// other traffic (the explore_server path).
  explicit NetworkExplorer(ExplorationService& service);
  /// Owns a fresh service configured with `options`.
  explicit NetworkExplorer(ServiceOptions options = {});
  ~NetworkExplorer();
  NetworkExplorer(const NetworkExplorer&) = delete;
  NetworkExplorer& operator=(const NetworkExplorer&) = delete;

  /// Explores every (candidate array, layer) pair as one service batch and
  /// composes the network frontier. Throws support::Error for an empty
  /// candidate-array list or a layer with no realizable design.
  NetworkResult explore(const NetworkQuery& query);

  /// The underlying service (for cache stats / reuse verification).
  ExplorationService& service();

 private:
  std::unique_ptr<ExplorationService> owned_;
  ExplorationService* service_;
};

}  // namespace tensorlib::driver
