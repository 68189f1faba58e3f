// Batched design-space exploration service — the traffic-facing layer over
// enumerate → analyze → evaluate.
//
// The service amortizes exploration across many concurrent queries:
//
//   * Batching/sharding: each query's enumerated design space is split
//     into fixed-size work units and the whole batch's units fan out over
//     the service's own thread pool (support/parallelForOn). Results land
//     in per-unit slots and merge in unit order, so output is bit-identical
//     at every worker count.
//   * Cross-query caching: evaluations are memoized in a sharded map keyed
//     by canonical (algebra, array, cost-backend, spec). Overlapping
//     queries — same GEMM at different objectives, array sweeps that share
//     the algebra, duplicate user queries — pay for each design point once.
//     A key is resolved once per query (the "algebra|array|backend|" prefix,
//     rendered and hashed into a record the entries share) and once per
//     design space (each slot's fixed-size loop indices, letters and signed
//     matrix with their hash), so pricing a slot builds no string.
//     Design spaces are cached the same way: each (algebra, enumeration)
//     is packed once by stt::packDesignSpace as the uncut evaluation-class
//     quotient, which every array, backend and objective shares (a cut
//     taken against one query's incumbent would be unsound for another).
//     Hit/miss/eviction stats are surfaced per query and service-wide.
//   * One evaluation path: run()/runBatch() walk every query's space in
//     blocks of 64 packed slots (stt::SpecBlockSet), and every block takes
//     the same three passes: cache peek, packed lower bounds with dominance
//     cuts, packed evaluation of the survivors (one tile search per mapping
//     class, held by the query's stt::BlockMappingStore — the service's
//     only tile-search memo). Only the merged frontier is analyzed into
//     DataflowSpecs. Session::compileBest and every tool explore through
//     this path.
//   * Incremental Pareto streaming: run()/runBatch() fold every evaluated
//     point into a (cycles, power, area) ParetoFrontier on the fly and keep
//     reports only for frontier residents, instead of materializing the
//     full space.
//   * Lower-bound dominance pruning (branch-and-bound): before fully
//     evaluating a candidate, its provable lower bound (exact inventory
//     power/area + cyclesLowerBound) is tested against the query's
//     incumbent frontier; strictly dominated candidates skip evaluation
//     entirely. Pruning only ever removes points insert() would reject, so
//     frontiers stay bit-identical to exhaustive evaluation at any worker
//     count (see the pruning differential tests).
//   * Multi-backend objectives: a query targets the ASIC or the FPGA cost
//     model through cost::CostBackend; frontiers and objective winners use
//     the backend-neutral CostFigures axes.
//
// The exhaustive reference the differential tests fold run()/runBatch()
// frontiers from lives outside the service, with no cache and no pool:
// verify::exhaustiveReports (src/verify/exhaustive.*).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cost/backend.hpp"
#include "driver/pareto.hpp"
#include "driver/session.hpp"
#include "driver/snapshot.hpp"

namespace tensorlib::driver {

/// One exploration request: what to enumerate, on which array, optimizing
/// what, priced by which implementation target.
struct ExploreQuery {
  explicit ExploreQuery(tensor::TensorAlgebra a) : algebra(std::move(a)) {}

  tensor::TensorAlgebra algebra;
  stt::ArrayConfig array;
  Objective objective = Objective::Performance;
  cost::BackendKind backend = cost::BackendKind::Asic;
  int dataWidth = 16;        ///< ASIC datapath width (ignored by FPGA)
  cost::FpgaConfig fpga;     ///< FPGA backend configuration (ignored by ASIC)
  stt::EnumerationOptions enumeration;
  /// Wall-clock budget in milliseconds, measured from the moment
  /// runBatch() starts; 0 = no deadline. An expired query stops evaluating,
  /// returns the frontier of what it did evaluate, and is marked
  /// QueryResult::timedOut — the daemon's way of answering under overload
  /// instead of holding a client forever. Timed-out results are PARTIAL:
  /// the bit-identity guarantees apply only to queries that finish.
  std::int64_t deadlineMs = 0;
};

/// Evaluation-cache traffic attributable to one query. Exact on a
/// single-threaded service; approximate under concurrency (simultaneous
/// misses on one key each count themselves a miss, and pruning depends on
/// how fast incumbents arrive).
struct QueryCacheCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Candidates skipped by the lower-bound dominance cut: an incumbent
  /// frontier point strictly dominated the candidate's provable lower
  /// bound, so its full evaluation was provably irrelevant to the frontier.
  std::uint64_t pruned = 0;
  /// Candidates never reached because the query's deadline expired first.
  /// Every enumerated design lands in exactly one bucket:
  /// hits + misses + pruned + skipped == designs for run()/runBatch()
  /// (skipped == 0 unless the query timed out).
  std::uint64_t skipped = 0;
};

struct QueryResult {
  /// Pareto-optimal designs over (cycles, power, area), sorted by
  /// (cycles, power, area, enumeration index) — bit-identical across
  /// thread counts, cold/warm caches, and pruned/exhaustive evaluation.
  std::vector<DesignReport> frontier;
  /// The query-objective winner (canonical tie-breaks; see pickBest).
  std::optional<DesignReport> best;
  /// The design space's size: its evaluation-class representatives
  /// (quotiented duplicates are not designs), or every candidate with
  /// EnumerationOptions::dedupeBySignature off.
  std::size_t designs = 0;
  QueryCacheCounts cache;
  /// True iff the query's deadline expired before every design point was
  /// handled; the frontier (and best) then cover only the evaluated prefix
  /// of the space and carry no bit-identity guarantee.
  bool timedOut = false;
};

/// Tile-search traffic of run()/runBatch(): every packed evaluation reads
/// its mapping from the query's stt::BlockMappingStore, and is exactly one
/// of a miss (it ran the tile search of its mapping-class slot) or a hit
/// (the slot was already searched).
struct MappingCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< tile searches performed
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;  ///< evaluations currently resident
  std::size_t shards = 0;
  MappingCounts mappings;
  std::string str() const;
};

/// Service configuration. No knob changes results — frontiers and winners
/// are bit-identical across every setting; knobs trade speed and memory.
/// docs/TUNING.md documents each one with defaults and flip-guidance.
struct ServiceOptions {
  /// Evaluation threads including the calling thread; 0 = hardware size.
  std::size_t threads = 0;
  std::size_t shardCount = 16;            ///< evaluation-cache shards (0 -> 1)
  /// Cached evaluations in total, divided evenly across the shards (FIFO
  /// eviction per shard).
  std::size_t cacheCapacity = 1u << 16;
  std::size_t specListCacheCapacity = 8;  ///< enumerated design spaces kept
  /// Specs per scheduled work unit (0 -> 1). Units are cut into evaluation
  /// blocks of 64; a block never spans a unit.
  std::size_t workUnitSpecs = 128;
  /// Lower-bound dominance pruning in run()/runBatch(): candidates whose
  /// provable (cycles, power, area) lower bound is strictly dominated by an
  /// already-evaluated incumbent skip full evaluation. The resulting
  /// frontier is bit-identical to exhaustive evaluation at any thread
  /// count; only the cache-traffic split (hits/misses vs pruned) varies.
  bool enablePruning = true;
};

/// The cost model a query prices with: its backend kind, configured by its
/// data width (ASIC) or FPGA settings.
std::shared_ptr<const cost::CostBackend> makeBackend(const ExploreQuery& query);

class ExplorationService {
 public:
  explicit ExplorationService(ServiceOptions options = {});
  ~ExplorationService();
  ExplorationService(const ExplorationService&) = delete;
  ExplorationService& operator=(const ExplorationService&) = delete;

  /// Explores one query through the streaming-frontier path. Safe to call
  /// from several threads at once (e.g. through std::async); concurrent
  /// runs share the cache.
  QueryResult run(const ExploreQuery& query);

  /// Explores a batch: all queries' work units share the pool and the
  /// cache, so overlapping queries evaluate each design point once.
  /// Results are positionally aligned with `batch`.
  std::vector<QueryResult> runBatch(const std::vector<ExploreQuery>& batch);

  CacheStats cacheStats() const;
  /// Drops all cached evaluations and spec lists and zeroes the stats.
  void clearCache();

  /// Serializes the warm state — every completed eval-cache entry and the
  /// process-wide candidate-matrix memo — into a versioned, checksummed
  /// snapshot written atomically (tmp + rename; see driver/snapshot.*).
  /// `fingerprint` is the cache-schema compatibility string
  /// (snapshot::cacheSchemaFingerprint) a restore must present again.
  /// Returns false on I/O failure or an injected
  /// `snapshot_write=fail` fault; the previous snapshot, if any, is left
  /// intact on failure. Safe to call concurrently with queries (entries
  /// are exported under the shard locks).
  bool saveSnapshot(const std::string& path,
                    const std::string& fingerprint) const;

  /// Restores a snapshot into this service's caches (and the candidate
  /// memo). A missing, truncated, corrupted, version-mismatched or
  /// fingerprint-mismatched snapshot degrades to a clean cold start: the
  /// result carries the reason, nothing is half-populated, and no failure
  /// ever throws. Intended to be called once, before serving traffic.
  snapshot::RestoreResult restoreSnapshot(const std::string& path,
                                          const std::string& fingerprint);

  /// Process-wide instance Sessions delegate to (hardware-sized pool,
  /// default capacities).
  static ExplorationService& shared();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tensorlib::driver
