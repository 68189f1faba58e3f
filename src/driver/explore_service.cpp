#include "driver/explore_service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "sim/perf.hpp"
#include "stt/block.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/threadpool.hpp"

namespace tensorlib::driver {

namespace {

// ---- canonical cache keys --------------------------------------------------
// Two queries share cached work iff their keys match, so keys must capture
// everything the cached value depends on — and nothing more.

std::string algebraKey(const tensor::TensorAlgebra& a) {
  std::ostringstream os;
  os << a.name() << ";";
  for (const auto& loop : a.loops()) os << loop.name << "=" << loop.extent << ",";
  os << ";" << a.output().tensor << ":" << a.output().access.str();
  for (const auto& in : a.inputs()) os << ";" << in.tensor << ":" << in.access.str();
  return os.str();
}

std::string arrayKey(const stt::ArrayConfig& c) {
  std::ostringstream os;
  os << c.rows << "x" << c.cols << "@" << c.frequencyMHz << "/"
     << c.bandwidthGBps << "/" << c.dataBytes;
  return os.str();
}

std::string enumKey(const stt::EnumerationOptions& o) {
  std::ostringstream os;
  os << "e" << o.maxEntry << (o.requireUnimodular ? "u" : "-")
     << (o.canonicalize ? "c" : "-") << (o.dedupeBySignature ? "d" : "-")
     << (o.dropFullReuse ? "f" : "-") << (o.dropAllUnicast ? "a" : "-");
  return os.str();
}

/// A slot's evaluation-cache key suffix in fixed-size form: the selection's
/// loop INDICES, the per-tensor letters and the signed 3x3 transform. The
/// indices are part of the key: labels abbreviate loops to initials, so two
/// selections over same-initial loops (e.g. {m,n,ka} and {m,n,kb}) would
/// otherwise collide at equal transforms.
struct SlotKey {
  std::array<std::uint32_t, 3> loops{};
  std::array<char, stt::kBlockMaxTensors> letters{};  ///< NUL-padded
  std::array<std::int32_t, 9> matrix{};

  bool operator==(const SlotKey& o) const {
    return loops == o.loops && letters == o.letters && matrix == o.matrix;
  }
};

/// A design space's slot key with its hash, both computed once per space.
struct KeyedSlot {
  SlotKey key;
  std::uint64_t hash = 0;
};

/// The splitmix64 finalizer: a full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Hashes the key's 56 bytes as seven words (SlotKey has no padding).
std::uint64_t hashSlot(const SlotKey& key) {
  static_assert(sizeof(SlotKey) == 56 &&
                std::has_unique_object_representations_v<SlotKey>);
  std::uint64_t words[7];
  std::memcpy(words, &key, sizeof words);
  std::uint64_t h = 0;
  for (std::uint64_t w : words) h = mix64(h ^ w);
  return h;
}

KeyedSlot keySlot(const stt::LoopSelection& selection, std::string_view letters,
                  const linalg::IntMatrix& matrix) {
  TL_CHECK(letters.size() <= stt::kBlockMaxTensors, "slot key: too many tensors");
  KeyedSlot slot;
  for (std::size_t i = 0; i < 3; ++i)
    slot.key.loops[i] = static_cast<std::uint32_t>(selection.indices().at(i));
  std::copy(letters.begin(), letters.end(), slot.key.letters.begin());
  for (std::size_t i = 0; i < 9; ++i) {
    const std::int64_t v = matrix.at(i / 3, i % 3);
    TL_CHECK(v >= INT32_MIN && v <= INT32_MAX, "slot key: entry out of range");
    slot.key.matrix[i] = static_cast<std::int32_t>(v);
  }
  slot.hash = hashSlot(slot.key);
  return slot;
}

/// Appends the keys-v2 rendering of `key`, "i.j.k.|letters|[matrix]" (the
/// matrix part is exactly Matrix::str()), with to_chars, not a stream.
void renderSlotKey(const SlotKey& key, std::string& out) {
  char digits[16];
  const auto put = [&](auto v) {
    out.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
  };
  for (std::uint32_t idx : key.loops) {
    put(idx);
    out += '.';
  }
  out += '|';
  out.append(key.letters.data(),
             std::find(key.letters.begin(), key.letters.end(), '\0') -
                 key.letters.begin());
  out += "|[";
  for (std::size_t i = 0; i < 9; ++i) {
    if (i) out += i % 3 ? " " : "; ";
    put(key.matrix[i]);
  }
  out += ']';
}

/// Parses a keys-v2 suffix back into its slot key. Strict: only a string
/// renderSlotKey produces parses (no sign, leading zero, missing or extra
/// field, or trailing byte), so a restored key re-saves byte-identically.
SlotKey parseSlotKey(std::string_view text) {
  SlotKey key;
  std::size_t pos = 0;
  const auto malformed = [&] {
    fail("snapshot evaluation key suffix '" + std::string(text) +
         "' is malformed");
  };
  const auto expect = [&](std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) malformed();
    pos += literal.size();
  };
  const auto number = [&](auto& v) {
    const auto [end, ec] =
        std::from_chars(text.data() + pos, text.data() + text.size(), v);
    if (ec != std::errc{}) malformed();
    pos = static_cast<std::size_t>(end - text.data());
  };
  for (std::uint32_t& idx : key.loops) {
    number(idx);
    expect(".");
  }
  expect("|");
  const std::size_t bar = text.find('|', pos);
  if (bar == std::string_view::npos || bar == pos ||
      bar - pos > key.letters.size())
    malformed();
  std::copy(text.begin() + pos, text.begin() + bar, key.letters.begin());
  pos = bar;
  expect("|[");
  for (std::size_t i = 0; i < 9; ++i) {
    if (i) expect(i % 3 ? " " : "; ");
    number(key.matrix[i]);
  }
  expect("]");
  std::string canonical;
  renderSlotKey(key, canonical);
  if (canonical != text) malformed();
  return key;
}

/// A query's evaluation-cache key prefix, "algebra|array|backend|",
/// rendered and hashed once per query. Cache entries share it by
/// shared_ptr, so a prefix lives exactly as long as some entry or query
/// needs it.
struct EvalPrefix {
  std::string text;
  std::uint64_t hash = 0;
};
using EvalPrefixPtr = std::shared_ptr<const EvalPrefix>;

EvalPrefixPtr makePrefix(std::string text) {
  const std::uint64_t hash = std::hash<std::string>{}(text);
  return std::make_shared<const EvalPrefix>(EvalPrefix{std::move(text), hash});
}

/// A full evaluation-cache key: the prefix (by pointer; the entry the key
/// maps to keeps it alive), the slot, and their combined hash. Equality is
/// exact: a pointer mismatch falls back to comparing the prefix text.
struct EvalKey {
  const EvalPrefix* prefix = nullptr;
  std::uint64_t hash = 0;
  SlotKey slot;

  EvalKey(const EvalPrefix& p, const KeyedSlot& s)
      : prefix(&p), hash(mix64(p.hash ^ s.hash)), slot(s.key) {}

  bool operator==(const EvalKey& o) const {
    return hash == o.hash && slot == o.slot &&
           (prefix == o.prefix || prefix->text == o.prefix->text);
  }
};

struct EvalKeyHash {
  std::size_t operator()(const EvalKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash);
  }
};

/// One memoized evaluation. The first thread to reach the entry computes
/// it under the once_flag; concurrent askers block until it is ready, so
/// overlapping queries inside one batch still evaluate each point once.
struct EvalEntry {
  explicit EvalEntry(EvalPrefixPtr p) : prefix(std::move(p)) {}

  const EvalPrefixPtr prefix;  ///< keeps the map key's prefix alive
  std::once_flag once;
  sim::PerfResult perf;
  cost::CostReport cost;
  /// Set (release) after `once` ran: snapshot export must only persist
  /// entries whose values are actually populated, and the once_flag
  /// itself cannot be queried.
  std::atomic<bool> ready{false};
};

ParetoEntry paretoEntryOf(const sim::PerfResult& perf,
                          const cost::CostFigures& figures, std::size_t order) {
  ParetoEntry e;
  e.cost.cycles = static_cast<double>(perf.totalCycles);
  e.cost.powerMw = figures.powerMw;
  e.cost.area = figures.area;
  e.cost.utilization = perf.utilization;
  e.order = order;
  return e;
}

using Clock = std::chrono::steady_clock;

/// Candidates per evaluation block. A block never spans a work unit.
constexpr std::size_t kBlockSpecs = 64;

/// One query's wall-clock budget, measured from batch entry and shared by
/// all of its work units.
struct Deadline {
  Clock::time_point at{};
  bool armed = false;
  std::atomic<bool> timedOut{false};

  /// True once the budget is spent; latches, so every unit agrees.
  bool expired() {
    if (!armed) return false;
    if (timedOut.load(std::memory_order_relaxed)) return true;
    if (Clock::now() < at) return false;
    timedOut.store(true, std::memory_order_relaxed);
    return true;
  }
};

/// What one work unit accumulates; merged per query in unit order.
struct UnitOut {
  ParetoFrontier frontier;
  /// order -> evaluation of each frontier keeper (analyzed at the merge)
  std::unordered_map<std::size_t, std::shared_ptr<const EvalEntry>> kept;
  std::uint64_t hits = 0, misses = 0, pruned = 0, skipped = 0;
  /// Packed evaluations this unit ran (each reads one mapping-store slot).
  std::uint64_t evaluations = 0;
};

}  // namespace

std::shared_ptr<const cost::CostBackend> makeBackend(
    const ExploreQuery& query) {
  return query.backend == cost::BackendKind::Asic
             ? cost::makeAsicBackend(query.dataWidth)
             : cost::makeFpgaBackend(query.fpga);
}

std::string CacheStats::str() const {
  std::ostringstream os;
  os << "hits=" << hits << " misses=" << misses << " evictions=" << evictions
     << " entries=" << entries << " shards=" << shards << " mappings=[hits="
     << mappings.hits << " misses=" << mappings.misses << "]";
  return os.str();
}

// ---- service implementation ------------------------------------------------

struct ExplorationService::Impl {
  struct EvalShard {
    mutable std::mutex mutex;
    std::unordered_map<EvalKey, std::shared_ptr<EvalEntry>, EvalKeyHash> map;
    std::deque<EvalKey> fifo;  ///< insertion order, for eviction
    std::uint64_t hits = 0, misses = 0, evictions = 0;
  };

  /// Memoized design space (stt::packDesignSpace: the uncut evaluation-
  /// class quotient, shared by every array, backend and objective) with
  /// its per-slot cache keys, built once per (algebra, enumeration) no
  /// matter how many queries share it (in-flight holders keep evicted
  /// spaces alive through the shared_ptr).
  struct SpaceEntry {
    std::once_flag once;
    std::shared_ptr<const stt::DesignSpace> space;
    std::vector<KeyedSlot> slots;
  };

  /// One work unit in flight: what runBlock() reads and accumulates. The
  /// scratch vectors are reused across blocks, so the passes allocate
  /// nothing per candidate.
  struct UnitRun {
    UnitRun(const ExploreQuery& q, const cost::CostBackend& b,
            const EvalPrefixPtr& p, UnitOut& o)
        : query(q), backend(b), prefix(p), out(o) {}

    const ExploreQuery& query;
    const cost::CostBackend& backend;
    const EvalPrefixPtr& prefix;  ///< the query's key prefix
    UnitOut& out;
    /// Incumbents the query's other units published. Every incumbent is a
    /// fully evaluated true cost, so pruning against a snapshot of any age
    /// is sound; only how many candidates get cut varies.
    ParetoFrontier snapshot;
    std::vector<std::shared_ptr<EvalEntry>> resident;
    std::vector<std::uint8_t> state;  ///< 0 evaluate, 1 cache hit, 2 pruned
    std::vector<std::size_t> pending;
    std::vector<cost::CostBound> bounds;
    std::vector<std::size_t> evicted;
  };

  ServiceOptions options;
  ThreadPool pool;
  std::vector<EvalShard> shards;
  /// CacheStats::mappings, merged once per runBatch().
  std::atomic<std::uint64_t> mappingHits{0}, mappingMisses{0};

  std::mutex specMutex;
  std::unordered_map<std::string, std::shared_ptr<SpaceEntry>> specMap;
  std::deque<std::string> specFifo;

  explicit Impl(ServiceOptions opts)
      : options(resolve(opts)), pool(options.threads - 1), shards(options.shardCount) {}

  static ServiceOptions resolve(ServiceOptions o) {
    if (o.threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      o.threads = hw > 0 ? hw : 1;
    }
    if (o.shardCount == 0) o.shardCount = 1;
    if (o.workUnitSpecs == 0) o.workUnitSpecs = 1;
    return o;
  }

  std::size_t perShardCapacity() const {
    const std::size_t cap = options.cacheCapacity / options.shardCount;
    return cap > 0 ? cap : 1;
  }

  EvalShard& shardOf(const EvalKey& key) {
    return shards[key.hash % shards.size()];
  }

  /// Returns the entry for `key` if present (counting a hit), else null
  /// without registering a miss — the pruning path peeks before deciding
  /// whether the evaluation is worth admitting to the cache at all.
  std::shared_ptr<EvalEntry> peekEntry(const EvalKey& key) {
    EvalShard& shard = shardOf(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return nullptr;
    ++shard.hits;
    return it->second;
  }

  /// Finds or creates the entry for `key`, whose prefix is `prefix`; second
  /// element is true on a hit.
  std::pair<std::shared_ptr<EvalEntry>, bool> evalEntry(
      const EvalKey& key, const EvalPrefixPtr& prefix) {
    EvalShard& shard = shardOf(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++shard.hits;
      return {it->second, true};
    }
    ++shard.misses;
    auto entry = std::make_shared<EvalEntry>(prefix);
    insertLocked(shard, key, entry);
    return {entry, false};
  }

  /// Inserts `entry` under `key` into `shard` (whose lock the caller
  /// holds), FIFO-evicting past the per-shard capacity.
  void insertLocked(EvalShard& shard, const EvalKey& key,
                    std::shared_ptr<EvalEntry> entry) {
    shard.map.emplace(key, std::move(entry));
    shard.fifo.push_back(key);
    while (shard.map.size() > perShardCapacity()) {
      shard.map.erase(shard.fifo.front());
      shard.fifo.pop_front();
      ++shard.evictions;
    }
  }

  /// Packed-model evaluation under the entry's once_flag: whichever unit
  /// wins it, every waiter reads identical results. Returns true iff this
  /// call ran the evaluation.
  bool forceBlock(const std::shared_ptr<EvalEntry>& entry,
                  const stt::SpecBlockSet& set, std::size_t i,
                  const stt::ArrayConfig& array,
                  const cost::CostBackend& backend,
                  stt::BlockMappingStore& store) {
    bool evaluated = false;
    std::call_once(entry->once, [&] {
      cost::BlockEval eval = backend.evaluateBlock(set, i, array, store);
      entry->perf = eval.perf;
      entry->cost = std::move(eval.cost);
      entry->ready.store(true, std::memory_order_release);
      evaluated = true;
    });
    return evaluated;
  }

  /// Installs a restored evaluation under (`prefix`, `slot`) unless one is
  /// already resident (live entries win — they are at least as fresh).
  /// Registers neither a hit nor a miss: restored warmth shows up as hits
  /// when queries actually touch it.
  bool importEval(const EvalPrefixPtr& prefix, const KeyedSlot& slot,
                  const sim::PerfResult& perf, const cost::CostReport& cost) {
    const EvalKey key(*prefix, slot);
    EvalShard& shard = shardOf(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.count(key) > 0) return false;
    auto entry = std::make_shared<EvalEntry>(prefix);
    std::call_once(entry->once, [&] {
      entry->perf = perf;
      entry->cost = cost;
      entry->ready.store(true, std::memory_order_release);
    });
    insertLocked(shard, key, std::move(entry));
    return true;
  }

  std::shared_ptr<SpaceEntry> specEntry(const ExploreQuery& q) {
    const std::string key = algebraKey(q.algebra) + "|" + enumKey(q.enumeration);
    std::shared_ptr<SpaceEntry> entry;
    {
      std::lock_guard<std::mutex> lock(specMutex);
      auto it = specMap.find(key);
      if (it != specMap.end()) {
        entry = it->second;
      } else {
        entry = std::make_shared<SpaceEntry>();
        specMap.emplace(key, entry);
        specFifo.push_back(key);
        while (specMap.size() > std::max<std::size_t>(1, options.specListCacheCapacity)) {
          specMap.erase(specFifo.front());
          specFifo.pop_front();
        }
      }
    }
    std::call_once(entry->once, [&] {
      auto space = std::make_shared<const stt::DesignSpace>(
          stt::packDesignSpace(q.algebra, q.enumeration));
      entry->slots.reserve(space->size());
      for (std::size_t i = 0; i < space->size(); ++i)
        entry->slots.push_back(keySlot(space->context(i)->selection,
                                       space->letters(i), space->matrix(i)));
      entry->space = std::move(space);
    });
    return entry;
  }

  std::string evalPrefix(const ExploreQuery& q, const cost::CostBackend& backend) {
    return algebraKey(q.algebra) + "|" + arrayKey(q.array) + "|" +
           backend.cacheKey() + "|";
  }

  /// The one evaluation routine of run()/runBatch(). Three passes over
  /// slots [begin, end) of the query's design space:
  ///   1. cache peek — resident evaluations are cheaper than bounding, so
  ///      hits bypass the bound pass;
  ///   2. one packed lowerBoundBlock over the non-resident slots, each cut
  ///      when an incumbent (the snapshot or the unit's own frontier)
  ///      strictly dominates its bound — all before any tile search;
  ///   3. forceBlock on the survivors in index order, folded into the
  ///      unit's streaming frontier. Keepers keep their cache entry; only
  ///      the merged frontier is analyzed into DataflowSpecs (runBatch's
  ///      Phase 3).
  /// With pruning off, passes 1 and 2 are skipped and every slot is
  /// evaluated. Slot i's cache key is (the query's prefix, entry.slots[i])
  /// and its frontier order is i; no key is rendered as a string here.
  void runBlock(UnitRun& run, const SpaceEntry& entry, std::size_t begin,
                std::size_t end, stt::BlockMappingStore& store) {
    const stt::SpecBlockSet& set = entry.space->blocks;
    UnitOut& out = run.out;
    const auto keyOf = [&](std::size_t i) {
      return EvalKey(*run.prefix, entry.slots[i]);
    };
    run.resident.assign(end - begin, nullptr);
    run.state.assign(end - begin, 0);
    run.pending.clear();
    if (options.enablePruning) {
      for (std::size_t i = begin; i < end; ++i) {
        std::shared_ptr<EvalEntry> eval = peekEntry(keyOf(i));
        if (eval)
          run.state[i - begin] = 1;
        else
          run.pending.push_back(i);
        run.resident[i - begin] = std::move(eval);
      }
    }
    if (!run.pending.empty()) {
      run.bounds.resize(run.pending.size());
      run.backend.lowerBoundBlock(set, run.pending.data(), run.pending.size(),
                                  run.query.array, run.bounds.data());
      for (std::size_t p = 0; p < run.pending.size(); ++p) {
        const ParetoCost boundCost{run.bounds[p].cycles,
                                   run.bounds[p].figures.powerMw,
                                   run.bounds[p].figures.area, 0.0};
        if (finiteCost(boundCost) &&
            (run.snapshot.strictlyDominates(boundCost) ||
             out.frontier.strictlyDominates(boundCost))) {
          ++out.pruned;
          run.state[run.pending[p] - begin] = 2;
        }
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (run.state[i - begin] == 2) continue;
      std::shared_ptr<EvalEntry> eval = std::move(run.resident[i - begin]);
      bool hit = run.state[i - begin] == 1;
      if (!eval) std::tie(eval, hit) = evalEntry(keyOf(i), run.prefix);
      if (forceBlock(eval, set, i, run.query.array, run.backend, store))
        ++out.evaluations;
      (hit ? out.hits : out.misses) += 1;
      run.evicted.clear();
      if (out.frontier.insert(paretoEntryOf(eval->perf, eval->cost.figures, i),
                              &run.evicted))
        out.kept.emplace(i, std::move(eval));
      for (std::size_t o : run.evicted) out.kept.erase(o);
    }
  }

};

ExplorationService::ExplorationService(ServiceOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

ExplorationService::~ExplorationService() = default;

std::vector<QueryResult> ExplorationService::runBatch(
    const std::vector<ExploreQuery>& batch) {
  const std::size_t n = batch.size();
  std::vector<QueryResult> results(n);
  if (n == 0) return results;

  // Phase 1: resolve each query's backend and cache-key prefix (rendered
  // and hashed once per query), fetch its cached design space (packed and
  // keyed once per (algebra, enumeration)) and size a per-query mapping
  // store: one slot per mapping class times the backend's operating-point
  // fan-out.
  struct QueryPlan {
    std::shared_ptr<const cost::CostBackend> backend;
    EvalPrefixPtr prefix;
    std::shared_ptr<Impl::SpaceEntry> entry;
    std::unique_ptr<stt::BlockMappingStore> store;
  };
  std::vector<QueryPlan> plans(n);
  parallelForOn(impl_->pool, n, [&](std::size_t i) {
    QueryPlan& plan = plans[i];
    plan.backend = makeBackend(batch[i]);
    plan.prefix = makePrefix(impl_->evalPrefix(batch[i], *plan.backend));
    plan.entry = impl_->specEntry(batch[i]);
    plan.store = std::make_unique<stt::BlockMappingStore>(
        plan.backend->blockSlotCount(plan.entry->space->blocks));
  });

  // Phase 2: shard every query's space into work units; fan the whole
  // batch's units out together so a wide query cannot serialize the batch
  // and one large query uses every worker.
  struct Unit {
    std::size_t query, begin, end;
  };
  std::vector<Unit> units;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t total = plans[i].entry->space->size();
    for (std::size_t b = 0; b < total; b += impl_->options.workUnitSpecs)
      units.push_back({i, b, std::min(total, b + impl_->options.workUnitSpecs)});
  }
  std::vector<UnitOut> outs(units.size());

  // Per-query deadlines, measured from batch entry. A query whose deadline
  // expires stops at the next block boundary; its remaining candidates
  // count as `skipped` and the result is marked timedOut with the partial
  // frontier.
  const Clock::time_point started = Clock::now();
  std::vector<Deadline> deadlines(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (batch[i].deadlineMs <= 0) continue;
    deadlines[i].armed = true;
    deadlines[i].at = started + std::chrono::milliseconds(batch[i].deadlineMs);
  }

  // Per-query incumbent frontiers shared across that query's work units:
  // each completed unit publishes its survivors, and each block of a
  // running unit prunes against a fresh snapshot of them.
  struct Incumbent {
    std::mutex mutex;
    ParetoFrontier frontier;
  };
  std::vector<Incumbent> incumbents(n);
  const bool prune = impl_->options.enablePruning;

  parallelForOn(impl_->pool, units.size(), [&](std::size_t u) {
    const Unit& unit = units[u];
    const QueryPlan& plan = plans[unit.query];
    Deadline& deadline = deadlines[unit.query];
    // Rehearsable failure boundary: the chaos harness arms slow units
    // (deadline/overload drills), thrown units (error responses), and
    // mid-batch process exits (crash-recovery drills) here.
    if (const auto fault = support::fireFault("work_unit")) {
      if (fault->action == "sleep")
        std::this_thread::sleep_for(std::chrono::milliseconds(fault->value));
      else if (fault->action == "throw")
        fail("injected work_unit fault");
      else if (fault->action == "exit")
        std::_Exit(static_cast<int>(fault->value));
    }
    Impl::UnitRun run(batch[unit.query], *plan.backend, plan.prefix, outs[u]);
    for (std::size_t b = unit.begin; b < unit.end; b += kBlockSpecs) {
      // On expiry the WHOLE untouched remainder counts as skipped, so
      // hits + misses + pruned + skipped == designs holds exactly for
      // timed-out partial results too.
      if (deadline.expired()) {
        run.out.skipped += unit.end - b;
        break;
      }
      // Re-snapshot per block, not once per unit: a stale snapshot lets
      // late candidates of a large unit dodge cuts that completed units
      // already justify.
      if (prune) {
        std::lock_guard<std::mutex> lock(incumbents[unit.query].mutex);
        run.snapshot = incumbents[unit.query].frontier;
      }
      impl_->runBlock(run, *plan.entry, b, std::min(unit.end, b + kBlockSpecs),
                      *plan.store);
    }
    if (prune) {
      std::lock_guard<std::mutex> lock(incumbents[unit.query].mutex);
      incumbents[unit.query].frontier.merge(run.out.frontier);
    }
  });

  // Phase 3: merge unit frontiers per query (unit order; the kept set is
  // insertion-order independent, so any schedule above lands here equal)
  // and analyze only the merged frontier into DataflowSpecs.
  // Every packed evaluation read one mapping-store slot: the batch's tile
  // searches are its mapping misses, the other evaluations its hits.
  std::uint64_t evaluations = 0, searches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ParetoFrontier frontier;
    std::unordered_map<std::size_t, const EvalEntry*> kept;
    std::vector<std::size_t> pruned;
    searches += plans[i].store->searches();
    for (std::size_t u = 0; u < units.size(); ++u) {
      if (units[u].query != i) continue;
      UnitOut& out = outs[u];
      results[i].cache.hits += out.hits;
      results[i].cache.misses += out.misses;
      results[i].cache.pruned += out.pruned;
      results[i].cache.skipped += out.skipped;
      evaluations += out.evaluations;
      for (const ParetoEntry& e : out.frontier.entries()) {
        pruned.clear();
        if (frontier.insert(e, &pruned))
          kept.emplace(e.order, out.kept.at(e.order).get());
        for (std::size_t o : pruned) kept.erase(o);
      }
    }
    const std::vector<ParetoEntry> ordered = frontier.sorted();
    const stt::DesignSpace& space = *plans[i].entry->space;
    results[i].designs = space.size();
    results[i].timedOut =
        deadlines[i].timedOut.load(std::memory_order_relaxed);
    const QueryCacheCounts& c = results[i].cache;
    TL_CHECK(c.hits + c.misses + c.pruned + c.skipped == results[i].designs,
             "cache accounting broken: every design must be exactly one of "
             "hit/miss/pruned/skipped");
    results[i].frontier.reserve(ordered.size());
    for (const ParetoEntry& e : ordered) {
      const EvalEntry& eval = *kept.at(e.order);
      results[i].frontier.emplace_back(space.spec(e.order), eval.perf,
                                       eval.cost);
    }
    if (const auto bestIdx = pickBest(ordered, batch[i].objective))
      results[i].best = results[i].frontier[*bestIdx];
  }
  impl_->mappingMisses += searches;
  impl_->mappingHits += evaluations - searches;
  return results;
}

QueryResult ExplorationService::run(const ExploreQuery& query) {
  return std::move(runBatch({query}).front());
}

CacheStats ExplorationService::cacheStats() const {
  CacheStats stats;
  stats.shards = impl_->shards.size();
  for (const auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.entries += shard.map.size();
  }
  stats.mappings.hits = impl_->mappingHits;
  stats.mappings.misses = impl_->mappingMisses;
  return stats;
}

void ExplorationService::clearCache() {
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
    shard.fifo.clear();
    shard.hits = shard.misses = shard.evictions = 0;
  }
  impl_->mappingHits = 0;
  impl_->mappingMisses = 0;
  std::lock_guard<std::mutex> lock(impl_->specMutex);
  impl_->specMap.clear();
  impl_->specFifo.clear();
}

bool ExplorationService::saveSnapshot(const std::string& path,
                                      const std::string& fingerprint) const {
  namespace snap = snapshot;
  snap::Writer w;
  w.str(fingerprint);

  // Candidate-matrix memo (process-wide; shared by every service).
  const auto candidates = stt::exportCandidateCache();
  w.u64(candidates.size());
  for (const stt::CandidateCacheEntry& entry : candidates) {
    w.i64(entry.maxEntry);
    w.u8(static_cast<std::uint8_t>((entry.requireUnimodular ? 1 : 0) |
                                   (entry.canonicalize ? 2 : 0)));
    w.u64(entry.matrices->size());
    for (const linalg::IntMatrix& m : *entry.matrices) snap::writeMatrix(w, m);
  }

  // Eval cache: only entries whose evaluation completed (an in-flight
  // once_flag's values are garbage) — collected under the shard locks.
  // Keys are written in their keys-v2 rendering, prefix + slot suffix.
  std::vector<std::pair<SlotKey, std::shared_ptr<EvalEntry>>> evals;
  for (const auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const EvalKey& key : shard.fifo) {
      const auto it = shard.map.find(key);
      if (it == shard.map.end()) continue;
      if (!it->second->ready.load(std::memory_order_acquire)) continue;
      evals.emplace_back(key.slot, it->second);
    }
  }
  w.u64(evals.size());
  std::string key;
  for (const auto& [slot, entry] : evals) {
    key.assign(entry->prefix->text);
    renderSlotKey(slot, key);
    w.str(key);
    snap::writePerf(w, entry->perf);
    snap::writeCost(w, entry->cost);
  }

  return snap::writeSnapshotFile(path, w.takeBuffer());
}

snapshot::RestoreResult ExplorationService::restoreSnapshot(
    const std::string& path, const std::string& fingerprint) {
  namespace snap = snapshot;
  snap::RestoreResult result;
  const auto payload =
      snap::readSnapshotFile(path, &result.status, &result.message);
  if (!payload) return result;

  // Decode the WHOLE payload into staging containers before touching any
  // live cache: a snapshot that fails mid-decode leaves the service
  // exactly as cold as it was, never half-populated.
  std::vector<stt::CandidateCacheEntry> candidateLists;
  struct RestoredEval {
    EvalPrefixPtr prefix;
    KeyedSlot slot;
    sim::PerfResult perf;
    cost::CostReport cost;
  };
  std::vector<RestoredEval> evals;
  try {
    snap::Reader r(*payload);
    const std::string snapshotFingerprint = r.str();
    if (snapshotFingerprint != fingerprint) {
      result.status = snap::RestoreStatus::ConfigMismatch;
      result.message = "snapshot fingerprint '" + snapshotFingerprint +
                       "' != expected '" + fingerprint + "'";
      return result;
    }

    const std::uint64_t lists = r.u64();
    for (std::uint64_t i = 0; i < lists; ++i) {
      stt::CandidateCacheEntry entry;
      entry.maxEntry = static_cast<int>(r.i64());
      const std::uint8_t flags = r.u8();
      entry.requireUnimodular = (flags & 1) != 0;
      entry.canonicalize = (flags & 2) != 0;
      const std::uint64_t count = r.u64();
      std::vector<linalg::IntMatrix> matrices;
      matrices.reserve(count);
      for (std::uint64_t j = 0; j < count; ++j)
        matrices.push_back(snap::readMatrix(r));
      entry.matrices = std::make_shared<const std::vector<linalg::IntMatrix>>(
          std::move(matrices));
      candidateLists.push_back(std::move(entry));
    }

    // Each key splits at the third '|' from its end into the query prefix
    // and the strictly parsed slot suffix; entries of one prefix share
    // one record, as they do in a live cache.
    std::unordered_map<std::string, EvalPrefixPtr> prefixes;
    const std::uint64_t entries = r.u64();
    for (std::uint64_t i = 0; i < entries; ++i) {
      const std::string key = r.str();
      std::size_t cut = key.size();
      for (int bar = 0; bar < 3 && cut != std::string::npos; ++bar)
        cut = cut == 0 ? std::string::npos : key.rfind('|', cut - 1);
      TL_CHECK(cut != std::string::npos,
               "snapshot evaluation key '" + key + "' has no prefix");
      RestoredEval eval;
      eval.slot.key = parseSlotKey(std::string_view(key).substr(cut + 1));
      eval.slot.hash = hashSlot(eval.slot.key);
      std::string prefix = key.substr(0, cut + 1);
      EvalPrefixPtr& shared = prefixes[prefix];
      if (!shared) shared = makePrefix(std::move(prefix));
      eval.prefix = shared;
      eval.perf = snap::readPerf(r);
      eval.cost = snap::readCost(r);
      evals.push_back(std::move(eval));
    }

    TL_CHECK(r.done(), "snapshot payload has trailing bytes");
  } catch (const std::exception& e) {
    // std::exception, not just Error: a hostile/buggy payload can also
    // surface as bad_alloc or length_error, and any decode failure must
    // degrade to a cold start rather than crash the daemon at startup.
    result.status = snap::RestoreStatus::Corrupt;
    result.message = e.what();
    return result;
  }

  result.candidateLists = stt::importCandidateCache(candidateLists);
  for (const RestoredEval& eval : evals)
    if (impl_->importEval(eval.prefix, eval.slot, eval.perf, eval.cost))
      ++result.evalEntries;
  result.status = snap::RestoreStatus::Restored;
  return result;
}

ExplorationService& ExplorationService::shared() {
  static ExplorationService service;
  return service;
}

}  // namespace tensorlib::driver
