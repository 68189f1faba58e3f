#include "stt/enumerate.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "linalg/solve.hpp"
#include "support/error.hpp"
#include "support/threadpool.hpp"

namespace tensorlib::stt {

namespace {

/// Flips a row's sign so its first nonzero entry is positive.
void canonicalizeRowSign(linalg::IntMatrix& m, std::size_t row) {
  for (std::size_t j = 0; j < 3; ++j) {
    const std::int64_t v = m.at(row, j);
    if (v == 0) continue;
    if (v < 0)
      for (std::size_t k = 0; k < 3; ++k) m.at(row, k) = -m.at(row, k);
    return;
  }
}

/// Mirror symmetry (negating a space row), time reversal (negating the time
/// row) and array transpose (swapping space rows) all describe the same
/// hardware; pick one representative.
linalg::IntMatrix canonicalize(linalg::IntMatrix m) {
  canonicalizeRowSign(m, 0);
  canonicalizeRowSign(m, 1);
  canonicalizeRowSign(m, 2);
  const linalg::IntVector r0 = m.row(0);
  const linalg::IntVector r1 = m.row(1);
  if (std::lexicographical_compare(r1.begin(), r1.end(), r0.begin(), r0.end())) {
    m.setRow(0, r1);
    m.setRow(1, r0);
  }
  return m;
}

int nonzeroCount(const linalg::IntMatrix& m) {
  int n = 0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      if (m.at(i, j) != 0) ++n;
  return n;
}

std::int64_t absSum(const linalg::IntMatrix& m) {
  std::int64_t s = 0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) s += std::abs(m.at(i, j));
  return s;
}

std::array<std::int64_t, 9> flat(const linalg::IntMatrix& m) {
  std::array<std::int64_t, 9> out{};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) out[i * 3 + j] = m.at(i, j);
  return out;
}

/// Simplest-first total order; the flat() tie-break makes the sorted
/// candidate list independent of generation order.
bool simplerThan(const linalg::IntMatrix& a, const linalg::IntMatrix& b) {
  const int na = nonzeroCount(a), nb = nonzeroCount(b);
  if (na != nb) return na < nb;
  const std::int64_t sa = absSum(a), sb = absSum(b);
  if (sa != sb) return sa < sb;
  return flat(a) < flat(b);
}

using Row3 = std::array<std::int64_t, 3>;

/// All nonzero rows with entries in [-maxEntry, maxEntry], lexicographically
/// ascending. When signCanonical, only rows whose first nonzero entry is
/// positive (the representative canonicalizeRowSign() picks) — exactly half.
std::vector<Row3> rowPool(int maxEntry, bool signCanonical) {
  std::vector<Row3> rows;
  const std::int64_t e = maxEntry;
  for (std::int64_t a = -e; a <= e; ++a)
    for (std::int64_t b = -e; b <= e; ++b)
      for (std::int64_t c = -e; c <= e; ++c) {
        if (a == 0 && b == 0 && c == 0) continue;
        if (signCanonical) {
          const std::int64_t first = a != 0 ? a : (b != 0 ? b : c);
          if (first < 0) continue;
        }
        rows.push_back({a, b, c});
      }
  return rows;
}

/// Builds matrices row-by-row so only canonical representatives are ever
/// materialized (sign-canonical rows, space rows in lex order), with an
/// incremental determinant — the cross product of the two space rows is
/// computed once per pair and dotted with each time row. No decode, no
/// rational arithmetic, no dedupe set; for maxEntry=2 this visits ~120k row
/// triples instead of ~1.95M full decodes.
std::vector<linalg::IntMatrix> generateCandidateMatrices(
    const EnumerationOptions& options) {
  const std::vector<Row3> rows = rowPool(options.maxEntry, options.canonicalize);
  const std::size_t n = rows.size();
  std::vector<linalg::IntMatrix> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Row3& r0 = rows[i];
    // Canonical form also requires row0 <= row1 lexicographically; the pool
    // is lex-ascending, so start row1 past row0 (equal rows are singular).
    for (std::size_t j = options.canonicalize ? i + 1 : 0; j < n; ++j) {
      if (j == i) continue;
      const Row3& r1 = rows[j];
      const Row3 cross{r0[1] * r1[2] - r0[2] * r1[1],
                       r0[2] * r1[0] - r0[0] * r1[2],
                       r0[0] * r1[1] - r0[1] * r1[0]};
      if (cross[0] == 0 && cross[1] == 0 && cross[2] == 0) continue;
      for (const Row3& r2 : rows) {
        const std::int64_t det =
            cross[0] * r2[0] + cross[1] * r2[1] + cross[2] * r2[2];
        if (det == 0) continue;
        if (options.requireUnimodular && det != 1 && det != -1) continue;
        linalg::IntMatrix m(3, 3);
        for (std::size_t k = 0; k < 3; ++k) {
          m.at(0, k) = r0[k];
          m.at(1, k) = r1[k];
          m.at(2, k) = r2[k];
        }
        out.push_back(std::move(m));
      }
    }
  }
  std::sort(out.begin(), out.end(), simplerThan);
  return out;
}

using CandidateList = std::shared_ptr<const std::vector<linalg::IntMatrix>>;

/// Process-wide bounded memo of candidate-matrix lists, FIFO-evicted and
/// instrumented (mirrors the exploration service's cache pattern): distinct
/// EnumerationOptions keys no longer grow the process footprint forever.
struct CandidateCache {
  /// (maxEntry, requireUnimodular, canonicalize): the only options
  /// generateCandidateMatrices() reads.
  using Key = std::tuple<int, bool, bool>;
  std::mutex mutex;
  std::map<Key, CandidateList> map;
  std::deque<Key> fifo;
  std::size_t capacity = 16;
  CandidateCacheStats stats;

  static CandidateCache& instance() {
    static CandidateCache cache;
    return cache;
  }

  /// FIFO-evicts down to the capacity; the caller holds `mutex`.
  void evictOverCapacity() {
    while (map.size() > capacity) {
      map.erase(fifo.front());
      fifo.pop_front();
      ++stats.evictions;
    }
  }
};

/// All full-rank (optionally unimodular) matrices in entry range, canonical
/// representatives only, sorted simplest-first for deterministic search.
/// Memoized process-wide: both findDataflow lookups and repeated
/// enumerations hit the same immutable list.
CandidateList candidateMatrices(const EnumerationOptions& options) {
  const CandidateCache::Key key = std::make_tuple(
      options.maxEntry, options.requireUnimodular, options.canonicalize);
  CandidateCache& cache = CandidateCache::instance();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    const auto it = cache.map.find(key);
    if (it != cache.map.end()) {
      ++cache.stats.hits;
      return it->second;
    }
    ++cache.stats.misses;
  }
  CandidateList list = std::make_shared<const std::vector<linalg::IntMatrix>>(
      generateCandidateMatrices(options));
  // If another thread raced us here, both lists are identical; keep the
  // first one inserted. Eviction is FIFO on insertion order; holders of an
  // evicted list keep it alive through the shared_ptr.
  std::lock_guard<std::mutex> lock(cache.mutex);
  const auto [it, inserted] = cache.map.try_emplace(key, std::move(list));
  if (inserted) {
    cache.fifo.push_back(key);
    cache.evictOverCapacity();  // never the newest key: capacity >= 1
  }
  return it->second;
}

/// T-independent slice of analyzeReuse: a tensor's reuse nullspace basis
/// depends only on the restricted access, so one selection's sweep computes
/// it once per tensor instead of once per (tensor, candidate).
struct TensorReuseBasis {
  std::size_t rank = 0;
  std::array<std::array<std::int64_t, 3>, 3> cols{};  ///< basis columns
};

using ReuseBases = std::array<TensorReuseBasis, kBlockMaxTensors>;

/// The reuse bases of a selection's tensors, in label order.
ReuseBases reuseBases(const SpecContext& context) {
  const std::size_t T = context.restrictedAccesses.size();
  TL_CHECK(T >= 1 && T <= kBlockMaxTensors,
           "enumeration: tensor count out of range");
  ReuseBases bases;
  for (std::size_t k = 0; k < T; ++k) {
    const linalg::IntMatrix b =
        linalg::nullspaceBasis(context.restrictedAccesses[k].coeff());
    TL_CHECK(b.cols() <= 3, "reuse nullspace rank out of range");
    bases[k].rank = b.cols();
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t i = 0; i < 3; ++i) bases[k].cols[j][i] = b.at(i, j);
  }
  return bases;
}

/// The dropFullReuse/dropAllUnicast filters, decided once per selection:
/// a tensor's reuse rank is the nullity of its restricted access, which an
/// invertible T does not change, and Unicast is rank 0 and FullReuse rank
/// 3. So either every candidate of the selection passes or none does.
bool selectionPassesFilters(const SpecContext& context, const ReuseBases& bases,
                            const EnumerationOptions& options) {
  const std::size_t T = context.restrictedAccesses.size();
  if (options.dropFullReuse)
    for (std::size_t k = 0; k < T; ++k)
      if (bases[k].rank == 3) return false;
  if (options.dropAllUnicast && bases[T - 1].rank == 0)
    for (std::size_t k = 0; k + 1 < T; ++k)
      if (bases[k].rank == 0) return false;
  return true;
}

std::int64_t gcd3(std::int64_t a, std::int64_t b, std::int64_t c) {
  return std::gcd(std::gcd(a, b), c);
}

/// classify(analyzeReuse(access, T)) without materializing either: the
/// same arithmetic on the same integers, specialized to the packed-model
/// read set (class tag, |primitive direction| spatial components, |exact
/// dt| for Systolic). Rank-1 zero patterns survive primitivization and the
/// rank-2 tests are rational-span facts (inSpan reduces to the 2x2
/// determinant below for independent columns), so every branch lands on
/// exactly the class classify() assigns — pinned by the differential tests.
void classifyFast(const linalg::IntMatrix& m, const TensorReuseBasis& basis,
                  std::uint8_t& classTag, std::int64_t* absDir,
                  std::int64_t& systolicDt) {
  absDir[0] = 0;
  absDir[1] = 0;
  systolicDt = 0;
  switch (basis.rank) {
    case 0:
      classTag = static_cast<std::uint8_t>(DataflowClass::Unicast);
      return;
    case 1: {
      std::int64_t e[3];
      for (std::size_t i = 0; i < 3; ++i)
        e[i] = m.at(i, 0) * basis.cols[0][0] + m.at(i, 1) * basis.cols[0][1] +
               m.at(i, 2) * basis.cols[0][2];
      const bool spatialZero = e[0] == 0 && e[1] == 0;
      const bool timeZero = e[2] == 0;
      DataflowClass cls;
      if (spatialZero)
        cls = DataflowClass::Stationary;
      else if (timeZero)
        cls = DataflowClass::Multicast;
      else
        cls = DataflowClass::Systolic;
      classTag = static_cast<std::uint8_t>(cls);
      const std::int64_t g =
          gcd3(std::abs(e[0]), std::abs(e[1]), std::abs(e[2]));
      absDir[0] = std::abs(e[0]) / g;
      absDir[1] = std::abs(e[1]) / g;
      if (cls == DataflowClass::Systolic) systolicDt = std::abs(e[2]);
      return;
    }
    case 2: {
      std::int64_t e0[3], e1[3];
      for (std::size_t i = 0; i < 3; ++i) {
        e0[i] = m.at(i, 0) * basis.cols[0][0] + m.at(i, 1) * basis.cols[0][1] +
                m.at(i, 2) * basis.cols[0][2];
        e1[i] = m.at(i, 0) * basis.cols[1][0] + m.at(i, 1) * basis.cols[1][1] +
                m.at(i, 2) * basis.cols[1][2];
      }
      if (e0[2] == 0 && e1[2] == 0)
        classTag = static_cast<std::uint8_t>(DataflowClass::Broadcast2D);
      else if (e0[0] * e1[1] - e0[1] * e1[0] == 0)
        classTag = static_cast<std::uint8_t>(DataflowClass::MulticastStationary);
      else
        classTag = static_cast<std::uint8_t>(DataflowClass::SystolicMulticast);
      return;
    }
    default:
      classTag = static_cast<std::uint8_t>(DataflowClass::FullReuse);
      return;
  }
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Open-addressing table of one selection's packed slots keyed by
/// evaluation class. The 64-bit hash only locates candidates: a slot
/// matches when `same(slot)` confirms equal packed class data, so a hash
/// collision can never merge two classes.
class ClassTable {
 public:
  /// True iff an inserted slot satisfies `same`; otherwise records `slot`
  /// under `hash` and returns false.
  template <typename Same>
  bool seen(std::uint64_t hash, std::uint32_t slot, const Same& same) {
    if ((size_ + 1) * 4 >= table_.size() * 3) grow();
    std::size_t i = index(hash);
    for (; table_[i].slot != kEmpty; i = (i + 1) & (table_.size() - 1))
      if (table_[i].hash == hash && same(table_[i].slot)) return true;
    table_[i] = {hash, slot};
    ++size_;
    return false;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  struct Entry {
    std::uint64_t hash = 0;
    std::uint32_t slot = kEmpty;
  };

  std::size_t index(std::uint64_t h) const {
    // Multiplicative spread: a cheap re-scramble keeps clustered hashes
    // from probing long runs.
    return static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ull) >>
                                    (64 - shift_)) &
           (table_.size() - 1);
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    shift_ += 1;
    table_.assign(std::size_t{1} << shift_, Entry{});
    for (const Entry& e : old) {
      if (e.slot == kEmpty) continue;
      std::size_t i = index(e.hash);
      while (table_[i].slot != kEmpty) i = (i + 1) & (table_.size() - 1);
      table_[i] = e;
    }
  }

  std::size_t shift_ = 6;
  std::vector<Entry> table_ = std::vector<Entry>(64);
  std::size_t size_ = 0;
};

/// Sets a set's per-space constants from one selection's context (whose
/// tensor count reuseBases() already range-checked); every selection of an
/// algebra agrees on them.
void initBlocks(SpecBlockSet& set, const SpecContext& context) {
  const std::size_t T = context.restrictedAccesses.size();
  set.tensorsPerSpec = T;
  set.inputCount = context.algebra.inputs().size();
  set.algebraMacs = context.algebra.totalMacs();
  set.tensorRank.resize(T);
  set.tensorIsOutput.resize(T);
  set.rankStride = 0;
  for (std::size_t k = 0; k < T; ++k) {
    const std::size_t rank = context.restrictedAccesses[k].coeff().rows();
    TL_CHECK(rank <= kBlockMaxRank, "block packing: tensor rank out of range");
    set.tensorRank[k] = rank;
    set.tensorIsOutput[k] = k + 1 == T ? 1 : 0;
    set.rankStride = std::max(set.rankStride, rank);
  }
  if (set.rankStride == 0) set.rankStride = 1;
}

/// The transform-independent slice of a packed slot, fixed by the
/// (algebra, selection) pair: built once per selection and replicated
/// into each of its slots.
struct SelectionSlice {
  std::array<std::int64_t, 3> extents{};
  std::int64_t outer = 1;
  /// |restricted access| coefficients: per tensor a rankStride x 3
  /// row-major block, rows beyond the tensor's rank zero-padded.
  std::vector<std::int64_t> absC;
  std::string labelPrefix;  ///< selection().label() + "-"
};

SelectionSlice sliceOf(const SpecBlockSet& set, const SpecContext& context) {
  const std::size_t T = context.restrictedAccesses.size();
  TL_CHECK(T == set.tensorsPerSpec,
           "block packing: tensor count varies within one space");
  SelectionSlice slice;
  const linalg::IntVector& e = context.selection.extents();
  for (std::size_t j = 0; j < 3; ++j) slice.extents[j] = e[j];
  for (std::size_t idx : context.selection.outerIndices())
    slice.outer =
        linalg::checkedMul(slice.outer, context.algebra.loops()[idx].extent);
  slice.absC.assign(T * set.rankStride * 3, 0);
  for (std::size_t k = 0; k < T; ++k) {
    const linalg::IntMatrix& c = context.restrictedAccesses[k].coeff();
    TL_CHECK(c.rows() == set.tensorRank[k],
             "block packing: tensor rank varies within one space");
    std::int64_t* absC = slice.absC.data() + k * set.rankStride * 3;
    for (std::size_t d = 0; d < c.rows(); ++d)
      for (std::size_t j = 0; j < 3; ++j) absC[d * 3 + j] = std::abs(c.at(d, j));
  }
  slice.labelPrefix = context.selection.label() + "-";
  return slice;
}

/// Per-candidate class data of one sweep step, in SpecBlockSet layout.
struct SlotData {
  std::int64_t absT[9];
  std::uint8_t classTag[kBlockMaxTensors];
  std::int64_t absDir[kBlockMaxTensors * 2];
  std::int64_t systolicDt[kBlockMaxTensors];
  char letters[kBlockMaxTensors + 1];
};

void appendSlot(SpecBlockSet& set, const SelectionSlice& slice,
                const SlotData& d) {
  const std::size_t T = set.tensorsPerSpec;
  ++set.count;
  set.extents.insert(set.extents.end(), slice.extents.begin(),
                     slice.extents.end());
  set.outer.push_back(slice.outer);
  set.absT.insert(set.absT.end(), d.absT, d.absT + 9);
  set.labels.push_back(slice.labelPrefix + d.letters);
  set.classTag.insert(set.classTag.end(), d.classTag, d.classTag + T);
  set.absDir.insert(set.absDir.end(), d.absDir, d.absDir + T * 2);
  set.systolicDt.insert(set.systolicDt.end(), d.systolicDt,
                        d.systolicDt + T);
  set.absC.insert(set.absC.end(), slice.absC.begin(), slice.absC.end());
}

/// True iff packed slot `i` holds exactly `d`'s class data. Within one
/// selection this is evaluation-class equality: extents, outer and |C| are
/// selection constants.
bool sameClass(const SpecBlockSet& set, std::size_t i, const SlotData& d) {
  const std::size_t T = set.tensorsPerSpec;
  const std::size_t t = set.tensorIndex(i, 0);
  return std::equal(d.absT, d.absT + 9, set.specAbsT(i)) &&
         std::equal(d.classTag, d.classTag + T, set.classTag.data() + t) &&
         std::equal(d.absDir, d.absDir + T * 2, set.absDir.data() + t * 2) &&
         std::equal(d.systolicDt, d.systolicDt + T, set.systolicDt.data() + t);
}

std::uint64_t classHash(const SlotData& d, std::size_t T) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::int64_t v : d.absT) h = mix64(h, static_cast<std::uint64_t>(v));
  for (std::size_t k = 0; k < T; ++k) {
    h = mix64(h, d.classTag[k]);
    h = mix64(h, static_cast<std::uint64_t>(d.absDir[k * 2 + 0]));
    h = mix64(h, static_cast<std::uint64_t>(d.absDir[k * 2 + 1]));
    h = mix64(h, static_cast<std::uint64_t>(d.systolicDt[k]));
  }
  return h;
}

/// Appends one selection's slots to `space`: every candidate of the
/// memoized stream, fast-classified, kept when the quotient is off or its
/// evaluation class is new.
void sweepSelection(DesignSpace& space, SpecContextPtr context,
                    const EnumerationOptions& options) {
  const ReuseBases bases = reuseBases(*context);
  if (!selectionPassesFilters(*context, bases, options)) return;
  SpecBlockSet& set = space.blocks;
  if (set.tensorsPerSpec == 0) initBlocks(set, *context);
  const SelectionSlice slice = sliceOf(set, *context);
  const auto contextIndex = static_cast<std::uint32_t>(space.contexts.size());
  space.contexts.push_back(std::move(context));

  const std::size_t T = set.tensorsPerSpec;
  const std::vector<linalg::IntMatrix>& candidates = *space.candidates;
  SlotData d;
  d.letters[T] = '\0';
  ClassTable classes;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const linalg::IntMatrix& m = candidates[c];
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t j = 0; j < 3; ++j) d.absT[r * 3 + j] = std::abs(m.at(r, j));
    for (std::size_t k = 0; k < T; ++k) {
      classifyFast(m, bases[k], d.classTag[k], d.absDir + k * 2,
                   d.systolicDt[k]);
      d.letters[k] = dataflowLetter(static_cast<DataflowClass>(d.classTag[k]));
    }
    if (options.dedupeBySignature &&
        classes.seen(classHash(d, T), static_cast<std::uint32_t>(set.count),
                     [&](std::uint32_t slot) { return sameClass(set, slot, d); }))
      continue;
    appendSlot(set, slice, d);
    space.candidateOf.push_back(static_cast<std::uint32_t>(c));
    space.contextOf.push_back(contextIndex);
  }
}

/// Appends the raw bytes of `n` int64s to `key` (mapping-class hashing).
void appendWords(std::string& key, const std::int64_t* words, std::size_t n) {
  key.append(reinterpret_cast<const char*>(words), n * sizeof(std::int64_t));
}

/// Builds the mapping-class partition of a packed set, keyed on the packed
/// mapping read set (extents, outer, |T|, |C|).
void assignMapClasses(SpecBlockSet& set) {
  const std::size_t n = set.count;
  const std::size_t T = set.tensorsPerSpec;
  set.mapClass.resize(n);
  std::unordered_map<std::string, std::uint32_t> classes;
  std::string key;
  key.reserve((3 + 1 + 9 + T * set.rankStride * 3) * sizeof(std::int64_t));
  for (std::size_t i = 0; i < n; ++i) {
    key.clear();
    appendWords(key, set.specExtents(i), 3);
    appendWords(key, &set.outer[i], 1);
    appendWords(key, set.specAbsT(i), 9);
    appendWords(key, set.tensorAbsC(i, 0), T * set.rankStride * 3);
    set.mapClass[i] =
        classes.emplace(key, static_cast<std::uint32_t>(classes.size()))
            .first->second;
  }
  set.mapClassCount = classes.size();
}

DesignSpace packSelections(const tensor::TensorAlgebra& algebra,
                           const std::vector<LoopSelection>& selections,
                           const EnumerationOptions& options) {
  DesignSpace space;
  space.candidates = candidateMatrices(options);
  TL_CHECK(space.candidates->size() < UINT32_MAX,
           "enumeration: candidate list too long to index");
  for (const LoopSelection& selection : selections)
    sweepSelection(space, makeSpecContext(algebra, selection), options);
  assignMapClasses(space.blocks);
  return space;
}

/// Every slot of `space`, analyzed, in slot order. A bounded window of
/// slots is analyzed in parallel into per-index slots and then moved out
/// in order: output is identical at every worker count, and peak memory
/// stays one window above the result.
std::vector<DataflowSpec> analyzeSpace(const DesignSpace& space) {
  constexpr std::size_t kWindow = 2048;
  const std::size_t n = space.size();
  std::vector<DataflowSpec> out;
  out.reserve(n);
  std::vector<std::optional<DataflowSpec>> analyzed(std::min(n, kWindow));
  for (std::size_t base = 0; base < n; base += kWindow) {
    const std::size_t count = std::min(kWindow, n - base);
    parallelFor(count,
                [&](std::size_t i) { analyzed[i].emplace(space.spec(base + i)); });
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(std::move(*analyzed[i]));
      analyzed[i].reset();
    }
  }
  return out;
}

}  // namespace

CandidateCacheStats candidateCacheStats() {
  CandidateCache& cache = CandidateCache::instance();
  std::lock_guard<std::mutex> lock(cache.mutex);
  CandidateCacheStats stats = cache.stats;
  stats.entries = cache.map.size();
  return stats;
}

void clearCandidateCache() {
  CandidateCache& cache = CandidateCache::instance();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.map.clear();
  cache.fifo.clear();
}

std::vector<CandidateCacheEntry> exportCandidateCache() {
  CandidateCache& cache = CandidateCache::instance();
  std::lock_guard<std::mutex> lock(cache.mutex);
  std::vector<CandidateCacheEntry> out;
  out.reserve(cache.fifo.size());
  for (const CandidateCache::Key& key : cache.fifo) {
    const auto it = cache.map.find(key);
    if (it == cache.map.end()) continue;
    CandidateCacheEntry entry;
    std::tie(entry.maxEntry, entry.requireUnimodular, entry.canonicalize) = key;
    entry.matrices = it->second;
    out.push_back(std::move(entry));
  }
  return out;
}

std::size_t importCandidateCache(const std::vector<CandidateCacheEntry>& entries) {
  CandidateCache& cache = CandidateCache::instance();
  std::lock_guard<std::mutex> lock(cache.mutex);
  std::size_t inserted = 0;
  for (const CandidateCacheEntry& entry : entries) {
    if (!entry.matrices) continue;
    const CandidateCache::Key key = std::make_tuple(
        entry.maxEntry, entry.requireUnimodular, entry.canonicalize);
    if (!cache.map.try_emplace(key, entry.matrices).second) continue;
    cache.fifo.push_back(key);
    ++inserted;
    cache.evictOverCapacity();
  }
  return inserted;
}

std::size_t setCandidateCacheCapacity(std::size_t capacity) {
  CandidateCache& cache = CandidateCache::instance();
  std::lock_guard<std::mutex> lock(cache.mutex);
  const std::size_t previous = cache.capacity;
  cache.capacity = capacity > 0 ? capacity : 1;
  cache.evictOverCapacity();
  return previous;
}

std::vector<LoopSelection> allLoopSelections(const tensor::TensorAlgebra& algebra) {
  const std::size_t n = algebra.loopCount();
  TL_CHECK(n >= 3, "algebra needs at least 3 loops for a 2D PE array");
  std::vector<LoopSelection> out;
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b)
      for (std::size_t c = b + 1; c < n; ++c)
        out.emplace_back(algebra, std::vector<std::size_t>{a, b, c});
  return out;
}

std::string_view DesignSpace::letters(std::size_t i) const {
  const std::string_view label = blocks.labels[i];
  return label.substr(label.find('-') + 1);
}

DataflowSpec DesignSpace::spec(std::size_t i) const {
  return analyzeDataflow(context(i), SpaceTimeTransform(matrix(i)));
}

DesignSpace packDesignSpace(const tensor::TensorAlgebra& algebra,
                            const EnumerationOptions& options) {
  return packSelections(algebra, allLoopSelections(algebra), options);
}

std::vector<DataflowSpec> enumerateTransforms(const tensor::TensorAlgebra& algebra,
                                              const LoopSelection& selection,
                                              const EnumerationOptions& options) {
  return analyzeSpace(packSelections(algebra, {selection}, options));
}

std::vector<DataflowSpec> enumerateDesignSpace(const tensor::TensorAlgebra& algebra,
                                               const EnumerationOptions& options) {
  return analyzeSpace(packDesignSpace(algebra, options));
}

std::optional<DataflowSpec> findDataflow(const tensor::TensorAlgebra& algebra,
                                         const LoopSelection& selection,
                                         const std::string& letters,
                                         const EnumerationOptions& options) {
  TL_CHECK(letters.size() == algebra.inputs().size() + 1,
           "findDataflow: need one letter per tensor (inputs then output)");
  // Serial scan with early exit: candidates are sorted simplest-first, so
  // named dataflows are found near the head of the (memoized) list. The
  // shared_ptr must outlive the loop — *candidateMatrices(...) inline in the
  // range-for would dangle.
  const CandidateList candidates = candidateMatrices(options);
  const SpecContextPtr context = makeSpecContext(algebra, selection);
  for (const auto& m : *candidates) {
    DataflowSpec spec = analyzeDataflow(context, SpaceTimeTransform(m));
    if (spec.letters() == letters) return spec;
  }
  return std::nullopt;
}

linalg::IntMatrix canonicalTransform(const linalg::IntMatrix& m) {
  return canonicalize(m);
}

std::vector<linalg::IntMatrix> symmetryOrbit(const linalg::IntMatrix& m) {
  // All 16 group elements: destination-row sign flips (8) composed with the
  // space-row swap (2); duplicates collapse for matrices fixed by a
  // nontrivial element (equal space rows never occur in full-rank inputs,
  // but the helper stays total).
  std::set<std::array<std::int64_t, 9>> seen;
  std::vector<linalg::IntMatrix> out;
  for (int signs = 0; signs < 8; ++signs)
    for (int swap = 0; swap < 2; ++swap) {
      linalg::IntMatrix g(3, 3);
      for (std::size_t r = 0; r < 3; ++r) {
        const std::size_t src = (swap != 0 && r < 2) ? 1 - r : r;
        const std::int64_t s = ((signs >> r) & 1) != 0 ? -1 : 1;
        for (std::size_t j = 0; j < 3; ++j) g.at(r, j) = s * m.at(src, j);
      }
      if (seen.insert(flat(g)).second) out.push_back(std::move(g));
    }
  return out;
}

std::shared_ptr<const std::vector<linalg::IntMatrix>> candidateTransformMatrices(
    const EnumerationOptions& options) {
  return candidateMatrices(options);
}

std::optional<DataflowSpec> findDataflowByLabel(const tensor::TensorAlgebra& algebra,
                                                const std::string& label,
                                                const EnumerationOptions& options) {
  const auto dash = label.find('-');
  TL_CHECK(dash != std::string::npos && dash == 3,
           "label must look like 'MNK-SST': " + label);
  const std::string sel = label.substr(0, dash);
  const std::string letters = label.substr(dash + 1);

  std::vector<std::size_t> indices;
  for (char ch : sel) {
    const char want = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    std::optional<std::size_t> found;
    for (std::size_t i = 0; i < algebra.loopCount(); ++i) {
      if (algebra.loops()[i].name[0] == want) {
        TL_CHECK(!found.has_value(),
                 std::string("ambiguous loop initial '") + ch + "' in " + label);
        found = i;
      }
    }
    TL_CHECK(found.has_value(), std::string("no loop with initial '") + ch +
                                    "' in algebra " + algebra.name());
    indices.push_back(*found);
  }
  return findDataflow(algebra, LoopSelection(algebra, indices), letters, options);
}

}  // namespace tensorlib::stt
