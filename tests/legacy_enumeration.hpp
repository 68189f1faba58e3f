// The original decode-all-filter-canonicalize enumeration engine, kept only
// as a test oracle for the direct engine in src/stt/enumerate.cpp: decode
// every matrix of the (2*maxEntry+1)^9 cube, filter by exact rational
// determinant, canonicalize, dedupe through a set, sort simplest-first; then
// analyze every candidate serially and filter. It has no quotient: its
// output is the exact candidate stream the engine emits with
// EnumerationOptions::dedupeBySignature off.
// It shares no generation, memo, parallelism or hashing code with the
// engine it checks, so byte-identical output is real evidence.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "linalg/solve.hpp"
#include "stt/enumerate.hpp"

namespace tensorlib::oracle {

namespace legacy_detail {

inline std::array<std::int64_t, 9> flat(const linalg::IntMatrix& m) {
  std::array<std::int64_t, 9> out{};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) out[i * 3 + j] = m.at(i, j);
  return out;
}

inline void canonicalizeRowSign(linalg::IntMatrix& m, std::size_t row) {
  for (std::size_t j = 0; j < 3; ++j) {
    const std::int64_t v = m.at(row, j);
    if (v == 0) continue;
    if (v < 0)
      for (std::size_t k = 0; k < 3; ++k) m.at(row, k) = -m.at(row, k);
    return;
  }
}

/// Sign-canonical rows, then the space rows in lexicographic order.
inline linalg::IntMatrix canonicalize(linalg::IntMatrix m) {
  for (std::size_t r = 0; r < 3; ++r) canonicalizeRowSign(m, r);
  const linalg::IntVector r0 = m.row(0);
  const linalg::IntVector r1 = m.row(1);
  if (std::lexicographical_compare(r1.begin(), r1.end(), r0.begin(),
                                   r0.end())) {
    m.setRow(0, r1);
    m.setRow(1, r0);
  }
  return m;
}

/// Simplest-first: fewest nonzero entries, then smallest |entry| sum, then
/// the flattened matrix.
inline bool simplerThan(const linalg::IntMatrix& a, const linalg::IntMatrix& b) {
  const auto key = [](const linalg::IntMatrix& m) {
    int nonzero = 0;
    std::int64_t absSum = 0;
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j) {
        nonzero += m.at(i, j) != 0 ? 1 : 0;
        absSum += std::abs(m.at(i, j));
      }
    return std::make_tuple(nonzero, absSum, flat(m));
  };
  return key(a) < key(b);
}

inline bool passesFilters(const stt::DataflowSpec& spec,
                          const stt::EnumerationOptions& options) {
  bool outputUnicast = false, inputUnicast = false;
  for (const auto& t : spec.tensors()) {
    const stt::DataflowClass cls = t.dataflow.dataflowClass;
    if (options.dropFullReuse && cls == stt::DataflowClass::FullReuse)
      return false;
    if (cls == stt::DataflowClass::Unicast)
      (t.isOutput ? outputUnicast : inputUnicast) = true;
  }
  return !(options.dropAllUnicast && outputUnicast && inputUnicast);
}

}  // namespace legacy_detail

/// The decode-all candidate list for `options` (canonical representatives
/// when options.canonicalize, sorted simplest-first). Memoized per
/// (maxEntry, requireUnimodular, canonicalize) for the life of the test
/// binary, so sweeps pay for each decode once; not thread-safe.
inline const std::vector<linalg::IntMatrix>& legacyCandidateMatrices(
    const stt::EnumerationOptions& options) {
  static std::map<std::tuple<int, bool, bool>, std::vector<linalg::IntMatrix>>
      memo;
  const auto key = std::make_tuple(options.maxEntry, options.requireUnimodular,
                                   options.canonicalize);
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;

  const std::int64_t lo = -options.maxEntry;
  const std::int64_t radix = 2 * options.maxEntry + 1;
  std::int64_t total = 1;
  for (int i = 0; i < 9; ++i) total *= radix;
  std::set<std::array<std::int64_t, 9>> seen;
  std::vector<linalg::IntMatrix> out;
  for (std::int64_t code = 0; code < total; ++code) {
    linalg::IntMatrix m(3, 3);
    std::int64_t c = code;
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j) {
        m.at(i, j) = lo + (c % radix);
        c /= radix;
      }
    const std::int64_t det = linalg::determinant(m);
    if (det == 0) continue;
    if (options.requireUnimodular && det != 1 && det != -1) continue;
    if (options.canonicalize) m = legacy_detail::canonicalize(m);
    if (!seen.insert(legacy_detail::flat(m)).second) continue;
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end(), legacy_detail::simplerThan);
  return memo.emplace(key, std::move(out)).first->second;
}

/// enumerateTransforms through the legacy engine: the exact filtered
/// stream (options.dedupeBySignature is ignored — the evaluation-class
/// quotient has no legacy counterpart).
inline std::vector<stt::DataflowSpec> legacyEnumerateTransforms(
    const tensor::TensorAlgebra& algebra, const stt::LoopSelection& selection,
    const stt::EnumerationOptions& options) {
  const stt::SpecContextPtr context = stt::makeSpecContext(algebra, selection);
  std::vector<stt::DataflowSpec> out;
  for (const linalg::IntMatrix& m : legacyCandidateMatrices(options)) {
    stt::DataflowSpec spec =
        stt::analyzeDataflow(context, stt::SpaceTimeTransform(m));
    if (!legacy_detail::passesFilters(spec, options)) continue;
    out.push_back(std::move(spec));
  }
  return out;
}

inline std::vector<stt::DataflowSpec> legacyEnumerateDesignSpace(
    const tensor::TensorAlgebra& algebra,
    const stt::EnumerationOptions& options) {
  std::vector<stt::DataflowSpec> out;
  for (const auto& selection : stt::allLoopSelections(algebra)) {
    auto specs = legacyEnumerateTransforms(algebra, selection, options);
    out.insert(out.end(), std::make_move_iterator(specs.begin()),
               std::make_move_iterator(specs.end()));
  }
  return out;
}

/// findDataflow through the legacy engine: the first candidate, in
/// simplest-first order, whose per-tensor letters equal `letters`.
inline std::optional<stt::DataflowSpec> legacyFindDataflow(
    const tensor::TensorAlgebra& algebra, const stt::LoopSelection& selection,
    const std::string& letters, const stt::EnumerationOptions& options) {
  const stt::SpecContextPtr context = stt::makeSpecContext(algebra, selection);
  for (const linalg::IntMatrix& m : legacyCandidateMatrices(options)) {
    stt::DataflowSpec spec =
        stt::analyzeDataflow(context, stt::SpaceTimeTransform(m));
    if (spec.letters() == letters) return spec;
  }
  return std::nullopt;
}

}  // namespace tensorlib::oracle
