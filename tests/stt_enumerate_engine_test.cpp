// Equivalence tests for the enumeration engine: the direct-canonical
// generator, with its process-wide candidate memo, fast classifier and
// parallel analysis, must return byte-identical spec sequences to the
// serial decode-all oracle in tests/legacy_enumeration.hpp, cold (memo
// cleared) and warm. The oracle has no quotient, so the sequences compared
// are the exact candidate streams (dedupeBySignature off); the quotient
// is checked against that stream by stt_quotient_test.
#include "stt/enumerate.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "legacy_enumeration.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::stt {
namespace {

namespace wl = tensor::workloads;
using oracle::legacyEnumerateDesignSpace;
using oracle::legacyEnumerateTransforms;
using oracle::legacyFindDataflow;

/// The exact stream at `maxEntry`: every filtered candidate, unquotiented.
EnumerationOptions streamAt(int maxEntry) {
  EnumerationOptions o;
  o.maxEntry = maxEntry;
  o.dedupeBySignature = false;
  return o;
}

/// Byte-level fingerprint of a spec sequence: order-sensitive.
std::string fingerprint(const std::vector<DataflowSpec>& specs) {
  std::string out;
  for (const auto& s : specs) {
    out += s.label();
    out += '|';
    out += s.signature();
    out += '|';
    const auto& m = s.transform().matrix();
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j)
        out += std::to_string(m.at(i, j)) + ',';
    out += ';';
  }
  return out;
}

TEST(EnumerateEngine, MatchesLegacyOracleByteIdentical) {
  // Every registered workload under its own dropAllUnicast setting: the
  // engine's once-per-selection filter must drop exactly the specs the
  // oracle's per-spec filter drops (conv2d, depthwise and ttmc have
  // selections it drops whole).
  for (const auto& w : wl::allWorkloads()) {
    SCOPED_TRACE(w.name);
    EnumerationOptions options = streamAt(1);
    options.dropAllUnicast = !w.allowAllUnicast;
    clearCandidateCache();
    const auto cold = enumerateDesignSpace(w.algebra, options);
    const auto reference = legacyEnumerateDesignSpace(w.algebra, options);
    ASSERT_EQ(cold.size(), reference.size());
    EXPECT_EQ(fingerprint(cold), fingerprint(reference));
  }
}

TEST(EnumerateEngine, MultiSelectionAlgebraMatches) {
  const auto mt = wl::mttkrp(6, 6, 6, 6);
  EXPECT_EQ(fingerprint(enumerateDesignSpace(mt, streamAt(1))),
            fingerprint(legacyEnumerateDesignSpace(mt, streamAt(1))));
}

TEST(EnumerateEngine, NonCanonicalNonUnimodularMatches) {
  const auto g = wl::gemm(4, 4, 4);
  EnumerationOptions o = streamAt(1);
  o.canonicalize = false;
  o.requireUnimodular = false;
  const LoopSelection sel(g, {0, 1, 2});
  EXPECT_EQ(fingerprint(enumerateTransforms(g, sel, o)),
            fingerprint(legacyEnumerateTransforms(g, sel, o)));
}

TEST(EnumerateEngine, ColdAndWarmCallsAreDeterministic) {
  const auto g = wl::gemm(8, 8, 8);
  clearCandidateCache();
  const auto before = candidateCacheStats();
  const auto cold = enumerateDesignSpace(g, EnumerationOptions{});  // miss
  const auto warm = enumerateDesignSpace(g, EnumerationOptions{});  // hit
  const auto after = candidateCacheStats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_GE(after.hits - before.hits, 1u);
  EXPECT_EQ(fingerprint(cold), fingerprint(warm));
}

TEST(EnumerateEngine, FindDataflowAgreesWithLegacyOracle) {
  const auto g = wl::gemm(8, 8, 8);
  const LoopSelection mnk(g, {0, 1, 2});
  for (const std::string letters : {"MTM", "SST", "TSS"}) {
    const auto fast = findDataflowByLabel(g, "MNK-" + letters);
    const auto reference = legacyFindDataflow(g, mnk, letters, streamAt(1));
    ASSERT_TRUE(fast.has_value() && reference.has_value()) << letters;
    EXPECT_TRUE(fast->transform().matrix() == reference->transform().matrix())
        << letters;
  }
}

}  // namespace
}  // namespace tensorlib::stt
