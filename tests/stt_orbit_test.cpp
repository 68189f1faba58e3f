// Orbit-quotient soundness of the direct canonical enumeration engine: the
// candidate list must contain EXACTLY one representative per orbit of the
// 16-element STT symmetry group (row sign flips x space-row swap), no more
// (fixed-point + closure) and no fewer (orbit-count accounting against the
// brute-force full-cube count). Together with the legacy-engine list
// equality at maxEntry <= 2, the accounting at maxEntry = 3 proves the
// direct engine covers the whole cube without ever decoding it: the legacy
// engine is, by construction, "canonicalize + dedupe the full cube", and a
// closed fixed-point set whose orbit sizes sum to the cube count is that
// quotient.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "legacy_enumeration.hpp"
#include "linalg/solve.hpp"
#include "stt/enumerate.hpp"

namespace tensorlib::stt {
namespace {

EnumerationOptions canonicalOptions(int maxEntry) {
  EnumerationOptions o;
  o.maxEntry = maxEntry;
  return o;
}

/// Brute-force count of 3x3 matrices with entries in [-e, e] and |det| == 1
/// — the unimodular full cube the quotient must account for exactly.
std::uint64_t bruteForceUnimodularCount(int e) {
  std::uint64_t count = 0;
  const std::int64_t lo = -e, hi = e;
  std::int64_t m[9];
  for (m[0] = lo; m[0] <= hi; ++m[0])
    for (m[1] = lo; m[1] <= hi; ++m[1])
      for (m[2] = lo; m[2] <= hi; ++m[2])
        for (m[3] = lo; m[3] <= hi; ++m[3])
          for (m[4] = lo; m[4] <= hi; ++m[4])
            for (m[5] = lo; m[5] <= hi; ++m[5]) {
              // Cofactors of the third row are fixed here; hoist them.
              const std::int64_t c0 = m[1] * m[5] - m[2] * m[4];
              const std::int64_t c1 = m[0] * m[5] - m[2] * m[3];
              const std::int64_t c2 = m[0] * m[4] - m[1] * m[3];
              for (m[6] = lo; m[6] <= hi; ++m[6])
                for (m[7] = lo; m[7] <= hi; ++m[7])
                  for (m[8] = lo; m[8] <= hi; ++m[8]) {
                    const std::int64_t det =
                        m[6] * c0 - m[7] * c1 + m[8] * c2;
                    if (det == 1 || det == -1) ++count;
                  }
            }
  return count;
}

TEST(OrbitQuotient, CanonicalRepresentativesAreFixedPoints) {
  for (int e = 1; e <= 3; ++e) {
    const auto mats = candidateTransformMatrices(canonicalOptions(e));
    ASSERT_FALSE(mats->empty());
    for (const linalg::IntMatrix& m : *mats)
      EXPECT_EQ(canonicalTransform(m).str(), m.str())
          << "non-canonical representative at maxEntry=" << e;
  }
}

TEST(OrbitQuotient, GroupClosure) {
  // Every symmetry applied to every representative lands back on a matrix
  // whose canonical form is an enumerated representative — in fact the
  // same one (orbits are equivalence classes).
  for (int e = 1; e <= 2; ++e) {
    const auto mats = candidateTransformMatrices(canonicalOptions(e));
    std::set<std::string> enumerated;
    for (const linalg::IntMatrix& m : *mats) enumerated.insert(m.str());
    EXPECT_EQ(enumerated.size(), mats->size()) << "duplicate representative";
    for (const linalg::IntMatrix& m : *mats) {
      for (const linalg::IntMatrix& g : symmetryOrbit(m)) {
        const std::int64_t det = linalg::determinant(g);
        EXPECT_TRUE(det == 1 || det == -1) << "symmetry broke unimodularity";
        const linalg::IntMatrix canon = canonicalTransform(g);
        EXPECT_EQ(canon.str(), m.str()) << "orbit element of " << m.str()
                                        << " canonicalized elsewhere";
        EXPECT_EQ(enumerated.count(canon.str()), 1u);
      }
    }
  }
}

TEST(OrbitQuotient, OrbitCountAccountingMaxEntry2) {
  const auto mats = candidateTransformMatrices(canonicalOptions(2));
  std::uint64_t orbitSum = 0;
  for (const linalg::IntMatrix& m : *mats) orbitSum += symmetryOrbit(m).size();
  EXPECT_EQ(orbitSum, bruteForceUnimodularCount(2));
}

TEST(OrbitQuotient, OrbitCountAccountingMaxEntry3) {
  // The maxEntry=3 exhaustiveness proof: summed orbit sizes over the
  // representatives recover the full 7^9-cube unimodular count, so the
  // quotient is neither over- nor under-counting (see file comment).
  const auto mats = candidateTransformMatrices(canonicalOptions(3));
  std::uint64_t orbitSum = 0;
  std::set<std::string> seen;  // reps must be pairwise distinct too
  for (const linalg::IntMatrix& m : *mats) {
    orbitSum += symmetryOrbit(m).size();
    seen.insert(m.str());
  }
  EXPECT_EQ(seen.size(), mats->size());
  EXPECT_EQ(orbitSum, bruteForceUnimodularCount(3));
}

TEST(OrbitQuotient, DirectEngineMatchesLegacyExhaustive) {
  // Exhaustive differential at maxEntry <= 2: the direct engine's list is
  // element-for-element identical (same order) to the legacy
  // decode-everything oracle's (tests/legacy_enumeration.hpp).
  for (int e = 1; e <= 2; ++e) {
    const auto a = candidateTransformMatrices(canonicalOptions(e));
    const auto& b = oracle::legacyCandidateMatrices(canonicalOptions(e));
    ASSERT_EQ(a->size(), b.size()) << "maxEntry=" << e;
    for (std::size_t i = 0; i < a->size(); ++i)
      ASSERT_EQ((*a)[i].str(), b[i].str()) << "maxEntry=" << e << " i=" << i;
  }
}

TEST(OrbitQuotient, OrbitSizesDivideGroupOrder) {
  // Orbit-stabilizer sanity: every orbit size divides 16; unimodular
  // matrices have trivial stabilizers under this group (no zero rows, no
  // +/- equal space rows), so orbits are in fact full size.
  const auto mats = candidateTransformMatrices(canonicalOptions(2));
  for (const linalg::IntMatrix& m : *mats) {
    const std::size_t size = symmetryOrbit(m).size();
    EXPECT_EQ(16u % size, 0u);
    EXPECT_EQ(size, 16u) << m.str();
  }
}

}  // namespace
}  // namespace tensorlib::stt
