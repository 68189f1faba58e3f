// Design-space enumeration tests: coverage of the paper's named dataflows,
// canonicalization, deduplication and structural invariants of the space.
#include "stt/enumerate.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::stt {
namespace {

namespace wl = tensor::workloads;

TEST(Enumerate, AllLoopSelectionsCount) {
  EXPECT_EQ(allLoopSelections(wl::gemm(4, 4, 4)).size(), 1u);     // C(3,3)
  EXPECT_EQ(allLoopSelections(wl::mttkrp(4, 4, 4, 4)).size(), 4u);  // C(4,3)
  EXPECT_EQ(allLoopSelections(wl::conv2d(4, 4, 4, 4, 3, 3)).size(), 20u);
}

TEST(Enumerate, GemmSpaceIsSubstantialAndDeduplicated) {
  const auto g = wl::gemm(16, 16, 16);
  const auto specs = enumerateTransforms(g, LoopSelection(g, {0, 1, 2}));
  // The paper reports 148 distinct GEMM design points in Fig. 6(a); our
  // canonicalized unimodular {-1,0,1} family lands in the same regime.
  EXPECT_GT(specs.size(), 50u);
  EXPECT_LT(specs.size(), 400u);
  std::set<std::string> sigs;
  for (const auto& s : specs)
    EXPECT_TRUE(sigs.insert(s.signature()).second) << s.describe();
}

TEST(Enumerate, GemmLettersObeyStructuralConstraints) {
  const auto g = wl::gemm(16, 16, 16);
  const auto specs = enumerateTransforms(g, LoopSelection(g, {0, 1, 2}));
  for (const auto& s : specs) {
    const std::string letters = s.letters();
    // Every GEMM tensor has reuse nullity exactly 1 under the MNK selection:
    // letters are drawn from {S,T,M}, never U or B.
    for (char c : letters) EXPECT_TRUE(c == 'S' || c == 'T' || c == 'M') << letters;
    // Two stationary tensors would force two parallel (0,0,*) columns in T,
    // which is singular.
    EXPECT_LT(std::count(letters.begin(), letters.end(), 'T'), 2) << letters;
  }
}

TEST(Enumerate, CoversAllPaperGemmDataflows) {
  // Fig. 5(a) names seven GEMM dataflows; all must be realizable.
  const auto g = wl::gemm(16, 16, 16);
  for (const std::string label :
       {"MNK-MTM", "MNK-MSM", "MNK-STM", "MNK-MMT", "MNK-MST", "MNK-SST",
        "MNK-TSS"}) {
    const auto spec = findDataflowByLabel(g, label);
    ASSERT_TRUE(spec.has_value()) << label;
    EXPECT_EQ(spec->label(), label);
  }
}

TEST(Enumerate, CoversAllPaperBatchedGemvDataflows) {
  // Fig. 5(b): Batched-GEMV dataflows all carry a unicast A.
  const auto bg = wl::batchedGemv(16, 16, 16);
  for (const std::string label :
       {"MNK-USS", "MNK-UST", "MNK-UTS", "MNK-UMM", "MNK-UMT", "MNK-UMS"}) {
    const auto spec = findDataflowByLabel(bg, label);
    ASSERT_TRUE(spec.has_value()) << label;
    EXPECT_EQ(spec->label(), label);
  }
}

TEST(Enumerate, CoversPaperConvDataflows) {
  // KCX-SST / KCX-STS are the paper's "well-known output-stationary and
  // weight-stationary" conv dataflows. XPQ/KXY selections force rank-2 /
  // rank-0 letters under our (strict Table-I) labeling: the paper's figure
  // writes the dominant component instead (e.g. its XPQ-MMT is our XPQ-MMB).
  const auto conv = wl::conv2d(16, 16, 14, 14, 3, 3);
  for (const std::string label : {"KCX-SST", "KCX-STS", "KCX-STM", "XPQ-MMB",
                                  "KXY-SBU"}) {
    const auto spec = findDataflowByLabel(conv, label);
    ASSERT_TRUE(spec.has_value()) << label;
    EXPECT_EQ(spec->label(), label);
  }
}

TEST(Enumerate, CoversPaperMttkrpAndTtmcDataflows) {
  const auto mt = wl::mttkrp(16, 16, 16, 16);
  for (const std::string label : {"IKL-UBBB", "IJK-SSBT", "JKL-SSTB"}) {
    const auto spec = findDataflowByLabel(mt, label);
    ASSERT_TRUE(spec.has_value()) << label;
  }
  const auto tt = wl::ttmc(16, 16, 16, 16, 16);
  for (const std::string label :
       {"IJK-BBBU", "ILM-UBBB", "IKL-SBBS", "JKL-BSBS"}) {
    const auto spec = findDataflowByLabel(tt, label);
    ASSERT_TRUE(spec.has_value()) << label;
  }
}

TEST(Enumerate, FindDataflowRejectsWrongLetterCount) {
  const auto g = wl::gemm(4, 4, 4);
  EXPECT_THROW(findDataflow(g, LoopSelection(g, {0, 1, 2}), "SS"), Error);
}

TEST(Enumerate, FindDataflowByLabelRejectsMalformed) {
  const auto g = wl::gemm(4, 4, 4);
  EXPECT_THROW(findDataflowByLabel(g, "MNKSST"), Error);
  EXPECT_THROW(findDataflowByLabel(g, "MNZ-SST"), Error);
}

TEST(Enumerate, ImpossibleLettersReturnNullopt) {
  // GEMM under MNK cannot make any tensor unicast (every access has
  // nullity 1).
  const auto g = wl::gemm(4, 4, 4);
  EXPECT_FALSE(
      findDataflow(g, LoopSelection(g, {0, 1, 2}), "USS").has_value());
}

TEST(Enumerate, UnimodularityHolds) {
  const auto g = wl::gemm(8, 8, 8);
  for (const auto& s : enumerateTransforms(g, LoopSelection(g, {0, 1, 2})))
    EXPECT_TRUE(s.transform().isUnimodular());
}

TEST(Enumerate, DepthwiseSpaceSmallerThanGemm) {
  // Fig. 6 shows far fewer distinct depthwise-conv designs (33) than GEMM
  // designs (148): the small kernel loops and the depthwise structure
  // collapse many transforms into the same dataflow signature. We compare
  // like-for-like on a single representative selection.
  const auto g = wl::gemm(16, 16, 16);
  const auto dw = wl::depthwiseConv(16, 8, 8, 3, 3);
  const auto gemmCount =
      enumerateTransforms(g, LoopSelection(g, {0, 1, 2})).size();
  const auto dwSel = LoopSelection::byNames(dw, {"k", "y", "x"});
  const auto dwCount = enumerateTransforms(dw, dwSel).size();
  EXPECT_LT(dwCount, gemmCount);
}

TEST(Enumerate, FullReuseFilterHonored) {
  // TTMc over (i,j,l) leaves C[m,k] untouched by any selected loop:
  // rank-3 FullReuse. The default filter drops such specs; disabling it
  // keeps them.
  const auto tt = wl::ttmc(8, 8, 8, 8, 8);
  const auto sel = LoopSelection::byNames(tt, {"i", "j", "l"});

  const auto filtered = enumerateTransforms(tt, sel);
  for (const auto& s : filtered)
    for (const auto& t : s.tensors())
      EXPECT_NE(t.dataflow.dataflowClass, DataflowClass::FullReuse);
  EXPECT_TRUE(filtered.empty());  // every (i,j,l) design has FullReuse C

  EnumerationOptions keep;
  keep.dropFullReuse = false;
  const auto unfiltered = enumerateTransforms(tt, sel, keep);
  EXPECT_GT(unfiltered.size(), 0u);
  bool sawFullReuse = false;
  for (const auto& s : unfiltered)
    for (const auto& t : s.tensors())
      if (t.dataflow.dataflowClass == DataflowClass::FullReuse)
        sawFullReuse = true;
  EXPECT_TRUE(sawFullReuse);
}

TEST(Enumerate, SharedContextAliasesOneAlgebra) {
  // Zero-copy enumeration: every spec of one sweep shares the identical
  // (algebra, selection) context instead of owning deep copies.
  const auto g = wl::gemm(8, 8, 8);
  const auto specs = enumerateTransforms(g, LoopSelection(g, {0, 1, 2}));
  ASSERT_GT(specs.size(), 1u);
  for (const auto& s : specs) {
    EXPECT_EQ(s.context().get(), specs.front().context().get());
    EXPECT_EQ(&s.algebra(), &specs.front().algebra());
  }
  // Copying a spec shares the context rather than cloning the algebra.
  const DataflowSpec copy = specs.front();
  EXPECT_EQ(&copy.algebra(), &specs.front().algebra());
}

TEST(Enumerate, CandidateCacheIsBoundedWithStats) {
  const std::size_t previousCapacity = setCandidateCacheCapacity(2);
  clearCandidateCache();
  const auto before = candidateCacheStats();

  const auto enumerateWith = [](int maxEntry, bool unimodular) {
    EnumerationOptions o;
    o.maxEntry = maxEntry;
    o.requireUnimodular = unimodular;
    const auto g = wl::gemm(4, 4, 4);
    return enumerateTransforms(g, LoopSelection(g, {0, 1, 2}), o).size();
  };

  // Three distinct option keys through a capacity-2 memo: the first key is
  // evicted, re-requesting it misses again but stays correct.
  const std::size_t a = enumerateWith(1, true);
  enumerateWith(1, false);
  enumerateWith(2, true);
  const auto evicted = candidateCacheStats();
  EXPECT_EQ(evicted.entries, 2u);
  EXPECT_GE(evicted.evictions, before.evictions + 1);
  EXPECT_EQ(enumerateWith(1, true), a);
  const auto after = candidateCacheStats();
  EXPECT_GE(after.misses, before.misses + 4);  // 3 distinct + 1 re-miss

  // Warm repetition is a pure hit.
  enumerateWith(1, true);
  EXPECT_GE(candidateCacheStats().hits, after.hits + 1);

  setCandidateCacheCapacity(previousCapacity);
}

}  // namespace
}  // namespace tensorlib::stt
