// Snapshot crash-safety tests: roundtrip warmth, every corruption mode
// degrading to a clean cold start, fingerprint/version gating, injected
// write faults, and the differential guarantee — a service restored from a
// snapshot answers bit-identically to one that never snapshotted.
#include "driver/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "driver/explore_service.hpp"
#include "stt/enumerate.hpp"
#include "support/fault.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;
namespace snap = snapshot;

std::vector<ExploreQuery> smallBatch() {
  std::vector<ExploreQuery> batch;
  for (const auto objective :
       {Objective::Performance, Objective::Power, Objective::EnergyDelay}) {
    ExploreQuery q(wl::gemm(5, 5, 5));
    q.array.rows = q.array.cols = 4;
    q.objective = objective;
    batch.push_back(q);
  }
  {
    ExploreQuery q(wl::gemm(5, 5, 5));
    q.array.rows = q.array.cols = 4;
    q.backend = cost::BackendKind::Fpga;
    batch.push_back(q);
  }
  return batch;
}

void expectSameResults(const std::vector<QueryResult>& a,
                       const std::vector<QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].designs, b[i].designs);
    ASSERT_EQ(a[i].frontier.size(), b[i].frontier.size());
    for (std::size_t j = 0; j < a[i].frontier.size(); ++j) {
      const auto& ra = a[i].frontier[j];
      const auto& rb = b[i].frontier[j];
      EXPECT_EQ(ra.spec.label(), rb.spec.label());
      EXPECT_EQ(ra.perf.totalCycles, rb.perf.totalCycles);
      EXPECT_EQ(ra.figures().powerMw, rb.figures().powerMw);
      EXPECT_EQ(ra.figures().area, rb.figures().area);
    }
    ASSERT_EQ(a[i].best.has_value(), b[i].best.has_value());
    if (a[i].best) EXPECT_EQ(a[i].best->spec.label(), b[i].best->spec.label());
  }
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    support::FaultInjector::instance().disarm();
    stt::clearCandidateCache();
    path_ = "snapshot_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".snap";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    support::FaultInjector::instance().disarm();
    std::remove(path_.c_str());
  }

  /// Runs the batch on a fresh single-threaded service (deterministic
  /// pruned-vs-evaluated split, so the snapshot's contents are exact) and
  /// writes a snapshot of it.
  std::vector<QueryResult> writeWarmSnapshot(const std::string& fingerprint) {
    ServiceOptions options;
    options.threads = 1;
    ExplorationService service(options);
    auto results = service.runBatch(smallBatch());
    EXPECT_TRUE(service.saveSnapshot(path_, fingerprint));
    return results;
  }

  std::string readFile() {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void writeFile(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::string fingerprint_ = snap::cacheSchemaFingerprint();
};

TEST_F(SnapshotTest, RoundtripServesEveryQueryFromCache) {
  const auto cold = writeWarmSnapshot(fingerprint_);
  stt::clearCandidateCache();

  ServiceOptions options;
  options.threads = 1;  // deterministic pruning => exact hit accounting
  ExplorationService restored(options);
  const auto result = restored.restoreSnapshot(path_, fingerprint_);
  EXPECT_TRUE(result.restored());
  EXPECT_GT(result.evalEntries, 0u);
  EXPECT_GT(result.candidateLists, 0u);

  const auto warm = restored.runBatch(smallBatch());
  expectSameResults(cold, warm);
  // Every design point the queries touch must come from the restored cache
  // (pruning may cut some before they reach it; none may miss).
  for (const auto& r : warm) EXPECT_EQ(r.cache.misses, 0u) << "cold misses";
}

TEST_F(SnapshotTest, EvaluationKeysKeepTheKeysV2Rendering) {
  // "keys-v2" names this rendering: algebra|array|backend| then the
  // selection's loop indices, the letters and Matrix::str() of the signed
  // transform. Pin two slots of an unpruned gemm run, one with a negative
  // entry.
  const tensor::TensorAlgebra g = wl::gemm(5, 5, 5);
  const stt::LoopSelection mnk(g, {0, 1, 2});
  ServiceOptions options;
  options.threads = 1;
  options.enablePruning = false;
  ExplorationService service(options);
  ExploreQuery q(g);
  q.array.rows = q.array.cols = 4;
  q.enumeration.dedupeBySignature = false;
  service.run(q);
  ASSERT_TRUE(service.saveSnapshot(path_, fingerprint_));
  const std::string bytes = readFile();
  for (const linalg::IntMatrix& m :
       {linalg::IntMatrix{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}},
        linalg::IntMatrix{{0, 1, 0}, {1, 0, 0}, {1, -1, 1}}}) {
    const stt::DataflowSpec spec =
        stt::analyzeDataflow(g, mnk, stt::SpaceTimeTransform(m));
    const std::string key = "0.1.2.|" + spec.letters() + "|" + m.str();
    EXPECT_NE(bytes.find(key), std::string::npos) << key;
  }
}

TEST_F(SnapshotTest, RestoredKeysSaveBackByteIdentically) {
  // Every slot of an unpruned, unquotiented maxEntry-2 mttkrp space (four
  // tensors, entries reaching -2 and 2) lands in the table. A restore parses
  // each key back into its cache form; saving that again must reproduce the
  // evaluation section, and with the same candidate memo the whole file.
  ServiceOptions options;
  options.threads = 1;
  options.enablePruning = false;
  ExploreQuery q(wl::mttkrp(4, 4, 4, 4));
  q.array.rows = q.array.cols = 4;
  q.enumeration.maxEntry = 2;
  q.enumeration.dedupeBySignature = false;
  std::size_t designs = 0;
  {
    ExplorationService service(options);
    designs = service.run(q).designs;
    ASSERT_EQ(service.cacheStats().entries, designs);
    ASSERT_TRUE(service.saveSnapshot(path_, fingerprint_));
  }
  const std::string first = readFile();
  ASSERT_NE(first.find("-2"), std::string::npos);

  stt::clearCandidateCache();
  ExplorationService restored(options);
  const auto result = restored.restoreSnapshot(path_, fingerprint_);
  ASSERT_TRUE(result.restored()) << result.message;
  EXPECT_EQ(result.evalEntries, designs);
  ASSERT_TRUE(restored.saveSnapshot(path_, fingerprint_));
  EXPECT_TRUE(readFile() == first) << "re-saved snapshot differs";
}

TEST_F(SnapshotTest, MalformedEvaluationKeyIsCorrupt) {
  // A checksummed payload carrying one evaluation under `key`.
  const auto writeWithKey = [&](const std::string& key) {
    snap::Writer w;
    w.str(fingerprint_);
    w.u64(0);  // no candidate lists
    w.u64(1);
    w.str(key);
    snap::writePerf(w, sim::PerfResult{});
    snap::writeCost(w, cost::CostReport{});
    ASSERT_TRUE(snap::writeSnapshotFile(path_, w.takeBuffer()));
  };
  writeWithKey("p|0.1.2.|SST|[1 0 0; 0 1 0; 0 0 -1]");
  {
    ExplorationService service;
    const auto result = service.restoreSnapshot(path_, fingerprint_);
    ASSERT_TRUE(result.restored()) << result.message;
    EXPECT_EQ(result.evalEntries, 1u);
  }
  for (const std::string key : {
           "p|0.1.2.|SST[1 0 0; 0 1 0; 0 0 -1]",      // a missing '|'
           "p|0.1.2.|SST|[1 0 x; 0 1 0; 0 0 -1]",     // a non-numeric entry
           "p|0.1.2.|SST|[1 0 0; 0 1 0; 0 0 -1 0]",   // ten matrix entries
           "p|0.1.2.|SST|[1 0 0; 0 1 0; 0 0 -1]x",    // trailing bytes
           "0.1.2.|SST|[1 0 0; 0 1 0; 0 0 -1]",       // no prefix
           "p|0.1.02.|SST|[1 0 0; 0 1 0; 0 0 -1]",    // a leading zero
       }) {
    writeWithKey(key);
    ExplorationService service;
    const auto result = service.restoreSnapshot(path_, fingerprint_);
    EXPECT_EQ(result.status, snap::RestoreStatus::Corrupt) << key;
    EXPECT_EQ(result.evalEntries, 0u) << key;
    EXPECT_EQ(service.cacheStats().entries, 0u) << key;
  }
}

TEST_F(SnapshotTest, MissingFileIsCleanColdStart) {
  ExplorationService service;
  const auto result = service.restoreSnapshot(path_, fingerprint_);
  EXPECT_EQ(result.status, snap::RestoreStatus::Missing);
  EXPECT_EQ(result.evalEntries, 0u);
}

TEST_F(SnapshotTest, TruncatedSnapshotDegradesToColdStart) {
  const auto cold = writeWarmSnapshot(fingerprint_);
  const std::string bytes = readFile();
  ASSERT_FALSE(bytes.empty());
  writeFile(bytes.substr(0, bytes.size() / 2));

  stt::clearCandidateCache();
  ExplorationService service;
  const auto result = service.restoreSnapshot(path_, fingerprint_);
  EXPECT_EQ(result.status, snap::RestoreStatus::Corrupt);
  EXPECT_EQ(result.evalEntries, 0u);  // never half-populated
  expectSameResults(cold, service.runBatch(smallBatch()));
}

TEST_F(SnapshotTest, FlippedPayloadByteFailsChecksum) {
  const auto cold = writeWarmSnapshot(fingerprint_);
  std::string bytes = readFile();
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() / 2] ^= 0x01;  // deep inside the payload
  writeFile(bytes);

  stt::clearCandidateCache();
  ExplorationService service;
  const auto result = service.restoreSnapshot(path_, fingerprint_);
  EXPECT_EQ(result.status, snap::RestoreStatus::Corrupt);
  EXPECT_NE(result.message.find("checksum"), std::string::npos);
  expectSameResults(cold, service.runBatch(smallBatch()));
}

TEST_F(SnapshotTest, FlippedChecksumByteIsDetected) {
  writeWarmSnapshot(fingerprint_);
  std::string bytes = readFile();
  // Header layout: magic(8) + version(4) + size(8) + checksum(8).
  ASSERT_GT(bytes.size(), 28u);
  bytes[20] ^= 0x01;  // first checksum byte
  writeFile(bytes);

  ExplorationService service;
  EXPECT_EQ(service.restoreSnapshot(path_, fingerprint_).status,
            snap::RestoreStatus::Corrupt);
}

TEST_F(SnapshotTest, VersionBumpColdStarts) {
  writeWarmSnapshot(fingerprint_);
  std::string bytes = readFile();
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] = static_cast<char>(snap::kSnapshotVersion + 1);  // version field
  writeFile(bytes);

  ExplorationService service;
  const auto result = service.restoreSnapshot(path_, fingerprint_);
  EXPECT_EQ(result.status, snap::RestoreStatus::VersionMismatch);
  EXPECT_EQ(result.evalEntries, 0u);
}

TEST_F(SnapshotTest, BadMagicIsCorrupt) {
  writeWarmSnapshot(fingerprint_);
  std::string bytes = readFile();
  bytes[0] = 'X';
  writeFile(bytes);

  ExplorationService service;
  EXPECT_EQ(service.restoreSnapshot(path_, fingerprint_).status,
            snap::RestoreStatus::Corrupt);
}

TEST_F(SnapshotTest, DifferentEnumerationOptionsColdStartIdentically) {
  const auto cold = writeWarmSnapshot(fingerprint_);

  // A restore that presents a different fingerprint (another key schema)
  // must refuse the snapshot...
  const std::string otherPrint = fingerprint_ + "-other";

  stt::clearCandidateCache();
  ExplorationService service;
  const auto result = service.restoreSnapshot(path_, otherPrint);
  EXPECT_EQ(result.status, snap::RestoreStatus::ConfigMismatch);
  EXPECT_EQ(result.evalEntries, 0u);
  // ...and the cold service still answers bit-identically.
  expectSameResults(cold, service.runBatch(smallBatch()));
}

TEST_F(SnapshotTest, RestoredServiceMatchesNeverSnapshottedService) {
  writeWarmSnapshot(fingerprint_);

  stt::clearCandidateCache();
  ExplorationService restored;
  ASSERT_TRUE(restored.restoreSnapshot(path_, fingerprint_).restored());
  const auto warm = restored.runBatch(smallBatch());

  stt::clearCandidateCache();
  ExplorationService pristine;  // differential reference: never snapshotted
  expectSameResults(pristine.runBatch(smallBatch()), warm);
}

TEST_F(SnapshotTest, InjectedWriteFailureLeavesNoFile) {
  support::FaultInjector::instance().arm("snapshot_write=fail");
  ExplorationService service;
  service.runBatch(smallBatch());
  EXPECT_FALSE(service.saveSnapshot(path_, fingerprint_));
  EXPECT_TRUE(readFile().empty());  // nothing written, nothing clobbered
}

TEST_F(SnapshotTest, InjectedCorruptionIsCaughtOnRestore) {
  support::FaultInjector::instance().arm("snapshot_write=corrupt");
  {
    ExplorationService service;
    service.runBatch(smallBatch());
    EXPECT_TRUE(service.saveSnapshot(path_, fingerprint_));
  }
  support::FaultInjector::instance().disarm();
  ExplorationService service;
  EXPECT_EQ(service.restoreSnapshot(path_, fingerprint_).status,
            snap::RestoreStatus::Corrupt);
}

TEST_F(SnapshotTest, InjectedTruncationIsCaughtOnRestore) {
  support::FaultInjector::instance().arm("snapshot_write=truncate");
  {
    ExplorationService service;
    service.runBatch(smallBatch());
    EXPECT_TRUE(service.saveSnapshot(path_, fingerprint_));
  }
  support::FaultInjector::instance().disarm();
  ExplorationService service;
  EXPECT_EQ(service.restoreSnapshot(path_, fingerprint_).status,
            snap::RestoreStatus::Corrupt);
}

TEST_F(SnapshotTest, CodecRoundtripsScalars) {
  snap::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  const std::string nul("a\0b", 3);  // embedded NUL must survive
  w.str(nul);

  snap::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.14159);
  r.str();
  EXPECT_EQ(r.str(), nul);
  EXPECT_TRUE(r.done());
}

TEST_F(SnapshotTest, ReaderOverrunThrowsInsteadOfReadingGarbage) {
  snap::Writer w;
  w.u32(7);
  snap::Reader r(w.buffer());
  EXPECT_THROW(r.u64(), Error);
  snap::Reader r2(w.buffer());
  r2.u32();
  EXPECT_THROW(r2.u8(), Error);
}

}  // namespace
}  // namespace tensorlib::driver
