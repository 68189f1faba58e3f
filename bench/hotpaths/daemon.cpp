// Section "daemon": snapshot restore vs cold start on the shared 10-query
// scenario (service_scenario.hpp):
//
//   cold      fresh service, empty candidate memo — every design point
//             enumerated, mapped and evaluated from scratch.
//   restored  fresh service + empty candidate memo that first restores a
//             snapshot written by the first cold run, then serves the same
//             traffic (timed INCLUDING the restore — the daemon's real
//             restart-to-answer latency).
//
// Then the restored run goes again at 1 and 8 worker threads. All frontiers
// and winners must be bit-identical to the cold run — a snapshot may only
// change how fast answers arrive, never what they are. Gate (full mode
// only): restored >= kGateMinSpeedup x cold.
#include <cstdio>
#include <sstream>

#include "driver/explore_service.hpp"
#include "sections.hpp"
#include "service_scenario.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"

namespace tensorlib::bench::hotpaths {
namespace {

// Was 2.0 when the cold start ran the scalar per-candidate pipeline. The
// block pipeline made the cold start itself ~3x faster, and snapshots carry
// no tile mappings (a restored evaluation never searches), so the restore's
// remaining win is the eval cache + candidate lists. Single-shot timings
// on a 4-vCPU host read 1.19–1.88x (one run in eight under the gate).
constexpr double kGateMinSpeedup = 1.3;

/// Removes the snapshot however the section ends, a failed check included.
struct RemoveOnExit {
  const std::string& path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

}  // namespace

Section runDaemon(const RunConfig& run) {
  const RemoveOnExit cleanup{run.snapshotPath};
  const auto batch = serviceScenarioBatch(run.smoke ? 1 : 2);
  const std::string fingerprint = driver::snapshot::cacheSchemaFingerprint();

  std::vector<driver::QueryResult> cold;
  std::vector<double> coldMs, restoredMs;
  std::size_t evalEntries = 0, candidateLists = 0;
  for (int rep = 0; rep < run.reps; ++rep) {
    // --- cold: empty process-wide candidate memo, fresh service. The
    // first repetition writes the snapshot every restore reads.
    {
      stt::clearCandidateCache();
      driver::ExplorationService service;
      const auto t = Clock::now();
      auto results = service.runBatch(batch);
      coldMs.push_back(msSince(t));
      if (rep == 0) {
        cold = std::move(results);
        TL_CHECK(service.saveSnapshot(run.snapshotPath, fingerprint),
                 "snapshot write failed");
      } else {
        checkSameResults(cold, results);
      }
    }

    // --- restored: restart-to-answer latency = restore + serve.
    stt::clearCandidateCache();
    driver::ExplorationService service;
    const auto t = Clock::now();
    const auto restore = service.restoreSnapshot(run.snapshotPath, fingerprint);
    const auto warm = service.runBatch(batch);
    restoredMs.push_back(msSince(t));
    TL_CHECK(restore.restored(),
             "restore failed: " +
                 driver::snapshot::restoreStatusName(restore.status) + " " +
                 restore.message);
    evalEntries = restore.evalEntries;
    candidateLists = restore.candidateLists;
    checkSameResults(cold, warm);
  }

  // --- bit-identity of the restored service across thread counts.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    stt::clearCandidateCache();
    driver::ServiceOptions options;
    options.threads = threads;
    driver::ExplorationService service(options);
    TL_CHECK(service.restoreSnapshot(run.snapshotPath, fingerprint).restored(),
             "restore failed at " + std::to_string(threads) + " threads");
    checkSameResults(cold, service.runBatch(batch));
  }

  std::size_t designs = 0;  // design points across the batch
  for (const auto& res : cold) designs += res.designs;
  const double coldTime = median(coldMs), restoredTime = median(restoredMs);
  const double speedup = coldTime / restoredTime;
  std::printf(
      "  daemon      cold %.1f ms | restored %.1f ms (%.2fx)  [%zu design "
      "evals; snapshot: %zu evals, %zu candidate lists; frontiers "
      "bit-identical at 1 and 8 threads]\n",
      coldTime, restoredTime, speedup, designs, evalEntries, candidateLists);

  const bool pass = run.smoke || speedup >= kGateMinSpeedup;
  std::ostringstream line;
  line << "\"daemon\": {\"workloads\": \"gemm256+attention64\", "
       << "\"batch_design_evals\": " << designs
       << ", \"cold_ms\": " << coldTime << ", \"restored_ms\": " << restoredTime
       << ", \"restored_speedup\": " << speedup << ", \"reps\": " << run.reps
       << ", \"snapshot_evals\": " << evalEntries
       << ", \"snapshot_candidate_lists\": " << candidateLists
       << ", \"threads_checked\": \"1,8\""
       << ", \"gate_min_restored_speedup\": " << kGateMinSpeedup
       << ", \"pass\": " << (pass ? "true" : "false") << "}";
  return {line.str(), pass};
}

}  // namespace tensorlib::bench::hotpaths
