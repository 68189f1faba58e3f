// Resident exploration daemon: the robustness layer that turns the batched
// ExplorationService into something that can sit in front of real traffic.
//
//   * Admission control: a bounded queue with per-client fairness
//     (round-robin across clients, so one flooding client cannot starve
//     the rest) and an explicit Overloaded rejection — the daemon sheds
//     load instead of queueing unboundedly until it OOMs.
//   * Deadlines: requests without their own deadline get the configured
//     default; expired queries return partial frontiers marked timed-out
//     (see ExploreQuery::deadlineMs).
//   * Crash safety: the service's warm caches are snapshotted to disk on a
//     timer and on graceful shutdown, and restored on start — a restarted
//     daemon answers the workload table warm. Every snapshot failure mode
//     (missing/corrupt/truncated/mismatched) degrades to a clean cold
//     start; see driver/snapshot.*.
//
// tools/explore_server --serve wraps this class in a JSONL loop;
// tools/chaos_runner drives that loop through kill/restart/corrupt cycles.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "driver/explore_service.hpp"

namespace tensorlib::driver {

/// Daemon configuration. docs/TUNING.md documents each knob with defaults
/// and flip-guidance; none of them changes completed-query results.
struct DaemonOptions {
  ServiceOptions service;
  /// On-disk snapshot location; empty disables persistence entirely.
  std::string snapshotPath;
  /// Periodic snapshot interval; 0 = snapshot only on graceful shutdown.
  std::int64_t snapshotIntervalMs = 0;
  /// Admission queue bounds: total queued requests, and queued requests
  /// per client. Exceeding either rejects with Admission::Overloaded.
  std::size_t queueBound = 64;
  std::size_t perClientQueueBound = 16;
  /// Deadline stamped onto requests that carry none; 0 = unbounded.
  std::int64_t defaultDeadlineMs = 0;
  /// Worker threads draining the queue; each runs one query at a time
  /// through the shared service (which fans evaluation over its own pool).
  std::size_t workers = 1;
};

/// Synchronous admission verdict for one submitted request.
enum class Admission {
  Accepted,      ///< queued; the completion callback will run exactly once
  Overloaded,    ///< queue (or the client's share of it) is full — shed
  ShuttingDown,  ///< daemon is draining; no new work is admitted
};

/// "accepted" / "overloaded" / "shutting-down".
std::string admissionName(Admission admission);

struct DaemonStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejectedOverloaded = 0;
  std::uint64_t completed = 0;  ///< includes timed-out completions
  std::uint64_t failed = 0;     ///< queries that threw (callback got error)
  std::uint64_t timedOut = 0;
  /// Queued requests removed by cancelClient() before a worker picked them
  /// up (their callbacks got the "cancelled" error outcome).
  std::uint64_t cancelled = 0;
  std::uint64_t snapshotsSaved = 0;
  std::uint64_t snapshotFailures = 0;
  std::size_t queued = 0;  ///< requests currently admitted but unfinished
};

class ExplorationDaemon {
 public:
  /// Constructs the service and, when a snapshot path is configured,
  /// restores warm state from it (any failure degrades to cold start —
  /// inspect restore() for what happened). Workers start immediately.
  explicit ExplorationDaemon(DaemonOptions options = {});
  /// Graceful shutdown: drains admitted work, then snapshots.
  ~ExplorationDaemon();
  ExplorationDaemon(const ExplorationDaemon&) = delete;
  ExplorationDaemon& operator=(const ExplorationDaemon&) = delete;

  /// One finished request: exactly one of `result` / `error` is set.
  struct Outcome {
    std::optional<QueryResult> result;
    std::string error;
    bool failed() const { return !result.has_value(); }
  };

  /// Admits one query on behalf of `client`. Overloaded/ShuttingDown are
  /// returned synchronously and `done` never runs; on Accepted, `done`
  /// runs exactly once on a worker thread (callbacks must be quick and
  /// must not re-enter submit() synchronously with heavy work).
  Admission submit(const std::string& client, ExploreQuery query,
                   std::function<void(Outcome)> done);

  /// Synchronous convenience: submit + wait. nullopt when not admitted.
  std::optional<Outcome> runOne(const std::string& client, ExploreQuery query);

  /// Removes every still-queued request of `client` — the disconnect path
  /// of the socket front-end (a dropped connection's queued work is
  /// pointless; its in-flight request, if any, completes normally and the
  /// caller discards the response). Each cancelled request's callback runs
  /// exactly once, synchronously, with an Outcome whose error is
  /// "cancelled". Returns how many were cancelled.
  std::size_t cancelClient(const std::string& client);

  /// Snapshots the warm caches right now (no-op false when persistence is
  /// disabled). Also runs on the configured timer and on shutdown.
  bool snapshotNow();

  /// Stops admitting, drains every accepted request, joins the workers,
  /// and writes a final snapshot. Idempotent.
  void shutdown();

  /// What the start-up restore did (status Missing when persistence is
  /// disabled or the file did not exist — i.e. a cold first boot).
  const snapshot::RestoreResult& restore() const;

  DaemonStats stats() const;
  ExplorationService& service();
  const DaemonOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tensorlib::driver
