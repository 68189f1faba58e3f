#include "driver/daemon.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace tensorlib::driver {

std::string admissionName(Admission admission) {
  switch (admission) {
    case Admission::Accepted:
      return "accepted";
    case Admission::Overloaded:
      return "overloaded";
    case Admission::ShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

struct ExplorationDaemon::Impl {
  struct Item {
    ExploreQuery query;
    std::function<void(Outcome)> done;
  };

  explicit Impl(DaemonOptions opts)
      : options(std::move(opts)),
        service(options.service),
        fingerprint(snapshot::cacheSchemaFingerprint()) {
    if (!options.snapshotPath.empty()) {
      restoreResult = service.restoreSnapshot(options.snapshotPath, fingerprint);
    }
    std::size_t workerCount = options.workers == 0 ? 1 : options.workers;
    workers.reserve(workerCount);
    for (std::size_t i = 0; i < workerCount; ++i) {
      workers.emplace_back([this] { workerLoop(); });
    }
    if (!options.snapshotPath.empty() && options.snapshotIntervalMs > 0) {
      timer = std::thread([this] { timerLoop(); });
    }
  }

  // ---- admission -----------------------------------------------------------

  Admission submit(const std::string& client, ExploreQuery query,
                   std::function<void(Outcome)> done) {
    if (query.deadlineMs == 0) query.deadlineMs = options.defaultDeadlineMs;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (stopping) return Admission::ShuttingDown;
      auto& queue = queues[client];
      if (totalQueued >= options.queueBound ||
          queue.size() >= options.perClientQueueBound) {
        ++stats.rejectedOverloaded;
        if (queue.empty()) queues.erase(client);
        return Admission::Overloaded;
      }
      if (queue.empty()) rotation.push_back(client);
      queue.push_back(Item{std::move(query), std::move(done)});
      ++totalQueued;
      ++stats.accepted;
    }
    workReady.notify_one();
    return Admission::Accepted;
  }

  /// Pops the next request round-robin across clients: the client at the
  /// rotation front yields one item and, if it still has queued work,
  /// re-enters at the back — a flooding client advances one slot per turn
  /// of everyone else.
  Item popNextLocked() {
    TL_CHECK(!rotation.empty(), "daemon queue accounting broken");
    std::string client = std::move(rotation.front());
    rotation.pop_front();
    auto it = queues.find(client);
    TL_CHECK(it != queues.end() && !it->second.empty(),
             "daemon queue accounting broken");
    Item item = std::move(it->second.front());
    it->second.pop_front();
    --totalQueued;
    if (it->second.empty()) {
      queues.erase(it);
    } else {
      rotation.push_back(std::move(client));
    }
    return item;
  }

  std::size_t cancelClient(const std::string& client) {
    std::vector<Item> cancelled;
    {
      std::lock_guard<std::mutex> lock(mutex);
      auto it = queues.find(client);
      if (it == queues.end()) return 0;
      for (auto& item : it->second) cancelled.push_back(std::move(item));
      totalQueued -= it->second.size();
      queues.erase(it);
      rotation.erase(std::remove(rotation.begin(), rotation.end(), client),
                     rotation.end());
      stats.cancelled += cancelled.size();
    }
    // Removing queued work can complete a drain shutdown() is waiting on.
    idle.notify_all();
    for (auto& item : cancelled) {
      if (item.done) {
        Outcome outcome;
        outcome.error = "cancelled";
        item.done(std::move(outcome));
      }
    }
    return cancelled.size();
  }

  void workerLoop() {
    for (;;) {
      std::optional<Item> item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        workReady.wait(lock, [this] { return stopping || totalQueued > 0; });
        if (totalQueued == 0) break;  // stopping and drained
        item.emplace(popNextLocked());
        ++inFlight;
      }
      Outcome outcome;
      try {
        outcome.result = service.run(item->query);
      } catch (const std::exception& e) {
        outcome.error = e.what();
      } catch (...) {
        outcome.error = "unknown exploration failure";
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        --inFlight;
        if (outcome.failed()) {
          ++stats.failed;
        } else {
          ++stats.completed;
          if (outcome.result->timedOut) ++stats.timedOut;
        }
      }
      idle.notify_all();
      if (item->done) item->done(std::move(outcome));
    }
  }

  // ---- snapshots -----------------------------------------------------------

  bool snapshotNow() {
    if (options.snapshotPath.empty()) return false;
    bool ok = service.saveSnapshot(options.snapshotPath, fingerprint);
    std::lock_guard<std::mutex> lock(mutex);
    if (ok) {
      ++stats.snapshotsSaved;
    } else {
      ++stats.snapshotFailures;
    }
    return ok;
  }

  void timerLoop() {
    std::unique_lock<std::mutex> lock(timerMutex);
    auto interval = std::chrono::milliseconds(options.snapshotIntervalMs);
    while (!timerStop.wait_for(lock, interval,
                               [this] { return stopping.load(); })) {
      snapshotNow();
    }
  }

  // ---- shutdown ------------------------------------------------------------

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (stopping) return;
      stopping = true;
    }
    {
      // Wake the timer (it re-checks `stopping` under its own mutex).
      std::lock_guard<std::mutex> lock(timerMutex);
    }
    timerStop.notify_all();
    workReady.notify_all();
    {
      std::unique_lock<std::mutex> lock(mutex);
      idle.wait(lock, [this] { return totalQueued == 0 && inFlight == 0; });
    }
    workReady.notify_all();  // release workers parked on the drained queue
    for (auto& worker : workers) worker.join();
    workers.clear();
    if (timer.joinable()) timer.join();
    snapshotNow();
  }

  DaemonOptions options;
  ExplorationService service;
  std::string fingerprint;
  snapshot::RestoreResult restoreResult;

  mutable std::mutex mutex;
  std::condition_variable workReady;
  std::condition_variable idle;
  std::unordered_map<std::string, std::deque<Item>> queues;
  std::deque<std::string> rotation;  ///< clients with queued work, in turn order
  std::size_t totalQueued = 0;
  std::size_t inFlight = 0;
  /// Atomic because timerLoop()'s wait predicate reads it under timerMutex
  /// while shutdown() writes it under `mutex` — the two never synchronize
  /// through a common lock.
  std::atomic<bool> stopping{false};
  DaemonStats stats;

  std::vector<std::thread> workers;
  std::thread timer;
  std::mutex timerMutex;
  std::condition_variable timerStop;
};

ExplorationDaemon::ExplorationDaemon(DaemonOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

ExplorationDaemon::~ExplorationDaemon() { impl_->shutdown(); }

Admission ExplorationDaemon::submit(const std::string& client,
                                    ExploreQuery query,
                                    std::function<void(Outcome)> done) {
  return impl_->submit(client, std::move(query), std::move(done));
}

std::optional<ExplorationDaemon::Outcome> ExplorationDaemon::runOne(
    const std::string& client, ExploreQuery query) {
  std::promise<Outcome> promise;
  std::future<Outcome> future = promise.get_future();
  Admission admission =
      impl_->submit(client, std::move(query),
                    [&promise](Outcome o) { promise.set_value(std::move(o)); });
  if (admission != Admission::Accepted) return std::nullopt;
  return future.get();
}

std::size_t ExplorationDaemon::cancelClient(const std::string& client) {
  return impl_->cancelClient(client);
}

bool ExplorationDaemon::snapshotNow() { return impl_->snapshotNow(); }

void ExplorationDaemon::shutdown() { impl_->shutdown(); }

const snapshot::RestoreResult& ExplorationDaemon::restore() const {
  return impl_->restoreResult;
}

DaemonStats ExplorationDaemon::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  DaemonStats copy = impl_->stats;
  copy.queued = impl_->totalQueued + impl_->inFlight;
  return copy;
}

ExplorationService& ExplorationDaemon::service() { return impl_->service; }

const DaemonOptions& ExplorationDaemon::options() const {
  return impl_->options;
}

}  // namespace tensorlib::driver
