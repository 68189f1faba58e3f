#include "driver/socket_server.hpp"

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "driver/network_explorer.hpp"
#include "driver/wire.hpp"
#include "support/error.hpp"
#include "support/net.hpp"
#include "verify/model_conformance.hpp"

extern "C" {
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
}

namespace tensorlib::driver {

struct SocketServer::Impl {
  /// One connection: an accepted socket, or the attached stream. The
  /// reader thread parses and dispatches request lines; the writer thread
  /// drains the bounded outgoing queue so a slow peer blocks only its own
  /// writer, never a daemon callback. Fds are closed only at reap/close
  /// time (after both threads exited), so no thread ever races a reused
  /// descriptor.
  struct Connection {
    int readFd = -1;
    int writeFd = -1;  ///< == readFd on a socket
    /// The attached stream (attach()), the server's controlling
    /// connection. Its fds belong to the caller. shutdown(2) cannot wake a
    /// read on a pipe, so its reader also polls wakeFds[0], and
    /// stopReading() closes wakeFds[1].
    bool attached = false;
    int wakeFds[2] = {-1, -1};
    std::uint64_t id = 0;
    std::string clientId;

    std::mutex mutex;
    std::condition_variable writeCv;
    std::deque<std::string> writeQueue;
    bool writerExit = false;
    bool writing = false;  ///< a line is mid-send (flush waits on it)
    std::size_t requestIndex = 0;

    std::atomic<bool> alive{true};
    std::atomic<bool> readerDone{false};
    std::atomic<bool> writerDone{false};

    std::thread reader;
    std::thread writer;
  };

  Impl(ExplorationDaemon& d, SocketServerOptions opts)
      : daemon(d), options(std::move(opts)) {}

  ~Impl() { closeAll(""); }

  // ---- lifecycle -----------------------------------------------------------

  bool start() {
    if (options.port < 0 && options.unixSocketPath.empty()) {
      lastError = "no endpoint configured (need a port or a unix socket)";
      return false;
    }
    if (options.port >= 0) {
      tcpFd = support::net::listenTcp(options.bindAddress, options.port,
                                      kListenBacklog, &boundPort);
      if (tcpFd < 0) {
        lastError = "cannot listen on " + options.bindAddress + ":" +
                    std::to_string(options.port);
        return false;
      }
    }
    if (!options.unixSocketPath.empty()) {
      unixFd = support::net::listenUnix(options.unixSocketPath, kListenBacklog);
      if (unixFd < 0) {
        lastError = "cannot listen on unix socket " + options.unixSocketPath;
        if (tcpFd >= 0) {
          ::close(tcpFd);
          tcpFd = -1;
        }
        return false;
      }
    }
    acceptThread = std::thread([this] { acceptLoop(); });
    return true;
  }

  void acceptLoop() {
    while (!stopping.load()) {
      pollfd fds[2];
      int n = 0;
      if (tcpFd >= 0) fds[n++] = pollfd{tcpFd, POLLIN, 0};
      if (unixFd >= 0) fds[n++] = pollfd{unixFd, POLLIN, 0};
      const int ready = ::poll(fds, static_cast<nfds_t>(n), 200);
      if (stopping.load()) break;
      reapDead();
      if (ready <= 0) continue;
      for (int i = 0; i < n; ++i) {
        if ((fds[i].revents & POLLIN) == 0) continue;
        const int fd = ::accept(fds[i].fd, nullptr, nullptr);
        if (fd < 0) continue;
        onAccept(fd);
      }
    }
  }

  void onAccept(int fd) {
    int one = 1;
    // No-ops on the unix-domain listener; worth it on TCP (one line per
    // request, Nagle only adds latency).
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options.sendBufferBytes > 0)
      (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.sendBufferBytes,
                       sizeof(options.sendBufferBytes));
    addConnection(fd, fd, /*attached=*/false);
  }

  void addConnection(int readFd, int writeFd, bool attached) {
    auto conn = std::make_shared<Connection>();
    conn->readFd = readFd;
    conn->writeFd = writeFd;
    conn->attached = attached;
    if (attached && ::pipe(conn->wakeFds) != 0)
      fail("cannot create a wake pipe");
    {
      std::lock_guard<std::mutex> lock(mutex);
      conn->id = nextConnId++;
      conn->clientId = "conn-" + std::to_string(conn->id);
      connections[conn->id] = conn;
      ++stats.accepted;
    }
    conn->writer = std::thread([this, conn] { writerLoop(conn); });
    conn->reader = std::thread([this, conn] { readerLoop(conn); });
  }

  // ---- per-connection reader ----------------------------------------------

  void readerLoop(const std::shared_ptr<Connection>& conn) {
    support::net::LineReader reader(conn->readFd, conn->wakeFds[0],
                                    options.maxLineBytes);
    bool drop = false;
    while (!stopping.load() && conn->alive.load()) {
      const auto line = reader.next();
      if (line && line->tooLong) {
        drop = true;
        break;
      }
      if (!line || !line->complete) {
        if (line) {
          // The peer died (or was dropped) mid-line. A truncated request
          // must never be executed — half a query is not a smaller query.
          std::lock_guard<std::mutex> lock(mutex);
          ++stats.truncatedLines;
        }
        // EOF on the controlling stream asks for shutdown, so its admitted
        // work completes and is answered; on a socket it is a drop.
        if (conn->attached) {
          requestShutdown(conn);
        } else {
          drop = true;
        }
        break;
      }
      if (line->text.find_first_not_of(" \t\r") == std::string::npos) continue;
      if (!handleLine(conn, line->text)) break;
    }
    // During drain/close the EOF is ours (stopReading) and accepted work
    // must complete instead.
    if (drop && !stopping.load()) disconnect(conn, /*slowReader=*/false);
    conn->readerDone.store(true);
  }

  /// Dispatches one request line. False after the connection's own
  /// shutdown request: it reads no further lines.
  bool handleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& text) {
    std::size_t id;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      id = conn->requestIndex++;
    }
    try {
      const auto obj = support::parseJsonLine(text);
      wire::Request request = wire::parseRequest(obj);
      switch (request.kind) {
        case wire::Request::Kind::Shutdown:
          requestShutdown(conn);
          return false;
        case wire::Request::Kind::CacheStats:
          emitTo(conn, "{\"query\": " + std::to_string(id) +
                           ", \"cache\": " +
                           wire::cacheStatsJson(daemon.service().cacheStats()) +
                           "}");
          return true;
        case wire::Request::Kind::Network:
        case wire::Request::Kind::ModelConformance: {
          // Synchronous on this connection's reader; other connections keep
          // their own readers. A network request fans out through the
          // shared service itself; the model oracle owns its own
          // ExplorationService (verdicts must not depend on this daemon's
          // warm caches). Counted as pending so the drain waits for it.
          beginPending();
          std::string response;
          try {
            if (request.kind == wire::Request::Kind::Network) {
              NetworkExplorer explorer(daemon.service());
              response = wire::networkResultLine(
                  id, request.name, *request.network,
                  explorer.explore(*request.network), options.maxFrontier);
            } else {
              response = wire::modelConformanceResultLine(
                  id, verify::checkModel(*request.model, request.modelOptions));
            }
          } catch (...) {
            finishPending();
            throw;
          }
          emitTo(conn, response);
          finishPending();
          return true;
        }
        case wire::Request::Kind::Query: {
          const std::string workload = request.name;
          const std::string backend =
              cost::backendKindName(request.query->backend);
          const std::string objective = objectiveName(request.query->objective);
          beginPending();
          const auto admission = daemon.submit(
              conn->clientId, std::move(*request.query),
              [this, conn, id, workload, backend,
               objective](ExplorationDaemon::Outcome outcome) {
                if (outcome.failed()) {
                  emitTo(conn, wire::errorLine(id, outcome.error));
                } else {
                  emitTo(conn,
                         wire::resultLine(id, workload, backend, objective,
                                          *outcome.result,
                                          options.maxFrontier));
                }
                finishPending();
              });
          if (admission != Admission::Accepted) {
            finishPending();
            emitTo(conn, wire::errorLine(id, admissionName(admission)));
          }
          return true;
        }
      }
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++stats.parseErrors;
      }
      emitTo(conn, wire::errorLine(id, e.what()));
    }
    return true;
  }

  /// The first request wins: its connection receives the summary.
  void requestShutdown(const std::shared_ptr<Connection>& conn) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!shutdownRequested) {
        shutdownRequested = true;
        shutdownRequester = conn;
      }
    }
    shutdownCv.notify_all();
  }

  void beginPending() {
    std::lock_guard<std::mutex> lock(mutex);
    ++stats.requests;
    ++pendingTotal;
  }

  /// Last statement of every pending unit of work. Notifies under the lock
  /// so a drain/close waiter cannot destroy the condition variable
  /// between our decrement and the notify.
  void finishPending() {
    std::lock_guard<std::mutex> lock(mutex);
    --pendingTotal;
    pendingCv.notify_all();
  }

  void waitIdle() {
    std::unique_lock<std::mutex> lock(mutex);
    pendingCv.wait(lock, [this] { return pendingTotal == 0; });
  }

  // ---- per-connection writer ----------------------------------------------

  void writerLoop(const std::shared_ptr<Connection>& conn) {
    for (;;) {
      std::string line;
      {
        std::unique_lock<std::mutex> lock(conn->mutex);
        conn->writeCv.wait(lock, [&] {
          return conn->writerExit || !conn->writeQueue.empty();
        });
        if (conn->writeQueue.empty()) {
          if (conn->writerExit) break;
          continue;
        }
        line = std::move(conn->writeQueue.front());
        conn->writeQueue.pop_front();
        conn->writing = true;
      }
      line += '\n';
      const bool ok =
          support::net::sendAll(conn->writeFd, line.data(), line.size());
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->writing = false;
      }
      conn->writeCv.notify_all();  // flush waiters watch queue + writing
      if (!ok) {
        disconnect(conn, /*slowReader=*/false);
        break;
      }
    }
    conn->writerDone.store(true);
  }

  /// Queues one line on the connection (writer sends it). Discards on a
  /// dead connection; drops the connection when the queue bound says the
  /// peer stopped reading.
  void emitTo(const std::shared_ptr<Connection>& conn, const std::string& line) {
    bool slowReader = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (!conn->alive.load()) {
        std::lock_guard<std::mutex> slock(mutex);
        ++stats.discardedResponses;
        return;
      }
      if (conn->writeQueue.size() >= options.writeQueueBound) {
        slowReader = true;
      } else {
        conn->writeQueue.push_back(line);
      }
    }
    if (slowReader) {
      disconnect(conn, /*slowReader=*/true);
      std::lock_guard<std::mutex> lock(mutex);
      ++stats.discardedResponses;
      return;
    }
    conn->writeCv.notify_one();
  }

  // ---- drop / drain / close -----------------------------------------------

  /// Makes the connection's reader see EOF.
  void stopReading(Connection& conn) {
    if (!conn.attached) {
      ::shutdown(conn.readFd, SHUT_RD);
      return;
    }
    std::lock_guard<std::mutex> lock(conn.mutex);
    if (conn.wakeFds[1] >= 0) {
      ::close(conn.wakeFds[1]);
      conn.wakeFds[1] = -1;
    }
  }

  /// Stops both directions: the reader sees EOF, and a mid-send socket
  /// writer fails instead of blocking.
  void hangUp(Connection& conn) {
    stopReading(conn);
    ::shutdown(conn.writeFd, SHUT_WR);
  }

  /// Idempotent connection drop: stop both directions, clear the unsent
  /// queue, cancel the connection's queued daemon work. The in-flight
  /// request (if any) completes and its response is discarded by emitTo.
  /// Dropping the controlling stream also requests shutdown.
  void disconnect(const std::shared_ptr<Connection>& conn, bool slowReader) {
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (!conn->alive.load()) return;
      conn->alive.store(false);
      conn->writerExit = true;
      conn->writeQueue.clear();
    }
    conn->writeCv.notify_all();
    hangUp(*conn);
    const std::size_t cancelled = daemon.cancelClient(conn->clientId);
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (slowReader) {
        ++stats.droppedSlowReader;
      } else {
        ++stats.dropped;
      }
      stats.cancelledOnDrop += cancelled;
    }
    if (conn->attached) requestShutdown(conn);
  }

  std::vector<std::shared_ptr<Connection>> snapshotConnections() {
    std::vector<std::shared_ptr<Connection>> out;
    std::lock_guard<std::mutex> lock(mutex);
    out.reserve(connections.size());
    for (const auto& [id, conn] : connections) {
      (void)id;
      out.push_back(conn);
    }
    return out;
  }

  /// Joins both threads, then closes the fds the server owns: an accepted
  /// socket, or the attached stream's wake pipe (never the stream itself).
  static void release(Connection& conn) {
    if (conn.reader.joinable()) conn.reader.join();
    if (conn.writer.joinable()) conn.writer.join();
    if (!conn.attached) ::close(conn.readFd);
    for (const int fd : conn.wakeFds)
      if (fd >= 0) ::close(fd);
  }

  /// Releases connections whose threads both exited (periodic, from the
  /// accept loop) so a long-lived server does not accumulate dead ones.
  void reapDead() {
    std::vector<std::shared_ptr<Connection>> dead;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (auto it = connections.begin(); it != connections.end();) {
        if (it->second->readerDone.load() && it->second->writerDone.load()) {
          dead.push_back(it->second);
          it = connections.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const auto& conn : dead) release(*conn);
  }

  void stopAccepting() {
    stopping.store(true);
    if (acceptThread.joinable()) acceptThread.join();
    if (tcpFd >= 0) {
      ::close(tcpFd);
      tcpFd = -1;
    }
    if (unixFd >= 0) {
      ::close(unixFd);
      unixFd = -1;
      unlink(options.unixSocketPath.c_str());
    }
  }

  /// Waits (bounded) for a connection's queued lines to reach the wire. A
  /// peer that stalls past the timeout is dropped rather than waited on.
  void flushConnection(const std::shared_ptr<Connection>& conn) {
    std::unique_lock<std::mutex> lock(conn->mutex);
    const bool flushed = conn->writeCv.wait_for(
        lock, std::chrono::milliseconds(2000), [&] {
          return !conn->alive.load() ||
                 (conn->writeQueue.empty() && !conn->writing);
        });
    lock.unlock();
    if (!flushed) disconnect(conn, /*slowReader=*/true);
  }

  void serveUntilShutdown() {
    {
      std::unique_lock<std::mutex> lock(mutex);
      shutdownCv.wait(lock, [this] { return shutdownRequested; });
    }
    // Drain: stop accepting and reading everywhere; every admitted request
    // completes and queues its response.
    stopAccepting();
    for (const auto& conn : snapshotConnections()) stopReading(*conn);
    waitIdle();
    daemon.shutdown();  // joins the workers, writes the final snapshot
    closeAll(wire::shutdownSummaryLine(daemon.stats(),
                                       daemon.service().cacheStats()));
  }

  void closeAll(const std::string& finalLine) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (closed) return;
      closed = true;
    }
    stopAccepting();
    const auto conns = snapshotConnections();
    for (const auto& conn : conns) {
      stopReading(*conn);
      // Queued work is pointless once the server closes (after a drain
      // there is none), so the pending wait below is bounded by in-flight
      // requests only.
      const std::size_t cancelled = daemon.cancelClient(conn->clientId);
      std::lock_guard<std::mutex> lock(mutex);
      stats.cancelledOnDrop += cancelled;
    }
    waitIdle();
    if (!finalLine.empty()) {
      std::shared_ptr<Connection> requester;
      {
        std::lock_guard<std::mutex> lock(mutex);
        requester = shutdownRequester;
      }
      if (requester) emitTo(requester, finalLine);
    }
    for (const auto& conn : conns) flushConnection(conn);
    for (const auto& conn : conns) {
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->writerExit = true;
      }
      conn->writeCv.notify_all();
      hangUp(*conn);
    }
    for (const auto& conn : conns) release(*conn);
    {
      std::lock_guard<std::mutex> lock(mutex);
      connections.clear();
      shutdownRequester.reset();
    }
  }

  SocketServerStats statsNow() const {
    std::lock_guard<std::mutex> lock(mutex);
    SocketServerStats copy = stats;
    copy.activeConnections = 0;
    for (const auto& [id, conn] : connections) {
      (void)id;
      if (conn->alive.load()) ++copy.activeConnections;
    }
    return copy;
  }

  static constexpr int kListenBacklog = 64;

  ExplorationDaemon& daemon;
  SocketServerOptions options;
  std::string lastError;

  int tcpFd = -1;
  int unixFd = -1;
  int boundPort = -1;
  std::thread acceptThread;

  mutable std::mutex mutex;
  std::condition_variable shutdownCv;
  std::condition_variable pendingCv;
  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> connections;
  std::shared_ptr<Connection> shutdownRequester;
  std::uint64_t nextConnId = 0;
  std::size_t pendingTotal = 0;
  bool shutdownRequested = false;
  bool closed = false;
  std::atomic<bool> stopping{false};
  SocketServerStats stats;
};

SocketServer::SocketServer(ExplorationDaemon& daemon,
                           SocketServerOptions options)
    : impl_(std::make_unique<Impl>(daemon, std::move(options))) {}

SocketServer::~SocketServer() = default;

bool SocketServer::start() { return impl_->start(); }

void SocketServer::attach(int readFd, int writeFd) {
  impl_->addConnection(readFd, writeFd, /*attached=*/true);
}

int SocketServer::port() const { return impl_->boundPort; }

const std::string& SocketServer::lastError() const { return impl_->lastError; }

void SocketServer::serveUntilShutdown() { impl_->serveUntilShutdown(); }

void SocketServer::close(const std::string& finalLine) {
  impl_->closeAll(finalLine);
}

SocketServerStats SocketServer::stats() const { return impl_->statsNow(); }

}  // namespace tensorlib::driver
