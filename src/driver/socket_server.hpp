// The one serve loop of the resident ExplorationDaemon: every
// `explore_server --serve` transport — TCP, unix-domain sockets and
// stdin/stdout — is a connection of this server, with one reader, one
// request dispatcher and one set of connection rules.
//
//   * Connections: an accept loop hands each socket connection a reader
//     thread (line-framed requests, the wire schema of driver/wire.*) and
//     a writer thread with a bounded outgoing queue; attach() does the same
//     for an already-open stream such as stdin/stdout. Responses stream
//     back in COMPLETION order on the connection that submitted them.
//   * Per-connection fairness: every connection gets its own daemon
//     client id ("conn-<n>"), so the daemon's bounded admission queue and
//     round-robin fairness apply per CONNECTION — one flooding connection
//     saturates its own share, not the daemon.
//   * Slow-reader isolation: daemon completion callbacks only ever
//     enqueue onto the owning connection's write queue; the per-connection
//     writer thread does the blocking sends. A reader that stalls past
//     writeQueueBound queued lines is dropped, never the daemon.
//   * Drop semantics: a dropped connection (socket EOF or reset, a failed
//     write, an oversized line, slow-reader eviction) cancels its
//     still-queued daemon work (ExplorationDaemon::cancelClient); its
//     in-flight request, if any, completes and the response is discarded.
//     A request line truncated by EOF (no trailing '\n') is NEVER executed.
//   * The attached stream is the server's controlling connection: EOF on
//     it is a shutdown request (not a drop), and dropping it also requests
//     shutdown.
//   * Shutdown: any connection may send {"shutdown": true}, and reads no
//     further lines after it. serveUntilShutdown() then stops accepting and
//     reading, lets admitted work finish, shuts the daemon down (final
//     snapshot) and delivers the summary line to the connection that asked.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "driver/daemon.hpp"

namespace tensorlib::driver {

/// Configures every serve transport: the listeners of start() and the
/// per-connection bounds, which apply to an attached stream as well.
struct SocketServerOptions {
  /// TCP listen port; -1 disables TCP, 0 picks an ephemeral port (read it
  /// back via port()).
  int port = -1;
  /// Numeric IPv4 address to bind. Loopback by default: exposing the
  /// daemon beyond the host is a deployment decision, not a default.
  std::string bindAddress = "127.0.0.1";
  /// Unix-domain socket path; empty disables. May be combined with TCP —
  /// both listeners feed the same daemon.
  std::string unixSocketPath;
  /// Frontier entries per response line (same meaning as --max-frontier).
  std::size_t maxFrontier = 16;
  /// Outgoing lines queued per connection before the connection is judged
  /// a slow reader and dropped. The bound is what keeps a stalled reader
  /// from pinning response memory while its writer blocks.
  std::size_t writeQueueBound = 1024;
  /// Longest accepted request line; a line beyond this drops the
  /// connection (a line protocol's only defense against an unframed peer).
  /// Checked as bytes arrive, so a line that never ends is dropped too.
  std::size_t maxLineBytes = 1u << 20;
  /// When > 0, SO_SNDBUF for accepted connections (tests use a tiny buffer
  /// to exercise the slow-reader path deterministically).
  int sendBufferBytes = 0;
};

struct SocketServerStats {
  std::uint64_t accepted = 0;          ///< connections accepted or attached
  std::uint64_t dropped = 0;           ///< dropped: EOF/reset/write failure/oversized line
  std::uint64_t droppedSlowReader = 0; ///< dropped: write queue overflow
  std::uint64_t requests = 0;          ///< well-formed requests admitted
  std::uint64_t parseErrors = 0;       ///< lines answered with an error
  std::uint64_t truncatedLines = 0;    ///< partial final lines NOT executed
  std::uint64_t discardedResponses = 0;///< completions after a drop
  std::uint64_t cancelledOnDrop = 0;   ///< queued work cancelled by drops
  std::size_t activeConnections = 0;
};

class SocketServer {
 public:
  /// Borrows the daemon; it must outlive the server's last close().
  SocketServer(ExplorationDaemon& daemon, SocketServerOptions options);
  /// Equivalent to close("").
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens on every configured endpoint and starts accepting.
  /// False (with lastError() set) if nothing could be bound.
  bool start();

  /// Serves an already-open stream (stdin/stdout) as one more connection,
  /// the server's controlling one: EOF on `readFd` is a shutdown request
  /// (a final line without '\n' is not executed), and a failed write to
  /// `writeFd` or an oversized line drops the stream and requests
  /// shutdown. The server does not close either fd; both must stay open
  /// until close() returns. Throws Error if it cannot set the stream up.
  void attach(int readFd, int writeFd);

  /// Actual TCP port (after an ephemeral bind), -1 when TCP is disabled.
  int port() const;

  const std::string& lastError() const;

  /// The whole serve lifetime after start()/attach(): blocks until a
  /// connection requests shutdown, stops accepting and reading, lets every
  /// admitted request complete, shuts the daemon down (its final
  /// snapshot), delivers wire::shutdownSummaryLine to the requesting
  /// connection, then closes.
  void serveUntilShutdown();

  /// Emits `finalLine` (if non-empty) to the shutdown-requesting
  /// connection, then closes every connection and joins all threads.
  /// Without a prior serveUntilShutdown(), still-queued work is cancelled.
  /// Idempotent.
  void close(const std::string& finalLine);

  SocketServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tensorlib::driver
