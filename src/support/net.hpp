// Raw-fd networking helpers shared by the serve loop
// (driver/socket_server.*, which reads sockets and the attached
// stdin/stdout alike) and both transports of driver::ExploreClient.
//
// Everything here works on plain file descriptors and owns the two fiddly
// parts of a line protocol over a raw fd:
//
//   * EINTR / short I/O: sendAll() retries interrupted and partial writes;
//     LineReader retries interrupted reads and reassembles lines across
//     arbitrary read boundaries.
//   * Partial final lines: a peer that dies mid-write leaves a line with
//     no terminating '\n'. LineReader surfaces it with complete = false
//     instead of silently discarding the bytes — the caller decides
//     whether a truncated line is diagnostic text (client side) or a
//     request that must NOT be executed (server side).
//
// Address handling is deliberately minimal: numeric IPv4 addresses only
// (no DNS), plus unix-domain sockets by path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace tensorlib::support::net {

enum class EndpointKind { TcpHost, UnixPath };

/// Checks an endpoint flag value where it is parsed, so a malformed one is
/// a usage error, not a failed bind or connect later: a TCP host must be a
/// numeric IPv4 address, a unix-domain path non-empty and short enough for
/// sockaddr_un. Returns `value`; throws Error naming `flag` otherwise.
std::string checkEndpoint(const char* flag, const std::string& value,
                          EndpointKind kind);

/// Connects a blocking TCP socket to a numeric IPv4 address. Returns the
/// fd, or -1 (the reason is in errno).
int connectTcp(const std::string& host, int port);

/// Connects a blocking unix-domain stream socket. Returns the fd or -1.
int connectUnix(const std::string& path);

/// Binds + listens on a numeric IPv4 address. `port` 0 picks an ephemeral
/// port; `boundPort`, when non-null, receives the actual one. Returns the
/// listening fd or -1.
int listenTcp(const std::string& host, int port, int backlog, int* boundPort);

/// Binds + listens on a unix-domain path (unlinking any stale socket file
/// first). Returns the listening fd or -1.
int listenUnix(const std::string& path, int backlog);

/// Writes all of `data`, retrying EINTR and short writes. False on any
/// hard error (EPIPE, ECONNRESET, ...).
bool sendAll(int fd, const char* data, std::size_t size);

/// One decoded line from a LineReader. `complete` is false iff EOF (or a
/// hard read error) cut the line off before its '\n', or the line was too
/// long. `tooLong` is true iff the line exceeded the reader's cap; its text
/// is dropped and the stream reads as ended after it.
struct Line {
  std::string text;
  bool complete = true;
  bool tooLong = false;
};

/// Buffered '\n'-framed reader over a raw fd. Handles EINTR, short reads,
/// and lines split across reads; does not own or close the fd.
class LineReader {
 public:
  /// `wakeFd`, when >= 0, is polled beside `fd`: once it is readable or
  /// hung up (its pipe's write end closed), the stream reads as EOF. That
  /// wakes a read blocked on a pipe, which shutdown(2) cannot.
  /// `maxLineBytes` caps a line (without its '\n'). It is enforced while
  /// the line is still arriving, so an unframed peer cannot grow the
  /// buffer past the cap plus one read.
  explicit LineReader(int fd, int wakeFd = -1,
                      std::size_t maxLineBytes = SIZE_MAX)
      : fd_(fd), wakeFd_(wakeFd), maxLineBytes_(maxLineBytes) {}

  /// Next line (without its '\n'). nullopt on clean EOF or on an error
  /// with nothing buffered; a trailing unterminated line comes back once
  /// with complete = false before the nullopt, and a line over the cap
  /// comes back once with tooLong = true before the nullopt.
  std::optional<Line> next();

 private:
  int fd_;
  int wakeFd_;
  std::size_t maxLineBytes_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< leading buffer bytes known to hold no '\n'
  bool eof_ = false;
};

}  // namespace tensorlib::support::net
