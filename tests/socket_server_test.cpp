// Tests for the serve loop (driver/socket_server.*): concurrent
// connections with per-connection fairness, bit-identical answers vs the
// in-process reference daemon, deadline expiry over the wire, disconnect
// cancellation, slow-reader eviction, truncated-request rejection, the
// shutdown drain that delivers the summary to the requesting connection,
// and the attached stdin/stdout stream (EOF, shutdown line, closed
// output, oversized line) driven over two pipes.
#include "driver/socket_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cost/backend.hpp"
#include "driver/explore_client.hpp"
#include "driver/pareto.hpp"
#include "driver/wire.hpp"
#include "support/fault.hpp"
#include "support/jsonl.hpp"
#include "support/net.hpp"

extern "C" {
#include <unistd.h>
}

namespace tensorlib::driver {
namespace {

const char* kQueries[] = {
    R"({"workload": "gemm", "rows": 4, "cols": 4, "max_entry": 1})",
    R"({"workload": "gemm", "rows": 4, "cols": 4, "max_entry": 1, "objective": "power"})",
    R"({"workload": "gemm", "rows": 6, "cols": 6, "max_entry": 1, "objective": "energy-delay"})",
};

/// Same volatile-part stripping as tools/chaos_runner: the "query" index is
/// per-connection and the cache counters depend on global arrival order.
std::string canonical(const std::string& response) {
  std::string s = response;
  if (s.rfind("{\"query\": ", 0) == 0) {
    const auto comma = s.find(", ");
    if (comma != std::string::npos) s = "{" + s.substr(comma + 2);
  }
  const auto cache = s.rfind(", \"cache\": ");
  if (cache != std::string::npos && s.size() >= 2 &&
      s.compare(s.size() - 2, 2, "}}") == 0) {
    s = s.substr(0, cache) + "}";
  }
  return s;
}

/// Reference responses from a fresh, socket-free daemon fed the same query
/// sequence — what every socket answer must match.
std::vector<std::string> referenceLines(std::size_t maxFrontier) {
  ExplorationDaemon daemon;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < std::size(kQueries); ++i) {
    auto request = wire::parseRequest(support::parseJsonLine(kQueries[i]));
    const std::string backend = cost::backendKindName(request.query->backend);
    const std::string objective = objectiveName(request.query->objective);
    const auto outcome = daemon.runOne("ref", std::move(*request.query));
    EXPECT_TRUE(outcome.has_value() && !outcome->failed());
    lines.push_back(wire::resultLine(i, request.name, backend, objective,
                                     *outcome->result, maxFrontier));
  }
  daemon.shutdown();
  return lines;
}

/// Two pipes standing in for the stdin/stdout of `explore_server --serve`.
/// Declared before the Fixture: the server must close before its fds do.
struct Pipes {
  int in[2] = {-1, -1};   ///< the test writes in[1]; the server reads in[0]
  int out[2] = {-1, -1};  ///< the server writes out[1]; the test reads out[0]

  Pipes() {
    EXPECT_EQ(pipe(in), 0);
    EXPECT_EQ(pipe(out), 0);
  }
  ~Pipes() {
    for (int* fd : {&in[0], &in[1], &out[0], &out[1]}) closeFd(*fd);
  }

  static void closeFd(int& fd) {
    if (fd >= 0) close(fd);
    fd = -1;
  }

  bool send(const std::string& text) {
    return support::net::sendAll(in[1], text.data(), text.size());
  }

  /// Every complete line the server wrote. Call once the server returned:
  /// it closes the write end to read up to EOF.
  std::vector<std::string> lines() {
    closeFd(out[1]);
    support::net::LineReader reader(out[0]);
    std::vector<std::string> result;
    while (const auto line = reader.next())
      if (line->complete) result.push_back(line->text);
    return result;
  }
};

struct Fixture {
  std::unique_ptr<ExplorationDaemon> daemon;
  std::unique_ptr<SocketServer> server;

  void start(SocketServerOptions socketOptions = {},
             DaemonOptions daemonOptions = {}) {
    if (socketOptions.port < 0 && socketOptions.unixSocketPath.empty())
      socketOptions.port = 0;  // ephemeral
    daemon = std::make_unique<ExplorationDaemon>(std::move(daemonOptions));
    server = std::make_unique<SocketServer>(*daemon, std::move(socketOptions));
    ASSERT_TRUE(server->start()) << server->lastError();
  }

  /// No listener: the pipes are the server's one, attached connection.
  void attach(Pipes& pipes, SocketServerOptions socketOptions = {}) {
    DaemonOptions daemonOptions;
    daemonOptions.workers = 1;
    daemon = std::make_unique<ExplorationDaemon>(std::move(daemonOptions));
    server = std::make_unique<SocketServer>(*daemon, std::move(socketOptions));
    server->attach(pipes.in[0], pipes.out[1]);
  }

  ~Fixture() {
    support::FaultInjector::instance().disarm();
    if (server) server->close("");
    if (daemon) daemon->shutdown();
  }

  ClientOptions clientOptions() const {
    ClientOptions o;
    o.port = server->port();
    return o;
  }

  /// Polls the server stats until `done` accepts them (15 s cap — the
  /// slow-reader path needs dozens of completed responses, which takes a
  /// while under sanitizers).
  bool waitForStats(const std::function<bool(const SocketServerStats&)>& done) {
    for (int i = 0; i < 1500; ++i) {
      if (done(server->stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }
};

TEST(SocketServer, MatchesReferenceServiceBitForBit) {
  // One connection, one worker, sequential requests: arrival order equals
  // the reference order, so even the per-query cache counters must match.
  Fixture f;
  DaemonOptions dopts;
  dopts.workers = 1;
  f.start({}, std::move(dopts));
  ASSERT_GT(f.server->port(), 0);

  const auto expected = referenceLines(16);
  ExploreClient client(f.clientOptions());
  for (std::size_t i = 0; i < std::size(kQueries); ++i) {
    const auto response = client.request(kQueries[i]);
    ASSERT_TRUE(response.has_value()) << "query " << i;
    EXPECT_EQ(*response, expected[i]) << "query " << i;
  }
  EXPECT_EQ(f.server->stats().requests, std::size(kQueries));
  EXPECT_EQ(f.server->stats().parseErrors, 0u);
}

TEST(SocketServer, ServesEightConcurrentClientsIdentically) {
  Fixture f;
  DaemonOptions dopts;
  dopts.workers = 2;
  f.start({}, std::move(dopts));

  std::vector<std::string> expected;
  for (const auto& line : referenceLines(16)) expected.push_back(canonical(line));

  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      ExploreClient client(f.clientOptions());
      for (std::size_t i = 0; i < std::size(kQueries); ++i) {
        const auto response = client.request(kQueries[i]);
        if (!response.has_value() || canonical(*response) != expected[i]) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.requests, std::size(kQueries) * kClients);
}

TEST(SocketServer, PerConnectionQueueBoundsAndFairness) {
  // Each connection is its own fairness client: a connection that floods
  // past its per-client bound gets "overloaded", while a second connection
  // with a single request is admitted and served.
  support::FaultInjector::instance().arm("work_unit=sleep:40@0");
  Fixture f;
  DaemonOptions dopts;
  dopts.workers = 1;
  dopts.perClientQueueBound = 1;
  dopts.queueBound = 16;
  f.start({}, std::move(dopts));

  ExploreClient flooder(f.clientOptions());
  ASSERT_TRUE(flooder.start());
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) flooder.sendLine(kQueries[0]);

  ExploreClient polite(f.clientOptions());
  const auto response = polite.request(kQueries[0]);
  ASSERT_TRUE(response.has_value());
  // The polite connection was never shed — its own queue share was free.
  EXPECT_NE(response->find("\"frontier\""), std::string::npos) << *response;

  int overloaded = 0, answered = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto line = flooder.readLine();
    ASSERT_TRUE(line.has_value()) << "flooder lost line " << i;
    if (line->find("\"error\": \"overloaded\"") != std::string::npos) {
      ++overloaded;
    } else {
      ++answered;
    }
  }
  EXPECT_GT(overloaded, 0);
  EXPECT_GT(answered, 0);
}

TEST(SocketServer, DeadlineExpiresOverTheSocket) {
  support::FaultInjector::instance().arm("work_unit=sleep:30@0");
  Fixture f;
  f.start();
  ExploreClient client(f.clientOptions());
  std::string query = kQueries[0];
  query.insert(query.size() - 1, ", \"deadline_ms\": 1");
  const auto response = client.request(query);
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"timed_out\": true"), std::string::npos)
      << *response;
}

TEST(SocketServer, MidRequestDisconnectCancelsQueuedWork) {
  // Long first work unit keeps query 1 in flight while 2 and 3 sit queued;
  // dropping the connection must cancel exactly the queued two, complete
  // the in-flight one, and discard its response.
  support::FaultInjector::instance().arm("work_unit=sleep:200@1");
  Fixture f;
  DaemonOptions dopts;
  dopts.workers = 1;
  f.start({}, std::move(dopts));

  ExploreClient client(f.clientOptions());
  ASSERT_TRUE(client.start());
  for (const auto* q : kQueries) client.sendLine(q);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.dropConnection();

  ASSERT_TRUE(f.waitForStats([](const SocketServerStats& s) {
    return s.dropped >= 1 && s.cancelledOnDrop == 2;
  })) << "dropped=" << f.server->stats().dropped
      << " cancelled=" << f.server->stats().cancelledOnDrop;
  EXPECT_EQ(f.daemon->stats().cancelled, 2u);
  support::FaultInjector::instance().disarm();
  // The in-flight request completes and its response is discarded, never
  // delivered to a dead connection.
  EXPECT_TRUE(f.waitForStats(
      [](const SocketServerStats& s) { return s.discardedResponses >= 1; }));

  // The server is unharmed: a fresh connection gets full service.
  ExploreClient again(f.clientOptions());
  const auto response = again.request(kQueries[0]);
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"frontier\""), std::string::npos);
}

TEST(SocketServer, SlowReaderIsDroppedNotWaitedFor) {
  // Tiny server-side send buffer + tight write-queue bound over a unix
  // socket: a connection that floods requests and never reads must be
  // dropped at the bound while other connections keep full service.
  const std::string socketPath = "socket_server_test.sock";
  Fixture f;
  SocketServerOptions sopts;
  sopts.unixSocketPath = socketPath;
  sopts.writeQueueBound = 2;
  sopts.sendBufferBytes = 4096;
  DaemonOptions dopts;
  dopts.workers = 2;
  dopts.queueBound = 64;
  dopts.perClientQueueBound = 64;
  f.start(std::move(sopts), std::move(dopts));

  const int flood = support::net::connectUnix(socketPath);
  ASSERT_GE(flood, 0);
  // Cheap to answer (cache-hot after the first), big on the wire (~700
  // byte frontier lines): dozens of completed-but-unread responses pile
  // onto the tiny send buffer and the bounded write queue quickly.
  const std::string big =
      "{\"workload\": \"gemm\", \"rows\": 8, \"cols\": 8, \"max_entry\": 1}\n";
  for (int i = 0; i < 64; ++i) {
    if (!support::net::sendAll(flood, big.data(), big.size())) break;
  }
  ASSERT_TRUE(f.waitForStats([](const SocketServerStats& s) {
    return s.droppedSlowReader >= 1;
  })) << "write queue never overflowed";
  close(flood);

  // Meanwhile a reading connection still gets bit-identical answers.
  ClientOptions copts;
  copts.unixSocketPath = socketPath;
  ExploreClient reader(copts);
  const auto response = reader.request(kQueries[0]);
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"frontier\""), std::string::npos);
  unlink(socketPath.c_str());
}

TEST(SocketServer, TruncatedRequestIsNeverExecuted) {
  Fixture f;
  f.start();
  const int fd = support::net::connectTcp("127.0.0.1", f.server->port());
  ASSERT_GE(fd, 0);
  const char* partial = "{\"workload\": \"gemm\", \"rows\": 4";
  ASSERT_TRUE(support::net::sendAll(fd, partial, std::strlen(partial)));
  close(fd);  // dies mid-line, no '\n' ever sent
  ASSERT_TRUE(f.waitForStats(
      [](const SocketServerStats& s) { return s.truncatedLines == 1; }));
  EXPECT_EQ(f.server->stats().requests, 0u);
  EXPECT_EQ(f.daemon->stats().accepted, 0u);
}

TEST(SocketServer, OversizedLineDropsTheConnection) {
  // Terminated, and unterminated with the write end kept open: the cap
  // holds while a line is still arriving, not only once it ends.
  const std::string line(1024, 'x');
  for (const std::string& payload : {line + "\n", line}) {
    Fixture f;
    SocketServerOptions sopts;
    sopts.maxLineBytes = 64;
    f.start(std::move(sopts));
    const int fd = support::net::connectTcp("127.0.0.1", f.server->port());
    ASSERT_GE(fd, 0);
    support::net::sendAll(fd, payload.data(), payload.size());
    ASSERT_TRUE(f.waitForStats(
        [](const SocketServerStats& s) { return s.dropped >= 1; }));
    EXPECT_EQ(f.server->stats().dropped, 1u);
    EXPECT_EQ(f.server->stats().requests, 0u);
    close(fd);
  }
}

TEST(SocketServer, ShutdownDrainsAndDeliversSummaryToRequester) {
  Fixture f;
  DaemonOptions dopts;
  dopts.workers = 1;
  f.start({}, std::move(dopts));

  std::thread orchestrator([&] { f.server->serveUntilShutdown(); });

  const int fd = support::net::connectTcp("127.0.0.1", f.server->port());
  ASSERT_GE(fd, 0);
  std::string out;
  for (const auto* q : {kQueries[0], kQueries[1]}) {
    out.append(q);
    out.push_back('\n');
  }
  out += "{\"shutdown\": true}\n";
  ASSERT_TRUE(support::net::sendAll(fd, out.data(), out.size()));

  support::net::LineReader reader(fd);
  std::vector<std::string> lines;
  while (const auto line = reader.next()) {
    if (line->complete) lines.push_back(line->text);
  }
  close(fd);
  orchestrator.join();

  // Both admitted queries were answered (the drain), then the summary —
  // delivered to the requesting connection, last.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"frontier\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"frontier\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"shutdown\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"cancelled\""), std::string::npos);
}

TEST(SocketServer, AttachedStreamEofShutsDownAfterAnsweringEverything) {
  Pipes pipes;
  Fixture f;
  f.attach(pipes);
  std::string input;
  for (const auto* q : kQueries) input += std::string(q) + "\n";
  input += kQueries[0];  // a final line without '\n' is never executed
  ASSERT_TRUE(pipes.send(input));
  Pipes::closeFd(pipes.in[1]);
  f.server->serveUntilShutdown();

  const auto lines = pipes.lines();
  ASSERT_EQ(lines.size(), std::size(kQueries) + 1);
  std::vector<std::string> answers, expected;
  for (std::size_t i = 0; i < std::size(kQueries); ++i)
    answers.push_back(canonical(lines[i]));
  for (const auto& line : referenceLines(16)) expected.push_back(canonical(line));
  std::sort(answers.begin(), answers.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(answers, expected);
  EXPECT_NE(lines.back().find("\"shutdown\""), std::string::npos);
  EXPECT_EQ(f.server->stats().truncatedLines, 1u);
  EXPECT_EQ(f.server->stats().requests, std::size(kQueries));
}

TEST(SocketServer, AttachedStreamShutdownLineNeedsNoEof) {
  Pipes pipes;  // in[1] stays open throughout
  Fixture f;
  f.attach(pipes);
  ASSERT_TRUE(pipes.send("{\"shutdown\": true}\n"));
  f.server->serveUntilShutdown();
  const auto lines = pipes.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"shutdown\""), std::string::npos);
}

TEST(SocketServer, AttachedStreamClosedOutputDropsAndShutsDown) {
  std::signal(SIGPIPE, SIG_IGN);  // writes to a closed pipe fail with EPIPE
  Pipes pipes;  // in[1] stays open throughout
  Fixture f;
  f.attach(pipes);
  Pipes::closeFd(pipes.out[0]);
  ASSERT_TRUE(pipes.send(std::string(kQueries[0]) + "\n"));
  f.server->serveUntilShutdown();  // the failed answer ends the serve
  EXPECT_EQ(f.server->stats().dropped, 1u);
}

TEST(SocketServer, AttachedStreamOversizedLineDropsAndShutsDown) {
  // Terminated and unterminated, as for a socket connection.
  const std::string line(1024, 'x');
  for (const std::string& payload : {line + "\n", line}) {
    Pipes pipes;  // in[1] stays open throughout
    Fixture f;
    SocketServerOptions sopts;
    sopts.maxLineBytes = 64;
    f.attach(pipes, std::move(sopts));
    ASSERT_TRUE(pipes.send(payload));
    f.server->serveUntilShutdown();
    EXPECT_EQ(f.server->stats().dropped, 1u);
    EXPECT_EQ(f.server->stats().requests, 0u);
  }
}

TEST(SocketServer, MalformedLineGetsStructuredErrorAndConnectionSurvives) {
  Fixture f;
  f.start();
  ExploreClient client(f.clientOptions());
  ASSERT_TRUE(client.start());
  ASSERT_TRUE(client.sendLine("{\"rows\": \"8\", \"workload\": \"gemm\"}"));
  auto line = client.readLine();
  ASSERT_TRUE(line.has_value());
  // The jsonl kind check rejects the string-typed number, with the
  // offending text in the message, and the connection keeps working.
  EXPECT_NE(line->find("\"error\""), std::string::npos) << *line;
  EXPECT_NE(line->find("string"), std::string::npos) << *line;
  const auto response = client.request(kQueries[0]);
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"frontier\""), std::string::npos);
  EXPECT_EQ(f.server->stats().parseErrors, 1u);
}

}  // namespace
}  // namespace tensorlib::driver
