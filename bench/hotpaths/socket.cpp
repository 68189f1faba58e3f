// Section "socket": the same 3-query reference traffic against an
// in-process ExplorationDaemon + SocketServer over loopback TCP at 1 and 8
// concurrent connections, each driven by a driver::ExploreClient. Every
// response must be canonically identical (query index and volatile cache
// counters stripped) to a socket-free reference daemon answering the same
// queries — concurrency and transport may only change how fast answers
// arrive, never what they are.
//
// Absolute loopback throughput on shared runners is all jitter, so the gate
// (full mode only) is a ratio of the two measurements taken in the same
// process: 8 concurrent connections must sustain at least
// kGateMinConcurrentRatio of the request rate of a single connection.
#include <cstdio>
#include <iterator>
#include <sstream>
#include <thread>

#include "cost/backend.hpp"
#include "driver/explore_client.hpp"
#include "driver/pareto.hpp"
#include "driver/socket_server.hpp"
#include "driver/wire.hpp"
#include "sections.hpp"
#include "support/error.hpp"
#include "support/jsonl.hpp"

namespace tensorlib::bench::hotpaths {
namespace {

/// Aggregate req/s at 8 connections must be at least this fraction of the
/// single-connection rate — concurrency must scale service throughput, not
/// serialize it.
constexpr double kGateMinConcurrentRatio = 0.5;

const char* kQueries[] = {
    R"({"workload": "gemm", "rows": 8, "cols": 8, "max_entry": 1})",
    R"({"workload": "gemm", "rows": 8, "cols": 8, "max_entry": 1, "objective": "power"})",
    R"({"workload": "attention", "rows": 8, "cols": 8, "max_entry": 1})",
};

/// Strips the per-connection query index and the arrival-order-dependent
/// cache counters (same canonicalization as tools/chaos_runner).
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

std::vector<std::string> referenceLines() {
  driver::ExplorationDaemon daemon;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < std::size(kQueries); ++i) {
    auto request = driver::wire::parseRequest(support::parseJsonLine(kQueries[i]));
    const std::string backend = cost::backendKindName(request.query->backend);
    const std::string objective = driver::objectiveName(request.query->objective);
    const auto outcome = daemon.runOne("ref", std::move(*request.query));
    TL_CHECK(outcome.has_value() && !outcome->failed(), "reference query failed");
    lines.push_back(canonical(driver::wire::resultLine(
        i, request.name, backend, objective, *outcome->result, 16)));
  }
  daemon.shutdown();
  return lines;
}

/// Serves `connections` x `itersPerConnection` requests from a fresh daemon
/// and server; returns the wall time of the traffic in ms.
double benchConnections(int connections, int itersPerConnection,
                        const std::vector<std::string>& expected) {
  driver::DaemonOptions dopts;
  dopts.workers = 2;
  dopts.queueBound = 256;
  dopts.perClientQueueBound = 32;
  driver::ExplorationDaemon daemon(dopts);
  driver::SocketServerOptions sopts;
  sopts.port = 0;  // ephemeral
  driver::SocketServer server(daemon, sopts);
  TL_CHECK(server.start(), "socket server failed to start: " + server.lastError());

  std::vector<std::thread> clients;
  std::vector<std::string> errors(connections);
  const auto t = Clock::now();
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      driver::ClientOptions copts;
      copts.port = server.port();
      driver::ExploreClient client(copts);
      for (int i = 0; i < itersPerConnection; ++i) {
        const std::size_t q = i % std::size(kQueries);
        const auto response = client.request(kQueries[q]);
        if (!response.has_value()) {
          errors[c] = "request exhausted attempts";
          return;
        }
        if (canonical(*response) != expected[q]) {
          errors[c] = "response diverged from reference";
          return;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  const double ms = msSince(t);
  for (const auto& error : errors) TL_CHECK(error.empty(), error);

  server.close("");
  daemon.shutdown();
  return ms;
}

}  // namespace

Section runSocket(const RunConfig& run) {
  const auto expected = referenceLines();
  const int iters = run.smoke ? 8 : 200;
  constexpr int kConnections[] = {1, 8};
  std::vector<double> ms[2];
  for (int rep = 0; rep < run.reps; ++rep)
    for (int i = 0; i < 2; ++i)
      ms[i].push_back(benchConnections(kConnections[i], iters, expected));

  std::ostringstream line;
  line << "\"socket\": {\"iters_per_connection\": " << iters;
  double perSec[2];
  for (int i = 0; i < 2; ++i) {
    const int requests = kConnections[i] * iters;
    const double medianMs = median(ms[i]);
    perSec[i] = requests / (medianMs / 1000.0);
    std::printf(
        "  socket      %d connection%s | %d requests in %.1f ms (%.0f req/s) "
        "[all responses canonically identical to reference]\n",
        kConnections[i], kConnections[i] == 1 ? " " : "s", requests,
        medianMs, perSec[i]);
    line << ", \"conns_" << kConnections[i]
         << "_req_per_sec\": " << perSec[i];
  }
  const double ratio = perSec[1] / perSec[0];
  const bool pass = run.smoke || ratio >= kGateMinConcurrentRatio;
  line << ", \"concurrent_ratio\": " << ratio
       << ", \"gate_min_concurrent_ratio\": " << kGateMinConcurrentRatio
       << ", \"pass\": " << (pass ? "true" : "false") << "}";
  return {line.str(), pass};
}

}  // namespace tensorlib::bench::hotpaths
