// explore_server: batched exploration over a JSON-lines request stream.
//
//   explore_server --file queries.jsonl          # batch from a file
//   cat queries.jsonl | explore_server           # batch from stdin
//   explore_server --serve --snapshot warm.snap  # resident daemon, stdio
//   explore_server --serve --port 7421           # resident daemon, TCP
//   explore_server --serve --unix-socket /tmp/explore.sock
//   explore_server --list-workloads
//
// Three request kinds share one stream (docs/PROTOCOL.md is the full
// schema):
//
//   * batch query — one operator on one array:
//       {"workload": "gemm", "rows": 8, "cols": 8,
//        "objective": "power", "backend": "fpga", "max_entry": 1}
//   * network query — a whole multi-layer model on shared candidate
//     arrays, marked by a "network" (built-in model) or "network_file"
//     (JSONL model description) field:
//       {"network": "resnet-block", "arrays": "8x8,16x16",
//        "objective": "performance"}
//   * model-conformance request — run the stitched-model differential
//     oracle (explore every layer, stitch the winners into one compiled
//     netlist, execute, compare element-exactly against the composed
//     dense reference), marked by a "model_conformance" field:
//       {"model_conformance": "mlp-3", "data_seed": 7, "threads": 8}
//
// Batch mode runs the whole stream against ONE ExplorationService: plain
// queries as one batch, network queries through a NetworkExplorer borrowing
// the same service, so every request shares enumerations and design-point
// evaluations. Output is JSON lines, one result per request in input order,
// plus a trailing batch summary with service-wide cache stats. A malformed
// line yields a structured {"query": i, "error": "..."} response and the
// batch continues.
//
// --serve mode wraps an ExplorationDaemon instead: requests are admitted
// into a bounded, per-client-fair queue (or rejected with
// {"error": "overloaded"}), carry an optional "deadline_ms" field, and
// responses stream back in COMPLETION order keyed by "query". The daemon
// snapshots its warm caches on a timer and on graceful shutdown
// ({"shutdown": true}, or EOF on stdin) and restores them on start, so a
// restarted server answers warm. Every transport is a connection of one
// driver::SocketServer, each its own fairness client: with --port and/or
// --unix-socket it accepts N concurrent socket connections; without them
// it serves stdin/stdout as its one attached connection.
// tools/chaos_runner drives both through kill/restart/corrupt/disconnect
// cycles.
//
// Exit codes (uniform across the CLIs): 0 success, 1 exploration/runtime
// failure, 2 usage or request-parse errors (including any malformed or
// out-of-range batch line, even though the batch itself still completes,
// and any count flag that is not plain digits within its cap).
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "driver/daemon.hpp"
#include "driver/network_explorer.hpp"
#include "driver/socket_server.hpp"
#include "driver/wire.hpp"
#include "support/error.hpp"
#include "support/jsonl.hpp"
#include "support/net.hpp"
#include "tensor/workloads.hpp"
#include "verify/model_conformance.hpp"

extern "C" {
#include <unistd.h>
}

namespace {

using namespace tensorlib;

int usage() {
  std::printf(
      "usage: explore_server [--file F] [--threads N] [--max-frontier N]\n"
      "                      [--list-workloads]\n"
      "       explore_server --serve [--snapshot F] [--snapshot-interval-ms N]\n"
      "                      [--queue-bound N] [--client-queue-bound N]\n"
      "                      [--workers N] [--default-deadline-ms N]\n"
      "                      [--threads N] [--max-frontier N]\n"
      "                      [--port N] [--bind ADDR] [--unix-socket PATH]\n"
      "                      [--write-queue-bound N] [--send-buffer-bytes N]\n"
      "Reads one JSON request per line from --file (default stdin); runs\n"
      "the whole stream as one batched, cached exploration. A line with a\n"
      "'network' or 'network_file' field is a network-level request; a line\n"
      "with a 'model_conformance' field runs the stitched-model oracle. With\n"
      "--serve the server stays resident: bounded admission queue, optional\n"
      "deadlines, crash-safe cache snapshots; see docs/PROTOCOL.md. --port\n"
      "(0 = ephemeral) and/or --unix-socket serve concurrent socket\n"
      "connections instead of stdio.\n");
  return 2;
}

void reportRestore(const driver::ExplorationDaemon& daemon) {
  const auto& restore = daemon.restore();
  std::fprintf(stderr,
               "explore_server: serving (restore %s: %zu evals, "
               "%zu candidate lists%s%s)\n",
               driver::snapshot::restoreStatusName(restore.status).c_str(),
               restore.evalEntries, restore.candidateLists,
               restore.message.empty() ? "" : " — ",
               restore.message.c_str());
}

// ---- resident daemon mode ---------------------------------------------------

int serve(const driver::DaemonOptions& daemonOptions,
          const driver::SocketServerOptions& socketOptions) {
  // A stdout reader that goes away must drop the attached stream, not kill
  // the process before its final snapshot: sendAll falls back to write()
  // on a pipe, which raises SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  driver::ExplorationDaemon daemon(daemonOptions);
  reportRestore(daemon);
  driver::SocketServer server(daemon, socketOptions);
  if (socketOptions.port >= 0 || !socketOptions.unixSocketPath.empty()) {
    if (!server.start()) {
      std::fprintf(stderr, "error: %s\n", server.lastError().c_str());
      return 1;
    }
    if (server.port() >= 0)
      std::fprintf(stderr, "explore_server: listening on %s:%d\n",
                   socketOptions.bindAddress.c_str(), server.port());
    if (!socketOptions.unixSocketPath.empty())
      std::fprintf(stderr, "explore_server: listening on unix socket %s\n",
                   socketOptions.unixSocketPath.c_str());
  } else {
    server.attach(STDIN_FILENO, STDOUT_FILENO);
  }
  server.serveUntilShutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::size_t threads = 0, maxFrontier = 16;
  bool listWorkloads = false;
  bool serveMode = false;
  driver::DaemonOptions daemonOptions;
  driver::SocketServerOptions socketOptions;
  socketOptions.port = -1;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) { usage(); std::exit(2); }
        return argv[++i];
      };
      auto count = [&](std::size_t max =
                           std::numeric_limits<std::size_t>::max()) {
        const auto v = driver::wire::parseCount(next(), max);
        if (!v) { usage(); std::exit(2); }
        return *v;
      };
      if (a == "--file") file = next();
      else if (a == "--threads") threads = count(driver::wire::kMaxThreads);
      else if (a == "--max-frontier") maxFrontier = count();
      else if (a == "--list-workloads") listWorkloads = true;
      else if (a == "--serve") serveMode = true;
      else if (a == "--snapshot") daemonOptions.snapshotPath = next();
      else if (a == "--snapshot-interval-ms")
        daemonOptions.snapshotIntervalMs = driver::wire::parseIntFlag(
            "--snapshot-interval-ms", next(), driver::wire::kNonNegativeRange);
      else if (a == "--queue-bound") daemonOptions.queueBound = count();
      else if (a == "--client-queue-bound")
        daemonOptions.perClientQueueBound = count();
      else if (a == "--workers")
        daemonOptions.workers = count(driver::wire::kMaxThreads);
      else if (a == "--default-deadline-ms")
        daemonOptions.defaultDeadlineMs = driver::wire::parseIntFlag(
            "--default-deadline-ms", next(), driver::wire::kNonNegativeRange);
      else if (a == "--port")
        socketOptions.port = static_cast<int>(driver::wire::parseIntFlag(
            "--port", next(), driver::wire::kPortRange));
      else if (a == "--bind")
        socketOptions.bindAddress = support::net::checkEndpoint(
            "--bind", next(), support::net::EndpointKind::TcpHost);
      else if (a == "--unix-socket")
        socketOptions.unixSocketPath = support::net::checkEndpoint(
            "--unix-socket", next(), support::net::EndpointKind::UnixPath);
      else if (a == "--write-queue-bound")
        socketOptions.writeQueueBound = count();
      else if (a == "--send-buffer-bytes")
        socketOptions.sendBufferBytes =
            static_cast<int>(driver::wire::parseIntFlag(
                "--send-buffer-bytes", next(),
                {0, std::numeric_limits<int>::max()}));
      else return usage();
    }
  } catch (const Error& e) {  // a flag value malformed or out of range
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }

  if (listWorkloads) {
    for (const auto& w : tensor::workloads::allWorkloads())
      std::printf("%-20s %s\n", w.name.c_str(), w.algebra.str().c_str());
    return 0;
  }

  if (serveMode) {
    daemonOptions.service.threads = threads;
    socketOptions.maxFrontier = maxFrontier;
    try {
      return serve(daemonOptions, socketOptions);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  std::ifstream fileStream;
  if (!file.empty()) {
    fileStream.open(file);
    if (!fileStream) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 2;
    }
  }
  std::istream& in = file.empty() ? std::cin : fileStream;

  /// One parsed input line: exactly one of `request` / `error`.
  struct Parsed {
    std::optional<driver::wire::Request> request;
    std::string error;  ///< parse failure for this line (batch continues)
  };

  // Parse the whole stream up front. A malformed line becomes a Parsed
  // carrying its error: it still occupies its input-order slot (so "query"
  // indices line up), gets a structured error response, and the rest of
  // the batch runs; the process exits 2 at the end.
  std::vector<Parsed> requests;
  std::size_t parseErrors = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Parsed parsed;
    try {
      auto request = driver::wire::parseRequest(support::parseJsonLine(line));
      if (request.kind == driver::wire::Request::Kind::Shutdown ||
          request.kind == driver::wire::Request::Kind::CacheStats)
        fail("request is only available in --serve mode");
      parsed.request = std::move(request);
    } catch (const Error& e) {
      parsed.error = e.what();
      ++parseErrors;
    }
    requests.push_back(std::move(parsed));
  }
  if (requests.empty()) {
    std::fprintf(stderr, "no requests on input\n");
    return 2;
  }

  try {
    driver::ServiceOptions options;
    options.threads = threads;
    driver::ExplorationService service(options);

    // Plain queries run as ONE batch; network queries run through a
    // NetworkExplorer borrowing the same service, so the whole stream
    // shares one evaluation cache. Responses print in input order.
    std::vector<driver::ExploreQuery> batch;
    for (const Parsed& p : requests)
      if (p.request && p.request->kind == driver::wire::Request::Kind::Query)
        batch.push_back(*p.request->query);
    const auto batchResults = service.runBatch(batch);

    driver::NetworkExplorer explorer(service);
    std::size_t nextPlain = 0;
    std::size_t queries = 0, networks = 0, models = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Parsed& p = requests[i];
      if (!p.error.empty()) {
        std::printf("%s\n", driver::wire::errorLine(i, p.error).c_str());
      } else if (p.request->kind ==
                 driver::wire::Request::Kind::ModelConformance) {
        ++models;
        std::printf("%s\n",
                    driver::wire::modelConformanceResultLine(
                        i, verify::checkModel(*p.request->model,
                                              p.request->modelOptions))
                        .c_str());
      } else if (p.request->kind == driver::wire::Request::Kind::Query) {
        ++queries;
        std::printf(
            "%s\n",
            driver::wire::resultLine(
                i, p.request->name,
                cost::backendKindName(p.request->query->backend),
                driver::objectiveName(p.request->query->objective),
                batchResults[nextPlain++], maxFrontier)
                .c_str());
      } else {
        ++networks;
        const auto result = explorer.explore(*p.request->network);
        std::printf("%s\n",
                    driver::wire::networkResultLine(i, p.request->name,
                                                    *p.request->network, result,
                                                    maxFrontier)
                        .c_str());
      }
    }

    std::printf(
        "{\"batch\": {\"queries\": %zu, \"networks\": %zu, "
        "\"model_conformance\": %zu, \"errors\": %zu, \"cache\": %s}}\n",
        queries, networks, models, parseErrors,
        driver::wire::cacheStatsJson(service.cacheStats()).c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return parseErrors == 0 ? 0 : 2;
}
