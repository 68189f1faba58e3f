// serve-mix: a closed loop with a fixed request count. Two ExploreClient
// connections drive an in-process ExplorationDaemon (2 workers) behind a
// SocketServer on loopback. Requests are a seeded Zipf draw over
// allWorkloads() x {8x8,16x16} x {performance,power} x {asic,fpga} at
// max_entry 1, so most are cache hits and cold misses set the tail. Every
// response is canonicalized and compared with an in-process runOne
// reference.
#include <malloc.h>

#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "driver/explore_client.hpp"
#include "driver/socket_server.hpp"
#include "driver/wire.hpp"
#include "inputs.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "support/jsonl.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace tensorlib;

constexpr int kClients = 2;
/// Requests per second of --seconds; sized so a run's timed phase lasts
/// about --seconds on a 4-core x86 host.
constexpr double kRequestsPerSecond = 50.0;
constexpr std::size_t kMaxFrontier = 16;
constexpr const char* kWarmUp =
    R"({"workload": "gemm", "rows": 4, "cols": 4, "max_entry": 1})";

driver::DaemonOptions daemonOptions(const RunConfig& config) {
  driver::DaemonOptions options;
  options.workers = 2;
  options.queueBound = 256;
  options.perClientQueueBound = 32;
  options.service.threads = config.threads;
  return options;
}

/// Strips the per-connection query index and the arrival-order-dependent
/// cache counters (the canonical form bench/socket_bench.cpp compares).
std::string canonical(const std::string& response) {
  std::string s = response;
  if (s.rfind("{\"query\": ", 0) == 0) {
    const auto comma = s.find(", ");
    if (comma != std::string::npos) s = "{" + s.substr(comma + 2);
  }
  const auto cache = s.rfind(", \"cache\": ");
  if (cache != std::string::npos && s.size() >= 2 &&
      s.compare(s.size() - 2, 2, "}}") == 0)
    s = s.substr(0, cache) + "}";
  return s;
}

/// The integer after `"field": ` in a response line; 0 when absent.
double intField(const std::string& line, const std::string& field) {
  const std::string key = "\"" + field + "\": ";
  const auto at = line.find(key);
  return at == std::string::npos ? 0.0 : std::stod(line.substr(at + key.size()));
}

/// A daemon behind a socket server with connected clients.
struct Server {
  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { stop(); }

  std::unique_ptr<driver::ExplorationDaemon> daemon;
  std::unique_ptr<driver::SocketServer> server;
  std::vector<std::unique_ptr<driver::ExploreClient>> clients;

  void start(const RunConfig& config) {
    daemon = std::make_unique<driver::ExplorationDaemon>(daemonOptions(config));
    driver::SocketServerOptions options;
    options.port = 0;  // ephemeral
    options.maxFrontier = kMaxFrontier;
    server = std::make_unique<driver::SocketServer>(*daemon, options);
    TL_CHECK(server->start(), "socket server failed to start: " + server->lastError());
    for (int c = 0; c < kClients; ++c) {
      driver::ClientOptions copts;
      copts.port = server->port();
      clients.push_back(std::make_unique<driver::ExploreClient>(copts));
      TL_CHECK(clients.back()->request(kWarmUp).has_value(), "warm-up request failed");
    }
  }

  void stop() {
    clients.clear();
    if (server) server->close("");
    if (daemon) daemon->shutdown();
    server.reset();
    daemon.reset();
  }
};

/// What one pass over the stream observed.
struct Pass {
  std::vector<double> latencyMs;
  /// Per key: canonical response -> how many requests got it.
  std::vector<std::map<std::string, std::size_t>> answers;
  std::size_t unanswered = 0;
  double designs = 0, pruned = 0, wallS = 0;
};

/// Drives the stream through the clients, `kClients` closed loops, client c
/// sending requests c, c + kClients, ... Traced passes open one op span per
/// request.
Pass drive(Server& server, const std::vector<ServeKey>& keys,
           const std::vector<std::size_t>& stream, bool traced) {
  std::vector<Pass> perClient(kClients);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      Pass& pass = perClient[c];
      pass.answers.resize(keys.size());
      driver::ExploreClient& client = *server.clients[c];
      for (std::size_t i = c; i < stream.size(); i += kClients) {
        const std::string line = keys[stream[i]].line();
        std::optional<std::string> response;
        const auto sent = Clock::now();
        {
          std::optional<Span> op;
          if (traced) op.emplace("serve.request", static_cast<int>(i));
          try {
            Span s("socket.request");
            response = client.request(line);
          } catch (const std::exception&) {
            response.reset();
          }
        }
        // The latency ends with the response; the check below is the
        // benchmark's own work.
        pass.latencyMs.push_back(msSince(sent));
        try {
          if (!response) {
            ++pass.unanswered;
          } else {
            ++pass.answers[stream[i]][canonical(*response)];
            pass.designs += intField(*response, "designs");
            pass.pruned += intField(*response, "pruned");
          }
        } catch (const std::exception&) {
          ++pass.unanswered;
        }
      }
    });
  for (auto& t : threads) t.join();
  Pass merged;
  merged.wallS = msSince(start) / 1e3;
  merged.answers.resize(keys.size());
  for (const Pass& p : perClient) {
    merged.latencyMs.insert(merged.latencyMs.end(), p.latencyMs.begin(), p.latencyMs.end());
    for (std::size_t k = 0; k < keys.size(); ++k)
      for (const auto& [answer, count] : p.answers[k]) merged.answers[k][answer] += count;
    merged.unanswered += p.unanswered;
    merged.designs += p.designs;
    merged.pruned += p.pruned;
  }
  return merged;
}

/// The in-process reference: runOne on a socket-free daemon, formatted by
/// the same codec, replaying `stream` in kClients closed loops.
struct Reference {
  std::vector<std::string> answers;            ///< canonical, per key
  std::vector<std::optional<driver::QueryResult>> results;  ///< per key
  std::vector<double> execMs;                  ///< every runOne latency
  double winnerCycles = 0;                     ///< summed over keys
};

Reference reference(const RunConfig& config, const std::vector<ServeKey>& keys,
                    const std::vector<std::size_t>& stream) {
  struct Loop {
    std::vector<std::optional<driver::QueryResult>> results;
    std::vector<double> latencies;
    std::string error;
  };
  std::vector<Loop> loops(kClients);
  driver::ExplorationDaemon daemon(daemonOptions(config));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      Loop& loop = loops[c];
      loop.results.resize(keys.size());
      try {
        for (std::size_t i = c; i < stream.size(); i += kClients) {
          const std::size_t k = stream[i];
          auto request = driver::wire::parseRequest(support::parseJsonLine(keys[k].line()));
          const auto start = Clock::now();
          auto outcome = daemon.runOne("ref", std::move(*request.query));
          loop.latencies.push_back(msSince(start));
          TL_CHECK(outcome.has_value() && !outcome->failed() && outcome->result->best,
                   "reference query failed: " + keys[k].line());
          if (!loop.results[k]) loop.results[k] = std::move(outcome->result);
        }
      } catch (const std::exception& e) {
        loop.error = e.what();
      }
    });
  for (auto& t : threads) t.join();
  daemon.shutdown();

  Reference ref;
  ref.answers.resize(keys.size());
  ref.results.resize(keys.size());
  for (Loop& loop : loops) {
    TL_CHECK(loop.error.empty(), loop.error);
    ref.execMs.insert(ref.execMs.end(), loop.latencies.begin(), loop.latencies.end());
    for (std::size_t k = 0; k < keys.size(); ++k)
      if (!ref.results[k] && loop.results[k]) ref.results[k] = std::move(loop.results[k]);
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    TL_CHECK(ref.results[k].has_value(), "key missing from the stream: " + keys[k].line());
    ref.answers[k] = canonical(driver::wire::resultLine(
        0, keys[k].workload, keys[k].backend, keys[k].objective, *ref.results[k],
        kMaxFrontier));
    ref.winnerCycles += static_cast<double>(ref.results[k]->best->perf.totalCycles);
  }
  return ref;
}

/// Requests whose canonical response differs from the reference.
std::size_t mismatches(const Pass& pass, const std::vector<std::string>& expected) {
  std::size_t wrong = pass.unanswered;
  for (std::size_t k = 0; k < expected.size(); ++k)
    for (const auto& [answer, count] : pass.answers[k])
      if (answer != expected[k]) wrong += count;
  return wrong;
}

void recordOps(RunResult* run, std::size_t requests, std::size_t failed) {
  for (std::size_t i = 0; i < requests; ++i) run->ops.record(i >= failed);
}

}  // namespace

RunResult runServeMix(const RunConfig& config) {
  RunResult run;
  const std::vector<ServeKey> keys = serveKeys();
  std::vector<std::size_t> stream;
  Server server;
  timeSetups(
      [&] {
        server.stop();
        stt::clearCandidateCache();
        const auto count = std::max<std::size_t>(
            2 * keys.size(),
            static_cast<std::size_t>(kRequestsPerSecond * config.seconds));
        stream = serveStream(config.seed, count, keys.size());
        server.start(config);
      },
      &run.phase.setupS);

  malloc_trim(0);  // both passes start from a trimmed heap
  Pass pass = drive(server, keys, stream, false);
  run.phase.peakRssMb = peakRssMb();
  const driver::DaemonStats daemonStats = server.daemon->stats();
  server.stop();
  run.phase.opMs = pass.latencyMs;
  run.phase.wallS = pass.wallS;
  run.phase.designs = pass.designs;

  // Untraced runs answer each key once; traced runs replay the whole
  // stream to time runOne without the socket.
  std::vector<std::size_t> distinct(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) distinct[k] = k;
  const Reference ref = reference(config, keys, config.trace ? stream : distinct);
  run.phase.winnerCycles = ref.winnerCycles;
  const std::size_t wrong = mismatches(pass, ref.answers);
  recordOps(&run, stream.size(), wrong);
  run.notes.push_back(std::to_string(stream.size()) + " requests over " +
                      std::to_string(keys.size()) + " keys, " +
                      std::to_string(wrong) + " wrong or unanswered, " +
                      std::to_string(daemonStats.rejectedOverloaded) + " rejected");
  if (!config.trace) return run;

  // Traced pass: the same stream on a fresh daemon and server.
  Server tracedServer;
  stt::clearCandidateCache();
  tracedServer.start(config);
  malloc_trim(0);
  setTracing(true);
  const Pass traced = drive(tracedServer, keys, stream, true);
  const auto spans = recordedSpans();
  const driver::DaemonStats tracedDaemon = tracedServer.daemon->stats();
  const driver::CacheStats cache = tracedServer.daemon->service().cacheStats();
  const driver::SocketServerStats socketStats = tracedServer.server->stats();
  double retries = 0;
  for (const auto& client : tracedServer.clients)
    retries += static_cast<double>(client->stats().retries);
  tracedServer.stop();
  recordOps(&run, stream.size(), mismatches(traced, ref.answers));

  // Codec probes on the same stream: request parsing and response
  // formatting, per line.
  double parseUs = 0, formatUs = 0;
  {
    Span s("wire.parse");
    const auto start = Clock::now();
    for (const std::size_t k : stream)
      (void)driver::wire::parseRequest(support::parseJsonLine(keys[k].line()));
    parseUs = 1e3 * msSince(start) / static_cast<double>(stream.size());
  }
  {
    Span s("wire.format");
    const auto start = Clock::now();
    for (const std::size_t k : stream)
      (void)driver::wire::resultLine(0, keys[k].workload, keys[k].backend,
                                     keys[k].objective, *ref.results[k], kMaxFrontier);
    formatUs = 1e3 * msSince(start) / static_cast<double>(stream.size());
  }
  // Enumeration alone for the key set's algebras, from a cold memo.
  double candidates = 0, specs = 0;
  stt::clearCandidateCache();
  {
    Span s("stt.candidates");
    candidates = static_cast<double>(
        stt::candidateTransformMatrices(stt::EnumerationOptions{})->size());
  }
  {
    std::vector<driver::ExploreQuery> queries;
    for (const ServeKey& key : keys)
      queries.push_back(
          *driver::wire::parseRequest(support::parseJsonLine(key.line())).query);
    specs = enumerateDistinct(queries);
  }
  const auto probes = recordedSpans();

  double untracedMs = 0, tracedMs = 0;
  for (const double ms : pass.latencyMs) untracedMs += ms;
  for (const double ms : traced.latencyMs) tracedMs += ms;
  const double requests = static_cast<double>(stream.size());
  run.layers = {
      {"stt.candidates_ms", spanTotalMs(probes, "stt.candidates")},
      {"stt.candidates", candidates},
      {"stt.enumerate_ms", spanTotalMs(probes, "stt.enumerate")},
      {"stt.specs", specs},
      {"service.designs", traced.designs / requests},
      {"service.cache_hits", static_cast<double>(cache.hits) / requests},
      {"service.cache_misses", static_cast<double>(cache.misses) / requests},
      {"service.cache_evictions", static_cast<double>(cache.evictions) / requests},
      {"service.pruned", traced.pruned / requests},
      {"service.prune_ratio", traced.designs > 0 ? traced.pruned / traced.designs : 0},
      {"service.mapping_memo_hits", static_cast<double>(cache.mappings.hits) / requests},
      {"wire.parse_us", parseUs},
      {"wire.format_us", formatUs},
      {"daemon.exec_ms", median(ref.execMs)},
      {"socket.overhead_ms", median(pass.latencyMs) - median(ref.execMs)},
      {"daemon.rejected", static_cast<double>(tracedDaemon.rejectedOverloaded)},
      {"daemon.timed_out", static_cast<double>(tracedDaemon.timedOut)},
      {"socket.dropped",
       static_cast<double>(socketStats.dropped + socketStats.droppedSlowReader)},
      {"client.retries", retries},
      {"trace.coverage", opCoverage(spans)},
      {"trace.overhead_pct", overheadPct(untracedMs, tracedMs)},
  };
  return run;
}

}  // namespace perfbench
