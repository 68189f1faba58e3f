// explore_client: command-line front-end for driver::ExploreClient — the
// retrying JSONL client that talks to a resident explore_server.
//
//   # spawn and own a server child, talk to it over TCP:
//   explore_client --server ./explore_server --port 7421 \
//       --file queries.jsonl --cache-stats --shutdown
//
//   # connect to a server somebody else runs:
//   explore_client --connect 127.0.0.1:7421 --file queries.jsonl
//   explore_client --unix-socket /tmp/explore.sock --file queries.jsonl
//
//   # no socket flags: spawn the child and speak stdio pipes (back-compat
//   # transport, same retry discipline):
//   explore_client --server ./explore_server --file queries.jsonl --shutdown
//
// Request lines come from --file (default stdin); each is sent through
// ExploreClient::request() — which retries through overload rejections,
// truncated responses, and transport death — and the matching response
// line is printed to stdout. --cache-stats appends a {"cache_stats": true}
// probe after the batch; --shutdown asks the server down gracefully and
// prints its shutdown summary. Exit codes: 0 all requests answered,
// 1 a request exhausted its attempts, 2 usage errors.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "driver/explore_client.hpp"
#include "driver/wire.hpp"
#include "support/error.hpp"
#include "support/net.hpp"

namespace {

int usage() {
  std::printf(
      "usage: explore_client [--server BIN] [--port N] [--unix-socket PATH]\n"
      "                      [--connect HOST:PORT] [--file F] [--cache-stats]\n"
      "                      [--shutdown] [--max-attempts N] [--snapshot F]\n"
      "Sends one JSON request per line from --file (default stdin) to a\n"
      "resident explore_server and prints one response line per request.\n"
      "--server spawns and owns the child (add --port/--unix-socket for the\n"
      "socket transport, --snapshot to pass a snapshot path through);\n"
      "--connect/--unix-socket alone attach to an already-running server.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using tensorlib::driver::ClientOptions;
  using tensorlib::driver::ExploreClient;
  using tensorlib::support::net::EndpointKind;
  namespace wire = tensorlib::driver::wire;

  std::string serverBinary;
  std::string connect;
  std::string snapshot;
  std::string file;
  ClientOptions options;
  bool cacheStats = false;
  bool shutdown = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) { usage(); std::exit(2); }
        return argv[++i];
      };
      if (a == "--server") serverBinary = next();
      else if (a == "--port")
        options.port = static_cast<int>(
            wire::parseIntFlag("--port", next(), wire::kPortRange));
      else if (a == "--unix-socket")
        options.unixSocketPath = tensorlib::support::net::checkEndpoint(
            "--unix-socket", next(), EndpointKind::UnixPath);
      else if (a == "--connect") connect = next();
      else if (a == "--file") file = next();
      else if (a == "--cache-stats") cacheStats = true;
      else if (a == "--shutdown") shutdown = true;
      else if (a == "--max-attempts")
        options.maxAttempts = static_cast<int>(wire::parseIntFlag(
            "--max-attempts", next(), {1, std::numeric_limits<int>::max()}));
      else if (a == "--snapshot") snapshot = next();
      else return usage();
    }
    if (!connect.empty()) {
      const auto colon = connect.rfind(':');
      if (colon == std::string::npos || !serverBinary.empty()) return usage();
      options.host = tensorlib::support::net::checkEndpoint(
          "--connect", connect.substr(0, colon), EndpointKind::TcpHost);
      options.port = static_cast<int>(wire::parseIntFlag(
          "--connect", connect.substr(colon + 1), {1, 65535}));
    }
  } catch (const tensorlib::Error& e) {  // a flag value malformed or out of range
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }
  if (!serverBinary.empty()) {
    options.command = {serverBinary, "--serve"};
    if (options.port >= 0) {
      options.command.push_back("--port");
      options.command.push_back(std::to_string(options.port));
    }
    if (!options.unixSocketPath.empty()) {
      options.command.push_back("--unix-socket");
      options.command.push_back(options.unixSocketPath);
    }
    if (!snapshot.empty()) {
      options.command.push_back("--snapshot");
      options.command.push_back(snapshot);
    }
  }
  if (serverBinary.empty() && connect.empty() && options.unixSocketPath.empty())
    return usage();
  if (!serverBinary.empty() && options.port == 0) {
    // The child picks a port the parent has no way to learn.
    std::fprintf(stderr,
                 "explore_client: --server needs an explicit --port (not 0)\n");
    return 2;
  }

  ExploreClient client(std::move(options));
  if (!client.start()) {
    std::fprintf(stderr, "explore_client: cannot reach the server\n");
    return 1;
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

  int exitCode = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto response = client.request(line);
    if (!response.has_value()) {
      std::fprintf(stderr, "explore_client: request failed: %s\n",
                   line.c_str());
      exitCode = 1;
      continue;
    }
    std::printf("%s\n", response->c_str());
  }

  if (cacheStats) {
    const auto response = client.request("{\"cache_stats\": true}");
    if (response.has_value()) {
      std::printf("%s\n", response->c_str());
    } else {
      std::fprintf(stderr, "explore_client: cache_stats request failed\n");
      exitCode = 1;
    }
  }

  if (shutdown) {
    // Ask the server down and echo everything it says on the way (the
    // shutdown summary arrives on this connection); stop() then reaps the
    // child if we own one.
    if (client.sendLine("{\"shutdown\": true}")) {
      while (const auto tail = client.readLine()) {
        if (client.lastLineComplete()) std::printf("%s\n", tail->c_str());
      }
    }
    client.stop();
  }
  return exitCode;
}
