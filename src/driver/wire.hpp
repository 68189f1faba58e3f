// Wire protocol for the exploration servers: one flat JSON object per
// line in each direction (docs/PROTOCOL.md is the full schema).
//
// This is the single codec behind every transport — the batch CLI and the
// one serve loop (driver/socket_server.*, which serves TCP, unix-domain
// sockets and stdin/stdout as connections alike) parse requests and format
// responses through these functions, so responses are bit-identical across
// transports by construction rather than by test alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "driver/daemon.hpp"
#include "driver/network_explorer.hpp"
#include "support/jsonl.hpp"
#include "verify/model_conformance.hpp"

namespace tensorlib::driver::wire {

/// One decoded request line. Exactly one kind is active; `query` /
/// `network` / `model` are engaged to match.
struct Request {
  enum class Kind {
    Query,             ///< one operator on one array (driver::ExploreQuery)
    Network,           ///< whole-model request (driver::NetworkQuery)
    ModelConformance,  ///< stitched-model oracle (verify::checkModel)
    CacheStats,        ///< {"cache_stats": true} control request
    Shutdown,          ///< {"shutdown": true} control request
  };

  Kind kind = Kind::Query;
  std::optional<ExploreQuery> query;
  std::optional<NetworkQuery> network;
  std::optional<tensor::NetworkSpec> model;  ///< ModelConformance target
  /// ModelConformance knobs (array/data_seed/threads/data_width; the
  /// oracle owns its own ExplorationService, isolated from the server's).
  verify::ModelConformanceOptions modelOptions;
  std::string name;  ///< workload or model name, echoed in the response
};

/// The most threads one request field or CLI flag may ask for (the
/// `threads` request field, --threads, --workers): far above what one host
/// can use, far below what it can start, so a single request line or flag
/// cannot exhaust the host's threads.
inline constexpr std::size_t kMaxThreads = 256;

/// The widest PE array side one request field or CLI flag may ask for
/// (`rows`, `cols`, --rows, --cols), and the most FPGA SIMD lanes per PE
/// (`vector_lanes`): far above the 64x64 arrays and 8 lanes explored
/// today, and small enough that every integer product the cost and
/// performance models form from these fields stays far inside int64 (the
/// largest, rows * cols * vector_lanes times a per-lane LUT count, is
/// below 2^36).
inline constexpr std::int64_t kMaxArraySide = 1024;
inline constexpr std::int64_t kMaxVectorLanes = 64;

/// An inclusive integer range.
struct Range {
  std::int64_t lo;
  std::int64_t hi;
};

/// The accepted range of every integer array and datapath setting, shared
/// by the request fields and the CLIs' flags of the same name.
inline constexpr Range kArraySideRange{1, kMaxArraySide};  ///< rows, cols
inline constexpr Range kDataBytesRange{1, INT64_MAX};
/// data_width: the RTL codecs shift by width - 1.
inline constexpr Range kDataWidthRange{1, 64};
inline constexpr Range kVectorLanesRange{1, kMaxVectorLanes};
/// max_entry: STT entries range over [-max_entry, max_entry].
inline constexpr Range kMaxEntryRange{1, std::numeric_limits<int>::max()};
/// Milliseconds and seeds, where 0 is a value ("off" for a budget, an
/// interval or a deadline) and a negative one has no meaning.
inline constexpr Range kNonNegativeRange{0, INT64_MAX};
/// TCP ports; 0 asks for an ephemeral one.
inline constexpr Range kPortRange{0, 65535};

/// The range check behind every integer request field and flag: returns
/// `value`, or throws tensorlib::Error naming `field` unless it lies in
/// `range`.
std::int64_t checkRange(const char* field, std::int64_t value, Range range);

/// Strict parse of an integer CLI flag (--rows, --data-width, ...): an
/// optional '-' and decimal digits, nothing else, within `range`. Throws
/// tensorlib::Error naming `flag` otherwise, overflow included.
std::int64_t parseIntFlag(const char* flag, const std::string& text,
                          Range range);

/// Strict parse of a real-valued CLI flag (--bandwidth-gbps,
/// --frequency-mhz): the whole text must be one number, finite and > 0
/// like the request field of the same name. Throws tensorlib::Error naming
/// `flag` otherwise.
double parsePositiveFlag(const char* flag, const std::string& text);

/// The one range check for a requested STT entry range, shared by every
/// `max_entry` request field and the CLIs' --max-entry flag: returns the
/// value as an int, or throws tensorlib::Error unless 1 <= value <= INT_MAX.
int checkMaxEntry(std::int64_t value);

/// Strict parse of a count-valued CLI flag (--threads, --workers,
/// --max-frontier, ...): decimal digits only — no sign, space or trailing
/// text — and at most `max`. nullopt on anything else, overflow included.
std::optional<std::size_t> parseCount(
    const std::string& text,
    std::size_t max = std::numeric_limits<std::size_t>::max());

/// Parses one already-decoded JSON line into a request. Throws
/// tensorlib::Error (with the offending field) on anything malformed —
/// the caller turns that into an errorLine() in the request's slot.
Request parseRequest(const support::JsonObject& obj);

/// {"query": i, "error": "..."}
std::string errorLine(std::size_t index, const std::string& message);

/// Response line for one completed plain query.
std::string resultLine(std::size_t index, const std::string& workload,
                       const std::string& backend, const std::string& objective,
                       const QueryResult& result, std::size_t maxFrontier);

/// Response line for one completed network query.
std::string networkResultLine(std::size_t index, const std::string& name,
                              const NetworkQuery& query,
                              const NetworkResult& result,
                              std::size_t maxFrontier);

/// Response line for one completed model-conformance request: verdict,
/// per-layer assignments (with substitutions), committed buffer depths,
/// and — on failure — the first divergent (layer, element, cycle).
std::string modelConformanceResultLine(
    std::size_t index, const verify::ModelConformanceReport& report);

/// Service-wide cache summary fragment: eval cache, tile-search traffic
/// (CacheStats::mappings) and the candidate-matrix memo.
std::string cacheStatsJson(const CacheStats& stats);

/// The closing {"shutdown": {...}} summary a draining server emits.
std::string shutdownSummaryLine(const DaemonStats& stats,
                                const CacheStats& cache);

}  // namespace tensorlib::driver::wire
