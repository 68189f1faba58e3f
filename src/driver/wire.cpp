#include "driver/wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/network.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::driver::wire {

namespace {

Objective requireObjective(const std::string& name) {
  const auto o = parseObjective(name);
  if (!o)
    fail("unknown objective '" + name +
         "' (expected performance|power|energy-delay)");
  return *o;
}

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// The integer field `field` of `obj`, if present, range-checked.
std::optional<std::int64_t> rangedInt(const support::JsonObject& obj,
                                      const char* field, Range range) {
  const auto v = obj.getInt(field);
  if (v) checkRange(field, *v, range);
  return v;
}

/// The check behind every real-valued setting (bandwidth_gbps,
/// frequency_mhz and their flags): returns `value`, or throws naming
/// `field` unless it is finite and > 0.
double checkPositive(const char* field, double value) {
  if (std::isfinite(value) && value > 0.0) return value;
  fail(std::string(field) + " must be > 0, got " + std::to_string(value));
}

/// The number field `field` of `obj`, if present; it must be finite and > 0.
std::optional<double> positiveDouble(const support::JsonObject& obj,
                                     const char* field) {
  const auto v = obj.getDouble(field);
  if (v) checkPositive(field, *v);
  return v;
}

/// Applies the target fields an operator query and a network query share:
/// objective, cost backend and its settings, and the STT entry range.
template <typename Query>
void parseTargetFields(const support::JsonObject& obj, Query* q) {
  if (const auto v = obj.getString("objective"))
    q->objective = requireObjective(*v);
  if (const auto v = obj.getString("backend")) {
    const auto kind = cost::parseBackendKind(*v);
    if (!kind) fail("unknown backend '" + *v + "' (expected asic|fpga)");
    q->backend = *kind;
  }
  if (const auto v = rangedInt(obj, "data_width", kDataWidthRange))
    q->dataWidth = static_cast<int>(*v);
  if (const auto v = obj.getInt("max_entry"))
    q->enumeration.maxEntry = checkMaxEntry(*v);
  if (const auto v = obj.getBool("fp32")) q->fpga.fp32 = *v;
  if (const auto v = rangedInt(obj, "vector_lanes", kVectorLanesRange))
    q->fpga.vectorLanes = *v;
  if (const auto v = obj.getBool("placement_optimized"))
    q->fpga.placementOptimized = *v;
}

/// Applies the array fields every request kind shares.
void parseArrayFields(const support::JsonObject& obj, stt::ArrayConfig* array) {
  if (const auto v = rangedInt(obj, "rows", kArraySideRange)) array->rows = *v;
  if (const auto v = rangedInt(obj, "cols", kArraySideRange)) array->cols = *v;
  if (const auto v = positiveDouble(obj, "bandwidth_gbps"))
    array->bandwidthGBps = *v;
  if (const auto v = positiveDouble(obj, "frequency_mhz"))
    array->frequencyMHz = *v;
  if (const auto v = rangedInt(obj, "data_bytes", kDataBytesRange))
    array->dataBytes = *v;
}

ExploreQuery parseQuery(const support::JsonObject& obj) {
  const auto workload = obj.getString("workload");
  if (!workload) fail("query missing required field 'workload'");

  tensor::TensorAlgebra algebra = [&] {
    if (*workload == "gemm" && (obj.has("m") || obj.has("n") || obj.has("k")))
      return tensor::workloads::gemm(obj.getInt("m").value_or(64),
                                     obj.getInt("n").value_or(64),
                                     obj.getInt("k").value_or(64));
    const auto* named = tensor::workloads::findWorkload(*workload);
    if (!named)
      fail("unknown workload '" + *workload + "' (try --list-workloads)");
    return named->algebra;
  }();

  ExploreQuery q(std::move(algebra));
  if (const auto* named = tensor::workloads::findWorkload(*workload))
    q.enumeration.dropAllUnicast = !named->allowAllUnicast;

  parseTargetFields(obj, &q);
  parseArrayFields(obj, &q.array);
  if (const auto v = obj.getInt("deadline_ms")) q.deadlineMs = *v;
  return q;
}

NetworkQuery parseNetworkQuery(const support::JsonObject& obj) {
  tensor::NetworkSpec network = [&] {
    if (const auto name = obj.getString("network")) {
      const auto* builtin = tensor::workloads::findNetwork(*name);
      if (!builtin)
        fail("unknown network '" + *name +
             "' (see network_explorer --list-models)");
      return *builtin;
    }
    const auto file = obj.getString("network_file");
    if (!file) fail("network request needs 'network' or 'network_file'");
    return tensor::workloads::loadNetworkJsonl(*file);
  }();

  NetworkQuery q(std::move(network));
  stt::ArrayConfig base;
  parseArrayFields(obj, &base);
  if (const auto v = obj.getString("arrays"))
    q.arrays = parseArrayList(*v, base);
  else
    q.arrays = {base};
  parseTargetFields(obj, &q);
  return q;
}

/// Fills the ModelConformance fields of `request` from the line. The target
/// network comes from "model_conformance" (a builtin name) or, when that
/// field is `true`, from the usual "network" / "network_file" fields.
void parseModelConformance(const support::JsonObject& obj, Request* request) {
  request->kind = Request::Kind::ModelConformance;
  const auto name = obj.getString("model_conformance");
  if (name) {
    const auto* builtin = tensor::workloads::findNetwork(*name);
    if (!builtin)
      fail("unknown model '" + *name +
           "' (see network_explorer --list-models)");
    request->model = *builtin;
  } else if (const auto file = obj.getString("network_file")) {
    request->model = tensor::workloads::loadNetworkJsonl(*file);
  } else if (const auto net = obj.getString("network")) {
    const auto* builtin = tensor::workloads::findNetwork(*net);
    if (!builtin)
      fail("unknown network '" + *net +
           "' (see network_explorer --list-models)");
    request->model = *builtin;
  } else {
    fail("model_conformance request needs a model name, 'network', or "
         "'network_file'");
  }
  request->name = request->model->name();

  auto& o = request->modelOptions;
  parseArrayFields(obj, &o.array);
  if (const auto v = obj.getInt("data_seed"))
    o.dataSeed = static_cast<std::uint64_t>(*v);
  if (const auto v = rangedInt(obj, "threads",
                               {1, static_cast<std::int64_t>(kMaxThreads)}))
    o.threads = static_cast<std::size_t>(*v);
  if (const auto v = rangedInt(obj, "data_width", kDataWidthRange))
    o.dataWidth = static_cast<int>(*v);
  if (const auto v = obj.getInt("max_entry"))
    o.enumeration.maxEntry = checkMaxEntry(*v);
  if (const auto v = obj.getBool("tamper_rtl_tape")) o.tamperRtlTape = *v;
  if (const auto v = obj.getBool("also_legacy")) o.alsoLegacy = *v;
}

void appendNetworkDesign(std::ostringstream& os, const NetworkQuery& q,
                         const NetworkDesign& d) {
  const auto& array = q.arrays[d.arrayIndex];
  os << "{\"array\": \"" << array.rows << "x" << array.cols
     << "\", \"cycles\": " << d.cost.cycles << ", \"power_mw\": "
     << d.cost.powerMw << ", \"area\": " << d.cost.area
     << ", \"utilization\": " << d.cost.utilization << ", \"assignments\": [";
  for (std::size_t l = 0; l < d.layers.size(); ++l) {
    const auto& layer = d.layers[l];
    os << (l ? ", " : "") << "{\"layer\": \""
       << support::jsonEscape(layer.layer) << "\", \"dataflow\": \""
       << support::jsonEscape(layer.dataflow) << "\", \"cycles\": "
       << layer.cycles << "}";
  }
  os << "]}";
}

}  // namespace

std::int64_t checkRange(const char* field, std::int64_t value, Range range) {
  if (value >= range.lo && value <= range.hi) return value;
  const std::string accepted =
      range.hi == kInt64Max ? ">= " + std::to_string(range.lo)
                            : "in [" + std::to_string(range.lo) + ", " +
                                  std::to_string(range.hi) + "]";
  fail(std::string(field) + " must be " + accepted + ", got " +
       std::to_string(value));
}

int checkMaxEntry(std::int64_t value) {
  return static_cast<int>(checkRange("max_entry", value, kMaxEntryRange));
}

std::int64_t parseIntFlag(const char* flag, const std::string& text,
                          Range range) {
  const bool negative = !text.empty() && text[0] == '-';
  const auto magnitude = parseCount(text.substr(negative ? 1 : 0),
                                    static_cast<std::size_t>(kInt64Max));
  if (!magnitude)
    fail(std::string(flag) + " needs an integer, got '" + text + "'");
  const auto value = static_cast<std::int64_t>(*magnitude);
  return checkRange(flag, negative ? -value : value, range);
}

double parsePositiveFlag(const char* flag, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size())
    fail(std::string(flag) + " needs a number, got '" + text + "'");
  return checkPositive(flag, value);  // an overflow reads as inf
}

std::optional<std::size_t> parseCount(const std::string& text,
                                      std::size_t max) {
  if (text.empty()) return std::nullopt;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

Request parseRequest(const support::JsonObject& obj) {
  Request request;
  if (obj.getBool("shutdown").value_or(false)) {
    request.kind = Request::Kind::Shutdown;
    return request;
  }
  if (obj.getBool("cache_stats").value_or(false)) {
    request.kind = Request::Kind::CacheStats;
    return request;
  }
  if (obj.has("model_conformance")) {
    parseModelConformance(obj, &request);
    return request;
  }
  if (obj.has("network") || obj.has("network_file")) {
    request.kind = Request::Kind::Network;
    request.network = parseNetworkQuery(obj);
    request.name = request.network->network.name();
    return request;
  }
  request.kind = Request::Kind::Query;
  request.query = parseQuery(obj);
  request.name = *obj.getString("workload");
  return request;
}

std::string errorLine(std::size_t index, const std::string& message) {
  std::ostringstream os;
  os << "{\"query\": " << index << ", \"error\": \""
     << support::jsonEscape(message) << "\"}";
  return os.str();
}

std::string resultLine(std::size_t index, const std::string& workload,
                       const std::string& backend, const std::string& objective,
                       const QueryResult& r, std::size_t maxFrontier) {
  std::ostringstream os;
  os << "{\"query\": " << index << ", \"workload\": \""
     << support::jsonEscape(workload) << "\", \"backend\": \"" << backend
     << "\", \"objective\": \"" << objective << "\", \"designs\": " << r.designs
     << ", \"frontier_size\": " << r.frontier.size() << ", \"frontier\": [";
  const std::size_t shown = std::min(maxFrontier, r.frontier.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& rep = r.frontier[i];
    const auto f = rep.figures();
    os << (i ? ", " : "") << "{\"label\": \""
       << support::jsonEscape(rep.spec.label()) << "\", \"cycles\": "
       << rep.perf.totalCycles << ", \"power_mw\": " << f.powerMw
       << ", \"area\": " << f.area << ", \"utilization\": "
       << rep.perf.utilization << "}";
  }
  os << "]";
  if (r.best)
    os << ", \"best\": \"" << support::jsonEscape(r.best->spec.label()) << "\"";
  if (r.timedOut) os << ", \"timed_out\": true";
  os << ", \"cache\": {\"hits\": " << r.cache.hits << ", \"misses\": "
     << r.cache.misses << ", \"pruned\": " << r.cache.pruned
     << ", \"skipped\": " << r.cache.skipped << "}}";
  return os.str();
}

std::string networkResultLine(std::size_t index, const std::string& name,
                              const NetworkQuery& q, const NetworkResult& r,
                              std::size_t maxFrontier) {
  QueryCacheCounts cache;
  for (const auto& s : r.layers) {
    cache.hits += s.cache.hits;
    cache.misses += s.cache.misses;
    cache.pruned += s.cache.pruned;
  }
  std::ostringstream os;
  os << "{\"query\": " << index << ", \"network\": \""
     << support::jsonEscape(name) << "\", \"layers\": "
     << q.network.layerCount() << ", \"arrays\": " << q.arrays.size()
     << ", \"backend\": \"" << cost::backendKindName(q.backend)
     << "\", \"objective\": \"" << objectiveName(q.objective)
     << "\", \"designs\": " << r.designs << ", \"frontier_size\": "
     << r.frontier.size() << ", \"frontier\": [";
  const std::size_t shown = std::min(maxFrontier, r.frontier.size());
  for (std::size_t i = 0; i < shown; ++i) {
    if (i) os << ", ";
    appendNetworkDesign(os, q, r.frontier[i]);
  }
  os << "]";
  if (r.best) {
    os << ", \"best\": ";
    appendNetworkDesign(os, q, *r.best);
  }
  os << ", \"cache\": {\"hits\": " << cache.hits << ", \"misses\": "
     << cache.misses << ", \"pruned\": " << cache.pruned << "}}";
  return os.str();
}

std::string modelConformanceResultLine(
    std::size_t index, const verify::ModelConformanceReport& report) {
  std::ostringstream os;
  os << "{\"query\": " << index << ", \"model_conformance\": \""
     << support::jsonEscape(report.model) << "\", \"pass\": "
     << (report.pass() ? "true" : "false") << ", \"layers\": "
     << report.picks.size() << ", \"data_seed\": " << report.dataSeed
     << ", \"threads\": " << report.threads;
  if (report.error.empty()) {
    os << ", \"cycles\": " << report.cyclesRun << ", \"stall_slots\": "
       << report.stallSlots << ", \"buffer_capacities\": [";
    for (std::size_t i = 0; i < report.bufferCapacities.size(); ++i)
      os << (i ? ", " : "") << report.bufferCapacities[i];
    os << "], \"assignments\": [";
    for (std::size_t i = 0; i < report.picks.size(); ++i) {
      const auto& pick = report.picks[i];
      os << (i ? ", " : "") << "{\"layer\": \""
         << support::jsonEscape(pick.layer) << "\", \"dataflow\": \""
         << support::jsonEscape(pick.used) << "\"";
      if (pick.substituted) os << ", \"substituted\": true";
      os << "}";
    }
    os << "]";
  }
  if (report.divergence) {
    const auto& d = *report.divergence;
    os << ", \"divergence\": {\"layer\": \"" << support::jsonEscape(d.layer)
       << "\", \"layer_index\": " << d.layerIndex << ", \"element\": [";
    for (std::size_t i = 0; i < d.element.size(); ++i)
      os << (i ? ", " : "") << d.element[i];
    os << "], \"cycle\": " << d.cycle << ", \"expected\": " << d.expected
       << ", \"actual\": " << d.actual << ", \"engine\": \""
       << support::jsonEscape(d.engine) << "\"}";
  }
  if (!report.error.empty())
    os << ", \"error\": \"" << support::jsonEscape(report.error) << "\"";
  os << "}";
  return os.str();
}

std::string cacheStatsJson(const CacheStats& stats) {
  const auto cand = stt::candidateCacheStats();
  std::ostringstream os;
  os << "{\"hits\": " << stats.hits << ", \"misses\": " << stats.misses
     << ", \"evictions\": " << stats.evictions << ", \"entries\": "
     << stats.entries << ", \"shards\": " << stats.shards
     << ", \"mappings\": {\"hits\": " << stats.mappings.hits
     << ", \"misses\": " << stats.mappings.misses
     << "}, \"candidates\": {\"hits\": " << cand.hits << ", \"misses\": "
     << cand.misses << ", \"evictions\": " << cand.evictions
     << ", \"entries\": " << cand.entries << "}}";
  return os.str();
}

std::string shutdownSummaryLine(const DaemonStats& stats,
                                const CacheStats& cache) {
  std::ostringstream os;
  os << "{\"shutdown\": {\"accepted\": " << stats.accepted
     << ", \"rejected_overloaded\": " << stats.rejectedOverloaded
     << ", \"completed\": " << stats.completed << ", \"failed\": "
     << stats.failed << ", \"timed_out\": " << stats.timedOut
     << ", \"cancelled\": " << stats.cancelled << ", \"snapshots_saved\": "
     << stats.snapshotsSaved << ", \"snapshot_failures\": "
     << stats.snapshotFailures << ", \"cache\": " << cacheStatsJson(cache)
     << "}}";
  return os.str();
}

}  // namespace tensorlib::driver::wire
