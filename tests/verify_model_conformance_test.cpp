// Model-level differential oracle: built-in models explored per layer,
// stitched into ONE compiled-tape netlist with inter-layer buffers, and
// executed element-exactly against the composed dense reference — at one
// and at eight service threads (the winner assignment, and therefore the
// verdict, must be thread-count invariant). Plus the fault-injection
// localization contract, the JSONL model path, and the seeded network
// fuzzer + shrinker built on the same oracle.
#include "verify/model_conformance.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "arch/model.hpp"
#include "driver/wire.hpp"
#include "support/jsonl.hpp"
#include "verify/network_fuzz.hpp"

namespace tensorlib::verify {
namespace {

namespace wl = tensor::workloads;

const tensor::NetworkSpec& builtin(const std::string& name) {
  const tensor::NetworkSpec* model = wl::findNetwork(name);
  EXPECT_NE(model, nullptr) << name;
  return *model;
}

ModelConformanceOptions withThreads(std::size_t threads) {
  ModelConformanceOptions o;
  o.threads = threads;
  return o;
}

// The acceptance matrix: three stitched builtin models (including the
// eight-layer resnet-deep) element-exact against the composed reference at
// {1, 8} exploration threads, with identical per-layer assignments.
TEST(ModelConformance, BuiltinModelsConformAtOneAndEightThreads) {
  for (const char* name : {"resnet-deep", "transformer-stack", "mlp-3"}) {
    std::vector<std::vector<ModelLayerPick>> picks;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const ModelConformanceReport report =
          checkModel(builtin(name), withThreads(threads));
      EXPECT_TRUE(report.pass()) << report.summary();
      EXPECT_GT(report.cyclesRun, 0) << report.summary();
      picks.push_back(report.picks);
    }
    ASSERT_EQ(picks[0].size(), picks[1].size()) << name;
    for (std::size_t l = 0; l < picks[0].size(); ++l) {
      EXPECT_EQ(picks[0][l].used, picks[1][l].used)
          << name << " layer " << picks[0][l].layer
          << ": assignment differs across thread counts";
    }
  }
}

TEST(ModelConformance, DeepModelHasAtLeastEightLayers) {
  EXPECT_GE(builtin("resnet-deep").layerCount(), 8u);
  const ModelConformanceReport report =
      checkModel(builtin("resnet-deep"), withThreads(1));
  EXPECT_TRUE(report.pass()) << report.summary();
  EXPECT_EQ(report.picks.size(), builtin("resnet-deep").layerCount());
  EXPECT_EQ(report.bufferCapacities.size(),
            builtin("resnet-deep").layerCount() - 1);
  for (const std::int64_t capacity : report.bufferCapacities)
    EXPECT_GT(capacity, 0) << report.summary();
}

TEST(ModelConformance, RemainingBuiltinsAlsoStitchAndConform) {
  for (const char* name : {"resnet-block", "attention-block", "moe-mix"}) {
    const ModelConformanceReport report =
        checkModel(builtin(name), withThreads(1));
    EXPECT_TRUE(report.pass()) << report.summary();
  }
}

// Fault injection: corrupting the compiled tape's width masks must surface
// as a divergence that names a (layer, element, cycle) and carries the
// replay handle — the oracle's localization contract.
TEST(ModelConformance, TamperedTapeDivergesWithReplayHandle) {
  ModelConformanceOptions o = withThreads(1);
  o.tamperRtlTape = true;
  const ModelConformanceReport report = checkModel(builtin("mlp-3"), o);
  ASSERT_TRUE(report.divergence.has_value())
      << "tampered tape went undetected: " << report.summary();
  EXPECT_EQ(report.divergence->engine, "compiled");
  EXPECT_FALSE(report.divergence->layer.empty());
  EXPECT_GE(report.divergence->cycle, 0);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("DIVERGED"), std::string::npos) << summary;
  EXPECT_NE(summary.find("--model mlp-3"), std::string::npos) << summary;
  EXPECT_NE(summary.find("--data-seed"), std::string::npos) << summary;
}

// The stitched engine-vs-engine cross-check: compiled and legacy
// interpretations of the SAME merged netlist agree bit-exactly.
TEST(ModelConformance, LegacyEngineAgreesOnStitchedTop) {
  ModelConformanceOptions o = withThreads(1);
  o.alsoLegacy = true;
  const ModelConformanceReport report =
      checkModel(builtin("transformer-stack"), o);
  EXPECT_TRUE(report.pass()) << report.summary();
}

// The JSONL front door: a model described line by line stitches and
// conforms exactly like a builtin.
TEST(ModelConformance, JsonlModelConforms) {
  std::istringstream jsonl(
      "{\"model\": \"tiny-chain\"}\n"
      "{\"layer\": \"fc1\", \"workload\": \"gemm\", \"m\": 8, \"n\": 8, "
      "\"k\": 8}\n"
      "{\"layer\": \"fc2\", \"workload\": \"gemm\", \"m\": 8, \"n\": 4, "
      "\"k\": 8}\n");
  const tensor::NetworkSpec network =
      wl::parseNetworkJsonl(jsonl, "tiny-chain");
  const ModelConformanceReport report = checkModel(network, withThreads(1));
  EXPECT_TRUE(report.pass()) << report.summary();
  EXPECT_EQ(report.model, "tiny-chain");
}

// --- wire protocol --------------------------------------------------------

// The server-side request kind: {"model_conformance": ...} lines parse into
// a ModelConformance request carrying the oracle's options verbatim.
TEST(ModelConformance, WireRequestParsesOptionsAndTarget) {
  const auto request = driver::wire::parseRequest(support::parseJsonLine(
      "{\"model_conformance\": \"mlp-3\", \"data_seed\": 7, \"threads\": 8, "
      "\"rows\": 8, \"cols\": 8, \"data_width\": 16, "
      "\"tamper_rtl_tape\": true, \"also_legacy\": true}"));
  EXPECT_EQ(request.kind, driver::wire::Request::Kind::ModelConformance);
  ASSERT_TRUE(request.model.has_value());
  EXPECT_EQ(request.name, "mlp-3");
  EXPECT_EQ(request.modelOptions.dataSeed, 7u);
  EXPECT_EQ(request.modelOptions.threads, 8u);
  EXPECT_EQ(request.modelOptions.array.rows, 8);
  EXPECT_EQ(request.modelOptions.array.cols, 8);
  EXPECT_EQ(request.modelOptions.dataWidth, 16);
  EXPECT_TRUE(request.modelOptions.tamperRtlTape);
  EXPECT_TRUE(request.modelOptions.alsoLegacy);

  EXPECT_THROW(driver::wire::parseRequest(support::parseJsonLine(
                   "{\"model_conformance\": \"no-such-model\"}")),
               Error);
}

// max_entry is range-checked once, in driver::wire, for every request kind
// that carries it: below 1 or above INT_MAX is a parse error (the server
// answers it with an error line), never an empty or truncated exploration.
TEST(WireMaxEntry, OutOfRangeIsAParseErrorOnEveryRequestKind) {
  const std::string requests[] = {
      "{\"workload\": \"gemm\", \"rows\": 4, \"cols\": 4, ",
      "{\"network\": \"mlp-3\", ",
      "{\"model_conformance\": \"mlp-3\", ",
  };
  const std::string tooManyThreads =
      std::to_string(driver::wire::kMaxThreads + 1);
  const std::string tooWide = std::to_string(driver::wire::kMaxArraySide + 1);
  const std::string tooManyLanes =
      std::to_string(driver::wire::kMaxVectorLanes + 1);
  for (const std::string& head : requests) {
    for (const char* bad : {"0", "-1", "2147483648", "4294967297"}) {
      SCOPED_TRACE(head + bad);
      EXPECT_THROW(driver::wire::parseRequest(support::parseJsonLine(
                       head + "\"max_entry\": " + bad + "}")),
                   Error);
    }
    // The numeric fields every kind shares: array geometry, word size,
    // clock, bandwidth and datapath width.
    for (const char* bad :
         {"\"rows\": 0", "\"rows\": -3", "\"cols\": 0", "\"data_bytes\": 0",
          "\"data_width\": -7", "\"data_width\": 0", "\"data_width\": 65",
          "\"frequency_mhz\": 0", "\"frequency_mhz\": -320",
          "\"bandwidth_gbps\": 0", "\"bandwidth_gbps\": -1.5",
          // Beyond the array caps: 2^32 x 2^32 once overflowed rows * cols.
          "\"rows\": 4294967296", "\"cols\": 4294967296"}) {
      SCOPED_TRACE(head + bad);
      EXPECT_THROW(driver::wire::parseRequest(
                       support::parseJsonLine(head + bad + "}")),
                   Error);
    }
    for (const char* field : {"rows", "cols"}) {
      SCOPED_TRACE(head + field);
      EXPECT_THROW(driver::wire::parseRequest(support::parseJsonLine(
                       head + "\"" + field + "\": " + tooWide + "}")),
                   Error);
    }
  }
  for (const std::string& head : {requests[0], requests[1]})
    for (const std::string& bad : {std::string("0"), std::string("-2"),
                                   tooManyLanes}) {
      SCOPED_TRACE(head + bad);
      EXPECT_THROW(driver::wire::parseRequest(support::parseJsonLine(
                       head + "\"vector_lanes\": " + bad + "}")),
                   Error);
    }
  for (const std::string& bad :
       {std::string("0"), std::string("-1"), tooManyThreads}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(driver::wire::parseRequest(support::parseJsonLine(
                     requests[2] + "\"threads\": " + bad + "}")),
                 Error);
  }

  const auto query = driver::wire::parseRequest(support::parseJsonLine(
      requests[0] + "\"max_entry\": 2147483647}"));
  EXPECT_EQ(query.query->enumeration.maxEntry, 2147483647);
  const auto network = driver::wire::parseRequest(
      support::parseJsonLine(requests[1] + "\"max_entry\": 2}"));
  EXPECT_EQ(network.network->enumeration.maxEntry, 2);
  const auto model = driver::wire::parseRequest(
      support::parseJsonLine(requests[2] + "\"max_entry\": 1}"));
  EXPECT_EQ(model.modelOptions.enumeration.maxEntry, 1);

  EXPECT_EQ(driver::wire::checkMaxEntry(1), 1);
  EXPECT_THROW(driver::wire::checkMaxEntry(0), Error);

  // The range edges are accepted.
  const auto edges = driver::wire::parseRequest(support::parseJsonLine(
      requests[2] + "\"rows\": 1, \"cols\": " +
      std::to_string(driver::wire::kMaxArraySide) +
      ", \"data_bytes\": 1, \"data_width\": 64, \"threads\": " +
      std::to_string(driver::wire::kMaxThreads) + "}"));
  EXPECT_EQ(edges.modelOptions.array.rows, 1);
  EXPECT_EQ(edges.modelOptions.array.cols, driver::wire::kMaxArraySide);
  EXPECT_EQ(edges.modelOptions.dataWidth, 64);
  EXPECT_EQ(edges.modelOptions.threads, driver::wire::kMaxThreads);
  const auto lanes = driver::wire::parseRequest(support::parseJsonLine(
      requests[0] + "\"vector_lanes\": " +
      std::to_string(driver::wire::kMaxVectorLanes) +
      ", \"data_width\": 1, \"frequency_mhz\": 0.5, "
      "\"bandwidth_gbps\": 0.25}"));
  EXPECT_EQ(lanes.query->fpga.vectorLanes, driver::wire::kMaxVectorLanes);
  EXPECT_EQ(lanes.query->dataWidth, 1);
  EXPECT_EQ(lanes.query->array.frequencyMHz, 0.5);
}

// The CLIs' array and datapath flags parse strictly and take the ranges of
// the request fields of the same name; a violation names the flag.
TEST(WireFlags, StrictAndRangedLikeTheirFields) {
  using driver::wire::parseIntFlag;
  using driver::wire::parsePositiveFlag;
  EXPECT_EQ(parseIntFlag("--rows", "8", driver::wire::kArraySideRange), 8);
  EXPECT_EQ(parseIntFlag("--cols", std::to_string(driver::wire::kMaxArraySide),
                         driver::wire::kArraySideRange),
            driver::wire::kMaxArraySide);
  const std::string tooWide = std::to_string(driver::wire::kMaxArraySide + 1);
  for (const std::string& bad :
       std::vector<std::string>{"0", "-7", tooWide, "4294967296", "8x", "",
                                "x", "-", " 8", "+8", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parseIntFlag("--rows", bad, driver::wire::kArraySideRange),
                 Error);
  }
  EXPECT_EQ(parseIntFlag("--data-width", "64", driver::wire::kDataWidthRange),
            64);
  EXPECT_THROW(
      parseIntFlag("--data-width", "-7", driver::wire::kDataWidthRange), Error);
  EXPECT_EQ(parsePositiveFlag("--frequency-mhz", "320"), 320.0);
  EXPECT_EQ(parsePositiveFlag("--bandwidth-gbps", "0.25"), 0.25);
  for (const char* bad : {"0", "-1", "inf", "nan", "1x", "", "1e400"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parsePositiveFlag("--frequency-mhz", bad), Error);
  }
  try {
    parseIntFlag("--rows", "0", driver::wire::kArraySideRange);
    ADD_FAILURE() << "--rows 0 parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--rows"), std::string::npos)
        << e.what();
  }
}

TEST(WireCount, StrictDigitsWithinTheCap) {
  using driver::wire::parseCount;
  EXPECT_EQ(parseCount("0"), 0u);
  EXPECT_EQ(parseCount("8", 8), 8u);
  EXPECT_EQ(parseCount("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(parseCount(std::to_string(driver::wire::kMaxThreads),
                       driver::wire::kMaxThreads),
            driver::wire::kMaxThreads);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "4x", "0x10", "1e3",
                          "18446744073709551616", "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parseCount(bad).has_value());
  }
  EXPECT_FALSE(parseCount("9", 8).has_value());
  EXPECT_FALSE(parseCount("10", 9).has_value());
  EXPECT_FALSE(parseCount("1", 0).has_value());
  EXPECT_FALSE(parseCount(std::to_string(driver::wire::kMaxThreads + 1),
                          driver::wire::kMaxThreads)
                   .has_value());
}

TEST(ModelConformance, WireResultLineCarriesVerdictAndDivergence) {
  ModelConformanceReport report;
  report.model = "mlp-3";
  report.dataSeed = 7;
  report.threads = 2;
  report.picks = {{"fc1", "MNK-SMM", "MNK-SMM", false},
                  {"fc2", "MNK-SMM", "MNK-SSM", true}};
  report.bufferCapacities = {252};
  report.cyclesRun = 100;
  report.stallSlots = 5;
  {
    const std::string line =
        driver::wire::modelConformanceResultLine(3, report);
    EXPECT_NE(line.find("\"query\": 3"), std::string::npos) << line;
    EXPECT_NE(line.find("\"model_conformance\": \"mlp-3\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"pass\": true"), std::string::npos) << line;
    EXPECT_NE(line.find("\"buffer_capacities\": [252]"), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"substituted\": true"), std::string::npos) << line;
    EXPECT_EQ(line.find("\"divergence\""), std::string::npos) << line;
  }
  ModelDivergence divergence;
  divergence.layerIndex = 1;
  divergence.layer = "fc2";
  divergence.element = {2, 3};
  divergence.expected = 31;
  divergence.actual = 0;
  divergence.cycle = 22;
  divergence.engine = "compiled";
  report.divergence = divergence;
  const std::string line = driver::wire::modelConformanceResultLine(3, report);
  EXPECT_NE(line.find("\"pass\": false"), std::string::npos) << line;
  EXPECT_NE(line.find("\"element\": [2, 3]"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cycle\": 22"), std::string::npos) << line;
  EXPECT_NE(line.find("\"engine\": \"compiled\""), std::string::npos) << line;
}

// --- network fuzzer -------------------------------------------------------

TEST(NetworkFuzz, RandomNetworksAreDeterministicAndStitchable) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const tensor::NetworkSpec a = randomNetwork(seed);
    const tensor::NetworkSpec b = randomNetwork(seed);
    EXPECT_EQ(a.str(), b.str()) << "seed " << seed;
    EXPECT_GE(a.layerCount(), 2u);
    EXPECT_LE(a.layerCount(), 6u);
    for (std::size_t l = 1; l < a.layers().size(); ++l) {
      const auto& prev = a.layers()[l - 1].algebra;
      const auto& cur = a.layers()[l].algebra;
      EXPECT_TRUE(arch::chainRule(prev.tensorShape(prev.output()),
                                  cur.tensorShape(cur.inputs()[0]))
                      .has_value())
          << "seed " << seed << " layers " << l - 1 << "->" << l;
    }
  }
}

TEST(NetworkFuzz, ShortSweepConforms) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const ModelConformanceReport report =
        checkModel(randomNetwork(seed), withThreads(1));
    EXPECT_TRUE(report.pass()) << "seed " << seed << "\n" << report.summary();
  }
}

TEST(NetworkFuzz, ShrinkFindsMinimalWindow) {
  const tensor::NetworkSpec net = builtin("resnet-deep");
  // Synthetic predicate: "fails" whenever the window contains fc2 -> fc3;
  // the shrinker must find exactly that pair.
  const auto containsPair = [](const tensor::NetworkSpec& candidate) {
    for (std::size_t l = 1; l < candidate.layers().size(); ++l)
      if (candidate.layers()[l - 1].name == "fc2" &&
          candidate.layers()[l].name == "fc3")
        return true;
    return false;
  };
  const tensor::NetworkSpec shrunk = shrinkNetwork(net, containsPair);
  ASSERT_EQ(shrunk.layerCount(), 2u) << shrunk.str();
  EXPECT_EQ(shrunk.layers()[0].name, "fc2");
  EXPECT_EQ(shrunk.layers()[1].name, "fc3");
  EXPECT_NE(shrunk.name().find("/shrink["), std::string::npos)
      << shrunk.name();
}

TEST(NetworkFuzz, ShrinkKeepsOriginalWhenNothingSmallerFails) {
  const tensor::NetworkSpec net = randomNetwork(7);
  const tensor::NetworkSpec shrunk = shrinkNetwork(
      net, [&](const tensor::NetworkSpec& candidate) {
        return candidate.layerCount() == net.layerCount();
      });
  EXPECT_EQ(shrunk.layerCount(), net.layerCount());
}

}  // namespace
}  // namespace tensorlib::verify
