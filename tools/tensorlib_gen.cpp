// tensorlib-gen: command-line front end for the generator.
//
//   tensorlib_gen --workload gemm --dims 256,256,256 --label MNK-SST
//   tensorlib_gen --workload conv2d --dims 64,64,56,56,3,3 --explore perf
//   tensorlib_gen --workload gemm --dims 16,16,16 --label MNK-MMT \
//                 --verilog design.v --verify
//
// Workloads: gemm(m,n,k), batched-gemv(m,n,k), conv2d(k,c,y,x,p,q),
//            depthwise(k,y,x,p,q), mttkrp(i,j,k,l), ttmc(i,j,k,l,m).
//
// Exit codes: 0 success, 1 exploration or verification failure, 2 usage or
// input errors (a malformed or out-of-range flag, an unknown workload or
// --explore value, malformed dims).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/session.hpp"
#include "driver/wire.hpp"
#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace {

using namespace tensorlib;
namespace wire = driver::wire;

std::vector<std::int64_t> parseDims(const std::string& s) {
  std::vector<std::int64_t> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    out.push_back(wire::parseIntFlag(
        "--dims", item, {1, std::numeric_limits<std::int64_t>::max()}));
  return out;
}

driver::Objective parseExplore(const std::string& name) {
  if (name == "perf") return driver::Objective::Performance;
  if (name == "power") return driver::Objective::Power;
  if (name == "edp") return driver::Objective::EnergyDelay;
  fail("--explore must be perf|power|edp, got '" + name + "'");
}

tensor::TensorAlgebra makeWorkload(const std::string& name,
                                   const std::vector<std::int64_t>& d) {
  namespace wl = tensor::workloads;
  auto need = [&](std::size_t n) {
    if (d.size() != n)
      fail(name + " needs " + std::to_string(n) + " dims, got " +
           std::to_string(d.size()));
  };
  if (name == "gemm") { need(3); return wl::gemm(d[0], d[1], d[2]); }
  if (name == "batched-gemv") { need(3); return wl::batchedGemv(d[0], d[1], d[2]); }
  if (name == "conv2d") {
    need(6);
    return wl::conv2d(d[0], d[1], d[2], d[3], d[4], d[5]);
  }
  if (name == "depthwise") {
    need(5);
    return wl::depthwiseConv(d[0], d[1], d[2], d[3], d[4]);
  }
  if (name == "mttkrp") { need(4); return wl::mttkrp(d[0], d[1], d[2], d[3]); }
  if (name == "ttmc") {
    need(5);
    return wl::ttmc(d[0], d[1], d[2], d[3], d[4]);
  }
  fail("unknown workload '" + name + "'");
}

int usage() {
  std::printf(
      "usage: tensorlib_gen --workload NAME --dims d0,d1,... \n"
      "                     [--label LBL | --explore perf|power|edp]\n"
      "                     [--rows R --cols C] [--width BITS]\n"
      "                     [--verilog FILE] [--verify]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dims, label, explore, verilogPath;
  stt::ArrayConfig array;
  int width = 16;
  bool verify = false;
  driver::Objective objective = driver::Objective::Performance;
  std::optional<tensor::TensorAlgebra> algebra;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) { usage(); std::exit(2); }
        return argv[++i];
      };
      if (a == "--workload") workload = next();
      else if (a == "--dims") dims = next();
      else if (a == "--label") label = next();
      else if (a == "--explore") objective = parseExplore(explore = next());
      else if (a == "--rows")
        array.rows =
            wire::parseIntFlag("--rows", next(), wire::kArraySideRange);
      else if (a == "--cols")
        array.cols =
            wire::parseIntFlag("--cols", next(), wire::kArraySideRange);
      else if (a == "--width")
        width = static_cast<int>(
            wire::parseIntFlag("--width", next(), wire::kDataWidthRange));
      else if (a == "--verilog") verilogPath = next();
      else if (a == "--verify") verify = true;
      else return usage();
    }
    if (workload.empty() || dims.empty() || (label.empty() && explore.empty()))
      return usage();
    algebra = makeWorkload(workload, parseDims(dims));
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Failures past this point are exploration or verification failures.
  try {
    driver::Session session(*algebra, array, width);
    std::printf("workload: %s\n", algebra->str().c_str());

    std::optional<driver::DesignReport> report;
    if (!label.empty()) {
      report = session.compileLabel(label);
      if (!report) {
        std::fprintf(stderr, "no transform realizes %s\n", label.c_str());
        return 1;
      }
    } else {
      std::size_t designs = 0;
      report = session.compileBest(objective, &designs);
      std::printf("explored %zu designs; best for '%s':\n", designs,
                  explore.c_str());
    }

    std::printf("%s\n", report->summary().c_str());
    std::printf("%s\n", report->spec.describe().c_str());

    if (verify) {
      const bool behavioral = session.verifyBehavioral(*report);
      std::printf("behavioral verification: %s\n",
                  behavioral ? "PASS" : "FAIL");
      bool rtl = false;
      try {
        rtl = session.verifyRtl(*report);
        std::printf("RTL verification: %s\n", rtl ? "PASS" : "FAIL");
      } catch (const Error& e) {
        std::printf("RTL verification: skipped (%s)\n", e.what());
        rtl = true;
      }
      if (!behavioral || !rtl) return 1;
    }

    if (!verilogPath.empty()) {
      const std::string v = session.emitVerilog(*report);
      std::ofstream(verilogPath) << v;
      std::printf("wrote %zu bytes of Verilog to %s\n", v.size(),
                  verilogPath.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
