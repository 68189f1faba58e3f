// The gate harness: runs every gated hot-path section in a fixed order and
// writes BENCH_hotpaths.json whole, one line per section, after the last
// one — so the committed record is always one run of one commit.
//
// The sections, one runner each in bench/hotpaths/, are listed in kSections
// in record order; each file states its workload and gate. Each section
// starts with a cleared candidate memo: every one assumes a fresh process.
//
// Usage: bench_hotpaths [--smoke] [--out <path>]
//   --smoke   small sizes, one repetition, correctness asserts only, no
//             timing gates (tier-1 runs this as bench_hotpaths_smoke)
//   --out     the record to write (default BENCH_hotpaths.json)
//
// Exit status: 0 when every gate passed; 1 when a full-mode gate failed
// (the record is still written, with "pass": false); 2 on a usage error or
// a failed correctness check (nothing is written).
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hotpaths/sections.hpp"
#include "stt/enumerate.hpp"

namespace {

using namespace tensorlib::bench::hotpaths;

using Runner = Section (*)(const RunConfig&);

constexpr Runner kSections[] = {
    runRtl,    runTileTrace, runService,  runNetwork,
    runSocket, runDaemon,    runModelRtl, runEnum3,
};

}  // namespace

int main(int argc, char** argv) {
  RunConfig run;
  std::string out = "BENCH_hotpaths.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) run.smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  if (run.smoke) run.reps = 1;
  run.snapshotPath = out + ".daemon-snapshot.tmp";

  tensorlib::bench::printHeader(run.smoke ? "Hot-path gates (smoke)"
                                          : "Hot-path gates");
  std::vector<Section> sections;
  try {
    for (const Runner runSection : kSections) {
      tensorlib::stt::clearCandidateCache();
      sections.push_back(runSection(run));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  bool pass = true;
  std::ofstream file(out);
  file << "{\n  \"bench\": \"hotpaths\",\n  \"mode\": \""
       << (run.smoke ? "smoke" : "full") << "\"";
  for (const Section& section : sections) {
    file << ",\n  " << section.line;
    if (!section.pass) std::printf("  GATE FAIL: %s\n", section.line.c_str());
    pass = pass && section.pass;
  }
  file << "\n}\n";
  file.close();
  if (!file) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("  wrote %s\n", out.c_str());
  return pass ? 0 : 1;
}
