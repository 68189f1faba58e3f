#include "cost/fpga.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace tensorlib::cost {

namespace {

/// Per-MAC-lane primitive costs (Xilinx UltraScale+ class).
struct LaneCosts {
  std::int64_t dsp;
  std::int64_t lut;
};

LaneCosts laneCosts(bool fp32) {
  // FP32: mul = 3 DSP + wrapper LUTs, add = 1 DSP + alignment logic —
  // 4 DSP/lane total, matching the paper's 75% DSP at 1280 lanes on VU9P.
  if (fp32) return {4, 520};
  return {1, 90};  // INT16 MAC packs into one DSP48
}

bool hasClass(const stt::DataflowSpec& spec, stt::DataflowClass cls) {
  for (const auto& t : spec.tensors())
    if (t.dataflow.dataflowClass == cls) return true;
  return false;
}

}  // namespace

double fpgaTierFrequencyMHz(int tier, const FpgaConfig& cfg) {
  double freq = tier == 2 ? 221.0 : tier == 1 ? 231.0 : 263.0;
  if (cfg.placementOptimized) freq *= 1.247;  // AutoBridge-style floorplan
  return freq;
}

double fpgaFrequencyMHz(const stt::DataflowSpec& spec, const FpgaConfig& cfg) {
  // Systolic arrays close timing highest (neighbor-only wires); multicast
  // broadcast nets and unicast port fabrics cost routing slack. The unicast
  // tier wins over the broadcast tier because 221 < 231.
  int tier = 0;
  if (hasClass(spec, stt::DataflowClass::Multicast) ||
      hasClass(spec, stt::DataflowClass::Broadcast2D) ||
      hasClass(spec, stt::DataflowClass::MulticastStationary))
    tier = 1;
  if (hasClass(spec, stt::DataflowClass::Unicast)) tier = 2;
  return fpgaTierFrequencyMHz(tier, cfg);
}

int fpgaFrequencyTier(const stt::SpecBlockSet& set, std::size_t i) {
  int tier = 0;
  for (std::size_t k = 0; k < set.tensorsPerSpec; ++k) {
    const auto cls =
        static_cast<stt::DataflowClass>(set.classTag[set.tensorIndex(i, k)]);
    if (cls == stt::DataflowClass::Unicast) return 2;
    if (cls == stt::DataflowClass::Multicast ||
        cls == stt::DataflowClass::Broadcast2D ||
        cls == stt::DataflowClass::MulticastStationary)
      tier = 1;
  }
  return tier;
}

stt::ArrayConfig fpgaPerfConfig(const stt::DataflowSpec& spec,
                                const stt::ArrayConfig& arrayConfig,
                                const FpgaConfig& cfg) {
  stt::ArrayConfig perfCfg = arrayConfig;
  perfCfg.frequencyMHz = fpgaFrequencyMHz(spec, cfg);
  perfCfg.dataBytes = cfg.fp32 ? 4 : 2;
  return perfCfg;
}

double FpgaReport::utilizationFraction() const {
  return std::max(lutPct, std::max(dspPct, bramPct)) / 100.0;
}

std::string FpgaReport::str() const {
  std::ostringstream os;
  os << "LUT " << luts << " (" << lutPct << "%), DSP " << dsps << " ("
     << dspPct << "%), BRAM " << bram << " (" << bramPct << "%), "
     << frequencyMHz << " MHz, " << gops << " Gop/s, " << powerMw << " mW";
  return os.str();
}

FpgaReport fpgaFromInventory(const StructureInventory& inv,
                             double frequencyMHz, std::int64_t pes,
                             const FpgaConfig& cfg) {
  FpgaReport rep;
  const std::int64_t lanes = pes * cfg.vectorLanes;
  const LaneCosts lane = laneCosts(cfg.fp32);
  const int w = cfg.fp32 ? 32 : 16;
  rep.inventory = inv;

  rep.dsps = lanes * lane.dsp;
  // LUTs: MAC wrappers + movement structures + per-PE control + platform.
  rep.luts = lanes * lane.lut + inv.dataRegBits / 2 + inv.muxes * w +
             inv.busTaps * 8 + pes * 480 + inv.memPorts * 700 + 48000;

  // BRAM: double-buffered global tile buffers (dominant; sized to keep the
  // array busy across off-chip tiles) + per-port distributed banks.
  const double bufferBitsPerPe = 30.0 * 8192.0;  // ~30 KB/PE, double-buffered
  const double bankBits = static_cast<double>(inv.memPorts) * 4096.0 * w;
  rep.bram = static_cast<std::int64_t>(
      std::ceil((pes * bufferBitsPerPe + bankBits) / 36864.0));

  rep.frequencyMHz = frequencyMHz;

  // Power: activity-weighted dynamic contribution per resource at the
  // achieved frequency (UltraScale+-class: DSP columns dominate, LUT power
  // is mostly routing, BRAM ports toggle every cycle) plus the device's
  // static floor. Lands a Table-III-scale design (~5k DSP, ~800k LUT,
  // ~1.1k BRAM at 263 MHz) near 20 W, the regime Vivado reports for VU9P
  // accelerators of that size.
  const double dynUwPerMHz = static_cast<double>(rep.dsps) * 2.2 +
                             static_cast<double>(rep.luts) * 0.055 +
                             static_cast<double>(rep.bram) * 7.5;
  const double staticMw = 3200.0;
  rep.powerMw = dynUwPerMHz * frequencyMHz * 1e-3 + staticMw;

  rep.lutPct = 100.0 * static_cast<double>(rep.luts) /
               static_cast<double>(cfg.device.luts);
  rep.dspPct = 100.0 * static_cast<double>(rep.dsps) /
               static_cast<double>(cfg.device.dsps);
  rep.bramPct = 100.0 * static_cast<double>(rep.bram) /
                static_cast<double>(cfg.device.bram36);
  return rep;
}

FpgaReport estimateFpgaResources(const stt::DataflowSpec& spec,
                                 const stt::ArrayConfig& arrayConfig,
                                 const FpgaConfig& cfg) {
  const int w = cfg.fp32 ? 32 : 16;
  const std::int64_t pes = arrayConfig.rows * arrayConfig.cols;
  return fpgaFromInventory(deriveInventory(spec, arrayConfig, w),
                           fpgaFrequencyMHz(spec, cfg), pes, cfg);
}

FpgaReport estimateFpga(const stt::DataflowSpec& spec,
                        const stt::ArrayConfig& arrayConfig,
                        const FpgaConfig& cfg) {
  FpgaReport rep = estimateFpgaResources(spec, arrayConfig, cfg);

  // Throughput: lanes * utilization at the achieved frequency and the
  // datapath's real word size (see fpgaPerfConfig).
  const std::int64_t lanes = arrayConfig.rows * arrayConfig.cols * cfg.vectorLanes;
  const sim::PerfResult perf = sim::estimatePerformance(
      spec, fpgaPerfConfig(spec, arrayConfig, cfg));
  rep.gops = 2.0 * static_cast<double>(lanes) * rep.frequencyMHz * 1e6 *
             perf.utilization / 1e9;
  return rep;
}

}  // namespace tensorlib::cost
