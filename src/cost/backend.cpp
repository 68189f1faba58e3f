#include "cost/backend.hpp"

#include <sstream>

namespace tensorlib::cost {

std::string backendKindName(BackendKind kind) {
  return kind == BackendKind::Asic ? "asic" : "fpga";
}

std::optional<BackendKind> parseBackendKind(const std::string& name) {
  if (name == "asic") return BackendKind::Asic;
  if (name == "fpga") return BackendKind::Fpga;
  return std::nullopt;
}

std::string CostReport::str() const { return fpga ? fpga->str() : asic.str(); }

namespace {

class AsicBackend final : public CostBackend {
 public:
  AsicBackend(int dataWidth, AsicCostTable table)
      : dataWidth_(dataWidth), table_(table) {}

  BackendKind kind() const override { return BackendKind::Asic; }
  std::string name() const override { return "asic"; }

  std::string cacheKey() const override {
    // Every field of the cost table is fingerprinted: equal keys must mean
    // identical reports, and ablations vary single unit costs.
    std::ostringstream os;
    os << "asic:w" << dataWidth_;
    for (double v :
         {table_.mulAreaPerBit2, table_.addAreaPerBit, table_.regAreaPerBit,
          table_.muxAreaPerBit, table_.ctrlAreaPerPe,
          table_.ctrlAreaStationaryPe, table_.busAreaPerTap,
          table_.memPortArea, table_.peOverheadArea, table_.mulPowerPerBit2,
          table_.addPowerPerBit, table_.regPowerPerBit, table_.muxPowerPerBit,
          table_.ctrlPowerPerPe, table_.ctrlPowerStationaryPe,
          table_.busPowerPerTapBit, table_.memPortPower,
          table_.clockTreePowerPerPe})
      os << ":" << v;
    return os.str();
  }

  CostReport evaluate(const stt::DataflowSpec& spec,
                      const stt::ArrayConfig& array) const override {
    CostReport rep;
    rep.asic = estimateAsic(spec, array, dataWidth_, table_);
    rep.figures = rep.asic.figures();
    return rep;
  }

  sim::PerfResult estimatePerf(const stt::DataflowSpec& spec,
                               const stt::ArrayConfig& array) const override {
    return sim::estimatePerformance(spec, array);
  }

  CostBound lowerBound(const stt::DataflowSpec& spec,
                       const stt::ArrayConfig& array) const override {
    // The ASIC area/power model is mapping-free, so the bound's figures are
    // the exact evaluation; only cycles is a (provable) lower bound.
    CostBound b;
    b.cycles = static_cast<double>(sim::cyclesLowerBound(spec, array));
    b.figures = estimateAsic(spec, array, dataWidth_, table_).figures();
    return b;
  }

  // The ASIC array runs as configured: one mapping slot per mapping class.
  std::size_t blockSlotCount(const stt::SpecBlockSet& set) const override {
    return set.mapClassCount;
  }

  void lowerBoundBlock(const stt::SpecBlockSet& set, const std::size_t* indices,
                       std::size_t count, const stt::ArrayConfig& array,
                       CostBound* out) const override {
    for (std::size_t n = 0; n < count; ++n) {
      const std::size_t i = indices[n];
      out[n].cycles = static_cast<double>(sim::cyclesLowerBound(set, i, array));
      out[n].figures =
          asicFromInventory(deriveInventory(set, i, array, dataWidth_),
                            dataWidth_, table_)
              .figures();
    }
  }

  BlockEval evaluateBlock(const stt::SpecBlockSet& set, std::size_t i,
                          const stt::ArrayConfig& array,
                          stt::BlockMappingStore& store) const override {
    BlockEval e;
    const stt::TileMapping& mapping =
        store.get(set, i, array, set.mapClass[i]);
    e.perf = sim::perfFromMapping(mapping, array);
    e.cost.asic =
        asicFromInventory(deriveInventory(set, i, array, dataWidth_),
                          dataWidth_, table_);
    e.cost.figures = e.cost.asic.figures();
    return e;
  }

 private:
  int dataWidth_;
  AsicCostTable table_;
};

class FpgaBackend final : public CostBackend {
 public:
  explicit FpgaBackend(FpgaConfig config) : config_(std::move(config)) {}

  BackendKind kind() const override { return BackendKind::Fpga; }
  std::string name() const override { return "fpga"; }

  std::string cacheKey() const override {
    std::ostringstream os;
    os << "fpga:" << config_.device.name << ":" << config_.device.luts << ":"
       << config_.device.dsps << ":" << config_.device.bram36 << ":"
       << (config_.fp32 ? "fp32" : "int16") << ":v" << config_.vectorLanes
       << (config_.placementOptimized ? ":placed" : "");
    return os.str();
  }

  CostReport evaluate(const stt::DataflowSpec& spec,
                      const stt::ArrayConfig& array) const override {
    CostReport rep;
    rep.fpga = estimateFpga(spec, array, config_);
    rep.figures = rep.fpga->figures();
    return rep;
  }

  sim::PerfResult estimatePerf(const stt::DataflowSpec& spec,
                               const stt::ArrayConfig& array) const override {
    return sim::estimatePerformance(spec, fpgaPerfConfig(spec, array, config_));
  }

  CostBound lowerBound(const stt::DataflowSpec& spec,
                       const stt::ArrayConfig& array) const override {
    // Resources, frequency and power are mapping-free (estimateFpga only
    // needs the mapping for gops), so the figures are exact; cycles is
    // bounded at the FPGA operating point (post-route frequency, real word
    // size) because that is what estimatePerf reports.
    CostBound b;
    b.cycles = static_cast<double>(
        sim::cyclesLowerBound(spec, fpgaPerfConfig(spec, array, config_)));
    b.figures = estimateFpgaResources(spec, array, config_).figures();
    return b;
  }

  // FPGA performance runs at the tier's post-route frequency and the real
  // word size, so each mapping class fans out over the three tiers.
  std::size_t blockSlotCount(const stt::SpecBlockSet& set) const override {
    return set.mapClassCount * 3;
  }

  void lowerBoundBlock(const stt::SpecBlockSet& set, const std::size_t* indices,
                       std::size_t count, const stt::ArrayConfig& array,
                       CostBound* out) const override {
    const std::int64_t pes = array.rows * array.cols;
    const int w = config_.fp32 ? 32 : 16;
    for (std::size_t n = 0; n < count; ++n) {
      const std::size_t i = indices[n];
      const int tier = fpgaFrequencyTier(set, i);
      out[n].cycles = static_cast<double>(
          sim::cyclesLowerBound(set, i, tierPerfConfig(array, tier)));
      out[n].figures = fpgaFromInventory(deriveInventory(set, i, array, w),
                                         fpgaTierFrequencyMHz(tier, config_),
                                         pes, config_)
                           .figures();
    }
  }

  BlockEval evaluateBlock(const stt::SpecBlockSet& set, std::size_t i,
                          const stt::ArrayConfig& array,
                          stt::BlockMappingStore& store) const override {
    const int tier = fpgaFrequencyTier(set, i);
    const stt::ArrayConfig perfCfg = tierPerfConfig(array, tier);
    BlockEval e;
    const stt::TileMapping& mapping = store.get(
        set, i, perfCfg, set.mapClass[i] * 3 + static_cast<std::size_t>(tier));
    e.perf = sim::perfFromMapping(mapping, perfCfg);
    const std::int64_t pes = array.rows * array.cols;
    const int w = config_.fp32 ? 32 : 16;
    FpgaReport rep =
        fpgaFromInventory(deriveInventory(set, i, array, w),
                          fpgaTierFrequencyMHz(tier, config_), pes, config_);
    const std::int64_t lanes = pes * config_.vectorLanes;
    rep.gops = 2.0 * static_cast<double>(lanes) * rep.frequencyMHz * 1e6 *
               e.perf.utilization / 1e9;
    e.cost.fpga = std::move(rep);
    e.cost.figures = e.cost.fpga->figures();
    return e;
  }

 private:
  /// fpgaPerfConfig factored through the tier (see fpga.hpp).
  stt::ArrayConfig tierPerfConfig(const stt::ArrayConfig& array,
                                  int tier) const {
    stt::ArrayConfig perfCfg = array;
    perfCfg.frequencyMHz = fpgaTierFrequencyMHz(tier, config_);
    perfCfg.dataBytes = config_.fp32 ? 4 : 2;
    return perfCfg;
  }

  FpgaConfig config_;
};

}  // namespace

CostBound boundFigures(const stt::DataflowSpec& spec,
                       const stt::ArrayConfig& array,
                       const CostBackend& backend) {
  return backend.lowerBound(spec, array);
}

std::shared_ptr<const CostBackend> makeAsicBackend(int dataWidth,
                                                   AsicCostTable table) {
  return std::make_shared<AsicBackend>(dataWidth, table);
}

std::shared_ptr<const CostBackend> makeFpgaBackend(FpgaConfig config) {
  return std::make_shared<FpgaBackend>(std::move(config));
}

}  // namespace tensorlib::cost
