#include "cost/asic.hpp"

#include <cmath>
#include <sstream>

#include "arch/memory.hpp"
#include "support/error.hpp"

namespace tensorlib::cost {

namespace {

/// Lines along a spatial direction covering a rows x cols grid.
std::int64_t lineCountAbs(std::int64_t d1, std::int64_t d2, std::int64_t rows,
                          std::int64_t cols) {
  if (d1 == 0) return rows;
  if (d2 == 0) return cols;
  return rows * d2 + cols * d1 - d1 * d2;
}

std::int64_t lineCount(const linalg::IntVector& dir, std::int64_t rows,
                       std::int64_t cols) {
  return lineCountAbs(std::abs(dir[0]), std::abs(dir[1]), rows, cols);
}

/// Adds one tensor's movement structures to the inventory — the per-class
/// template arithmetic shared by the scalar and packed derivations.
/// `dirLines` is the line count of the tensor's reuse direction (rank-1
/// classes); `dt` the |lattice time stride| (Systolic only).
void addTensorStructures(StructureInventory& inv, stt::DataflowClass cls,
                         bool isOut, std::int64_t dirLines, std::int64_t dt,
                         const stt::ArrayConfig& config, std::int64_t w) {
  using stt::DataflowClass;
  switch (cls) {
    case DataflowClass::Systolic: {
      const std::int64_t heads = dirLines;
      // Module (a)/(b): dt-deep data (+1-bit valid) pipeline per hop; the
      // chain heads consume ports, interior PEs the registers. The output
      // variant also owns the accumulation adder per PE.
      inv.dataRegBits += (inv.pes - heads) * dt * (w + 1);
      if (isOut) inv.accumAdders += inv.pes;
      inv.muxes += heads;  // injection muxes at chain heads
      inv.memPorts += heads;
      break;
    }
    case DataflowClass::Stationary: {
      // Module (c)/(d): double buffer per PE.
      inv.dataRegBits += inv.pes * 2 * w;
      inv.muxes += inv.pes;  // swap / drain-shift muxing
      inv.stationaryPes += inv.pes;
      if (isOut) inv.accumAdders += inv.pes;
      inv.memPorts += config.rows;  // row load/drain buses
      break;
    }
    case DataflowClass::Multicast: {
      const std::int64_t lines = dirLines;
      inv.memPorts += lines;
      if (isOut) {
        // Reduction tree (Fig. 4(d)): local adder wiring, not a broadcast
        // net — the paper observes trees are cheap relative to multicast.
        inv.treeAdders += inv.pes - lines;
        inv.dataRegBits += lines * 2 * w;  // widened tree root registers
      } else {
        inv.busLines += lines;
        inv.busTaps += inv.pes;
      }
      break;
    }
    case DataflowClass::Unicast: {
      inv.unicastPorts += inv.pes;
      inv.memPorts += inv.pes;
      if (isOut) inv.dataRegBits += inv.pes * w;  // output registers
      break;
    }
    case DataflowClass::Broadcast2D: {
      inv.busLines += 1;
      inv.busTaps += inv.pes;
      inv.memPorts += 1;
      if (isOut) inv.treeAdders += inv.pes - 1;
      break;
    }
    case DataflowClass::MulticastStationary: {
      // Broadcast into stationary registers: bus + double buffer.
      const std::int64_t lines = std::max(config.rows, config.cols);
      inv.busLines += lines;
      inv.busTaps += inv.pes;
      inv.dataRegBits += inv.pes * 2 * w;
      inv.stationaryPes += inv.pes;
      inv.memPorts += lines;
      if (isOut) inv.accumAdders += inv.pes;
      break;
    }
    case DataflowClass::SystolicMulticast: {
      // Broadcast into a line of registers, then systolic traversal.
      const std::int64_t lines = std::max(config.rows, config.cols);
      inv.busLines += lines;
      inv.busTaps += inv.pes;
      inv.dataRegBits += inv.pes * (w + 1);
      inv.memPorts += lines;
      if (isOut) inv.accumAdders += inv.pes;
      break;
    }
    case DataflowClass::FullReuse: {
      inv.busLines += 1;
      inv.busTaps += inv.pes;
      inv.memPorts += 1;
      break;
    }
  }
}

StructureInventory baseInventory(std::size_t inputCount,
                                 const stt::ArrayConfig& config) {
  StructureInventory inv;
  inv.pes = config.rows * config.cols;
  // A k-input product needs k-1 multipliers per PE (at least one).
  const std::int64_t mulsPerPe = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(inputCount) - 1);
  inv.multipliers = inv.pes * mulsPerPe;
  return inv;
}

}  // namespace

StructureInventory deriveInventory(const stt::DataflowSpec& spec,
                                   const stt::ArrayConfig& config,
                                   int dataWidth) {
  using stt::DataflowClass;
  StructureInventory inv = baseInventory(spec.algebra().inputs().size(), config);
  const std::int64_t w = dataWidth;
  for (const auto& role : spec.tensors()) {
    const auto& df = role.dataflow;
    const bool rank1 = df.dataflowClass == DataflowClass::Systolic ||
                       df.dataflowClass == DataflowClass::Multicast;
    const std::int64_t dirLines =
        rank1 ? lineCount(df.direction, config.rows, config.cols) : 0;
    const std::int64_t dt = df.dataflowClass == DataflowClass::Systolic
                                ? std::abs(df.latticeBasis.at(2, 0))
                                : 0;
    addTensorStructures(inv, df.dataflowClass, role.isOutput, dirLines, dt,
                        config, w);
  }
  return inv;
}

StructureInventory deriveInventory(const stt::SpecBlockSet& set, std::size_t i,
                                   const stt::ArrayConfig& config,
                                   int dataWidth) {
  using stt::DataflowClass;
  StructureInventory inv = baseInventory(set.inputCount, config);
  const std::int64_t w = dataWidth;
  for (std::size_t k = 0; k < set.tensorsPerSpec; ++k) {
    const std::size_t ti = set.tensorIndex(i, k);
    const auto cls = static_cast<DataflowClass>(set.classTag[ti]);
    const bool rank1 =
        cls == DataflowClass::Systolic || cls == DataflowClass::Multicast;
    const std::int64_t dirLines =
        rank1 ? lineCountAbs(set.absDir[ti * 2 + 0], set.absDir[ti * 2 + 1],
                             config.rows, config.cols)
              : 0;
    addTensorStructures(inv, cls, set.tensorIsOutput[k] != 0, dirLines,
                        set.systolicDt[ti], config, w);
  }
  return inv;
}

std::string AsicReport::str() const {
  std::ostringstream os;
  os << "area=" << areaMm2 << "mm2 power=" << powerMw << "mW (pes="
     << inventory.pes << ", regBits=" << inventory.dataRegBits
     << ", busTaps=" << inventory.busTaps << ", treeAdders="
     << inventory.treeAdders << ")";
  return os.str();
}

AsicReport asicFromInventory(StructureInventory inventory, int dataWidth,
                             const AsicCostTable& t) {
  AsicReport rep;
  rep.inventory = inventory;
  const auto& inv = rep.inventory;
  const double w = dataWidth;
  const double accW = 2.0 * w;  // widened accumulators

  double areaUm2 = 0.0;
  areaUm2 += inv.multipliers * t.mulAreaPerBit2 * w * w;
  areaUm2 += inv.accumAdders * t.addAreaPerBit * accW;
  areaUm2 += inv.treeAdders * t.addAreaPerBit * accW;
  areaUm2 += inv.dataRegBits * t.regAreaPerBit;
  areaUm2 += inv.muxes * t.muxAreaPerBit * w;
  areaUm2 += inv.pes * t.ctrlAreaPerPe + inv.stationaryPes * t.ctrlAreaStationaryPe;
  areaUm2 += inv.busTaps * t.busAreaPerTap;
  areaUm2 += inv.memPorts * t.memPortArea;
  areaUm2 += inv.pes * t.peOverheadArea;
  rep.areaMm2 = areaUm2 / 1e6;

  double mw = 0.0;
  mw += inv.multipliers * t.mulPowerPerBit2 * w * w;
  mw += inv.accumAdders * t.addPowerPerBit * accW;
  mw += inv.treeAdders * t.addPowerPerBit * accW;
  mw += inv.dataRegBits * t.regPowerPerBit;
  mw += inv.muxes * t.muxPowerPerBit * w;
  mw += inv.pes * t.ctrlPowerPerPe + inv.stationaryPes * t.ctrlPowerStationaryPe;
  mw += inv.busTaps * w * t.busPowerPerTapBit;
  mw += inv.memPorts * t.memPortPower;
  mw += inv.pes * t.clockTreePowerPerPe;
  rep.powerMw = mw;
  return rep;
}

AsicReport estimateAsic(const stt::DataflowSpec& spec,
                        const stt::ArrayConfig& config, int dataWidth,
                        const AsicCostTable& t) {
  return asicFromInventory(deriveInventory(spec, config, dataWidth), dataWidth,
                           t);
}

}  // namespace tensorlib::cost
