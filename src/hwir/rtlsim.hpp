// Cycle-accurate simulator for hwir netlists (the Synopsys-VCS role).
//
// Values are width-masked uint64 words; Bits arithmetic is two's-complement
// modular (bit-exact with hardware), Float32 arithmetic bit-casts through
// IEEE single precision exactly like the Xilinx FP blackbox the paper
// instantiates.
//
// Two execution engines share the public API and are bit-identical:
//  - Compiled (default): the netlist is compiled once into a flat evaluation
//    tape — fused op+kind opcodes, arg indices resolved into fixed slots,
//    width masks precomputed, constants burned in — so evaluate() is a tight
//    loop with no Node indirection and no per-node branching on op+kind.
//  - Legacy: the original walk-the-Node-graph interpreter, kept for
//    differential testing (tests/hwir_rtlsim_diff_test.cpp) and as the perf
//    baseline in bench/hotpaths/rtl.cpp.
// Both engines latch registers in step() from a register list precomputed in
// the constructor instead of rescanning the whole netlist every cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hwir/module.hpp"

namespace tensorlib::hwir {

/// Which evaluation engine a simulator instance runs.
enum class SimEngine { Compiled, Legacy };

class RtlSimulator {
 public:
  explicit RtlSimulator(const Netlist& netlist,
                        SimEngine engine = SimEngine::Compiled);

  SimEngine engine() const { return engine_; }

  /// Drives an input port for the current cycle (until overwritten).
  void poke(NodeId input, std::uint64_t value);
  void poke(const std::string& inputName, std::uint64_t value);
  /// Drives all inputs to zero (between stimulus cycles).
  void clearInputs();

  /// Evaluates combinational logic for the current cycle.
  void evaluate();
  /// Latches registers (call after evaluate) and advances the cycle count.
  void step();

  /// Reads any node's post-evaluate value.
  std::uint64_t peek(NodeId node) const;
  std::uint64_t peekOutput(const std::string& outputName) const;

  std::int64_t cycle() const { return cycle_; }

  /// Fault injection for conformance testing: flips the low bit of every
  /// compiled-tape width mask, so masked results silently lose/gain their
  /// LSB. The legacy engine reads Node widths directly and is unaffected —
  /// exactly the single-layer defect the differential oracle must localize.
  /// No-op for SimEngine::Legacy instances.
  void corruptTapeMasksForTest();

  /// Helpers for numeric ports.
  static std::uint64_t encodeFloat(float f);
  static float decodeFloat(std::uint64_t bits);
  /// Encodes a signed integer into `width` bits (two's complement).
  static std::uint64_t encodeInt(std::int64_t v, int width);
  /// Decodes a `width`-bit two's-complement value.
  static std::int64_t decodeInt(std::uint64_t bits, int width);

 private:
  /// Fused opcode: op and DataKind resolved at compile time, so the
  /// evaluation loop never branches on kind.
  enum class TapeOp : std::uint8_t {
    AddI, SubI, MulI,  // Bits arithmetic (modular two's complement)
    AddF, SubF, MulF,  // Float32 arithmetic (IEEE single, bit-cast)
    Mux, Eq, Lt, And, Or, Not,
    Copy,  // Output nodes: forward the driven value
  };
  struct TapeInstr {
    TapeOp op;
    NodeId dst;
    NodeId a0 = 0, a1 = 0, a2 = 0;
    std::uint64_t mask = ~0ull;
  };
  /// One register's latch record: D/enable indices and the width mask,
  /// resolved once in the constructor.
  struct RegSlot {
    NodeId id;
    NodeId d;
    NodeId enable = kInvalidNode;
    std::uint64_t mask = ~0ull;
  };

  void compile();
  void evaluateCompiled();
  void evaluateLegacy();

  const Netlist& netlist_;
  SimEngine engine_;
  std::vector<NodeId> order_;  ///< topological evaluation order
  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> regState_;
  std::vector<std::uint64_t> inputValue_;
  std::vector<TapeInstr> tape_;       ///< combinational ops only (Compiled)
  std::vector<RegSlot> regs_;  ///< precomputed; used by both engines
  std::int64_t cycle_ = 0;
  bool evaluated_ = false;
};

}  // namespace tensorlib::hwir
