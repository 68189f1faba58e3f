// Incremental Pareto frontier over (cycles, power, area) and objective
// selection on top of it.
//
// The exploration service streams every evaluated design point through a
// ParetoFrontier instead of materializing the whole design space: dominated
// points are dropped on arrival, newly dominated residents are pruned (the
// caller learns which, so it can free their reports). The kept set is a
// function of the inserted points only — insertion order never matters —
// which is what makes batched exploration bit-identical across thread
// counts and shard sizes: exact-cost ties are broken by the point's global
// enumeration index (`order`), not by arrival.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace tensorlib::driver {

/// What to optimize during exploration.
enum class Objective {
  Performance,  ///< max utilization (min cycles)
  Power,        ///< min mW among designs within 10% of best performance
  EnergyDelay,  ///< min (power x cycles) product
};

/// "performance" / "power" / "energy-delay" — the names every tool and
/// batch protocol accepts (see docs/PROTOCOL.md).
std::string objectiveName(Objective objective);

/// Parses an objective name; nullopt for anything else.
std::optional<Objective> parseObjective(const std::string& name);

/// The three minimized axes plus utilization (derived from cycles; carried
/// for objective selection, not a dominance dimension).
struct ParetoCost {
  double cycles = 0.0;
  double powerMw = 0.0;
  double area = 0.0;  ///< mm² (ASIC) or device fraction (FPGA)
  double utilization = 0.0;
};

struct ParetoEntry {
  ParetoCost cost;
  std::size_t order = 0;  ///< global enumeration index — the canonical tie-break
};

/// True iff every cost dimension is finite (NaN and ±inf never enter a
/// frontier: a non-finite cost means the model failed, not a cheap design).
bool finiteCost(const ParetoCost& cost);

/// a dominates b: <= in all of (cycles, powerMw, area) and < in at least one.
bool dominates(const ParetoCost& a, const ParetoCost& b);

/// Bit-equality on the three dominance axes — the predicate behind the
/// canonical smallest-order collapse (utilization is not compared; it is
/// derived, not a dominance dimension).
bool equalCost(const ParetoCost& a, const ParetoCost& b);

class ParetoFrontier {
 public:
  /// Inserts if the cost is finite and no resident dominates it; prunes
  /// residents the new point dominates. Points with bit-equal costs are
  /// collapsed to the smallest `order`. Returns true iff the point was
  /// kept; the orders of pruned residents are appended to `*pruned` (the
  /// rejected point itself is never listed).
  bool insert(const ParetoEntry& entry,
              std::vector<std::size_t>* pruned = nullptr);

  /// Inserts every entry of `other` (set-union semantics).
  void merge(const ParetoFrontier& other,
             std::vector<std::size_t>* pruned = nullptr);

  /// True iff some resident strictly dominates `cost` (<= everywhere, < in
  /// at least one axis). This is the pruning oracle of the exploration
  /// service: when it holds for a candidate's *lower bound*, the candidate's
  /// true cost is dominated too and insert() would reject it, so the full
  /// evaluation can be skipped without changing the frontier. Equal-cost
  /// points never count — the order-collapse tie rule needs the real entry.
  bool strictlyDominates(const ParetoCost& cost) const;

  /// Residents in unspecified order.
  const std::vector<ParetoEntry>& entries() const { return entries_; }

  /// Residents sorted by (cycles, powerMw, area, order) — the canonical
  /// result order every thread count reproduces.
  std::vector<ParetoEntry> sorted() const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  std::vector<ParetoEntry> entries_;
};

/// Index of the objective winner among `entries` with canonical tie-breaks
/// (independent of the entries' order):
///   Performance — max utilization; ties: min power, min area, min order.
///   Power       — min power among entries with utilization >= 0.9 * best
///                 utilization (band edge inclusive); ties: max
///                 utilization, min area, min order.
///   EnergyDelay — min powerMw * cycles; ties: min cycles, min area,
///                 min order.
/// nullopt iff `entries` is empty.
std::optional<std::size_t> pickBest(const std::vector<ParetoEntry>& entries,
                                    Objective objective);

}  // namespace tensorlib::driver
