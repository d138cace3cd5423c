#pragma once
// Combinational equivalence checking, as a tiered strategy:
//
//   1. A random-pattern 64-way bit-parallel simulation sweep (BitSim over
//      both netlists with name-matched inputs driven identically). Any
//      mismatching output word immediately yields a concrete counterexample
//      — inequivalent designs are almost always refuted here without a
//      single BDD node being built.
//   2. A SAT miter over one joint AIG of both netlists: structural hashing
//      discharges identical output pairs for free, and every other pair
//      is one CDCL query. The queries run in output order in batches of
//      kEquivPairsPerSolver consecutive pairs, each batch on a fresh
//      solver and CNF encoding: neighbouring outputs share their cones,
//      so a batch stays cone-local instead of dragging every cone
//      encoded so far through each later query (the solver recycling of
//      ABC's `cec`). A SAT answer is an exact counterexample, taken from
//      the solver that found it.
//   3. A BDD identity proof (outputs as BDDs over name-matched primary
//      inputs) for designs the SAT tier left undecided (budget spent,
//      or useSat off), optionally under a node/step budget
//      (EquivOptions::bddNodeBudget / bddStepBudget).
//   4. If that budget trips, a deepened random screen instead of a hang:
//      the verdict degrades to method=Sim with an explicit confidence
//      below 1.0 — sound for "inequivalent" (a counterexample is exact),
//      honest about "equivalent" (screened, not proven).
//
// Only valid for purely combinational netlists; sequential designs are
// compared via their combinational envelopes (see seq_equiv) or by
// co-simulation in the test suites.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "logic/bdd.hpp"
#include "netlist/netlist.hpp"

namespace lis::netlist {

/// How a verdict was reached. Structural covers the interface/skeleton
/// comparisons of the sequential checker, which never touch functions;
/// Sat is the miter tier sitting between the sim screen and the BDD
/// identity proof.
enum class EquivMethod : std::uint8_t { Sim, Bdd, Structural, Sat };
const char* equivMethodName(EquivMethod m);

/// Proof resource footprint, carried on every result (zeros for the
/// phases that never ran) and accumulated per design by the flow so proof
/// memory/search pressure is visible in reports.
struct ProofStats {
  std::size_t bddNodes = 0;       // arena nodes at the end of the attempt
  std::size_t uniqueCapacity = 0; // unique-table slots (occupancy basis)
  std::uint64_t applyCalls = 0;
  std::uint64_t uniqueGrowths = 0;
  // SAT-tier footprint (zeros when the SAT miter never ran).
  std::uint64_t satConflicts = 0;
  std::uint64_t satDecisions = 0;
  std::uint64_t satPropagations = 0;

  void accumulate(const ProofStats& o) {
    bddNodes += o.bddNodes;
    uniqueCapacity += o.uniqueCapacity;
    applyCalls += o.applyCalls;
    uniqueGrowths += o.uniqueGrowths;
    satConflicts += o.satConflicts;
    satDecisions += o.satDecisions;
    satPropagations += o.satPropagations;
  }
  /// Arena fill fraction, 0 when no BDD was ever built.
  double occupancy() const {
    return uniqueCapacity == 0
               ? 0.0
               : static_cast<double>(bddNodes) /
                     static_cast<double>(uniqueCapacity);
  }
};

/// Non-trivial output pairs the SAT tier asks one solver before starting
/// a fresh one (see the header comment).
inline constexpr std::size_t kEquivPairsPerSolver = 32;

struct EquivOptions {
  /// 64 * simWords random patterns per sweep round. 0 disables the sweep.
  unsigned simWords = 4;
  unsigned simRounds = 4;
  std::uint64_t seed = 0x51f0a11ed5ee7ULL;
  /// BDD-phase budgets; 0 = unlimited (the historical behaviour). When a
  /// budget trips the checker falls back to fallbackSimRounds extra sweep
  /// rounds (fresh seed stream) and returns a degraded verdict.
  std::size_t bddNodeBudget = 0;
  std::uint64_t bddStepBudget = 0;
  unsigned fallbackSimRounds = 64;
  /// SAT miter tier between the sweep and the BDD proof. Runs one CDCL
  /// query per surviving output pair over a joint AIG, on a fresh solver
  /// per kEquivPairsPerSolver pairs. The conflict and propagation budgets
  /// are totals over the whole proof (0 = unlimited): each solver gets
  /// what the earlier ones left, and a tripped or spent budget hands the
  /// obligation to the BDD tier untouched.
  bool useSat = true;
  std::uint64_t satConflictBudget = std::uint64_t{1} << 22;
  std::uint64_t satPropagationBudget = 0;
};

/// Width-agnostic counterexample: the shared report format filled by
/// whichever tier refuted (sim lane, SAT model or BDD witness). Unlike
/// EquivResult::counterexample this also exists for interfaces wider
/// than 64 inputs.
struct CexReport {
  std::string output;                               // mismatching PO pair
  std::vector<std::pair<std::string, bool>> inputs; // name -> value
  std::string format() const;
};

struct EquivResult {
  bool equivalent = false;
  /// Name of the first mismatching output, when not equivalent.
  std::string failingOutput;
  /// A distinguishing input assignment (bit i = input i of `a`), if found.
  /// Never populated for interfaces wider than 64 inputs (the verdict is
  /// still exact; only this compact witness cannot be encoded — see `cex`
  /// for the width-agnostic report).
  std::optional<std::uint64_t> counterexample;
  /// Width-agnostic named-input counterexample, populated by every tier
  /// that refutes with a concrete assignment (including wide mode).
  std::optional<CexReport> cex;
  /// True when the counterexample came out of the simulation sweep, i.e.
  /// the BDD phase was never entered.
  bool foundBySimulation = false;
  /// How the verdict was reached, and how much to trust it. A completed
  /// BDD identity proof or any concrete counterexample has confidence 1;
  /// a budget-degraded "equivalent" is a screen, reported with
  /// degraded=true and a confidence strictly below 1 derived from the
  /// number of random patterns that failed to distinguish the designs.
  EquivMethod method = EquivMethod::Bdd;
  double confidence = 1.0;
  bool degraded = false;
  ProofStats proof;
};

/// Check that two combinational netlists with identical input/output name
/// sets compute the same functions. Throws std::invalid_argument if the
/// interfaces differ or either netlist has registers. Interfaces wider
/// than 64 inputs are proven the same way (sim sweep + BDD identity), just
/// without a compact counterexample.
EquivResult checkCombEquivalence(const Netlist& a, const Netlist& b,
                                 const EquivOptions& opts = {});

/// Build BDDs for every node of a combinational netlist; returns one BddRef
/// per node. `varOfInput` resolves an Input node to its manager variable
/// index (this is what lets two netlists with differently ordered inputs
/// share one variable space). Throws on sequential netlists.
std::vector<logic::BddRef> buildAllBdds(
    const Netlist& nl, logic::BddManager& mgr,
    const std::function<unsigned(NodeId)>& varOfInput);

/// Build the BDD of a single output of a combinational netlist; variable i
/// of the manager corresponds to inputs()[i].
logic::BddRef outputBdd(const Netlist& nl, logic::BddManager& mgr,
                        NodeId output);

} // namespace lis::netlist
