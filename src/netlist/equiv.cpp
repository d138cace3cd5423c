#include "netlist/equiv.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>
#include <vector>

#include "aig/aig.hpp"
#include "netlist/bitsim.hpp"
#include "obs/trace.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"

namespace lis::netlist {

const char* equivMethodName(EquivMethod m) {
  switch (m) {
    case EquivMethod::Sim: return "sim";
    case EquivMethod::Bdd: return "bdd";
    case EquivMethod::Structural: return "structural";
    case EquivMethod::Sat: return "sat";
  }
  return "?";
}

std::string CexReport::format() const {
  std::string s = "output '" + output + "' differs under:";
  for (const auto& [name, value] : inputs) {
    s += ' ';
    s += name;
    s += '=';
    s += value ? '1' : '0';
  }
  return s;
}

std::vector<logic::BddRef> buildAllBdds(
    const Netlist& nl, logic::BddManager& mgr,
    const std::function<unsigned(NodeId)>& varOfInput) {
  if (!nl.dffs().empty()) {
    throw std::invalid_argument("buildAllBdds: netlist is sequential");
  }
  // Note: more than 64 inputs is fine for BDD construction and identity
  // proofs; only the counterexample-extraction APIs (evaluate/anySat)
  // encode an assignment in one uint64_t. Callers guard those themselves
  // (see checkCombEquivalence's wide mode).
  std::vector<logic::BddRef> node2bdd(nl.nodeCount(),
                                      logic::BddManager::kFalse);
  for (NodeId id : nl.topoOrder()) {
    const Node& n = nl.node(id);
    switch (n.op) {
      case Op::Input:
        node2bdd[id] = mgr.var(varOfInput(id));
        break;
      case Op::Const0:
        node2bdd[id] = logic::BddManager::kFalse;
        break;
      case Op::Const1:
        node2bdd[id] = logic::BddManager::kTrue;
        break;
      case Op::Not:
        node2bdd[id] = mgr.bddNot(node2bdd[n.fanin[0]]);
        break;
      case Op::And:
        node2bdd[id] = mgr.bddAnd(node2bdd[n.fanin[0]], node2bdd[n.fanin[1]]);
        break;
      case Op::Or:
        node2bdd[id] = mgr.bddOr(node2bdd[n.fanin[0]], node2bdd[n.fanin[1]]);
        break;
      case Op::Xor:
        node2bdd[id] = mgr.bddXor(node2bdd[n.fanin[0]], node2bdd[n.fanin[1]]);
        break;
      case Op::Mux:
        node2bdd[id] = mgr.ite(node2bdd[n.fanin[0]], node2bdd[n.fanin[2]],
                               node2bdd[n.fanin[1]]);
        break;
      case Op::Output:
        node2bdd[id] = node2bdd[n.fanin[0]];
        break;
      case Op::RomBit: {
        // Expand the ROM bit as a sum of address minterms. Words past what
        // the wired address bits can select are unreachable and must not be
        // expanded — the simulators read them as 0 (see BitSim::evalRom).
        const Rom& rom = nl.rom(n.romId);
        logic::BddRef f = logic::BddManager::kFalse;
        std::uint64_t depth = rom.words.size();
        if (n.fanin.size() < 64) {
          depth = std::min(depth, std::uint64_t{1} << n.fanin.size());
        }
        for (std::uint64_t addr = 0; addr < depth; ++addr) {
          if (((rom.words[addr] >> n.romBit) & 1u) == 0) continue;
          logic::BddRef minterm = logic::BddManager::kTrue;
          for (std::size_t i = 0; i < n.fanin.size(); ++i) {
            const logic::BddRef lit = ((addr >> i) & 1u) != 0
                                          ? node2bdd[n.fanin[i]]
                                          : mgr.bddNot(node2bdd[n.fanin[i]]);
            minterm = mgr.bddAnd(minterm, lit);
          }
          f = mgr.bddOr(f, minterm);
        }
        node2bdd[id] = f;
        break;
      }
      case Op::Dff:
        throw std::invalid_argument("buildAllBdds: netlist is sequential");
    }
  }
  return node2bdd;
}

logic::BddRef outputBdd(const Netlist& nl, logic::BddManager& mgr,
                        NodeId output) {
  std::vector<unsigned> varOf(nl.nodeCount(), 0);
  for (unsigned i = 0; i < nl.inputs().size(); ++i) {
    varOf[nl.inputs()[i]] = i;
  }
  auto node2bdd =
      buildAllBdds(nl, mgr, [&](NodeId id) { return varOf[id]; });
  return node2bdd[output];
}

EquivResult checkCombEquivalence(const Netlist& a, const Netlist& b,
                                 const EquivOptions& opts) {
  // Match interfaces by name.
  auto names = [](const Netlist& nl, const std::vector<NodeId>& ids) {
    std::vector<std::string> v;
    v.reserve(ids.size());
    for (NodeId id : ids) v.push_back(nl.node(id).name);
    std::sort(v.begin(), v.end());
    return v;
  };
  if (names(a, a.inputs()) != names(b, b.inputs()) ||
      names(a, a.outputs()) != names(b, b.outputs())) {
    throw std::invalid_argument(
        "checkCombEquivalence: interface name sets differ");
  }
  if (!a.dffs().empty() || !b.dffs().empty()) {
    throw std::invalid_argument("checkCombEquivalence: netlist is sequential");
  }
  // Wide mode: beyond 64 inputs the verdict machinery is unchanged (the
  // sweep and the BDD identity proof are width-agnostic) but the compact
  // uint64 counterexample cannot be formed, so it stays empty.
  const bool wide = a.inputs().size() > 64;

  std::map<std::string, NodeId> bInputByName;
  for (NodeId id : b.inputs()) bInputByName[b.node(id).name] = id;
  std::map<std::string, NodeId> aOutByName, bOutByName;
  for (NodeId id : a.outputs()) aOutByName[a.node(id).name] = id;
  for (NodeId id : b.outputs()) bOutByName[b.node(id).name] = id;

  // Random sweep over `rounds` rounds of 64*simWords patterns from `seed`.
  // Used both as the cheap phase-1 disprover and, deepened with a fresh
  // seed stream, as the degradation path when the BDD budget trips.
  auto simSweep = [&](unsigned rounds,
                      std::uint64_t seed) -> std::optional<EquivResult> {
    if (opts.simWords == 0 || rounds == 0) return std::nullopt;
    BitSim simA(a, opts.simWords);
    BitSim simB(b, opts.simWords);
    support::SplitMix64 rng(seed);
    for (unsigned round = 0; round < rounds; ++round) {
      for (NodeId ia : a.inputs()) {
        const NodeId ib = bInputByName.at(a.node(ia).name);
        for (unsigned w = 0; w < opts.simWords; ++w) {
          const std::uint64_t lanes = rng.next();
          simA.setInputWord(ia, w, lanes);
          simB.setInputWord(ib, w, lanes);
        }
      }
      simA.settle();
      simB.settle();
      for (const auto& [name, idA] : aOutByName) {
        const NodeId idB = bOutByName.at(name);
        for (unsigned w = 0; w < opts.simWords; ++w) {
          const std::uint64_t diff = simA.word(idA, w) ^ simB.word(idB, w);
          if (diff == 0) continue;
          const std::size_t laneIdx =
              std::size_t{w} * 64 +
              static_cast<unsigned>(std::countr_zero(diff));
          EquivResult result;
          result.equivalent = false;
          result.failingOutput = name;
          result.foundBySimulation = true;
          // A concrete mismatch is an exact disproof, budget or not.
          result.method = EquivMethod::Sim;
          result.confidence = 1.0;
          CexReport report;
          report.output = name;
          std::uint64_t cex = 0;
          for (std::size_t i = 0; i < a.inputs().size(); ++i) {
            const bool v = simA.lane(a.inputs()[i], laneIdx);
            report.inputs.emplace_back(a.node(a.inputs()[i]).name, v);
            if (v && i < 64) cex |= std::uint64_t{1} << i;
          }
          if (!wide) result.counterexample = cex;
          result.cex = std::move(report);
          return result;
        }
      }
    }
    return std::nullopt;
  };

  // --- Phase 1: bit-parallel random sweep. Disproving is cheap here; the
  // expensive proof machinery below only runs on designs that survive it.
  if (auto refuted = simSweep(opts.simRounds, opts.seed)) return *refuted;

  // --- Phase 2: SAT miter. Both netlists are lowered into one AIG over
  // shared name-matched inputs; structural hashing discharges identical
  // cones outright and each surviving XOR pair becomes one CDCL query. The
  // queries run in output order, kEquivPairsPerSolver to a fresh solver:
  // neighbouring outputs share their cones, while a solver that lived for
  // the whole miter would drag every cone encoded so far through each
  // later query's propagation and decision heap. A SAT answer is an exact
  // counterexample at any width; all UNSAT is a proof. A tripped budget
  // falls through to the BDD identity proof with the partial search
  // footprint kept on whatever that returns.
  ProofStats satPartial;
  if (opts.useSat) {
    obs::Span satSpan("sat.equiv");
    aig::Aig miter;
    std::map<std::string, aig::Lit> piByName;
    for (NodeId id : a.inputs()) piByName[a.node(id).name] = miter.addPi();
    const auto inputOfA = [&](NodeId id) {
      return piByName.at(a.node(id).name);
    };
    const auto inputOfB = [&](NodeId id) {
      return piByName.at(b.node(id).name);
    };
    const std::vector<aig::Lit> outsA =
        sat::appendCombinational(miter, a, inputOfA);
    const std::vector<aig::Lit> outsB =
        sat::appendCombinational(miter, b, inputOfB);
    std::map<std::string, std::size_t> bOutPos;
    for (std::size_t j = 0; j < b.outputs().size(); ++j) {
      bOutPos[b.node(b.outputs()[j]).name] = j;
    }
    // (a output index, miter XOR) per pair strashing did not discharge.
    std::vector<std::pair<std::size_t, aig::Lit>> pairs;
    for (std::size_t i = 0; i < a.outputs().size(); ++i) {
      const aig::Lit xorLit = miter.addXor(
          outsA[i], outsB[bOutPos.at(a.node(a.outputs()[i]).name)]);
      if (xorLit != aig::kLitFalse) pairs.emplace_back(i, xorLit);
    }

    // Budgets are whole-proof totals: each solver gets what the earlier
    // ones left (0 stays unlimited).
    const auto leftOf = [](std::uint64_t budget, std::uint64_t spent) {
      return budget == 0 ? 0 : budget - std::min(budget, spent);
    };
    std::uint64_t queries = 0;
    std::uint64_t solvers = 0;
    const auto noteSpan = [&] {
      satSpan.arg("queries", static_cast<double>(queries));
      satSpan.arg("solvers", static_cast<double>(solvers));
    };
    bool unknown = false;
    for (std::size_t first = 0; first < pairs.size() && !unknown;
         first += kEquivPairsPerSolver) {
      const sat::SolverBudget left{
          leftOf(opts.satConflictBudget, satPartial.satConflicts),
          leftOf(opts.satPropagationBudget, satPartial.satPropagations)};
      // A budget spent to the last unit ends the tier like a tripped one.
      if ((opts.satConflictBudget != 0 && left.maxConflicts == 0) ||
          (opts.satPropagationBudget != 0 && left.maxPropagations == 0)) {
        unknown = true;
        break;
      }
      sat::Solver solver(support::SplitMix64(opts.seed).forkSeed(2));
      solver.setBudget(left);
      sat::AigCnf cnf(solver, miter);
      ++solvers;
      const auto spentSoFar = [&] {
        ProofStats p = satPartial;
        p.satConflicts += solver.stats().conflicts;
        p.satDecisions += solver.stats().decisions;
        p.satPropagations += solver.stats().propagations;
        return p;
      };
      const std::size_t last =
          std::min(first + kEquivPairsPerSolver, pairs.size());
      for (std::size_t k = first; k < last && !unknown; ++k) {
        const auto [i, xorLit] = pairs[k];
        ++queries;
        const sat::Result r = solver.solve({cnf.lit(xorLit)});
        if (r == sat::Result::Sat) {
          const std::string& name = a.node(a.outputs()[i]).name;
          EquivResult result;
          result.equivalent = false;
          result.failingOutput = name;
          result.method = EquivMethod::Sat;
          result.confidence = 1.0;
          CexReport report;
          report.output = name;
          std::uint64_t compact = 0;
          for (std::size_t p = 0; p < a.inputs().size(); ++p) {
            const bool v = solver.modelValue(cnf.piLit(p));
            report.inputs.emplace_back(a.node(a.inputs()[p]).name, v);
            if (v && p < 64) compact |= std::uint64_t{1} << p;
          }
          if (!wide) result.counterexample = compact;
          result.cex = std::move(report);
          result.proof = spentSoFar();
          noteSpan();
          return result;
        }
        unknown = r == sat::Result::Unknown;
      }
      satPartial = spentSoFar();
    }
    noteSpan();
    if (!unknown) {
      EquivResult result;
      result.equivalent = true;
      result.method = EquivMethod::Sat;
      result.proof = satPartial;
      return result;
    }
  }

  // --- Phase 3: BDD proof for the survivors. The variable order is a
  // fanin-DFS from a's outputs (in name order): inputs of one cone cluster
  // together and datapath operands interleave per bit, which keeps carry
  // chains linear where the naive inputs()-index order is exponential
  // (e.g. an accumulator adding a register bus to a mux of buffer buses).
  // b's inputs map to the same variables by name, so both sides share one
  // variable space regardless of their own input order.
  constexpr unsigned kUnassigned = ~0u;
  std::vector<unsigned> varOfA(a.nodeCount(), kUnassigned);
  {
    std::vector<char> visited(a.nodeCount(), 0);
    unsigned nextVar = 0;
    std::vector<NodeId> stack;
    for (const auto& [name, outId] : aOutByName) stack.push_back(outId);
    // aOutByName pushed in name order; DFS explores the last first, which
    // is fine — any fixed order works, determinism is what matters.
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (visited[id]) continue;
      visited[id] = 1;
      if (a.node(id).op == Op::Input) {
        varOfA[id] = nextVar++;
        continue;
      }
      const auto& fanin = a.node(id).fanin;
      for (auto it = fanin.rbegin(); it != fanin.rend(); ++it) {
        stack.push_back(*it);
      }
    }
    for (NodeId id : a.inputs()) {
      if (varOfA[id] == kUnassigned) varOfA[id] = nextVar++;
    }
  }
  logic::BddManager mgr(static_cast<unsigned>(a.inputs().size()));
  mgr.setBudget({opts.bddNodeBudget, opts.bddStepBudget});
  const auto proofStatsOf = [&] {
    ProofStats p = satPartial; // keep the SAT tier's partial search visible
    p.bddNodes = mgr.nodeCount();
    p.uniqueCapacity = mgr.uniqueCapacity();
    p.applyCalls = mgr.stats().applyCalls;
    p.uniqueGrowths = mgr.stats().uniqueGrowths;
    return p;
  };
  std::map<std::string, unsigned> varOfName;
  for (NodeId id : a.inputs()) {
    varOfName[a.node(id).name] = varOfA[id];
  }
  try {
    auto bddsA = buildAllBdds(a, mgr, [&](NodeId id) { return varOfA[id]; });
    auto bddsB = buildAllBdds(
        b, mgr, [&](NodeId id) { return varOfName.at(b.node(id).name); });

    EquivResult result;
    result.equivalent = true;
    for (const auto& [name, idA] : aOutByName) {
      const logic::BddRef fa = bddsA[idA];
      const logic::BddRef fb = bddsB[bOutByName.at(name)];
      if (fa == fb) continue;
      result.equivalent = false;
      result.failingOutput = name;
      result.method = EquivMethod::Bdd;
      try {
        const logic::BddRef diff = mgr.bddXor(fa, fb);
        std::vector<signed char> assignment;
        if (mgr.anySatAssignment(diff, assignment)) {
          // The witness speaks BDD-variable space; translate back to
          // input names (and, when it fits, the documented compact
          // "bit i = input i of a" encoding). Don't-cares read as 0.
          CexReport report;
          report.output = name;
          std::uint64_t cex = 0;
          for (std::size_t i = 0; i < a.inputs().size(); ++i) {
            const bool v = assignment[varOfA[a.inputs()[i]]] == 1;
            report.inputs.emplace_back(a.node(a.inputs()[i]).name, v);
            if (v && i < 64) cex |= std::uint64_t{1} << i;
          }
          if (!wide) result.counterexample = cex;
          result.cex = std::move(report);
        }
      } catch (const logic::ResourceLimitExceeded&) {
        // The identity disproof already stands (fa != fb under one shared
        // variable space); only the concrete witness is lost. Keep the
        // exact verdict rather than degrading it.
      }
      break;
    }
    result.proof = proofStatsOf();
    return result;
  } catch (const logic::ResourceLimitExceeded&) {
    // --- Phase 4: BDD budget tripped. Deepen the random screen on a fresh
    // seed stream; either it finds a counterexample (exact disproof) or
    // the designs survive and we return a degraded, honestly-quantified
    // "equivalent". The partial proof's footprint is still reported.
    const ProofStats partial = proofStatsOf();
    if (auto refuted = simSweep(opts.fallbackSimRounds,
                                support::SplitMix64(opts.seed).forkSeed(1))) {
      refuted->proof = partial;
      return *refuted;
    }
    EquivResult result;
    result.equivalent = true;
    result.method = EquivMethod::Sim;
    result.degraded = true;
    // Confidence heuristic: P random patterns that failed to distinguish
    // the designs. Saturates towards 1 but never reaches it — a screen is
    // not a proof. The 256 pivot is arbitrary and documented as such.
    const double patterns = 64.0 * opts.simWords *
                            (double(opts.simRounds) + opts.fallbackSimRounds);
    result.confidence = patterns / (patterns + 256.0);
    result.proof = partial;
    return result;
  }
}

} // namespace lis::netlist
