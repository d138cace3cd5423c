// sat_test — the CDCL core against known-hard/known-easy instances, the
// CNF encoder against exhaustive netlist evaluation, SAT-sweeping
// soundness on real wrapper/mesh configs, and unbounded proofs of the
// protocol invariants including a deliberately broken relay with
// violations at known depths.

#include <cstdint>
#include <map>
#include <vector>

#include "aig/aig.hpp"
#include "lis/oracle.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "logic/bdd.hpp"
#include "netlist/cone.hpp"
#include "netlist/equiv.hpp"
#include "netlist/generate.hpp"
#include "netlist/netlist_sim.hpp"
#include "netlist/seq_equiv.hpp"
#include "obs/trace.hpp"
#include "sat/cnf.hpp"
#include "sat/pdr.hpp"
#include "sat/solver.hpp"
#include "sat/sweep.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace sat = lis::sat;
namespace nlx = lis::netlist;
namespace gen = lis::netlist::gen;
namespace lsync = lis::sync;

namespace {

// ---------------------------------------------------------------------------
// helpers

/// Scalar reference evaluation of a combinational netlist.
std::vector<bool> evalNetlist(const nlx::Netlist& nl,
                              const std::map<nlx::NodeId, bool>& inputs) {
  std::vector<bool> val(nl.nodes().size(), false);
  for (const nlx::NodeId id : nl.topoOrder()) {
    const nlx::Node& n = nl.node(id);
    switch (n.op) {
    case nlx::Op::Input: val[id] = inputs.at(id); break;
    case nlx::Op::Const0: val[id] = false; break;
    case nlx::Op::Const1: val[id] = true; break;
    case nlx::Op::Not: val[id] = !val[n.fanin[0]]; break;
    case nlx::Op::And: val[id] = val[n.fanin[0]] && val[n.fanin[1]]; break;
    case nlx::Op::Or: val[id] = val[n.fanin[0]] || val[n.fanin[1]]; break;
    case nlx::Op::Xor: val[id] = val[n.fanin[0]] != val[n.fanin[1]]; break;
    case nlx::Op::Mux:
      val[id] = val[n.fanin[0]] ? val[n.fanin[2]] : val[n.fanin[1]];
      break;
    case nlx::Op::Output: val[id] = val[n.fanin[0]]; break;
    case nlx::Op::RomBit: {
      const nlx::Rom& rom = nl.rom(n.romId);
      std::uint64_t addr = 0;
      for (std::size_t i = 0; i < n.fanin.size(); i++) {
        addr |= std::uint64_t{val[n.fanin[i]] ? 1u : 0u} << i;
      }
      val[id] = addr < rom.words.size() &&
                ((rom.words[addr] >> n.romBit) & 1u) != 0;
      break;
    }
    case nlx::Op::Dff: CHECK(false); break;
    }
  }
  std::vector<bool> outs;
  for (const nlx::NodeId o : nl.outputs()) outs.push_back(val[o]);
  return outs;
}

/// Pigeonhole principle: `pigeons` into `holes`; UNSAT when pigeons > holes.
void addPigeonhole(sat::Solver& s, unsigned pigeons, unsigned holes) {
  std::vector<sat::Var> v(pigeons * holes);
  for (auto& x : v) x = s.newVar();
  const auto at = [&](unsigned i, unsigned j) { return v[i * holes + j]; };
  std::vector<sat::Lit> clause;
  for (unsigned i = 0; i < pigeons; i++) {
    clause.clear();
    for (unsigned j = 0; j < holes; j++) clause.push_back(sat::mkLit(at(i, j)));
    s.addClause(clause);
  }
  for (unsigned j = 0; j < holes; j++) {
    for (unsigned i1 = 0; i1 < pigeons; i1++) {
      for (unsigned i2 = i1 + 1; i2 < pigeons; i2++) {
        s.addClause({sat::mkLit(at(i1, j), true), sat::mkLit(at(i2, j), true)});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// solver core

void testLiteralHelpers() {
  const sat::Lit p = sat::mkLit(7);
  CHECK_EQ(sat::litVar(p), 7u);
  CHECK(!sat::litSign(p));
  CHECK(sat::litSign(sat::litNeg(p)));
  CHECK_EQ(sat::litVar(sat::litNeg(p)), 7u);
  CHECK_EQ(sat::litNeg(sat::litNeg(p)), p);
}

void testTrivialClauses() {
  sat::Solver s;
  const sat::Var a = s.newVar();
  const sat::Var b = s.newVar();
  // Tautology and satisfied clauses are absorbed.
  CHECK(s.addClause({sat::mkLit(a), sat::mkLit(a, true)}));
  CHECK(s.addClause({sat::mkLit(a)}));
  CHECK(s.addClause({sat::mkLit(a), sat::mkLit(b)}));
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Sat));
  CHECK(s.modelValue(sat::mkLit(a)));
  // Unit contradiction flips the solver to top-level UNSAT.
  CHECK(!s.addClause({sat::mkLit(a, true)}));
  CHECK(!s.okay());
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Unsat));
}

void testPigeonholeUnsat() {
  sat::Solver s;
  addPigeonhole(s, 5, 4);
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Unsat));
  CHECK(s.stats().conflicts > 0);
  CHECK(s.unsatAssumptions().empty());

  sat::Solver sat5;
  addPigeonhole(sat5, 5, 5);
  CHECK_EQ(static_cast<int>(sat5.solve()),
           static_cast<int>(sat::Result::Sat));
}

void testRandom3CnfVsBruteForce() {
  const unsigned n = 10, m = 44;
  for (std::uint64_t seed = 0; seed < 12; seed++) {
    lis::support::SplitMix64 rng(0xc3f5eed + seed);
    std::vector<std::vector<sat::Lit>> clauses;
    for (unsigned c = 0; c < m; c++) {
      std::vector<sat::Lit> cl;
      while (cl.size() < 3) {
        const sat::Var v = static_cast<sat::Var>(rng.below(n));
        bool dup = false;
        for (const sat::Lit l : cl) dup = dup || sat::litVar(l) == v;
        if (!dup) cl.push_back(sat::mkLit(v, rng.flip()));
      }
      clauses.push_back(cl);
    }
    bool bruteSat = false;
    for (std::uint32_t a = 0; a < (1u << n) && !bruteSat; a++) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (const sat::Lit l : cl) {
          const bool v = ((a >> sat::litVar(l)) & 1u) != 0;
          any = any || (v != sat::litSign(l));
        }
        all = all && any;
      }
      bruteSat = all;
    }
    sat::Solver s(seed);
    for (unsigned v = 0; v < n; v++) s.newVar();
    bool ok = true;
    for (const auto& cl : clauses) ok = s.addClause(cl) && ok;
    const sat::Result r = ok ? s.solve() : sat::Result::Unsat;
    CHECK_EQ(static_cast<int>(r), static_cast<int>(bruteSat ? sat::Result::Sat
                                                            : sat::Result::Unsat));
    if (r == sat::Result::Sat) {
      for (const auto& cl : clauses) {
        bool any = false;
        for (const sat::Lit l : cl) any = any || s.modelValue(l);
        CHECK(any);
      }
    }
  }
}

void testAssumptionsAndUnsatCore() {
  sat::Solver s;
  const sat::Var a = s.newVar(), b = s.newVar(), c = s.newVar(),
                 d = s.newVar();
  // a -> b, b -> c.
  s.addClause({sat::mkLit(a, true), sat::mkLit(b)});
  s.addClause({sat::mkLit(b, true), sat::mkLit(c)});
  // SAT under {a}; the model respects the implication chain.
  CHECK_EQ(static_cast<int>(s.solve({sat::mkLit(a)})),
           static_cast<int>(sat::Result::Sat));
  CHECK(s.modelValue(sat::mkLit(c)));
  // UNSAT under {a, !c}; the core names both, never the irrelevant d.
  const sat::Result r = s.solve({sat::mkLit(a), sat::mkLit(c, true),
                                 sat::mkLit(d)});
  CHECK_EQ(static_cast<int>(r), static_cast<int>(sat::Result::Unsat));
  const std::vector<sat::Lit>& core = s.unsatAssumptions();
  CHECK(!core.empty());
  bool hasA = false, hasNotC = false, hasD = false;
  for (const sat::Lit l : core) {
    hasA = hasA || l == sat::mkLit(a);
    hasNotC = hasNotC || l == sat::mkLit(c, true);
    hasD = hasD || sat::litVar(l) == d;
  }
  CHECK(hasA);
  CHECK(hasNotC);
  CHECK(!hasD);
  // Still SAT without assumptions: nothing was permanently asserted.
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Sat));
  CHECK(s.okay());
}

void testBudgetTiering() {
  sat::Solver s;
  addPigeonhole(s, 8, 7);
  s.setBudget({10, 0});
  CHECK_EQ(static_cast<int>(s.solve()),
           static_cast<int>(sat::Result::Unknown));
  CHECK(s.okay()); // no verdict, state intact
  bool threw = false;
  try {
    (void)s.solveOrThrow({}, "sat_test");
  } catch (const lis::logic::ResourceLimitExceeded& e) {
    threw = true;
    CHECK(std::string(e.resource()) == "conflict");
    CHECK(e.used() >= e.limit());
  }
  CHECK(threw);
  // Lifting the budget finishes the proof on the same solver.
  s.setBudget({0, 0});
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Unsat));
}

void testSolverDeterminism() {
  sat::SolverStats first;
  for (int run = 0; run < 2; run++) {
    sat::Solver s(0xabc);
    addPigeonhole(s, 6, 5);
    CHECK_EQ(static_cast<int>(s.solve()),
             static_cast<int>(sat::Result::Unsat));
    if (run == 0) {
      first = s.stats();
    } else {
      CHECK_EQ(s.stats().conflicts, first.conflicts);
      CHECK_EQ(s.stats().decisions, first.decisions);
      CHECK_EQ(s.stats().propagations, first.propagations);
      CHECK_EQ(s.stats().restarts, first.restarts);
    }
  }
  // A different seed may search differently but answers the same.
  sat::Solver s2(0xdef);
  addPigeonhole(s2, 6, 5);
  CHECK_EQ(static_cast<int>(s2.solve()), static_cast<int>(sat::Result::Unsat));
}

// ---------------------------------------------------------------------------
// CNF encoding

void checkCnfMatchesNetlist(const nlx::Netlist& nl) {
  const std::size_t n = nl.inputs().size();
  CHECK(n <= 10);
  lis::aig::Aig g;
  std::map<nlx::NodeId, lis::aig::Lit> piOf;
  for (const nlx::NodeId id : nl.inputs()) piOf[id] = g.addPi();
  const std::vector<lis::aig::Lit> outs = sat::appendCombinational(
      g, nl, [&](nlx::NodeId id) { return piOf.at(id); });

  sat::Solver s;
  sat::AigCnf cnf(s, g);
  std::vector<sat::Lit> outLits;
  for (const lis::aig::Lit l : outs) outLits.push_back(cnf.lit(l));
  std::vector<sat::Lit> inLits;
  for (std::size_t i = 0; i < n; i++) inLits.push_back(cnf.piLit(i));

  for (std::uint32_t pat = 0; pat < (1u << n); pat++) {
    std::vector<sat::Lit> assume;
    std::map<nlx::NodeId, bool> inputs;
    for (std::size_t i = 0; i < n; i++) {
      const bool v = ((pat >> i) & 1u) != 0;
      assume.push_back(v ? inLits[i] : sat::litNeg(inLits[i]));
      inputs[nl.inputs()[i]] = v;
    }
    CHECK_EQ(static_cast<int>(s.solve(assume)),
             static_cast<int>(sat::Result::Sat));
    const std::vector<bool> want = evalNetlist(nl, inputs);
    for (std::size_t o = 0; o < outs.size(); o++) {
      CHECK_EQ(s.modelValue(outLits[o]), want[o]);
    }
  }
}

void testCnfVsExhaustiveEvaluation() {
  checkCnfMatchesNetlist(gen::adder(4)); // 8 inputs
  checkCnfMatchesNetlist(gen::muxTree(2, gen::MuxStyle::Tree));
  checkCnfMatchesNetlist(gen::muxTree(2, gen::MuxStyle::SumOfProducts));
  checkCnfMatchesNetlist(gen::romReader(3, 4, 0x5eed));
  for (std::uint64_t seed = 1; seed <= 3; seed++) {
    checkCnfMatchesNetlist(gen::randomDag(8, 60, 4, seed));
  }
}

void testUnrollerCountsFrames() {
  // 2-bit counter with enable: verifies reset-constant folding, the
  // enable ITE linking and per-frame input variables in one design.
  nlx::Netlist nl("counter");
  const nlx::NodeId en = nl.addInput("en");
  const nlx::NodeId q0 = nl.mkDff(nl.constant(false), en);
  const nlx::NodeId q1 = nl.mkDff(nl.constant(false), en);
  nl.setDffInputs(q0, nl.mkNot(q0), en);
  nl.setDffInputs(q1, nl.mkXor(q1, q0), en);
  nl.addOutput("b0", q0);
  nl.addOutput("b1", q1);
  const nlx::NodeId b0 = nl.outputs()[0];
  const nlx::NodeId b1 = nl.outputs()[1];

  const lis::aig::SequentialAig sa = lis::aig::fromNetlist(nl);
  {
    // Enable forced high: the counter counts the frame index.
    sat::Solver s;
    sat::Unroller u(s, sa, {{en, true}});
    for (unsigned k = 0; k < 6; k++) u.pushFrame();
    CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Sat));
    for (unsigned k = 0; k < 6; k++) {
      CHECK_EQ(s.modelValue(u.outputLit(k, b0)), (k & 1u) != 0);
      CHECK_EQ(s.modelValue(u.outputLit(k, b1)), (k & 2u) != 0);
      CHECK_THROWS(u.inputLit(k, en), std::invalid_argument);
    }
  }
  {
    // Enable free: asking for count==2 at frame 2 forces it high twice.
    sat::Solver s;
    sat::Unroller u(s, sa);
    for (unsigned k = 0; k < 3; k++) u.pushFrame();
    const sat::Result r = s.solve(
        {sat::litNeg(u.outputLit(2, b0)), u.outputLit(2, b1)});
    CHECK_EQ(static_cast<int>(r), static_cast<int>(sat::Result::Sat));
    CHECK(s.modelValue(u.inputLit(0, en)));
    CHECK(s.modelValue(u.inputLit(1, en)));
  }
}

// ---------------------------------------------------------------------------
// SAT sweeping

void testSweepMergesRedundantXor() {
  // Redundancy that structural hashing can NOT catch (commutative swaps
  // strash away on their own): different association orders of the same
  // parity and conjunction functions.
  nlx::Netlist nl("redundant");
  const nlx::NodeId a = nl.addInput("a");
  const nlx::NodeId b = nl.addInput("b");
  const nlx::NodeId c = nl.addInput("c");
  nl.addOutput("p1", nl.mkXor(nl.mkXor(a, b), c));
  nl.addOutput("p2", nl.mkXor(a, nl.mkXor(b, c)));
  nl.addOutput("g1", nl.mkAnd(nl.mkAnd(a, b), c));
  nl.addOutput("g2", nl.mkAnd(a, nl.mkAnd(b, c)));

  const sat::NetlistSweepResult swept = sat::sweepNetlist(nl);
  CHECK(swept.stats.proved > 0);
  CHECK(swept.stats.andsAfter < swept.stats.andsBefore);
  CHECK_EQ(swept.stats.undecided, 0u);
  const nlx::EquivResult eq = nlx::checkCombEquivalence(nl, swept.netlist);
  CHECK(eq.equivalent);
}

void testSweepSoundnessOnRealConfigs() {
  // Post-sweep netlists must stay sequentially equivalent on the real
  // wrapper/mesh constructions (the pipeline pass asserts the same).
  for (const lsync::Encoding enc :
       {lsync::Encoding::OneHot, lsync::Encoding::Binary}) {
    lsync::WrapperConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    cfg.encoding = enc;
    const lsync::Wrapper w = lsync::buildWrapper(cfg);
    const sat::NetlistSweepResult swept = sat::sweepNetlist(w.netlist);
    const nlx::SeqEquivResult r =
        nlx::checkSeqEquivalence(w.netlist, swept.netlist);
    CHECK(r.equivalent);
    CHECK(!r.degraded);
  }
  lsync::SystemSpec mesh = lsync::meshSpec(2, 2, 1, lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(mesh);
  const sat::NetlistSweepResult swept = sat::sweepNetlist(sys.netlist);
  const nlx::SeqEquivResult r =
      nlx::checkSeqEquivalence(sys.netlist, swept.netlist);
  CHECK(r.equivalent);
  CHECK(!r.degraded);
}

// ---------------------------------------------------------------------------
// unbounded proofs (k-induction + PDR)

/// A deliberately broken "relay" that asserts out_valid from reset and
/// never stalls its producer: it invents a token every cycle, and an
/// environment that stalls its output while feeding it overfills it.
/// Shared by the unbounded-proof counterexample tests.
nlx::Netlist brokenRelay(lsync::PortView& view) {
  nlx::Netlist nl("broken_relay");
  const nlx::NodeId inValid = nl.addInput("in_valid");
  const nlx::NodeId inData = nl.addInput("in_data");
  const nlx::NodeId outStop = nl.addInput("out_stop");
  nl.addOutput("in_stop", nl.constant(false));
  nl.addOutput("out_valid", nl.constant(true));
  nl.addOutput("out_data", nl.mkDff(inData));
  view.inValid = {inValid};
  view.inData = {{inData}};
  view.inStop = {nl.outputs()[0]};
  view.outValid = {nl.outputs()[1]};
  view.outData = {{nl.outputs()[2]}};
  view.outStop = {outStop};
  return nl;
}

void testResultEmptyEdges() {
  // The all-disabled edge: zero enabled properties must read as "nothing
  // proven" — allProved() is explicitly false and minDepthReached() is
  // 0 — so an empty result cannot masquerade as a proof.
  const sat::PdrResult emptyPdr;
  CHECK(!emptyPdr.allProved());
  CHECK_EQ(emptyPdr.minDepthReached(), 0u);

  lsync::SystemSpec spec = lsync::chainSpec(2, 1, lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  sat::PdrOptions popts;
  popts.tokenConservation = false;
  popts.occupancyBound = false;
  popts.deadlockWatchdog = false;
  const sat::PdrResult pr =
      sat::proveUnbounded(sys.netlist, lsync::portView(sys.ports), popts);
  CHECK(pr.properties.empty());
  CHECK(!pr.allProved());
  CHECK_EQ(pr.minDepthReached(), 0u);
}

void testPdrProvesHandBuiltMachines() {
  // A register that holds its reset value for ever: bad = !q is
  // 1-inductive, so the induction rung proves it without PDR.
  {
    nlx::Netlist nl("hold");
    const nlx::NodeId q = nl.mkDff(nl.constant(false), nlx::kNoNode, true);
    nl.setDffInputs(q, q);
    const nlx::NodeId bad = nl.addOutput("bad", nl.mkNot(q));
    sat::SolverStats stats;
    sat::PdrOptions opts;
    const sat::PdrPropertyResult r =
        sat::provePropertyUnbounded(nl, bad, {}, opts, stats);
    CHECK(r.provedUnbounded);
    CHECK(!r.violated);
    CHECK(!r.degraded);
    CHECK(r.method == "induction");
    CHECK(r.inductionK <= 1u);
    CHECK(stats.solves > 0);
  }
  // Same machine with the induction rung disabled: PDR must find the
  // one-clause inductive invariant (q) and hit the fixpoint.
  {
    nlx::Netlist nl("hold_pdr");
    const nlx::NodeId q = nl.mkDff(nl.constant(false), nlx::kNoNode, true);
    nl.setDffInputs(q, q);
    const nlx::NodeId bad = nl.addOutput("bad", nl.mkNot(q));
    sat::SolverStats stats;
    sat::PdrOptions opts;
    opts.maxInductionK = 0;
    const sat::PdrPropertyResult r =
        sat::provePropertyUnbounded(nl, bad, {}, opts, stats);
    CHECK(r.provedUnbounded);
    CHECK(r.method == "pdr");
    CHECK(r.frames >= 2u);
    CHECK(r.clauses >= 1u);
    CHECK(r.engine.cubesBlocked >= 1u);
  }
  // A 3-bit counter that saturates at 7 with bad = (value == 2) — but 2
  // is unreachable because the counter steps 0,1,3,7 (shift-in style).
  // Not 0/1-inductive from the property alone: the engine has to learn
  // clauses about the reachable state shape.
  {
    nlx::Netlist nl("shift3");
    std::vector<nlx::NodeId> q;
    for (int i = 0; i < 3; i++) {
      q.push_back(nl.mkDff(nl.constant(false)));
    }
    // q2 <- q1 <- q0 <- 1: states 000, 001, 011, 111.
    nl.setDffInputs(q[0], nl.constant(true));
    nl.setDffInputs(q[1], q[0]);
    nl.setDffInputs(q[2], q[1]);
    // bad = 010: q1 & !q0 & !q2 (any state with q1 set but q0 clear).
    const nlx::NodeId bad = nl.addOutput(
        "bad", nl.mkAnd(q[1], nl.mkAnd(nl.mkNot(q[0]), nl.mkNot(q[2]))));
    sat::SolverStats stats;
    sat::PdrOptions opts;
    opts.maxInductionK = 0;
    const sat::PdrPropertyResult r =
        sat::provePropertyUnbounded(nl, bad, {}, opts, stats);
    CHECK(r.provedUnbounded);
    CHECK(r.method == "pdr");
  }
}

void testPdrCleanTopologiesProvedUnbounded() {
  // The acceptance matrix: every canned topology in both encodings,
  // all three protocol invariants proved for all time within the
  // default budgets.
  for (lsync::Encoding enc :
       {lsync::Encoding::OneHot, lsync::Encoding::Binary}) {
    std::vector<lsync::SystemSpec> specs = {
        lsync::chainSpec(3, 1, enc), lsync::forkSpec(enc),
        lsync::joinSpec(enc), lsync::ringSpec(enc)};
    for (lsync::SystemSpec& spec : specs) {
      const lsync::System sys = lsync::buildSystem(spec);
      sat::PdrOptions opts;
      opts.capacityBound = sat::capacityBound(spec);
      const sat::PdrResult r =
          sat::proveUnbounded(sys.netlist, lsync::portView(sys.ports), opts);
      CHECK_EQ(r.properties.size(), 3u);
      CHECK(r.allProved());
      CHECK(!r.anyViolated());
      CHECK(!r.anyDegraded());
      CHECK_EQ(r.minDepthReached(), ~0u);
      // Each property ran on its own cone: the monitor registers plus
      // the protocol control, never the whole design's state.
      for (const sat::PdrPropertyResult& p : r.properties) {
        CHECK(p.engine.coneDffs > 0u);
        CHECK(p.engine.coneDffs < sys.netlist.dffs().size());
        CHECK(p.engine.coneAnds > 0u);
      }
    }
  }
  // The single wrappers, proved against their own storage bound.
  for (unsigned numInputs : {1u, 2u}) {
    lsync::WrapperConfig cfg;
    cfg.numInputs = numInputs;
    cfg.numOutputs = 1;
    const lsync::Wrapper w = lsync::buildWrapper(cfg);
    sat::PdrOptions opts;
    opts.capacityBound = sat::capacityBound(cfg);
    const sat::PdrResult r =
        sat::proveUnbounded(w.netlist, lsync::portView(w.ports), opts);
    CHECK_EQ(r.properties.size(), 3u);
    CHECK(r.allProved());
    CHECK(!r.anyDegraded());
  }
}

void testPdrBrokenRelayCexAndReplay() {
  // Default options: the induction rung's base case is a plain BMC, so
  // it finds the depth-1 token violation first — the monitor's reset
  // sits one step above the token rail, so the first unbacked delivery
  // (cycle 0, observable through the registers at cycle 1) is caught
  // immediately, independent of the capacity bound.
  lsync::PortView view;
  const nlx::Netlist nl = brokenRelay(view);
  sat::PdrOptions opts;
  opts.capacityBound = 2;
  sat::ReplayOptions ropts;
  ropts.capacityBound = 2;
  {
    const sat::PdrResult r = sat::proveUnbounded(nl, view, opts);
    CHECK_EQ(r.properties.size(), 3u);
    const sat::PdrPropertyResult& token = r.properties[0];
    CHECK(token.name == "token_conservation");
    CHECK(token.violated);
    CHECK(!token.provedUnbounded);
    CHECK_EQ(token.failDepth, 1u);
    CHECK_EQ(token.trace.frames.size(), 2u);
    const sat::ReplayResult rep =
        sat::replayTrace(nl, view, token.name, token.trace, ropts);
    CHECK(rep.reproduced);
    CHECK_EQ(rep.violationCycle, 1u);
    // An environment that feeds the relay while stalling its output
    // overfills it: occupancy first exceeds B at cycle B+1.
    const sat::PdrPropertyResult& occ = r.properties[1];
    CHECK(occ.name == "occupancy_bound");
    CHECK(occ.violated);
    CHECK(occ.method == "bmc");
    CHECK_EQ(occ.failDepth, opts.capacityBound + 1);
    const sat::ReplayResult occRep =
        sat::replayTrace(nl, view, occ.name, occ.trace, ropts);
    CHECK(occRep.reproduced);
    CHECK_EQ(occRep.violationCycle, opts.capacityBound + 1);
    // The watchdog holds under maximal progress — and is in fact
    // provable for all time on this design.
    const sat::PdrPropertyResult& wd = r.properties[2];
    CHECK(wd.name == "deadlock_watchdog");
    CHECK(!wd.violated);
  }
  // Induction rung off: the counterexample must come out of PDR's
  // obligation chain instead, at the same (provably minimal) depth,
  // and replay identically.
  {
    sat::PdrOptions pdrOnly = opts;
    pdrOnly.maxInductionK = 0;
    const sat::PdrResult r = sat::proveUnbounded(nl, view, pdrOnly);
    const sat::PdrPropertyResult& token = r.properties[0];
    CHECK(token.violated);
    CHECK(token.method == "pdr");
    CHECK_EQ(token.failDepth, 1u);
    CHECK_EQ(token.trace.frames.size(), 2u);
    const sat::ReplayResult rep =
        sat::replayTrace(nl, view, token.name, token.trace, ropts);
    CHECK(rep.reproduced);
    CHECK_EQ(rep.violationCycle, 1u);
    const sat::PdrPropertyResult& occ = r.properties[1];
    CHECK(occ.violated);
    CHECK(occ.method == "pdr");
    CHECK_EQ(occ.failDepth, opts.capacityBound + 1);
    const sat::ReplayResult occRep =
        sat::replayTrace(nl, view, occ.name, occ.trace, ropts);
    CHECK(occRep.reproduced);
    CHECK_EQ(occRep.violationCycle, opts.capacityBound + 1);
  }
}

void testPdrReplayOnCosimOracle() {
  // Lockstep replay against the behavioural fleet. On a clean wrapper
  // driving a hand-built maximal-progress trace: netlist and oracle
  // agree cycle for cycle and no invariant fires. On the broken relay
  // against the 1x1 wrapper's oracle: the monitor-mirror accounting
  // still reproduces the violation, and the oracle comparison pins the
  // blame on the netlist by disagreeing with it.
  lsync::WrapperConfig cfg;
  cfg.numInputs = 1;
  cfg.numOutputs = 1;
  const lsync::Wrapper w = lsync::buildWrapper(cfg);
  const lsync::PortView wview = lsync::portView(w.ports);
  sat::PdrTrace trace;
  trace.inputs = {wview.inValid[0], wview.inData[0][0], wview.outStop[0]};
  for (int f = 0; f < 6; f++) {
    trace.frames.push_back({true, (f & 1) != 0, false});
  }
  sat::ReplayOptions ropts;
  ropts.capacityBound = sat::capacityBound(cfg);
  {
    lsync::Oracle beh(cfg);
    const sat::ReplayResult rep = sat::replayTraceOnOracle(
        w.netlist, wview, beh, "token_conservation", trace, ropts);
    CHECK(rep.oracleChecked);
    CHECK(rep.oracleAgrees);
    CHECK(!rep.reproduced);
  }
  {
    lsync::PortView bview;
    const nlx::Netlist broken = brokenRelay(bview);
    sat::PdrOptions opts;
    opts.capacityBound = 2;
    opts.maxInductionK = 0;
    // Re-derive the PDR counterexample for the token property alone.
    sat::PdrResult r = sat::proveUnbounded(broken, bview, opts);
    const sat::PdrPropertyResult& token = r.properties[0];
    CHECK(token.violated);
    sat::ReplayOptions bropts;
    bropts.capacityBound = 2;
    lsync::Oracle beh(cfg);
    const sat::ReplayResult rep = sat::replayTraceOnOracle(
        broken, bview, beh, token.name, token.trace, bropts);
    CHECK(rep.reproduced);
    CHECK_EQ(rep.violationCycle, 1u);
    CHECK(rep.oracleChecked);
    CHECK(!rep.oracleAgrees); // the spec-true oracle never invents tokens
    const sat::PdrPropertyResult& occ = r.properties[1];
    CHECK(occ.violated);
    lsync::Oracle occBeh(cfg);
    const sat::ReplayResult occRep = sat::replayTraceOnOracle(
        broken, bview, occBeh, occ.name, occ.trace, bropts);
    CHECK(occRep.reproduced);
    CHECK_EQ(occRep.violationCycle, opts.capacityBound + 1);
    CHECK(occRep.oracleChecked);
    CHECK(!occRep.oracleAgrees);
  }
}

void testPdrBudgetDegradesToBound() {
  // A starved solver can only weaken the verdict to a bounded one —
  // never to "proved for all time", and on a clean design never to a
  // fabricated counterexample.
  lsync::SystemSpec spec = lsync::ringSpec(lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  sat::PdrOptions opts;
  opts.capacityBound = sat::capacityBound(spec);
  opts.conflictBudget = 1;
  const sat::PdrResult r =
      sat::proveUnbounded(sys.netlist, lsync::portView(sys.ports), opts);
  CHECK_EQ(r.properties.size(), 3u);
  CHECK(r.anyDegraded());
  CHECK(!r.allProved());
  for (const sat::PdrPropertyResult& p : r.properties) {
    CHECK(!p.violated);
    if (p.degraded) CHECK(!p.provedUnbounded);
  }
}

// ---------------------------------------------------------------------------
// sequential cone of influence

void testSequentialConeShape() {
  // `side` reads the cone (r1) but nothing in the cone reads `side`, so
  // it and the only input feeding it (`junk`) fall out; the rest keeps
  // its order, reset values, enable and names.
  nlx::Netlist nl("cone_shape");
  const nlx::NodeId a = nl.addInput("a");
  const nlx::NodeId junk = nl.addInput("junk");
  const nlx::NodeId en = nl.addInput("en");
  const nlx::NodeId b = nl.addInput("b");
  const nlx::NodeId r0 = nl.mkDff(nl.constant(false), en, true, "r0");
  const nlx::NodeId side =
      nl.mkDff(nl.constant(false), nlx::kNoNode, true, "side");
  const nlx::NodeId r1 = nl.mkDff(nl.constant(false), nlx::kNoNode, false,
                                  "r1");
  nl.setDffInputs(r0, nl.mkXor(r0, a), en);
  nl.setDffInputs(side, nl.mkXor(junk, r1));
  nl.setDffInputs(r1, nl.mkMux(b, r1, r0));
  nl.addOutput("side_out", side);
  const nlx::NodeId bad = nl.addOutput("bad", nl.mkAnd(r1, b));

  const nlx::NodeId roots[] = {bad};
  const nlx::SequentialCone cone = nlx::sequentialCone(nl, roots);
  const nlx::Netlist& c = cone.nl;
  CHECK_EQ(c.inputs().size(), 3u);
  const nlx::NodeId wantIn[] = {a, en, b};
  for (std::size_t i = 0; i < c.inputs().size() && i < 3; i++) {
    CHECK_EQ(cone.origOf[c.inputs()[i]], wantIn[i]);
    CHECK(c.node(c.inputs()[i]).name == nl.node(wantIn[i]).name);
  }
  CHECK_EQ(c.dffs().size(), 2u);
  const nlx::NodeId wantDff[] = {r0, r1};
  for (std::size_t i = 0; i < c.dffs().size() && i < 2; i++) {
    const nlx::Node& cd = c.node(c.dffs()[i]);
    const nlx::Node& od = nl.node(wantDff[i]);
    CHECK_EQ(cone.origOf[c.dffs()[i]], wantDff[i]);
    CHECK(cd.name == od.name);
    CHECK_EQ(cd.resetValue, od.resetValue);
    CHECK_EQ(cd.hasEnable, od.hasEnable);
  }
  CHECK_EQ(cone.origOf[c.node(c.dffs()[0]).fanin[1]], en);
  CHECK_EQ(c.outputs().size(), 1u);
  CHECK_EQ(cone.origOf[c.outputs()[0]], bad);
  CHECK(c.node(c.outputs()[0]).name == "bad");
  CHECK_THROWS(nlx::sequentialCone(nl, std::span<const nlx::NodeId>(&r1, 1)),
               std::invalid_argument);
}

void testSequentialConeMatchesOriginal() {
  // Random sequential netlists: every root's cone, driven with the same
  // stimulus on the inputs it kept, tracks the original cycle for cycle.
  for (std::uint64_t seed = 1; seed <= 4; seed++) {
    const nlx::Netlist nl = gen::randomSeq(8, 120, 12, 4, seed);
    for (std::size_t o = 0; o + 1 < nl.outputs().size(); o += 2) {
      const nlx::NodeId roots[] = {nl.outputs()[o], nl.outputs()[o + 1]};
      const nlx::SequentialCone cone = nlx::sequentialCone(nl, roots);
      CHECK(cone.nl.dffs().size() <= nl.dffs().size());
      CHECK(cone.nl.inputs().size() <= nl.inputs().size());
      nlx::NetlistSim full(nl);
      nlx::NetlistSim part(cone.nl);
      full.reset();
      part.reset();
      lis::support::SplitMix64 rng(seed * 31 + o);
      for (unsigned cycle = 0; cycle < 300; cycle++) {
        for (const nlx::NodeId in : nl.inputs()) {
          full.setInput(in, rng.flip());
        }
        for (const nlx::NodeId in : cone.nl.inputs()) {
          part.setInput(in, full.value(cone.origOf[in]));
        }
        full.settle();
        part.settle();
        for (std::size_t k = 0; k < 2; k++) {
          CHECK_EQ(part.value(cone.nl.outputs()[k]), full.value(roots[k]));
        }
        full.clock();
        part.clock();
      }
    }
  }
}

void testSequentialConeKeepsRoms() {
  // An in-cone ROM survives extraction, so the Unroller still refuses
  // the cone; a ROM outside the cone is dropped with the rest.
  nlx::Netlist nl("rom_cone");
  const nlx::NodeId a0 = nl.addInput("a0");
  const nlx::NodeId a1 = nl.addInput("a1");
  const nlx::NodeId q0 = nl.mkDff(a0);
  const nlx::NodeId q1 = nl.mkDff(a1);
  const std::uint32_t rom = nl.addRom(1, {0, 1, 1, 0}, "rom");
  const nlx::NodeId addr[] = {q0, q1};
  const nlx::NodeId bit = nl.mkRomBit(rom, 0, addr);
  const nlx::NodeId romOut = nl.addOutput("rom_out", bit);
  const nlx::NodeId plainOut = nl.addOutput("plain", nl.mkAnd(q0, q1));

  const nlx::NodeId withRom[] = {romOut};
  const nlx::SequentialCone in = nlx::sequentialCone(nl, withRom);
  CHECK_EQ(in.nl.romCount(), 1u);
  CHECK(in.nl.rom(0).words == nl.rom(rom).words);
  {
    const lis::aig::SequentialAig sa = lis::aig::fromNetlist(in.nl);
    sat::Solver s;
    CHECK_THROWS(sat::Unroller(s, sa), std::invalid_argument);
  }
  const nlx::NodeId noRom[] = {plainOut};
  const nlx::SequentialCone out = nlx::sequentialCone(nl, noRom);
  CHECK_EQ(out.nl.romCount(), 0u);
  {
    const lis::aig::SequentialAig sa = lis::aig::fromNetlist(out.nl);
    sat::Solver s;
    sat::Unroller u(s, sa);
    u.pushFrame();
    CHECK_EQ(u.frames(), 1u);
  }
}

/// A 2-bit counter stepping while input `en` is high drives `bad`; a
/// 24-bit shift register fed by input `sin` (and the counter) sits
/// outside bad's cone. `mod3` makes the counter skip state 3.
nlx::Netlist counterBesideShiftRegister(bool mod3, nlx::NodeId& bad,
                                        nlx::NodeId& sin) {
  nlx::Netlist nl(mod3 ? "count_mod3" : "count_mod4");
  sin = nl.addInput("sin");
  const nlx::NodeId en = nl.addInput("en");
  const nlx::NodeId q0 = nl.mkDff(nl.constant(false), en);
  const nlx::NodeId q1 = nl.mkDff(nl.constant(false), en);
  if (mod3) { // 00 -> 01 -> 10 -> 00
    nl.setDffInputs(q0, nl.mkAnd(nl.mkNot(q0), nl.mkNot(q1)), en);
    nl.setDffInputs(q1, q0, en);
  } else { // 00 -> 01 -> 10 -> 11
    nl.setDffInputs(q0, nl.mkNot(q0), en);
    nl.setDffInputs(q1, nl.mkXor(q1, q0), en);
  }
  nlx::NodeId prev = nl.mkXor(sin, q0);
  for (int i = 0; i < 24; i++) prev = nl.mkDff(prev);
  nl.addOutput("shift_out", prev);
  bad = nl.addOutput("bad", nl.mkAnd(q0, q1));
  return nl;
}

void testPdrRunsOnSequentialCone() {
  // Proved: the cone is the counter alone, on both rungs.
  for (const unsigned maxK : {4u, 0u}) {
    nlx::NodeId bad = nlx::kNoNode, sin = nlx::kNoNode;
    const nlx::Netlist nl = counterBesideShiftRegister(true, bad, sin);
    sat::SolverStats stats;
    sat::PdrOptions opts;
    opts.maxInductionK = maxK;
    const sat::PdrPropertyResult r =
        sat::provePropertyUnbounded(nl, bad, {}, opts, stats);
    CHECK(r.provedUnbounded);
    CHECK(!r.degraded);
    CHECK_EQ(r.engine.coneDffs, 2u);
    CHECK_EQ(nl.dffs().size(), 26u);
    CHECK(r.engine.coneAnds > 0u);
    CHECK(r.engine.coneAnds < lis::aig::fromNetlist(nl).aig.numAnds());
  }
  // Violated at depth 3: the trace names original inputs (never the
  // out-of-cone `sin`), keeps the caller's forced list, and replays on
  // the original netlist with bad firing exactly at failDepth.
  nlx::NodeId bad = nlx::kNoNode, sin = nlx::kNoNode;
  const nlx::Netlist nl = counterBesideShiftRegister(false, bad, sin);
  for (const unsigned maxK : {4u, 0u}) {
    sat::SolverStats stats;
    sat::PdrOptions opts;
    opts.maxInductionK = maxK;
    const std::vector<sat::ForcedInput> forced = {{sin, true}};
    const sat::PdrPropertyResult r =
        sat::provePropertyUnbounded(nl, bad, forced, opts, stats);
    CHECK(r.violated);
    CHECK_EQ(r.failDepth, 3u);
    CHECK_EQ(r.trace.frames.size(), 4u);
    CHECK_EQ(r.trace.forced.size(), 1u);
    CHECK(!r.trace.forced.empty() && r.trace.forced[0].input == sin);
    for (const nlx::NodeId id : r.trace.inputs) {
      bool isInput = false;
      for (const nlx::NodeId in : nl.inputs()) isInput |= in == id;
      CHECK(isInput);
      CHECK(id != sin);
    }
    nlx::NetlistSim sim(nl);
    sim.reset();
    unsigned firstBad = ~0u;
    for (unsigned f = 0; f < r.trace.frames.size(); f++) {
      for (std::size_t i = 0; i < r.trace.inputs.size(); i++) {
        sim.setInput(r.trace.inputs[i], r.trace.frames[f][i]);
      }
      for (const sat::ForcedInput& fi : r.trace.forced) {
        sim.setInput(fi.input, fi.value);
      }
      sim.settle();
      if (sim.value(bad) && firstBad == ~0u) firstBad = f;
      sim.clock();
    }
    CHECK_EQ(firstBad, r.failDepth);
  }
  // A forced node must still be an input of the caller's netlist.
  sat::SolverStats stats;
  CHECK_THROWS(sat::provePropertyUnbounded(nl, bad, {{bad, true}}, {}, stats),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// the SAT tier of the tiered equivalence checker

void testEquivSatTierProves() {
  // Swapped-operand adders strash to one cone inside the joint miter
  // AIG: the SAT tier discharges them structurally, zero solver calls.
  const nlx::EquivResult eq =
      nlx::checkCombEquivalence(gen::adder(16), gen::adder(16, true));
  CHECK(eq.equivalent);
  CHECK(eq.method == nlx::EquivMethod::Sat);
  CHECK(eq.confidence == 1.0);
  CHECK(!eq.degraded);

  // Mux-tree vs sum-of-products is structurally distinct: this proof
  // has to run the CDCL search and its footprint must be reported.
  const nlx::EquivResult mt = nlx::checkCombEquivalence(
      gen::muxTree(3, gen::MuxStyle::Tree),
      gen::muxTree(3, gen::MuxStyle::SumOfProducts));
  CHECK(mt.equivalent);
  CHECK(mt.method == nlx::EquivMethod::Sat);
  CHECK(mt.confidence == 1.0);
  CHECK(mt.proof.satPropagations > 0);
}

void testEquivSatTierRefutesWithReplayableCex() {
  nlx::EquivOptions opts;
  opts.simRounds = 0; // skip the sim screen so SAT produces the cex
  const nlx::Netlist a = gen::adder(8);
  const nlx::Netlist b = gen::adder(8, false, /*corruptMsb=*/true);
  const nlx::EquivResult r = nlx::checkCombEquivalence(a, b, opts);
  CHECK(!r.equivalent);
  CHECK(r.method == nlx::EquivMethod::Sat);
  CHECK(r.confidence == 1.0);
  CHECK(!r.failingOutput.empty());
  CHECK(r.counterexample.has_value());
  CHECK(r.cex.has_value());
  if (!r.cex.has_value()) return;
  // Replay: the reported input assignment must distinguish the pair at
  // the named output.
  std::map<nlx::NodeId, bool> inA, inB;
  std::map<std::string, bool> byName;
  for (const auto& [name, value] : r.cex->inputs) byName[name] = value;
  for (const nlx::NodeId id : a.inputs()) inA[id] = byName.at(a.node(id).name);
  for (const nlx::NodeId id : b.inputs()) inB[id] = byName.at(b.node(id).name);
  const std::vector<bool> outsA = evalNetlist(a, inA);
  const std::vector<bool> outsB = evalNetlist(b, inB);
  bool differs = false;
  for (std::size_t i = 0; i < a.outputs().size(); i++) {
    const std::string& name = a.node(a.outputs()[i]).name;
    for (std::size_t j = 0; j < b.outputs().size(); j++) {
      if (b.node(b.outputs()[j]).name == name && outsA[i] != outsB[j] &&
          name == r.failingOutput) {
        differs = true;
      }
    }
  }
  CHECK(differs);
}

void testWideModeCexReport() {
  // >64 inputs: the compact uint64 counterexample cannot exist, but the
  // shared report must still name the failing output and an assignment.
  const auto wideOr = [](unsigned n, bool dropLast) {
    nlx::Netlist nl("wide");
    std::vector<nlx::NodeId> ins;
    for (unsigned i = 0; i < n; i++) {
      ins.push_back(nl.addInput("x" + std::to_string(i)));
    }
    if (dropLast) ins.pop_back();
    nl.addOutput("y", nl.orTree(ins));
    return nl;
  };
  const nlx::Netlist a = wideOr(70, false);
  const nlx::Netlist b = wideOr(70, true);
  for (const bool useSat : {true, false}) {
    nlx::EquivOptions opts;
    opts.simRounds = 0;
    opts.useSat = useSat;
    const nlx::EquivResult r = nlx::checkCombEquivalence(a, b, opts);
    CHECK(!r.equivalent);
    CHECK(!r.counterexample.has_value()); // wide: no compact form
    CHECK(r.failingOutput == "y");
    CHECK(r.cex.has_value());
    if (r.cex.has_value()) {
      CHECK(r.cex->output == "y");
      bool x69 = false;
      for (const auto& [name, value] : r.cex->inputs) {
        if (name == "x69") x69 = value;
      }
      CHECK(x69); // only x69 distinguishes the pair
    }
  }
}

void testSatBudgetFallsBackToBdd() {
  // A starved SAT tier hands the proof to the BDD tier untouched. The
  // pair must be structurally distinct (a strash-discharged miter never
  // touches the budget), so: mux tree vs sum-of-products.
  nlx::EquivOptions opts;
  opts.satConflictBudget = 1;
  const nlx::EquivResult r = nlx::checkCombEquivalence(
      gen::muxTree(3, gen::MuxStyle::Tree),
      gen::muxTree(3, gen::MuxStyle::SumOfProducts), opts);
  CHECK(r.equivalent);
  CHECK(r.method == nlx::EquivMethod::Bdd);
  CHECK(!r.degraded);
  CHECK(r.confidence == 1.0);
  // The BDD verdict still reports the partial SAT search it inherited.
  CHECK(r.proof.satPropagations > 0);
  CHECK(r.proof.bddNodes > 0);
}

/// Outputs y0..y{n-1} over shared inputs x0..x7, each a distributive pair
/// over three distinct inputs that the strash cannot merge: a computes
/// x_i & (x_j | x_l), b computes (x_i & x_j) | (x_i & x_l). At `planted`
/// b computes (x_i & x_j) | (x_j & x_l) instead, which differs at x_i=1,
/// x_j=0, x_l=1.
std::pair<nlx::Netlist, nlx::Netlist> distributivePair(std::size_t n,
                                                       std::size_t planted) {
  nlx::Netlist a("dist_a");
  nlx::Netlist b("dist_b");
  std::vector<nlx::NodeId> xa, xb;
  for (unsigned i = 0; i < 8; i++) {
    xa.push_back(a.addInput("x" + std::to_string(i)));
    xb.push_back(b.addInput("x" + std::to_string(i)));
  }
  for (std::size_t k = 0; k < n; k++) {
    const std::size_t i = k % 8, j = (i + 1 + k / 8 % 6) % 8, l = (i + 7) % 8;
    const std::string name = "y" + std::to_string(k);
    a.addOutput(name, a.mkAnd(xa[i], a.mkOr(xa[j], xa[l])));
    const nlx::NodeId other = k == planted ? b.mkAnd(xb[j], xb[l])
                                           : b.mkAnd(xb[i], xb[l]);
    b.addOutput(name, b.mkOr(b.mkAnd(xb[i], xb[j]), other));
  }
  return {std::move(a), std::move(b)};
}

/// n outputs, output k the parity of its own six inputs: a chain of XORs
/// in `a`, a balanced tree in `b`. Each miter query needs real CDCL
/// search, and the cones share nothing, so the first m outputs' solvers
/// behave identically in any pair built with n >= m.
std::pair<nlx::Netlist, nlx::Netlist> parityPair(std::size_t n) {
  nlx::Netlist a("par_chain");
  nlx::Netlist b("par_tree");
  for (std::size_t k = 0; k < n; k++) {
    std::vector<nlx::NodeId> xa, xb;
    for (unsigned i = 0; i < 6; i++) {
      const std::string name =
          "x" + std::to_string(k) + "_" + std::to_string(i);
      xa.push_back(a.addInput(name));
      xb.push_back(b.addInput(name));
    }
    nlx::NodeId chain = xa[0];
    for (unsigned i = 1; i < 6; i++) chain = a.mkXor(chain, xa[i]);
    a.addOutput("y" + std::to_string(k), chain);
    const nlx::NodeId tree =
        b.mkXor(b.mkXor(b.mkXor(xb[0], xb[1]), b.mkXor(xb[2], xb[3])),
                b.mkXor(xb[4], xb[5]));
    b.addOutput("y" + std::to_string(k), tree);
  }
  return {std::move(a), std::move(b)};
}

/// checkCombEquivalence under a recording tracer; also returns the
/// sat.equiv span's queries and solvers args.
struct TracedEquiv {
  nlx::EquivResult result;
  double queries = -1;
  double solvers = -1;
};
TracedEquiv tracedEquiv(const nlx::Netlist& a, const nlx::Netlist& b,
                        const nlx::EquivOptions& opts) {
  lis::obs::Tracer& tracer = lis::obs::Tracer::instance();
  tracer.enable();
  TracedEquiv t{nlx::checkCombEquivalence(a, b, opts)};
  tracer.disable();
  for (const lis::obs::TraceEvent& e : tracer.snapshot()) {
    if (e.name != "sat.equiv") continue;
    for (const lis::obs::TraceArg& arg : e.args) {
      if (arg.key == "queries") t.queries = arg.number;
      if (arg.key == "solvers") t.solvers = arg.number;
    }
  }
  return t;
}

void testEquivSatBatchesRefuteInLastBatch() {
  // 3 full batches plus 5 pairs; the only difference sits in the last.
  // With the sim screen off, the SAT tier must walk every batch, start a
  // solver per batch and take the cex from the solver that found it.
  const std::size_t n = 3 * nlx::kEquivPairsPerSolver + 5;
  const auto [a, b] = distributivePair(n, n - 1);
  nlx::EquivOptions opts;
  opts.simRounds = 0;
  const TracedEquiv t = tracedEquiv(a, b, opts);
  const nlx::EquivResult& r = t.result;
  CHECK(!r.equivalent);
  CHECK(r.method == nlx::EquivMethod::Sat);
  CHECK(r.confidence == 1.0);
  CHECK(r.failingOutput == "y" + std::to_string(n - 1));
  CHECK_EQ(t.queries, static_cast<double>(n));
  CHECK_EQ(t.solvers, 4.0);
  CHECK(r.counterexample.has_value());
  CHECK(r.cex.has_value());
  if (!r.cex.has_value()) return;
  std::map<std::string, bool> byName;
  for (const auto& [name, value] : r.cex->inputs) byName[name] = value;
  std::map<nlx::NodeId, bool> inA, inB;
  for (const nlx::NodeId id : a.inputs()) inA[id] = byName.at(a.node(id).name);
  for (const nlx::NodeId id : b.inputs()) inB[id] = byName.at(b.node(id).name);
  const std::vector<bool> outsA = evalNetlist(a, inA);
  const std::vector<bool> outsB = evalNetlist(b, inB);
  for (std::size_t k = 0; k < n; k++) {
    CHECK_EQ(outsA[k] != outsB[k], k == n - 1);
  }

  // Without the planted difference the same batches prove it.
  const auto [c, d] = distributivePair(n, n);
  const TracedEquiv proved = tracedEquiv(c, d, opts);
  CHECK(proved.result.equivalent);
  CHECK(proved.result.method == nlx::EquivMethod::Sat);
  CHECK_EQ(proved.queries, static_cast<double>(n));
  CHECK_EQ(proved.solvers, 4.0);
}

void testEquivSatBudgetSpansBatches() {
  // The conflict budget is a whole-proof total: set it to run out in the
  // third batch and the proof falls to the BDD tier having spent exactly
  // the budget, with the search footprint of all three solvers reported.
  const std::size_t batch = nlx::kEquivPairsPerSolver;
  const auto [a2, b2] = parityPair(2 * batch);
  const auto [a3, b3] = parityPair(3 * batch);
  const nlx::EquivResult two = nlx::checkCombEquivalence(a2, b2);
  const nlx::EquivResult three = nlx::checkCombEquivalence(a3, b3);
  CHECK(two.method == nlx::EquivMethod::Sat && two.equivalent);
  CHECK(three.method == nlx::EquivMethod::Sat && three.equivalent);
  const std::uint64_t firstTwo = two.proof.satConflicts;
  CHECK(firstTwo > 0);
  CHECK(three.proof.satConflicts > firstTwo + 1);

  nlx::EquivOptions opts;
  opts.satConflictBudget =
      firstTwo + (three.proof.satConflicts - firstTwo) / 2;
  const TracedEquiv t = tracedEquiv(a3, b3, opts);
  const nlx::EquivResult& r = t.result;
  CHECK(r.equivalent);
  CHECK(r.method == nlx::EquivMethod::Bdd);
  CHECK(!r.degraded);
  CHECK_EQ(r.proof.satConflicts, opts.satConflictBudget);
  CHECK(r.proof.satPropagations > two.proof.satPropagations);
  CHECK(r.proof.bddNodes > 0);
  CHECK_EQ(t.solvers, 3.0);

  // A budget the first two batches spend to the last conflict never
  // starts the third solver.
  opts.satConflictBudget = firstTwo;
  const TracedEquiv spent = tracedEquiv(a3, b3, opts);
  CHECK(spent.result.method == nlx::EquivMethod::Bdd);
  CHECK_EQ(spent.result.proof.satConflicts, firstTwo);
  CHECK(spent.solvers <= 2.0);
}

} // namespace

int main() {
  testLiteralHelpers();
  testTrivialClauses();
  testPigeonholeUnsat();
  testRandom3CnfVsBruteForce();
  testAssumptionsAndUnsatCore();
  testBudgetTiering();
  testSolverDeterminism();
  testCnfVsExhaustiveEvaluation();
  testUnrollerCountsFrames();
  testSweepMergesRedundantXor();
  testSweepSoundnessOnRealConfigs();
  testResultEmptyEdges();
  testPdrProvesHandBuiltMachines();
  testPdrCleanTopologiesProvedUnbounded();
  testPdrBrokenRelayCexAndReplay();
  testPdrReplayOnCosimOracle();
  testPdrBudgetDegradesToBound();
  testSequentialConeShape();
  testSequentialConeMatchesOriginal();
  testSequentialConeKeepsRoms();
  testPdrRunsOnSequentialCone();
  testEquivSatTierProves();
  testEquivSatTierRefutesWithReplayableCex();
  testSatBudgetFallsBackToBdd();
  testWideModeCexReport();
  testEquivSatBatchesRefuteInLastBatch();
  testEquivSatBudgetSpansBatches();
  return testExit();
}
