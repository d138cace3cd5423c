#include "workloads.hpp"

#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "aig/optimize.hpp"
#include "fault/campaign.hpp"
#include "lis/cosim.hpp"
#include "lis/fsm.hpp"
#include "lis/oracle.hpp"
#include "lis/synth.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "netlist/equiv.hpp"
#include "netlist/netlist_sim.hpp"
#include "netlist/seq_equiv.hpp"
#include "sat/bmc.hpp"
#include "sat/pdr.hpp"
#include "sat/sweep.hpp"
#include "support/rng.hpp"
#include "techmap/lutmap.hpp"
#include "timing/sta.hpp"

namespace perfbench {

namespace lf = lis::flow;
namespace ls = lis::sync;
namespace ln = lis::netlist;

namespace {

// --- shared helpers -------------------------------------------------------

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// First error diagnostic of a failed pipeline run.
std::string firstError(const lf::RunResult& r) {
  for (const lf::Diagnostic& d : r.diagnostics) {
    if (d.severity == lf::Severity::Error) return d.pass + ": " + d.message;
  }
  return "pipeline failed without an error diagnostic";
}

double recordMetric(const lf::RunResult& r, const std::string& pass,
                    const std::string& key, double fallback) {
  for (const lf::PassRecord& rec : r.records) {
    if (rec.name != pass) continue;
    for (const auto& [k, v] : rec.metrics) {
      if (k == key) return v;
    }
  }
  return fallback;
}

DesignOutcome passFailure(const std::string& name, const lf::RunResult& r,
                          std::size_t ops) {
  DesignOutcome o;
  o.row = name + " FAILED";
  o.attempted = ops;
  o.failed = ops;
  o.violations.push_back(name + ": " + firstError(r));
  return o;
}

std::string netlistCols(const ln::Netlist& nl) {
  const ln::NetlistStats st = nl.stats();
  return " gates=" + std::to_string(st.gates) +
         " dffs=" + std::to_string(st.dffs);
}

void tallyNetlist(LayerTally& tally, const ln::Netlist& nl) {
  const ln::NetlistStats st = nl.stats();
  tally.add("lis.gates", static_cast<double>(st.gates));
  tally.add("lis.dffs", static_cast<double>(st.dffs));
}

void tallySeqEquiv(LayerTally& tally, const ln::SeqEquivResult& eq,
                   std::size_t ands) {
  tally.add("netlist.seq_equiv.kands", static_cast<double>(ands) / 1000.0);
  tally.add("netlist.seq_equiv.sat_conflicts",
            static_cast<double>(eq.proof.satConflicts));
  tally.add("netlist.seq_equiv.by_bdd",
            eq.method == ln::EquivMethod::Bdd ? 1.0 : 0.0);
}

std::string qorCols(const lis::techmap::AreaReport& area, unsigned depth,
                    double fmaxMHz) {
  return " luts=" + std::to_string(area.luts) +
         " ffs=" + std::to_string(area.ffs) +
         " slices=" + std::to_string(area.slices) +
         " depth=" + std::to_string(depth) + " fmax=" + exact(fmaxMHz);
}

/// The name a flow::Design gives a spec-backed design, so traced rows and
/// spans line up with the untraced ones.
template <class Source>
std::string designName(const Source& source) {
  return lf::Design(source).name();
}

ls::System buildTraced(const ls::SystemSpec& spec, SpanLog& log,
                       LayerTally& tally) {
  ScopedSpan span(log, "lis.build_s", designName(spec));
  ls::System sys = ls::buildSystem(spec);
  tallyNetlist(tally, sys.netlist);
  return sys;
}

// --- verify ---------------------------------------------------------------

/// A relay that asserts out_valid from reset and never stalls its
/// producer: it invents a token on the first cycle, so token conservation
/// fails at depth 1 whatever the capacity bound.
ln::Netlist brokenRelay(ls::PortView& view) {
  ln::Netlist nl("broken_relay");
  const ln::NodeId inValid = nl.addInput("in_valid");
  const ln::NodeId inData = nl.addInput("in_data");
  const ln::NodeId outStop = nl.addInput("out_stop");
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

constexpr unsigned kKnownBadCapacity = 2;
constexpr unsigned kKnownBadFailDepth = 1;

lis::sat::PdrOptions knownBadOptions() {
  lis::sat::PdrOptions o;
  o.capacityBound = kKnownBadCapacity;
  return o;
}

/// The known-bad verdict: token conservation violated at depth 1 with a
/// trace that replays on the netlist simulator.
struct KnownBadVerdict {
  bool violated = false;
  unsigned failDepth = 0;
  bool reproduced = false;
  unsigned replayCycle = 0;
};

KnownBadVerdict knownBadVerdict(const ln::Netlist& nl,
                                const ls::PortView& view,
                                const lis::sat::PdrPropertyResult& token) {
  KnownBadVerdict v;
  v.violated = token.violated;
  v.failDepth = token.failDepth;
  if (token.violated) {
    lis::sat::ReplayOptions ro;
    ro.capacityBound = kKnownBadCapacity;
    const lis::sat::ReplayResult rep =
        lis::sat::replayTrace(nl, view, token.name, token.trace, ro);
    v.reproduced = rep.reproduced;
    v.replayCycle = rep.violationCycle;
  }
  return v;
}

/// Runs the unbounded proofs on the prebuilt known-bad netlist, which the
/// library's ProveUnbounded pass skips for lack of a port view. Leaves
/// spec-backed designs alone.
class ProveKnownBad final : public lf::Pass {
public:
  explicit ProveKnownBad(ls::PortView view) : view_(std::move(view)) {}
  std::string name() const override { return "prove-known-bad"; }
  void run(lf::Design& design, lf::PassContext& ctx) override {
    if (design.systemSpec() != nullptr || design.wrapperConfig() != nullptr) {
      return;
    }
    lis::sat::PdrResult r =
        lis::sat::proveUnbounded(design.netlist(), view_, knownBadOptions());
    if (r.properties.empty()) {
      ctx.error("no property verdicts");
      return;
    }
    const KnownBadVerdict v =
        knownBadVerdict(design.netlist(), view_, r.properties[0]);
    ctx.metric("replay_reproduced", v.reproduced ? 1.0 : 0.0);
    ctx.metric("replay_cycle", static_cast<double>(v.replayCycle));
    design.setPdrResult(std::move(r));
  }

private:
  ls::PortView view_;
};

std::string propertyCols(const std::vector<lis::sat::PdrPropertyResult>& ps) {
  std::string s;
  for (const lis::sat::PdrPropertyResult& p : ps) {
    s += " | " + p.name + (p.provedUnbounded ? " proved" : "") +
         (p.violated ? " violated@" + std::to_string(p.failDepth) : "") +
         (p.degraded ? " degraded" : "") + " " + p.method +
         " k=" + std::to_string(p.inductionK) +
         " frames=" + std::to_string(p.frames) +
         " clauses=" + std::to_string(p.clauses);
  }
  return s;
}

std::string sweepCols(const lis::sat::SweepStats& st) {
  return " merged=" + std::to_string(st.proved) +
         " ands=" + std::to_string(st.andsBefore) + "->" +
         std::to_string(st.andsAfter);
}

DesignOutcome verifyOutcome(
    const std::string& name, const std::string& cols,
    const std::vector<lis::sat::PdrPropertyResult>& props,
    const KnownBadVerdict* knownBad) {
  DesignOutcome o;
  o.row = name + cols + propertyCols(props);
  if (knownBad != nullptr) {
    o.row += " | replay " + std::string(knownBad->reproduced ? "reproduced"
                                                              : "missed") +
             "@" + std::to_string(knownBad->replayCycle);
    o.attempted = 1;
    const bool right = knownBad->violated &&
                       knownBad->failDepth == kKnownBadFailDepth &&
                       knownBad->reproduced &&
                       knownBad->replayCycle == kKnownBadFailDepth;
    if (!right) {
      o.failed = 1;
      o.violations.push_back(
          name + ": expected token_conservation violated at depth 1 with a "
                 "reproducing trace");
    }
    return o;
  }
  o.attempted = 3;
  for (const lis::sat::PdrPropertyResult& p : props) {
    if (p.provedUnbounded && !p.degraded) continue;
    ++o.failed;
    o.violations.push_back(name + ": " + p.name + " not proved");
  }
  if (props.size() != 3) {
    o.failed = 3;
    o.violations.push_back(name + ": expected three property verdicts");
  }
  return o;
}

/// The three protocol properties, one proveUnbounded call each, so every
/// property gets its own span.
std::vector<lis::sat::PdrPropertyResult> provePerProperty(
    const ln::Netlist& nl, const ls::PortView& view,
    const lis::sat::PdrOptions& base, const std::string& design,
    SpanLog& log, LayerTally& tally) {
  static const char* const kProps[] = {"token_conservation", "occupancy_bound",
                                       "deadlock_watchdog"};
  std::vector<lis::sat::PdrPropertyResult> props;
  for (int p = 0; p < 3; ++p) {
    lis::sat::PdrOptions o = base;
    o.tokenConservation = p == 0;
    o.occupancyBound = p == 1;
    o.deadlockWatchdog = p == 2;
    lis::sat::PdrResult r;
    {
      ScopedSpan span(log, std::string("sat.pdr.") + kProps[p] + "_s",
                      design);
      r = lis::sat::proveUnbounded(nl, view, o);
    }
    tally.add("sat.pdr.conflicts", static_cast<double>(r.stats.conflicts));
    tally.add("sat.pdr.propagations",
              static_cast<double>(r.stats.propagations));
    for (lis::sat::PdrPropertyResult& pr : r.properties) {
      tally.add("sat.pdr.frames", pr.frames);
      tally.add("sat.pdr.clauses", pr.clauses);
      tally.add("sat.pdr.obligations",
                static_cast<double>(pr.engine.obligations));
      tally.add("sat.pdr.pushed_clauses",
                static_cast<double>(pr.engine.pushedClauses));
      props.push_back(std::move(pr));
    }
  }
  return props;
}

/// synth → SAT sweep (proven) → unbounded proofs of the three protocol
/// invariants, on the ring topology in both encodings, plus the known-bad
/// broken relay.
class VerifyWorkload final : public Workload {
public:
  VerifyWorkload() {
    specs_.push_back(ls::ringSpec(ls::Encoding::OneHot));
    specs_.push_back(ls::ringSpec(ls::Encoding::Binary));
    brokenRelay(badView_);
  }

  std::size_t size() const override { return specs_.size() + 1; }

  std::vector<lf::Design> designs() const override {
    std::vector<lf::Design> ds;
    for (const ls::SystemSpec& s : specs_) ds.emplace_back(s);
    ls::PortView unused;
    ds.emplace_back(brokenRelay(unused));
    return ds;
  }

  lf::Pipeline pipeline() const override {
    lf::Pipeline pipe;
    pipe.synthesizeControl().satSweep().proveUnbounded().add(
        std::make_unique<ProveKnownBad>(badView_));
    return pipe;
  }

  DesignOutcome untraced(lf::Design& d,
                         const lf::RunResult& r) const override {
    const bool knownBad = d.systemSpec() == nullptr;
    if (!r.ok || d.pdrResult() == nullptr || d.sweepResult() == nullptr) {
      return passFailure(d.name(), r, knownBad ? 1 : 3);
    }
    const std::string cols =
        netlistCols(d.netlist()) + sweepCols(d.sweepResult()->stats);
    const std::vector<lis::sat::PdrPropertyResult>& props =
        d.pdrResult()->properties;
    if (!knownBad) return verifyOutcome(d.name(), cols, props, nullptr);
    KnownBadVerdict v;
    if (!props.empty()) {
      v.violated = props[0].violated;
      v.failDepth = props[0].failDepth;
    }
    v.reproduced =
        recordMetric(r, "prove-known-bad", "replay_reproduced", 0.0) != 0.0;
    v.replayCycle = static_cast<unsigned>(
        recordMetric(r, "prove-known-bad", "replay_cycle", 0.0));
    return verifyOutcome(d.name(), cols, props, &v);
  }

  DesignOutcome traced(std::size_t i, SpanLog& log,
                       LayerTally& tally) const override {
    if (i == specs_.size()) return tracedKnownBad(log, tally);
    const ls::SystemSpec& spec = specs_[i];
    const std::string name = designName(spec);
    const ls::System sys = buildTraced(spec, log, tally);
    const Swept swept = sweep(sys.netlist, name, log, tally);
    lis::sat::PdrOptions opts;
    opts.capacityBound = lis::sat::capacityBound(spec);
    const std::vector<lis::sat::PdrPropertyResult> props = provePerProperty(
        sys.netlist, ls::portView(sys.ports), opts, name, log, tally);
    return swept.check(verifyOutcome(
        name, netlistCols(sys.netlist) + sweepCols(swept.result.stats),
        props, nullptr));
  }

private:
  struct Swept {
    lis::sat::NetlistSweepResult result;
    bool proved = false; // the SatSweep pass's soundness proof

    DesignOutcome check(DesignOutcome o) const {
      if (!proved) {
        o.failed = o.attempted;
        o.violations.push_back(o.row + ": swept netlist not proven");
      }
      return o;
    }
  };

  /// SAT sweep plus the soundness proof the SatSweep pass runs.
  static Swept sweep(const ln::Netlist& nl, const std::string& design,
                     SpanLog& log, LayerTally& tally) {
    Swept s;
    {
      ScopedSpan span(log, "sat.sweep_s", design);
      s.result = lis::sat::sweepNetlist(nl);
    }
    tally.add("sat.sweep.merged", static_cast<double>(s.result.stats.proved));
    ln::SeqEquivResult eq;
    {
      ScopedSpan span(log, "netlist.seq_equiv_s", design);
      eq = ln::checkSeqEquivalence(nl, s.result.netlist);
    }
    tallySeqEquiv(tally, eq, s.result.stats.andsBefore);
    s.proved = eq.equivalent;
    return s;
  }

  DesignOutcome tracedKnownBad(SpanLog& log, LayerTally& tally) const {
    ls::PortView view;
    const ln::Netlist nl = brokenRelay(view);
    tallyNetlist(tally, nl);
    const Swept swept = sweep(nl, nl.name(), log, tally);
    const std::vector<lis::sat::PdrPropertyResult> props = provePerProperty(
        nl, view, knownBadOptions(), nl.name(), log, tally);
    KnownBadVerdict v;
    {
      ScopedSpan span(log, "sat.replay_s", nl.name());
      v = knownBadVerdict(nl, view, props.at(0));
    }
    return swept.check(verifyOutcome(
        nl.name(), netlistCols(nl) + sweepCols(swept.result.stats), props,
        &v));
  }

  std::vector<ls::SystemSpec> specs_;
  ls::PortView badView_;
};

// --- optimize -------------------------------------------------------------

constexpr unsigned kOptEffort = 2;
constexpr unsigned kOptMapRounds = 3;

lis::techmap::MapOptions optMapOptions() {
  lis::techmap::MapOptions o;
  o.k = 4;
  o.rounds = kOptMapRounds;
  return o;
}

DesignOutcome optimizeOutcome(const std::string& name, const std::string& cols,
                              bool proved) {
  DesignOutcome o;
  o.row = name + cols + (proved ? " proved" : " unproved");
  o.attempted = 1;
  if (!proved) {
    o.failed = 1;
    o.violations.push_back(name + ": optimizer proof missing or degraded");
  }
  return o;
}

std::string aigCols(const lis::aig::OptimizeStats& st) {
  return " aig=" + std::to_string(st.andsBefore) + "->" +
         std::to_string(st.andsAfter);
}

/// synth → AIG optimization (proven by sequential equivalence) →
/// priority-cut mapping with area recovery → STA, on mid-size pipelines
/// and meshes.
class OptimizeWorkload final : public Workload {
public:
  OptimizeWorkload() {
    const ls::Encoding enc = ls::Encoding::Binary;
    for (unsigned n : {16u, 32u, 64u}) {
      specs_.push_back(ls::pipelineSpec(n, 1, enc));
    }
    for (unsigned n : {4u, 6u}) specs_.push_back(ls::meshSpec(n, n, 1, enc));
  }

  std::size_t size() const override { return specs_.size(); }

  std::vector<lf::Design> designs() const override {
    std::vector<lf::Design> ds;
    for (const ls::SystemSpec& s : specs_) ds.emplace_back(s);
    return ds;
  }

  lf::Pipeline pipeline() const override {
    lf::Pipeline pipe;
    pipe.synthesizeControl()
        .optimizeAig(kOptEffort, /*prove=*/true)
        .mapLuts(4, kOptMapRounds)
        .sta();
    return pipe;
  }

  DesignOutcome untraced(lf::Design& d,
                         const lf::RunResult& r) const override {
    if (!r.ok || d.optimizeStats() == nullptr || !d.hasTiming()) {
      return passFailure(d.name(), r, 1);
    }
    const lis::techmap::MapOptions mo = optMapOptions();
    const std::string cols =
        netlistCols(d.netlist()) + aigCols(*d.optimizeStats()) +
        qorCols(d.area(mo), d.mapped(mo).depth, d.timing().fmaxMHz);
    return optimizeOutcome(
        d.name(), cols,
        recordMetric(r, "optimize-aig", "equiv_proved", 0.0) == 1.0);
  }

  DesignOutcome traced(std::size_t i, SpanLog& log,
                       LayerTally& tally) const override {
    const ls::SystemSpec& spec = specs_[i];
    const std::string name = designName(spec);
    const ls::System sys = buildTraced(spec, log, tally);
    lis::aig::OptimizeResult opt;
    {
      ScopedSpan span(log, "aig.optimize_s", name);
      opt = lis::aig::optimizeNetlist(sys.netlist, {.effort = kOptEffort});
    }
    tally.add("aig.ands_before", static_cast<double>(opt.stats.andsBefore));
    tally.add("aig.ands_after", static_cast<double>(opt.stats.andsAfter));
    ln::SeqEquivResult eq;
    {
      ScopedSpan span(log, "netlist.seq_equiv_s", name);
      eq = ln::checkSeqEquivalence(sys.netlist, opt.netlist);
    }
    tallySeqEquiv(tally, eq, opt.stats.andsBefore);
    lis::techmap::MappedNetlist mapped;
    {
      ScopedSpan span(log, "techmap.map_s", name);
      mapped = lis::techmap::mapToLuts(opt.netlist, optMapOptions());
    }
    const lis::techmap::AreaReport area = lis::techmap::areaOf(mapped);
    tally.add("techmap.luts", static_cast<double>(area.luts));
    lis::timing::TimingReport tr;
    {
      ScopedSpan span(log, "timing.sta_s", name);
      tr = lis::timing::analyze(mapped);
    }
    tally.atLeast("timing.lut_depth_max", tr.logicLevels);
    return optimizeOutcome(name,
                           netlistCols(sys.netlist) + aigCols(opt.stats) +
                               qorCols(area, mapped.depth, tr.fmaxMHz),
                           eq.equivalent && !eq.degraded);
  }

private:
  std::vector<ls::SystemSpec> specs_;
};

// --- scale ----------------------------------------------------------------

constexpr std::uint64_t kScaleCosimCycles = 1000;
constexpr unsigned kCosimShards = 8;
/// Cycles of the gate-only and oracle-only cost probes.
constexpr std::uint64_t kProbeCycles = 200;

/// The distinct FSM specs of a system's control, in the order the
/// ProveEncodingEquiv pass proves them.
std::vector<ls::FsmSpec> controlSpecs(const ls::SystemSpec& spec) {
  std::vector<ls::FsmSpec> specs;
  std::set<std::pair<unsigned, unsigned>> shells;
  std::set<unsigned> relays;
  for (const ls::PearlSpec& p : spec.pearls) {
    if (shells.insert({p.numInputs, p.numOutputs}).second) {
      specs.push_back(ls::shellFsm(p.numInputs, p.numOutputs));
    }
  }
  for (const ls::ChannelSpec& ch : spec.channels) {
    if (ch.relays > 0 && relays.insert(ch.relayDepth).second) {
      specs.push_back(ls::relayFsm(ch.relayDepth));
    }
  }
  return specs;
}

std::string cosimCols(const ls::CosimResult& r) {
  std::ostringstream os;
  os << " | cosim " << (r.ok ? "ok" : "MISMATCH") << " cycles=" << r.cyclesRun
     << " fires=" << r.fires << " tokens=" << r.tokens << " per_output=";
  for (std::size_t j = 0; j < r.tokensPerOutput.size(); ++j) {
    os << (j ? "," : "") << r.tokensPerOutput[j];
  }
  return os.str();
}

bool vacuous(const ls::CosimResult& r) {
  for (std::uint64_t t : r.tokensPerOutput) {
    if (t == 0) return true;
  }
  return r.tokensPerOutput.empty();
}

DesignOutcome scaleOutcome(const std::string& name, const std::string& cols,
                           bool proofsOk, const ls::CosimResult& cosim) {
  DesignOutcome o;
  o.row = name + cols + cosimCols(cosim);
  o.attempted = 1;
  if (!proofsOk) o.violations.push_back(name + ": encoding proof failed");
  if (!cosim.ok) o.violations.push_back(name + ": " + cosim.mismatch);
  if (!o.violations.empty() || vacuous(cosim)) o.failed = 1;
  return o;
}

/// Host cost per cycle of the gate-level simulator driving the design
/// alone, with random protocol traffic.
double gateProbeSeconds(const ls::System& sys, std::uint64_t seed) {
  ln::NetlistSim gate(sys.netlist);
  gate.reset();
  lis::support::SplitMix64 rng(seed);
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t c = 0; c < kProbeCycles; ++c) {
    for (std::size_t i = 0; i < sys.ports.inValid.size(); ++i) {
      gate.setInput(sys.ports.inValid[i], rng.below(100) < 70);
      gate.setInputBus(sys.ports.inData[i], rng.next() & 0xffu);
    }
    for (ln::NodeId stop : sys.ports.outStop) {
      gate.setInput(stop, rng.below(100) < 30);
    }
    gate.settle();
    gate.clock();
  }
  return secondsBetween(t0, Clock::now());
}

/// Same for the behavioural oracle fleet, offering only when not stopped.
double oracleProbeSeconds(const ls::SystemSpec& spec, std::uint64_t seed) {
  ls::Oracle beh(spec);
  beh.reset();
  lis::support::SplitMix64 rng(seed);
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t c = 0; c < kProbeCycles; ++c) {
    beh.settle();
    for (std::size_t i = 0; i < beh.numInputs(); ++i) {
      beh.driveInput(i, !beh.inStop(i) && rng.below(100) < 70,
                     rng.next() & 0xffu);
    }
    for (std::size_t j = 0; j < beh.numOutputs(); ++j) {
      beh.driveOutStop(j, rng.below(100) < 30);
    }
    beh.settle();
    beh.step();
  }
  return secondsBetween(t0, Clock::now());
}

/// synth → greedy 4-LUT mapping → STA → one-hot/binary control proofs →
/// 1000-cycle cosim in 8 seed shards, on SoC-sized pipelines and meshes.
class ScaleWorkload final : public Workload {
public:
  explicit ScaleWorkload(std::uint64_t cosimSeed) {
    const ls::Encoding enc = ls::Encoding::Binary;
    specs_.push_back(ls::pipelineSpec(256, 1, enc));
    specs_.push_back(ls::pipelineSpec(1024, 1, enc));
    specs_.push_back(ls::meshSpec(16, 16, 1, enc));
    specs_.push_back(ls::meshSpec(32, 32, 1, enc));
    cosim_.cycles = kScaleCosimCycles;
    cosim_.shards = kCosimShards;
    cosim_.seed = cosimSeed;
  }

  std::size_t size() const override { return specs_.size(); }

  std::vector<lf::Design> designs() const override {
    std::vector<lf::Design> ds;
    for (const ls::SystemSpec& s : specs_) ds.emplace_back(s);
    return ds;
  }

  lf::Pipeline pipeline() const override {
    lf::Pipeline pipe;
    pipe.synthesizeControl().mapLuts(4).sta().proveEncodingEquiv().cosim(
        cosim_);
    return pipe;
  }

  DesignOutcome untraced(lf::Design& d,
                         const lf::RunResult& r) const override {
    if (d.cosimResult() == nullptr || !d.hasTiming()) {
      return passFailure(d.name(), r, 1);
    }
    const double proofs =
        recordMetric(r, "prove-encoding-equiv", "proofs", 0.0);
    const lis::techmap::MappedNetlist& m = d.mapped(4);
    const std::string cols =
        netlistCols(d.netlist()) +
        qorCols(d.area(4), m.depth, d.timing().fmaxMHz) +
        " proofs=" + std::to_string(static_cast<unsigned>(proofs));
    DesignOutcome o = scaleOutcome(d.name(), cols, proofs > 0,
                                   *d.cosimResult());
    if (!r.ok && o.violations.empty()) {
      o.failed = 1;
      o.violations.push_back(d.name() + ": " + firstError(r));
    }
    return o;
  }

  DesignOutcome traced(std::size_t i, SpanLog& log,
                       LayerTally& tally) const override {
    const ls::SystemSpec& spec = specs_[i];
    const std::string name = designName(spec);
    const ls::System sys = buildTraced(spec, log, tally);
    lis::techmap::MappedNetlist mapped;
    {
      ScopedSpan span(log, "techmap.map_s", name);
      mapped = lis::techmap::mapToLuts(sys.netlist, 4);
    }
    const lis::techmap::AreaReport area = lis::techmap::areaOf(mapped);
    tally.add("techmap.luts", static_cast<double>(area.luts));
    lis::timing::TimingReport tr;
    {
      ScopedSpan span(log, "timing.sta_s", name);
      tr = lis::timing::analyze(mapped);
    }
    tally.atLeast("timing.lut_depth_max", tr.logicLevels);

    bool proofsOk = true;
    const std::vector<ls::FsmSpec> fsms = controlSpecs(spec);
    {
      ScopedSpan span(log, "netlist.encoding_equiv_s", name);
      for (const ls::FsmSpec& f : fsms) {
        const ln::EquivResult res = ln::checkCombEquivalence(
            ls::fsmTransitionNetlist(f, ls::Encoding::OneHot),
            ls::fsmTransitionNetlist(f, ls::Encoding::Binary));
        proofsOk = proofsOk && res.equivalent;
      }
    }

    std::vector<ls::CosimResult> parts(kCosimShards);
    for (std::size_t s = 0; s < parts.size(); ++s) {
      ScopedSpan span(log, "lis.cosim_s", name);
      parts[s] =
          ls::cosimSystem(sys, spec, ls::cosimShardOptions(cosim_, s));
    }
    const ls::CosimResult cosim = ls::cosimMergeShards(std::move(parts));
    tally.add("lis.cosim.tokens", static_cast<double>(cosim.tokens));
    tally.add("lis.cosim.vacuous_rows", vacuous(cosim) ? 1.0 : 0.0);

    double gateS = 0;
    double oracleS = 0;
    {
      ScopedSpan span(log, "lis.cosim.gate_probe", name, "probe");
      gateS = gateProbeSeconds(sys, cosim_.seed);
    }
    {
      ScopedSpan span(log, "lis.cosim.oracle_probe", name, "probe");
      oracleS = oracleProbeSeconds(spec, cosim_.seed);
    }
    const double perCycle = 1e6 / static_cast<double>(kProbeCycles);
    tally.add("lis.cosim.gate_us_per_cycle", gateS * perCycle);
    tally.add("lis.cosim.oracle_us_per_cycle", oracleS * perCycle);

    const std::string cols = netlistCols(sys.netlist) +
                             qorCols(area, mapped.depth, tr.fmaxMHz) +
                             " proofs=" + std::to_string(fsms.size());
    return scaleOutcome(name, cols, proofsOk && !fsms.empty(), cosim);
  }

private:
  std::vector<ls::SystemSpec> specs_;
  ls::CosimOptions cosim_;
};

// --- fault ----------------------------------------------------------------

std::string faultCols(const lis::fault::CampaignResult& r) {
  const lis::fault::OutcomeCounts& a = r.all;
  return " | sites=" + std::to_string(a.total()) +
         " detected=" + std::to_string(a.detected) +
         " recovered=" + std::to_string(a.recovered) +
         " silent=" + std::to_string(a.silent) +
         " hang=" + std::to_string(a.hang) +
         " control_seu=" + std::to_string(r.controlSeu.total()) + "/" +
         exact(r.controlSeu.coverage()) +
         (r.cancelled ? " cancelled" : "");
}

DesignOutcome faultOutcome(const std::string& name, const std::string& cols,
                           const lis::fault::CampaignResult& r) {
  DesignOutcome o;
  o.row = name + cols + faultCols(r);
  o.attempted = 1;
  if (r.cancelled || r.all.total() == 0) {
    o.failed = 1;
    o.violations.push_back(name + ": campaign cancelled or empty");
  }
  return o;
}

/// synth → seeded fault-injection campaign, on the 3x1 wrapper and the
/// 4x4 mesh in both encodings.
class FaultWorkload final : public Workload {
public:
  explicit FaultWorkload(std::uint64_t siteSeed) {
    for (ls::Encoding enc : {ls::Encoding::OneHot, ls::Encoding::Binary}) {
      ls::WrapperConfig cfg;
      cfg.numInputs = 3;
      cfg.numOutputs = 1;
      cfg.relayDepth = 2;
      cfg.encoding = enc;
      wrappers_.push_back(cfg);
    }
    for (ls::Encoding enc : {ls::Encoding::OneHot, ls::Encoding::Binary}) {
      specs_.push_back(ls::meshSpec(4, 4, 1, enc));
    }
    campaign_.controlSeuCount = 32;
    campaign_.dataSeuCount = 8;
    campaign_.stuckCount = 8;
    campaign_.channelCount = 4;
    campaign_.seed = siteSeed;
  }

  std::size_t size() const override {
    return wrappers_.size() + specs_.size();
  }

  std::vector<lf::Design> designs() const override {
    std::vector<lf::Design> ds;
    for (const ls::WrapperConfig& c : wrappers_) ds.emplace_back(c);
    for (const ls::SystemSpec& s : specs_) ds.emplace_back(s);
    return ds;
  }

  lf::Pipeline pipeline() const override {
    lf::Pipeline pipe;
    pipe.synthesizeControl().faultCampaign(campaign_);
    return pipe;
  }

  DesignOutcome untraced(lf::Design& d,
                         const lf::RunResult& r) const override {
    if (!r.ok || d.faultResult() == nullptr) {
      return passFailure(d.name(), r, 1);
    }
    return faultOutcome(d.name(), netlistCols(d.netlist()), *d.faultResult());
  }

  DesignOutcome traced(std::size_t i, SpanLog& log,
                       LayerTally& tally) const override {
    if (i < wrappers_.size()) {
      const ls::WrapperConfig& cfg = wrappers_[i];
      const std::string name = designName(cfg);
      ls::Wrapper w;
      {
        ScopedSpan span(log, "lis.build_s", name);
        w = ls::buildWrapper(cfg);
      }
      tallyNetlist(tally, w.netlist);
      return campaign(name, w.netlist, lis::fault::targetOf(w, cfg), log,
                      tally);
    }
    const ls::SystemSpec& spec = specs_[i - wrappers_.size()];
    const std::string name = designName(spec);
    const ls::System sys = buildTraced(spec, log, tally);
    return campaign(name, sys.netlist, lis::fault::targetOf(sys, spec),
                    log, tally);
  }

private:
  DesignOutcome campaign(const std::string& name, const ln::Netlist& nl,
                         const lis::fault::Target& target, SpanLog& log,
                         LayerTally& tally) const {
    lis::fault::CampaignResult r;
    {
      ScopedSpan span(log, "fault.campaign_s", name);
      r = lis::fault::runCampaign(target, campaign_);
    }
    tally.add("fault.sites", static_cast<double>(r.all.total()));
    tally.add("fault.covered",
              static_cast<double>(r.all.detected + r.all.recovered));
    tally.add("fault.silent", static_cast<double>(r.all.silent));
    tally.add("fault.hang", static_cast<double>(r.all.hang));
    return faultOutcome(name, netlistCols(nl), r);
  }

  std::vector<ls::WrapperConfig> wrappers_;
  std::vector<ls::SystemSpec> specs_;
  lis::fault::CampaignOptions campaign_;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  // Independent streams for the two seeded layers.
  const lis::support::SplitMix64 root(seed);
  if (name == "verify") return std::make_unique<VerifyWorkload>();
  if (name == "optimize") return std::make_unique<OptimizeWorkload>();
  if (name == "scale") return std::make_unique<ScaleWorkload>(root.forkSeed(1));
  if (name == "fault") return std::make_unique<FaultWorkload>(root.forkSeed(2));
  return nullptr;
}

} // namespace perfbench
