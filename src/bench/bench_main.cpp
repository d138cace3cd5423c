// lis_bench: performance trajectory for the simulation + equivalence +
// synthesis stack.
//
// Measures scalar vs. 64-way bit-parallel simulation throughput on a large
// generated netlist, BDD apply throughput, end-to-end equivalence-check
// wall time on adder / mux-tree / ROM pairs, and — through the flow::
// Pipeline — synthesis/map/STA/proof/cosim numbers for the wrapper
// configurations, whole-system topologies (chain / fork / join) and the
// mesh/pipeline scaling sweep (16–100 pearls). The three flow suites run
// through Pipeline::runMany on a work-stealing pool: `--jobs N` picks the
// worker count (default 1 = serial), and when N > 1 the suites are re-run
// serially afterwards so the "sweep" section reports the observed speedup
// against `--jobs 1`. All design-derived numbers are deterministic and
// identical at any job count; `--strip-times` zeroes the wall-clock- and
// job-count-dependent fields so two runs can be diffed byte-for-byte.
//
// Results go to stdout and to a JSON file (first positional arg, default
// "BENCH_sim.json") so successive PRs can track the numbers; CI gates on
// the wrapper section via tools/check_bench_regression.py.
//
// Observability: spans are always recorded (the utilization numbers are
// derived from them even without --trace); `--trace out.json` additionally
// writes the Chrome trace-event JSON. The "metrics" JSON section reports
// per-config pass counters, process-wide engine counters, pool scheduling
// stats, and the executor utilization derived from the trace. `--suite
// quick` runs only the wrapper + fault + sat suites — the cheap smoke set
// CI traces on every push. `--suite scale` runs only the production-scale
// sweep (pipe256/pipe1024/mesh16x16/mesh32x32) under CI's wall-clock
// ceiling; `--suite full` is everything: all plus scale.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/suites.hpp"
#include "flow/design.hpp"
#include "flow/executor.hpp"
#include "flow/pipeline.hpp"
#include "lis/synth.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "logic/bdd.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/equiv.hpp"
#include "netlist/generate.hpp"
#include "netlist/netlist_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/utilization.hpp"
#include "support/rng.hpp"

namespace {

using lis::netlist::BitSim;
using lis::netlist::Netlist;
using lis::netlist::NetlistSim;
using lis::netlist::NodeId;
namespace gen = lis::netlist::gen;

template <class F>
double secondsOf(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// --strip-times support: every wall-clock- or job-count-dependent value is
// emitted through scrub(), so a stripped run's stdout and JSON are a pure
// function of the design suites — byte-identical across job counts.
bool gStripTimes = false;
double scrub(double v) { return gStripTimes ? 0.0 : v; }

struct SimBench {
  std::size_t nodes = 0;
  std::size_t gates = 0;
  double scalarPatternsPerSec = 0;
  double bitsimPatternsPerSec = 0;
  double speedup = 0;
  unsigned bitsimWords = 0;
  std::uint64_t checksum = 0; // keeps the loops honest
};

SimBench benchSim() {
  SimBench r;
  const Netlist dag = gen::randomDag(64, 8000, 32, /*seed=*/42);
  r.nodes = dag.nodeCount();
  r.gates = dag.stats().gates;
  const NodeId probe = dag.outputs().front();

  lis::support::SplitMix64 rng(1);

  NetlistSim scalar(dag);
  const unsigned scalarPatterns = 2048;
  const double tScalar = secondsOf([&] {
    for (unsigned p = 0; p < scalarPatterns; ++p) {
      for (NodeId in : dag.inputs()) scalar.setInput(in, (rng.next() & 1u) != 0);
      scalar.settle();
      r.checksum += scalar.value(probe) ? 1 : 0;
    }
  });
  r.scalarPatternsPerSec = scalarPatterns / tScalar;

  const unsigned words = 4;
  r.bitsimWords = words;
  BitSim bits(dag, words);
  const unsigned rounds = 256;
  const double tBits = secondsOf([&] {
    for (unsigned round = 0; round < rounds; ++round) {
      for (NodeId in : dag.inputs()) {
        for (unsigned w = 0; w < words; ++w) bits.setInputWord(in, w, rng.next());
      }
      bits.settle();
      r.checksum += bits.word(probe, 0) & 1u;
    }
  });
  r.bitsimPatternsPerSec = double(rounds) * 64 * words / tBits;
  r.speedup = r.bitsimPatternsPerSec / r.scalarPatternsPerSec;
  return r;
}

struct BddBench {
  std::size_t nodes = 0;
  std::uint64_t applyCalls = 0;
  double applyPerSec = 0;
  double buildSeconds = 0;
};

BddBench benchBdd() {
  BddBench r;
  const Netlist add = gen::adder(32);
  lis::logic::BddManager mgr(static_cast<unsigned>(add.inputs().size()));
  r.buildSeconds = secondsOf([&] {
    for (NodeId out : add.outputs()) {
      (void)lis::netlist::outputBdd(add, mgr, out);
    }
  });
  r.nodes = mgr.nodeCount();
  r.applyCalls = mgr.stats().applyCalls;
  r.applyPerSec = double(r.applyCalls) / r.buildSeconds;
  return r;
}

struct EquivBench {
  std::string name;
  double seconds = 0;
  bool equivalent = false;
  bool foundBySimulation = false;
  bool hasCounterexample = false;
};

EquivBench benchEquiv(std::string name, const Netlist& a, const Netlist& b) {
  EquivBench r;
  r.name = std::move(name);
  lis::netlist::EquivResult res;
  r.seconds = secondsOf([&] { res = lis::netlist::checkCombEquivalence(a, b); });
  r.equivalent = res.equivalent;
  r.foundBySimulation = res.foundBySimulation;
  r.hasCounterexample = res.counterexample.has_value();
  return r;
}

// Replay every buffered diagnostic in submission order (that ordering is
// the parallel-vs-serial determinism contract) and count the designs that
// failed. A broken config no longer aborts the bench: its row is marked
// "failed": true in the JSON, every other config still reports, and the
// bench exits nonzero at the end so CI notices.
std::size_t reportFailures(const std::vector<lis::flow::RunResult>& results) {
  std::size_t failed = 0;
  for (const lis::flow::RunResult& r : results) {
    for (const auto& diag : r.diagnostics) {
      std::fprintf(stderr, "%s [%s/%s]: %s\n", severityName(diag.severity),
                   r.design.c_str(), diag.pass.c_str(),
                   diag.message.c_str());
    }
    if (!r.ok) {
      std::fprintf(stderr, "FAILED config: %s (marked in JSON)\n",
                   r.design.c_str());
      ++failed;
    }
  }
  return failed;
}

// Table-1-style numbers for the wrapper synthesis flow: area (LUT/FF/
// slice via lutmap), fmax (via STA) and two-level control cost per channel
// configuration and state encoding.
struct WrapperBench {
  bool failed = false; // pipeline failed; only identity fields are valid
  unsigned inputs = 0;
  unsigned outputs = 0;
  unsigned relayDepth = 0;
  const char* encoding = "";
  std::size_t gates = 0;
  std::size_t dffs = 0;
  std::size_t luts = 0;
  std::size_t ffs = 0;
  std::size_t slices = 0;
  unsigned lutDepth = 0;
  double fmaxMHz = 0;
  std::size_t sopCubes = 0;
  std::size_t sopLiterals = 0;
  std::uint64_t cosimTokens = 0;
  double synthSeconds = 0;
};

WrapperBench wrapperBenchOf(lis::flow::Design& d,
                            const lis::flow::RunResult& res) {
  const lis::sync::WrapperConfig& cfg = *d.wrapperConfig();
  WrapperBench r;
  r.inputs = cfg.numInputs;
  r.outputs = cfg.numOutputs;
  r.relayDepth = cfg.relayDepth;
  r.encoding = lis::sync::encodingName(cfg.encoding);
  r.failed = !res.ok;
  if (r.failed) return r; // artifacts may be missing or half-built
  const lis::netlist::NetlistStats st = d.netlist().stats();
  r.gates = st.gates;
  r.dffs = st.dffs;
  if (const lis::sync::FsmSynthStats* cs = d.controlStats()) {
    r.sopCubes = cs->cubesAfter;
    r.sopLiterals = cs->literalsAfter;
  }
  r.luts = d.area().luts;
  r.ffs = d.area().ffs;
  r.slices = d.area().slices;
  r.lutDepth = d.mapped().depth;
  r.fmaxMHz = d.timing().fmaxMHz;
  if (const lis::sync::CosimResult* cr = d.cosimResult()) {
    r.cosimTokens = cr->tokens;
  }
  r.synthSeconds = d.stageSeconds("synthesize");
  return r;
}

// System-scale numbers: topologies through the same flow, so later PRs can
// track synthesis cost and area/fmax as networks grow.
struct SystemBench {
  bool failed = false; // pipeline failed; only identity fields are valid
  std::string topology;
  const char* encoding = "";
  std::size_t pearls = 0;
  std::size_t channels = 0;
  std::size_t relayStations = 0;
  std::size_t gates = 0;
  std::size_t dffs = 0;
  std::size_t luts = 0;
  std::size_t ffs = 0;
  std::size_t slices = 0;
  double fmaxMHz = 0;
  std::uint64_t cosimCycles = 0;
  std::uint64_t cosimTokens = 0;
  double synthSeconds = 0;
  double mapSeconds = 0;
  double staSeconds = 0;
  double cosimSeconds = 0;       // gate + oracle busy time
  double cosimGateSeconds = 0;   // lane-packed gate simulation
  double cosimOracleSeconds = 0; // summed behavioural replays
};

SystemBench systemBenchOf(lis::flow::Design& d,
                          const lis::flow::RunResult& res) {
  const lis::sync::SystemSpec& spec = *d.systemSpec();
  SystemBench r;
  r.topology = spec.name;
  r.encoding = lis::sync::encodingName(spec.encoding);
  r.pearls = spec.pearls.size();
  r.channels = spec.channels.size();
  r.failed = !res.ok;
  if (r.failed) return r; // artifacts may be missing or half-built
  r.relayStations = d.system()->relayStations;
  const lis::netlist::NetlistStats st = d.netlist().stats();
  r.gates = st.gates;
  r.dffs = st.dffs;
  r.luts = d.area().luts;
  r.ffs = d.area().ffs;
  r.slices = d.area().slices;
  r.fmaxMHz = d.timing().fmaxMHz;
  if (const lis::sync::CosimResult* cr = d.cosimResult()) {
    r.cosimCycles = cr->cyclesRun;
    r.cosimTokens = cr->tokens;
  }
  r.synthSeconds = d.stageSeconds("synthesize");
  r.mapSeconds = d.stageSeconds("map");
  r.staSeconds = d.stageSeconds("sta");
  for (const lis::flow::PassRecord& rec : res.records) {
    if (rec.name != "cosim") continue;
    r.cosimSeconds += rec.seconds;
    for (const auto& [key, value] : rec.timings) {
      if (key == "gate_s") r.cosimGateSeconds += value;
      if (key == "oracle_s") r.cosimOracleSeconds += value;
    }
  }
  return r;
}

std::string jsonWrapper(const WrapperBench& b) {
  std::ostringstream os;
  if (b.failed) {
    os << "    {\"inputs\": " << b.inputs << ", \"outputs\": " << b.outputs
       << ", \"relay_depth\": " << b.relayDepth << ", \"encoding\": \""
       << b.encoding << "\", \"failed\": true}";
    return os.str();
  }
  os << "    {\"inputs\": " << b.inputs << ", \"outputs\": " << b.outputs
     << ", \"relay_depth\": " << b.relayDepth << ", \"encoding\": \""
     << b.encoding << "\", \"gates\": " << b.gates << ", \"dffs\": " << b.dffs
     << ", \"luts\": " << b.luts << ", \"ffs\": " << b.ffs
     << ", \"slices\": " << b.slices << ", \"lut_depth\": " << b.lutDepth
     << ", \"fmax_mhz\": " << b.fmaxMHz << ", \"sop_cubes\": " << b.sopCubes
     << ", \"sop_literals\": " << b.sopLiterals
     << ", \"cosim_tokens\": " << b.cosimTokens
     << ", \"synth_seconds\": " << scrub(b.synthSeconds) << "}";
  return os.str();
}

std::string jsonSystem(const SystemBench& b) {
  std::ostringstream os;
  if (b.failed) {
    os << "    {\"topology\": \"" << b.topology << "\", \"encoding\": \""
       << b.encoding << "\", \"pearls\": " << b.pearls
       << ", \"channels\": " << b.channels << ", \"failed\": true}";
    return os.str();
  }
  os << "    {\"topology\": \"" << b.topology << "\", \"encoding\": \""
     << b.encoding << "\", \"pearls\": " << b.pearls
     << ", \"channels\": " << b.channels
     << ", \"relay_stations\": " << b.relayStations
     << ", \"gates\": " << b.gates << ", \"dffs\": " << b.dffs
     << ", \"luts\": " << b.luts << ", \"ffs\": " << b.ffs
     << ", \"slices\": " << b.slices << ", \"fmax_mhz\": " << b.fmaxMHz
     << ", \"cosim_cycles\": " << b.cosimCycles
     << ", \"cosim_tokens\": " << b.cosimTokens
     << ", \"synth_seconds\": " << scrub(b.synthSeconds)
     << ", \"map_seconds\": " << scrub(b.mapSeconds)
     << ", \"sta_seconds\": " << scrub(b.staSeconds)
     << ", \"cosim_seconds\": " << scrub(b.cosimSeconds)
     << ", \"cosim_gate_seconds\": " << scrub(b.cosimGateSeconds)
     << ", \"cosim_oracle_seconds\": " << scrub(b.cosimOracleSeconds) << "}";
  return os.str();
}

std::string jsonEquiv(const EquivBench& e) {
  std::ostringstream os;
  os << "    {\"name\": \"" << e.name << "\", \"seconds\": "
     << scrub(e.seconds)
     << ", \"equivalent\": " << (e.equivalent ? "true" : "false")
     << ", \"counterexample_by_sim\": "
     << (e.foundBySimulation ? "true" : "false")
     << ", \"has_counterexample\": "
     << (e.hasCounterexample ? "true" : "false") << "}";
  return os.str();
}

// The "opt" section: the same suite, run once through the greedy baseline
// (the unopt Designs the main sections already hold) and once through the
// optimize pipeline; entries pair the two by suite index.
struct OptBench {
  std::string design;
  bool failed = false; // either side's pipeline failed
  std::size_t slicesUnopt = 0;
  std::size_t slicesOpt = 0;
  std::size_t lutsUnopt = 0;
  std::size_t lutsOpt = 0;
  unsigned depthUnopt = 0;
  unsigned depthOpt = 0;
  double fmaxUnopt = 0;
  double fmaxOpt = 0;
  std::size_t aigAndsBefore = 0;
  std::size_t aigAndsAfter = 0;
  bool equivProved = false;
  double optimizeSeconds = 0;
};

OptBench optBenchOf(lis::flow::Design& unopt, lis::flow::Design& opt,
                    const lis::flow::RunResult& unoptResult,
                    const lis::flow::RunResult& optResult) {
  OptBench r;
  r.design = unopt.name();
  r.failed = !unoptResult.ok || !optResult.ok;
  if (r.failed) return r;
  r.slicesUnopt = unopt.area().slices;
  r.lutsUnopt = unopt.area().luts;
  r.depthUnopt = unopt.mapped().depth;
  r.fmaxUnopt = unopt.timing().fmaxMHz;
  const lis::techmap::MapOptions mo = lis::bench::optMapOptions();
  r.slicesOpt = opt.area(mo).slices;
  r.lutsOpt = opt.area(mo).luts;
  r.depthOpt = opt.mapped(mo).depth;
  r.fmaxOpt = opt.timing().fmaxMHz;
  if (const lis::aig::OptimizeStats* st = opt.optimizeStats()) {
    r.aigAndsBefore = st->andsBefore;
    r.aigAndsAfter = st->andsAfter;
  }
  for (const lis::flow::PassRecord& rec : optResult.records) {
    if (rec.name != "optimize-aig") continue;
    for (const auto& [key, value] : rec.metrics) {
      if (key == "equiv_proved" && value == 1.0) r.equivProved = true;
    }
  }
  r.optimizeSeconds = opt.stageSeconds("optimize");
  return r;
}

std::string jsonOpt(const OptBench& b) {
  std::ostringstream os;
  if (b.failed) {
    os << "    {\"design\": \"" << b.design << "\", \"failed\": true}";
    return os.str();
  }
  os << "    {\"design\": \"" << b.design
     << "\", \"slices_unopt\": " << b.slicesUnopt
     << ", \"slices_opt\": " << b.slicesOpt
     << ", \"luts_unopt\": " << b.lutsUnopt
     << ", \"luts_opt\": " << b.lutsOpt
     << ", \"depth_unopt\": " << b.depthUnopt
     << ", \"depth_opt\": " << b.depthOpt
     << ", \"fmax_unopt\": " << b.fmaxUnopt
     << ", \"fmax_opt\": " << b.fmaxOpt
     << ", \"aig_ands_before\": " << b.aigAndsBefore
     << ", \"aig_ands_after\": " << b.aigAndsAfter
     << ", \"equiv_proved\": " << (b.equivProved ? "true" : "false")
     << ", \"optimize_seconds\": " << scrub(b.optimizeSeconds) << "}";
  return os.str();
}

// All flow suites, run back to back on one executor: the three standard
// sections plus their optimize-pipeline twins. Holding the Designs and
// RunResults together keeps extraction (and the diagnostics replay) in
// submission order.
struct FlowSections {
  std::vector<lis::flow::Design> wrappers;
  std::vector<lis::flow::RunResult> wrapperResults;
  std::vector<lis::flow::Design> systems;
  std::vector<lis::flow::RunResult> systemResults;
  std::vector<lis::flow::Design> sweep;
  std::vector<lis::flow::RunResult> sweepResults;
  std::vector<lis::flow::Design> scale;
  std::vector<lis::flow::RunResult> scaleResults;
  std::vector<lis::flow::Design> wrappersOpt;
  std::vector<lis::flow::RunResult> wrapperOptResults;
  std::vector<lis::flow::Design> systemsOpt;
  std::vector<lis::flow::RunResult> systemOptResults;
  std::vector<lis::flow::Design> sweepOpt;
  std::vector<lis::flow::RunResult> sweepOptResults;
  std::vector<lis::flow::Design> faults;
  std::vector<lis::flow::RunResult> faultResults;
  std::vector<lis::flow::Design> sats;
  std::vector<lis::flow::RunResult> satResults;
};

constexpr std::uint64_t kMatrixCosimCycles = 2000;
constexpr std::uint64_t kSweepCosimCycles = 3000;

// Which suites a run covers. `quick` trims to wrapper + fault + sat (the
// smoke set CI traces on every push); `scale` is *only* the production-
// scale sweep, so CI can put a wall-clock ceiling on exactly that work;
// `full` is all + scale.
enum class SuiteMode { Quick, All, Scale, Full };

// The sat suite stays in the smoke set because it is acceptance-gated
// (check_bench_regression's "sat" checks) and costs well under a second.
// Each suite's runMany is wrapped in a "suite"-category span: those
// windows are what computeUtilization measures.
FlowSections runFlowSections(lis::flow::Executor& exec, SuiteMode mode) {
  FlowSections s;
  const bool matrix = mode == SuiteMode::All || mode == SuiteMode::Full;
  lis::flow::Pipeline matrixPipe =
      lis::bench::standardPasses(kMatrixCosimCycles);
  lis::flow::Pipeline sweepPipe =
      lis::bench::standardPasses(kSweepCosimCycles);
  lis::flow::Pipeline optPipe = lis::bench::optPasses();
  if (mode != SuiteMode::Scale) {
    lis::obs::Span span("suite:wrapper", "suite");
    s.wrappers = lis::bench::wrapperSuite();
    s.wrapperResults = matrixPipe.runMany(s.wrappers, exec);
  }
  if (matrix) {
    {
      lis::obs::Span span("suite:system", "suite");
      s.systems = lis::bench::systemSuite();
      s.systemResults = matrixPipe.runMany(s.systems, exec);
    }
    {
      lis::obs::Span span("suite:sweep", "suite");
      s.sweep = lis::bench::sweepSuite();
      s.sweepResults = sweepPipe.runMany(s.sweep, exec);
    }
    {
      lis::obs::Span span("suite:wrapper_opt", "suite");
      s.wrappersOpt = lis::bench::wrapperSuite();
      s.wrapperOptResults = optPipe.runMany(s.wrappersOpt, exec);
    }
    {
      lis::obs::Span span("suite:system_opt", "suite");
      s.systemsOpt = lis::bench::systemSuite();
      s.systemOptResults = optPipe.runMany(s.systemsOpt, exec);
    }
    {
      lis::obs::Span span("suite:sweep_opt", "suite");
      s.sweepOpt = lis::bench::sweepSuite();
      s.sweepOptResults = optPipe.runMany(s.sweepOpt, exec);
    }
  }
  if (mode == SuiteMode::Scale || mode == SuiteMode::Full) {
    lis::obs::Span span("suite:scale", "suite");
    lis::flow::Pipeline scalePipe =
        lis::bench::standardPasses(lis::bench::kScaleCosimCycles);
    s.scale = lis::bench::scaleSuite();
    s.scaleResults = scalePipe.runMany(s.scale, exec);
  }
  if (mode != SuiteMode::Scale) {
    {
      lis::obs::Span span("suite:fault", "suite");
      lis::flow::Pipeline faultPipe = lis::bench::faultPasses();
      s.faults = lis::bench::faultSuite();
      s.faultResults = faultPipe.runMany(s.faults, exec);
    }
    {
      lis::obs::Span span("suite:sat", "suite");
      lis::flow::Pipeline satPipe = lis::bench::satPasses();
      s.sats = lis::bench::satSuite();
      s.satResults = satPipe.runMany(s.sats, exec);
    }
  }
  return s;
}

// Aggregate per-stage walls across the scaling-sweep designs (sweep +
// scale rows): where the pipeline actually spends its time, stage by
// stage. Summed *exclusive* stage seconds (see Design::stageSeconds), so
// the stages add up to roughly the designs' total pipeline time. "cosim"
// comes from the pass records — it is a pass, not an artifact build.
struct StageWalls {
  double synthesize = 0;
  double optimize = 0;
  double map = 0;
  double sta = 0;
  double cosim = 0;
};

void accumulateStageWalls(StageWalls& w,
                          std::vector<lis::flow::Design>& designs,
                          const std::vector<lis::flow::RunResult>& results) {
  for (std::size_t i = 0; i < designs.size(); ++i) {
    lis::flow::Design& d = designs[i];
    w.synthesize += d.stageSeconds("synthesize");
    w.optimize += d.stageSeconds("optimize");
    w.map += d.stageSeconds("map");
    w.sta += d.stageSeconds("sta");
    for (const lis::flow::PassRecord& rec : results[i].records) {
      if (rec.name == "cosim") w.cosim += rec.seconds;
    }
  }
}

// The fault section: seeded injection-campaign tallies per robustness-
// suite design (see bench::faultSuite / fault::runCampaign).
struct FaultBench {
  std::string design;
  bool failed = false;
  std::size_t sites = 0;
  std::size_t detected = 0;
  std::size_t recovered = 0;
  std::size_t silent = 0;
  std::size_t hang = 0;
  double coverage = 0;
  std::size_t controlSeuSites = 0;
  double controlSeuCoverage = 0;
};

FaultBench faultBenchOf(lis::flow::Design& d,
                        const lis::flow::RunResult& res) {
  FaultBench r;
  r.design = d.name();
  r.failed = !res.ok;
  const lis::fault::CampaignResult* f = d.faultResult();
  if (f == nullptr) {
    r.failed = true;
    return r;
  }
  r.sites = f->all.total();
  r.detected = f->all.detected;
  r.recovered = f->all.recovered;
  r.silent = f->all.silent;
  r.hang = f->all.hang;
  r.coverage = f->all.coverage();
  r.controlSeuSites = f->controlSeu.total();
  r.controlSeuCoverage = f->controlSeu.coverage();
  return r;
}

std::string jsonFault(const FaultBench& b) {
  std::ostringstream os;
  if (b.failed) {
    os << "    {\"design\": \"" << b.design << "\", \"failed\": true}";
    return os.str();
  }
  os << "    {\"design\": \"" << b.design << "\", \"sites\": " << b.sites
     << ", \"detected\": " << b.detected
     << ", \"recovered\": " << b.recovered << ", \"silent\": " << b.silent
     << ", \"hang\": " << b.hang << ", \"coverage\": " << b.coverage
     << ", \"control_seu_sites\": " << b.controlSeuSites
     << ", \"control_seu_coverage\": " << b.controlSeuCoverage << "}";
  return os.str();
}

// The sat section: per-design SAT-sweep tallies, the sweep soundness
// proof's method/verdict, the BMC protocol-invariant verdicts at
// bench::kSatBmcDepth, and the unbounded (k-induction/PDR) verdicts
// (see bench::satSuite / bench::satPasses).
struct SatBench {
  std::string design;
  bool failed = false;
  std::size_t sweepCandidates = 0;
  std::size_t sweepProved = 0;
  std::size_t sweepRefuted = 0;
  std::size_t sweepUndecided = 0;
  std::size_t aigAndsBefore = 0;
  std::size_t aigAndsAfter = 0;
  std::string equivMethod = "none";
  bool equivProved = false;
  unsigned bmcDepth = 0;
  bool bmcDegraded = false;
  bool tokenConservationOk = false;
  bool occupancyBoundOk = false;
  bool deadlockWatchdogOk = false;
  bool provedUnbounded = false; // every property, for all time
  bool pdrDegraded = false;
  unsigned inductionK = 0;
  unsigned pdrFrames = 0;
  unsigned pdrClauses = 0;
  bool tokenConservationProved = false;
  bool occupancyBoundProved = false;
  bool deadlockWatchdogProved = false;
  std::uint64_t satConflicts = 0;
  std::uint64_t satDecisions = 0;
  std::uint64_t satPropagations = 0;
};

SatBench satBenchOf(lis::flow::Design& d, const lis::flow::RunResult& res) {
  SatBench r;
  r.design = d.name();
  r.failed = !res.ok;
  const lis::sat::NetlistSweepResult* sw = d.sweepResult();
  const lis::sat::BmcResult* bmc = d.bmcResult();
  const lis::sat::PdrResult* pdr = d.pdrResult();
  if (sw == nullptr || bmc == nullptr || pdr == nullptr) {
    r.failed = true;
    return r;
  }
  r.sweepCandidates = sw->stats.candidates;
  r.sweepProved = sw->stats.proved;
  r.sweepRefuted = sw->stats.refuted;
  r.sweepUndecided = sw->stats.undecided;
  r.aigAndsBefore = sw->stats.andsBefore;
  r.aigAndsAfter = sw->stats.andsAfter;
  // The sweep pass records the soundness proof's verdict in its pass
  // metrics and the method (numeric enum) in the design registry.
  for (const lis::flow::PassRecord& rec : res.records) {
    if (rec.name != "sat-sweep") continue;
    for (const auto& [key, value] : rec.metrics) {
      if (key == "equiv_proved" && value == 1.0) r.equivProved = true;
    }
  }
  r.equivMethod = lis::netlist::equivMethodName(
      static_cast<lis::netlist::EquivMethod>(static_cast<unsigned>(
          d.metrics().value("sweep.equiv_method"))));
  r.bmcDepth = bmc->minDepthReached();
  r.bmcDegraded = bmc->anyDegraded();
  for (const lis::sat::BmcPropertyResult& p : bmc->properties) {
    const bool ok = !p.violated;
    if (p.name == "token_conservation") r.tokenConservationOk = ok;
    if (p.name == "occupancy_bound") r.occupancyBoundOk = ok;
    if (p.name == "deadlock_watchdog") r.deadlockWatchdogOk = ok;
  }
  r.provedUnbounded = pdr->allProved();
  r.pdrDegraded = pdr->anyDegraded();
  r.inductionK = pdr->maxInductionK();
  r.pdrFrames = pdr->totalFrames();
  r.pdrClauses = pdr->totalClauses();
  for (const lis::sat::PdrPropertyResult& p : pdr->properties) {
    const bool proved = p.provedUnbounded;
    if (p.name == "token_conservation") r.tokenConservationProved = proved;
    if (p.name == "occupancy_bound") r.occupancyBoundProved = proved;
    if (p.name == "deadlock_watchdog") r.deadlockWatchdogProved = proved;
  }
  r.satConflicts =
      static_cast<std::uint64_t>(d.metrics().value("sat.conflicts"));
  r.satDecisions =
      static_cast<std::uint64_t>(d.metrics().value("sat.decisions"));
  r.satPropagations =
      static_cast<std::uint64_t>(d.metrics().value("sat.propagations"));
  return r;
}

std::string jsonSat(const SatBench& b) {
  std::ostringstream os;
  if (b.failed) {
    os << "    {\"design\": \"" << b.design << "\", \"failed\": true}";
    return os.str();
  }
  const auto flag = [](bool v) { return v ? "true" : "false"; };
  os << "    {\"design\": \"" << b.design
     << "\", \"sweep_candidates\": " << b.sweepCandidates
     << ", \"sweep_proved\": " << b.sweepProved
     << ", \"sweep_refuted\": " << b.sweepRefuted
     << ", \"sweep_undecided\": " << b.sweepUndecided
     << ", \"aig_ands_before\": " << b.aigAndsBefore
     << ", \"aig_ands_after\": " << b.aigAndsAfter
     << ", \"equiv_method\": \"" << b.equivMethod
     << "\", \"equiv_proved\": " << flag(b.equivProved)
     << ", \"bmc_depth\": " << b.bmcDepth
     << ", \"bmc_degraded\": " << flag(b.bmcDegraded)
     << ", \"token_conservation_ok\": " << flag(b.tokenConservationOk)
     << ", \"occupancy_bound_ok\": " << flag(b.occupancyBoundOk)
     << ", \"deadlock_watchdog_ok\": " << flag(b.deadlockWatchdogOk)
     << ", \"proved_unbounded\": " << flag(b.provedUnbounded)
     << ", \"pdr_degraded\": " << flag(b.pdrDegraded)
     << ", \"induction_k\": " << b.inductionK
     << ", \"pdr_frames\": " << b.pdrFrames
     << ", \"pdr_clauses\": " << b.pdrClauses
     << ", \"token_conservation_proved\": " << flag(b.tokenConservationProved)
     << ", \"occupancy_bound_proved\": " << flag(b.occupancyBoundProved)
     << ", \"deadlock_watchdog_proved\": " << flag(b.deadlockWatchdogProved)
     << ", \"sat_conflicts\": " << b.satConflicts
     << ", \"sat_decisions\": " << b.satDecisions
     << ", \"sat_propagations\": " << b.satPropagations << "}";
  return os.str();
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [OUT.json] [--jobs N] [--strip-times] "
               "[--trace FILE] [--suite all|quick|scale|full]\n"
               "  --jobs N       run the flow suites on N pool workers "
               "(default 1 = serial)\n"
               "  --strip-times  zero wall-clock/job-count dependent fields "
               "(byte-identical diffs)\n"
               "  --trace FILE   write Chrome trace-event JSON of the flow "
               "spans to FILE\n"
               "  --suite MODE   all (default), quick (wrapper + fault + "
               "sat suites only),\n"
               "                 scale (production-scale sweep only) or "
               "full (all + scale)\n",
               argv0);
  std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_sim.json";
  std::string tracePath;
  unsigned jobs = 1;
  SuiteMode suiteMode = SuiteMode::All;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      const long n = std::strtol(argv[++i], nullptr, 10);
      if (n < 1 || n > 256) usage(argv[0]);
      jobs = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--strip-times") == 0) {
      gStripTimes = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      tracePath = argv[++i];
    } else if (std::strcmp(argv[i], "--suite") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      const char* mode = argv[++i];
      if (std::strcmp(mode, "quick") == 0) {
        suiteMode = SuiteMode::Quick;
      } else if (std::strcmp(mode, "scale") == 0) {
        suiteMode = SuiteMode::Scale;
      } else if (std::strcmp(mode, "full") == 0) {
        suiteMode = SuiteMode::Full;
      } else if (std::strcmp(mode, "all") != 0) {
        usage(argv[0]);
      }
    } else if (argv[i][0] == '-') {
      usage(argv[0]);
    } else {
      outPath = argv[i];
    }
  }

  lis::obs::setThreadName("main");
  // Spans are recorded unconditionally: the executor-utilization numbers
  // in the "metrics" section are derived from them, with or without a
  // --trace file to also write.
  lis::obs::Tracer::instance().enable();

  const SimBench sim = benchSim();
  std::printf("sim: %zu nodes (%zu gates), scalar %.0f pat/s, bit-parallel "
              "%.0f pat/s (%u words), speedup %.1fx\n",
              sim.nodes, sim.gates, scrub(sim.scalarPatternsPerSec),
              scrub(sim.bitsimPatternsPerSec), sim.bitsimWords,
              scrub(sim.speedup));

  const BddBench bdd = benchBdd();
  std::printf("bdd: adder32 built in %.3fs, %llu applies (%.0f apply/s), "
              "%zu nodes\n",
              scrub(bdd.buildSeconds),
              static_cast<unsigned long long>(bdd.applyCalls),
              scrub(bdd.applyPerSec), bdd.nodes);

  std::vector<EquivBench> equivs;
  equivs.push_back(benchEquiv("adder16_equivalent", gen::adder(16),
                              gen::adder(16, /*swapOperands=*/true)));
  equivs.push_back(benchEquiv("adder16_inequivalent", gen::adder(16),
                              gen::adder(16, false, /*corruptMsb=*/true)));
  equivs.push_back(benchEquiv(
      "muxtree16_equivalent", gen::muxTree(4, gen::MuxStyle::Tree),
      gen::muxTree(4, gen::MuxStyle::SumOfProducts)));
  equivs.push_back(benchEquiv("rom64x8_equivalent",
                              gen::romReader(6, 8, /*seed=*/7),
                              gen::romReader(6, 8, 7, /*asLogic=*/true)));
  equivs.push_back(benchEquiv("rom64x8_inequivalent",
                              gen::romReader(6, 8, 7),
                              gen::romReader(6, 8, 7, false, /*corrupt=*/true)));
  for (const EquivBench& e : equivs) {
    std::printf("equiv %-22s %.4fs equivalent=%d by_sim=%d\n", e.name.c_str(),
                scrub(e.seconds), e.equivalent ? 1 : 0,
                e.foundBySimulation ? 1 : 0);
  }

  // The flow suites: wrapper matrix + system topologies + scaling sweep,
  // scheduled across the pool. When parallel, a serial re-run afterwards
  // yields the observed speedup vs --jobs 1 (fresh Designs each time — the
  // artifact caches would otherwise turn the re-run into a no-op).
  // Engine counters from here on belong to the flow suites: the
  // microbenches above already flushed their engines' lifetime totals into
  // the global registry, and their numbers are reported in their own
  // sections.
  lis::obs::Registry::global().reset();
  // Both measured runs (parallel here, serial re-run below) start from a
  // cold synthesis cache: a warm cache would hand the second run its
  // minimized covers for free and overstate the speedup.
  lis::sync::synthCacheClear();
  lis::flow::Executor exec(jobs);
  FlowSections sections;
  const double flowWall =
      secondsOf([&] { sections = runFlowSections(exec, suiteMode); });
  std::size_t failedConfigs = 0;
  failedConfigs += reportFailures(sections.wrapperResults);
  failedConfigs += reportFailures(sections.systemResults);
  failedConfigs += reportFailures(sections.sweepResults);
  failedConfigs += reportFailures(sections.scaleResults);
  failedConfigs += reportFailures(sections.wrapperOptResults);
  failedConfigs += reportFailures(sections.systemOptResults);
  failedConfigs += reportFailures(sections.sweepOptResults);
  failedConfigs += reportFailures(sections.faultResults);
  failedConfigs += reportFailures(sections.satResults);

  // Snapshot trace, engine counters and pool stats before the serial
  // re-run below: its duplicated work must pollute neither the exported
  // trace (suspend/resume) nor the engine/utilization numbers, so both
  // stay a pure function of the parallel run.
  const std::vector<lis::obs::TraceEvent> traceEvents =
      lis::obs::Tracer::instance().snapshot();
  const std::string engineJson = lis::obs::Registry::global().json();
  const lis::flow::Executor::PoolStats pool = exec.poolStats();
  const lis::obs::UtilizationReport util =
      lis::obs::computeUtilization(traceEvents, jobs);

  // The serial re-run only exists to measure speedup — whose fields are
  // scrubbed to 0 under --strip-times, so skip the (doubled) work there.
  double serialWall = flowWall;
  if (jobs > 1 && !gStripTimes) {
    lis::obs::Tracer::instance().suspend();
    lis::sync::synthCacheClear(); // cold cache, same as the measured run
    lis::flow::Executor serial(1);
    FlowSections serialSections;
    serialWall = secondsOf(
        [&] { serialSections = runFlowSections(serial, suiteMode); });
    lis::obs::Tracer::instance().resume();
  }
  const double flowSpeedup = flowWall > 0 ? serialWall / flowWall : 1.0;
  // Amdahl inversion: with speedup S at j workers, the serial fraction of
  // the suites is (j/S - 1)/(j - 1). Clamped — measurement noise can push
  // the raw value outside [0, 1] — and only meaningful when a parallel
  // and a serial wall were both measured.
  double serialFraction = 0.0;
  if (jobs > 1 && flowSpeedup > 0) {
    serialFraction = (double(jobs) / flowSpeedup - 1.0) / (double(jobs) - 1.0);
    serialFraction = std::clamp(serialFraction, 0.0, 1.0);
  }
  const unsigned hardwareThreads = std::thread::hardware_concurrency();

  std::vector<WrapperBench> wrappers;
  for (std::size_t i = 0; i < sections.wrappers.size(); ++i) {
    wrappers.push_back(
        wrapperBenchOf(sections.wrappers[i], sections.wrapperResults[i]));
  }
  for (const WrapperBench& b : wrappers) {
    if (b.failed) {
      std::printf("wrapper %ux%u d%u %-6s FAILED\n", b.inputs, b.outputs,
                  b.relayDepth, b.encoding);
      continue;
    }
    std::printf("wrapper %ux%u d%u %-6s %4zu LUT %4zu FF %4zu slices "
                "depth %u fmax %.1f MHz (%zu cubes, %zu literals, %.3fs)\n",
                b.inputs, b.outputs, b.relayDepth, b.encoding, b.luts, b.ffs,
                b.slices, b.lutDepth, b.fmaxMHz, b.sopCubes, b.sopLiterals,
                scrub(b.synthSeconds));
  }

  std::vector<SystemBench> systems;
  for (std::size_t i = 0; i < sections.systems.size(); ++i) {
    systems.push_back(
        systemBenchOf(sections.systems[i], sections.systemResults[i]));
  }
  std::vector<SystemBench> sweep;
  for (std::size_t i = 0; i < sections.sweep.size(); ++i) {
    sweep.push_back(
        systemBenchOf(sections.sweep[i], sections.sweepResults[i]));
  }
  std::vector<SystemBench> scaleRows;
  for (std::size_t i = 0; i < sections.scale.size(); ++i) {
    scaleRows.push_back(
        systemBenchOf(sections.scale[i], sections.scaleResults[i]));
  }
  StageWalls stageWalls;
  accumulateStageWalls(stageWalls, sections.sweep, sections.sweepResults);
  accumulateStageWalls(stageWalls, sections.scale, sections.scaleResults);
  for (const SystemBench& b : systems) {
    if (b.failed) {
      std::printf("system %-12s %-6s FAILED\n", b.topology.c_str(),
                  b.encoding);
      continue;
    }
    std::printf("system %-12s %-6s %zu pearls %4zu LUT %4zu FF %4zu slices "
                "fmax %.1f MHz (synth %.3fs, map %.3fs, sta %.3fs)\n",
                b.topology.c_str(), b.encoding, b.pearls, b.luts, b.ffs,
                b.slices, b.fmaxMHz, scrub(b.synthSeconds),
                scrub(b.mapSeconds), scrub(b.staSeconds));
  }
  for (const std::vector<SystemBench>* rows : {&sweep, &scaleRows}) {
    const char* label = rows == &sweep ? "sweep " : "scale ";
    for (const SystemBench& b : *rows) {
      if (b.failed) {
        std::printf("%s %-12s FAILED\n", label, b.topology.c_str());
        continue;
      }
      std::printf("%s %-12s %4zu pearls %4zu chans %6zu LUT %6zu slices "
                  "fmax %.1f MHz (synth %.3fs, map %.3fs, cosim %.3fs = "
                  "gate %.3fs + oracle %.3fs, %llu tokens)\n",
                  label, b.topology.c_str(), b.pearls, b.channels, b.luts,
                  b.slices, b.fmaxMHz, scrub(b.synthSeconds),
                  scrub(b.mapSeconds), scrub(b.cosimSeconds),
                  scrub(b.cosimGateSeconds), scrub(b.cosimOracleSeconds),
                  static_cast<unsigned long long>(b.cosimTokens));
    }
  }

  // The optimization comparison: every suite design once more through
  // optimize-aig + iterated mapping, paired with its greedy twin above.
  auto extractOpt =
      [](std::vector<lis::flow::Design>& unopt,
         const std::vector<lis::flow::RunResult>& unoptResults,
         std::vector<lis::flow::Design>& opt,
         const std::vector<lis::flow::RunResult>& optResults) {
        std::vector<OptBench> rows;
        // --suite quick leaves the opt twins empty while the base suite
        // ran: emit no rows rather than index past the shorter vector.
        for (std::size_t i = 0; i < unopt.size() && i < opt.size(); ++i) {
          rows.push_back(
              optBenchOf(unopt[i], opt[i], unoptResults[i], optResults[i]));
        }
        return rows;
      };
  std::vector<OptBench> optWrappers =
      extractOpt(sections.wrappers, sections.wrapperResults,
                 sections.wrappersOpt, sections.wrapperOptResults);
  std::vector<OptBench> optSystems =
      extractOpt(sections.systems, sections.systemResults,
                 sections.systemsOpt, sections.systemOptResults);
  std::vector<OptBench> optSweep =
      extractOpt(sections.sweep, sections.sweepResults, sections.sweepOpt,
                 sections.sweepOptResults);
  for (const std::vector<OptBench>* rows :
       {&optWrappers, &optSystems, &optSweep}) {
    for (const OptBench& b : *rows) {
      if (b.failed) {
        std::printf("opt    %-22s FAILED\n", b.design.c_str());
        continue;
      }
      std::printf("opt    %-22s %4zu -> %4zu slices, depth %2u -> %2u, "
                  "aig %5zu -> %5zu, %s\n",
                  b.design.c_str(), b.slicesUnopt, b.slicesOpt, b.depthUnopt,
                  b.depthOpt, b.aigAndsBefore, b.aigAndsAfter,
                  b.equivProved ? "proved" : "UNPROVED");
    }
  }

  std::vector<FaultBench> faults;
  for (std::size_t i = 0; i < sections.faults.size(); ++i) {
    faults.push_back(
        faultBenchOf(sections.faults[i], sections.faultResults[i]));
  }
  for (const FaultBench& b : faults) {
    if (b.failed) {
      std::printf("fault  %-22s FAILED\n", b.design.c_str());
      continue;
    }
    std::printf("fault  %-22s %3zu sites: %3zu det %3zu rec %2zu silent "
                "%2zu hang, coverage %.3f (ctrl-SEU %.3f over %zu)\n",
                b.design.c_str(), b.sites, b.detected, b.recovered,
                b.silent, b.hang, b.coverage, b.controlSeuCoverage,
                b.controlSeuSites);
  }

  std::vector<SatBench> sats;
  for (std::size_t i = 0; i < sections.sats.size(); ++i) {
    sats.push_back(satBenchOf(sections.sats[i], sections.satResults[i]));
  }
  for (const SatBench& b : sats) {
    if (b.failed) {
      std::printf("sat    %-22s FAILED\n", b.design.c_str());
      continue;
    }
    std::printf("sat    %-22s sweep %2zu/%2zu merged (aig %4zu -> %4zu), "
                "%s %s, bmc depth %2u %s, %s (k=%u, %u frames, "
                "%u clauses) (%llu conflicts, %llu propagations)\n",
                b.design.c_str(), b.sweepProved, b.sweepCandidates,
                b.aigAndsBefore, b.aigAndsAfter, b.equivMethod.c_str(),
                b.equivProved ? "proved" : "UNPROVED", b.bmcDepth,
                b.tokenConservationOk && b.occupancyBoundOk &&
                        b.deadlockWatchdogOk
                    ? "clean"
                    : "VIOLATED",
                b.provedUnbounded
                    ? "unbounded"
                    : (b.pdrDegraded ? "DEGRADED" : "UNPROVED"),
                b.inductionK, b.pdrFrames, b.pdrClauses,
                static_cast<unsigned long long>(b.satConflicts),
                static_cast<unsigned long long>(b.satPropagations));
  }
  if (gStripTimes) {
    std::printf("flow suites: 0.000s\n"); // job count and walls scrubbed
  } else {
    std::printf("flow suites: %.3fs at --jobs %u", flowWall, jobs);
    if (jobs > 1) {
      std::printf(" (serial %.3fs, speedup %.2fx, serial fraction %.2f, "
                  "%u hw threads)",
                  serialWall, flowSpeedup, serialFraction, hardwareThreads);
    }
    std::printf("\n");
  }
  if (!gStripTimes) {
    std::printf("utilization: %.2f overall parallel efficiency over %u "
                "worker(s)\n",
                util.overallParallelEfficiency, util.workers);
    for (const lis::obs::SuiteUtilization& su : util.suites) {
      std::printf("utilization: %-12s wall %.3fs busy %.3fs (%u threads) "
                  "efficiency %.2f\n",
                  su.suite.c_str(), su.wallSeconds, su.busySeconds,
                  su.threads, su.parallelEfficiency);
    }
  }

  std::ostringstream js;
  js << "{\n"
     << "  \"sim\": {\n"
     << "    \"netlist_nodes\": " << sim.nodes << ",\n"
     << "    \"netlist_gates\": " << sim.gates << ",\n"
     << "    \"scalar_patterns_per_sec\": " << scrub(sim.scalarPatternsPerSec)
     << ",\n"
     << "    \"bitsim_patterns_per_sec\": " << scrub(sim.bitsimPatternsPerSec)
     << ",\n"
     << "    \"bitsim_words\": " << sim.bitsimWords << ",\n"
     << "    \"speedup\": " << scrub(sim.speedup) << ",\n"
     << "    \"checksum\": " << sim.checksum << "\n"
     << "  },\n"
     << "  \"bdd\": {\n"
     << "    \"adder32_build_seconds\": " << scrub(bdd.buildSeconds) << ",\n"
     << "    \"apply_calls\": " << bdd.applyCalls << ",\n"
     << "    \"apply_per_sec\": " << scrub(bdd.applyPerSec) << ",\n"
     << "    \"node_count\": " << bdd.nodes << "\n"
     << "  },\n"
     << "  \"equiv\": [\n";
  for (std::size_t i = 0; i < equivs.size(); ++i) {
    js << jsonEquiv(equivs[i]) << (i + 1 < equivs.size() ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"wrapper\": [\n";
  for (std::size_t i = 0; i < wrappers.size(); ++i) {
    js << jsonWrapper(wrappers[i]) << (i + 1 < wrappers.size() ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"system\": [\n";
  for (std::size_t i = 0; i < systems.size(); ++i) {
    js << jsonSystem(systems[i]) << (i + 1 < systems.size() ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"opt\": {\n"
     << "    \"effort\": " << lis::bench::kOptEffort << ",\n"
     << "    \"map_rounds\": " << lis::bench::kOptMapRounds << ",\n";
  const auto emitOptRows = [&js](const char* key,
                                 const std::vector<OptBench>& rows,
                                 bool last) {
    js << "    \"" << key << "\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      js << "  " << jsonOpt(rows[i]) << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    js << "    ]" << (last ? "\n" : ",\n");
  };
  emitOptRows("wrapper", optWrappers, false);
  emitOptRows("system", optSystems, false);
  emitOptRows("sweep", optSweep, true);
  js << "  },\n"
     << "  \"fault\": {\n"
     << "    \"inject_cycles\": "
     << lis::bench::faultCampaignOptions().inject.cycles << ",\n"
     << "    \"entries\": [\n";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    js << jsonFault(faults[i]) << (i + 1 < faults.size() ? ",\n" : "\n");
  }
  js << "    ]\n"
     << "  },\n"
     << "  \"sat\": {\n"
     << "    \"bmc_depth\": " << lis::bench::kSatBmcDepth << ",\n"
     << "    \"entries\": [\n";
  for (std::size_t i = 0; i < sats.size(); ++i) {
    js << jsonSat(sats[i]) << (i + 1 < sats.size() ? ",\n" : "\n");
  }
  js << "    ]\n"
     << "  },\n"
     << "  \"metrics\": {\n"
     << "    \"configs\": [";
  bool firstConfig = true;
  const auto emitConfigRows =
      [&js, &firstConfig](const char* suite,
                          std::vector<lis::flow::Design>& designs,
                          const std::vector<lis::flow::RunResult>& results) {
        for (std::size_t i = 0; i < designs.size(); ++i) {
          js << (firstConfig ? "\n" : ",\n");
          firstConfig = false;
          js << "      {\"suite\": \"" << suite << "\", \"design\": \""
             << designs[i].name() << "\"";
          if (!results[i].ok) js << ", \"failed\": true";
          js << ", \"counters\": " << designs[i].metrics().json() << "}";
        }
      };
  emitConfigRows("wrapper", sections.wrappers, sections.wrapperResults);
  emitConfigRows("system", sections.systems, sections.systemResults);
  emitConfigRows("sweep", sections.sweep, sections.sweepResults);
  emitConfigRows("scale", sections.scale, sections.scaleResults);
  emitConfigRows("wrapper_opt", sections.wrappersOpt,
                 sections.wrapperOptResults);
  emitConfigRows("system_opt", sections.systemsOpt,
                 sections.systemOptResults);
  emitConfigRows("sweep_opt", sections.sweepOpt, sections.sweepOptResults);
  emitConfigRows("fault", sections.faults, sections.faultResults);
  emitConfigRows("sat", sections.sats, sections.satResults);
  js << "\n    ],\n"
     << "    \"engine\": " << engineJson << ",\n"
     << "    \"pool\": {\"workers\": " << scrub(pool.workers)
     << ", \"runs\": " << scrub(static_cast<double>(pool.runs))
     << ", \"steals\": " << scrub(static_cast<double>(pool.steals))
     << ", \"external_runs\": "
     << scrub(static_cast<double>(pool.externalRuns))
     << ", \"idle_seconds\": " << scrub(pool.idleSeconds)
     << ", \"queue_high_water\": "
     << scrub(static_cast<double>(pool.queueHighWater)) << "},\n";
  if (gStripTimes) {
    // Utilization is wall-clock-derived, so it is null under
    // --strip-times (the regression gate only requires it of timed
    // parallel runs). Untraced runs still report it: the spans it is
    // computed from are recorded whether or not --trace writes a file.
    js << "    \"utilization\": null\n";
  } else {
    js << "    \"utilization\": {\"workers\": " << util.workers
       << ", \"suites\": [\n";
    for (std::size_t i = 0; i < util.suites.size(); ++i) {
      const lis::obs::SuiteUtilization& su = util.suites[i];
      js << "      {\"suite\": \"" << su.suite
         << "\", \"wall_seconds\": " << su.wallSeconds
         << ", \"busy_seconds\": " << su.busySeconds
         << ", \"threads\": " << su.threads
         << ", \"parallel_efficiency\": " << su.parallelEfficiency << "}"
         << (i + 1 < util.suites.size() ? ",\n" : "\n");
    }
    js << "    ], \"overall_parallel_efficiency\": "
       << util.overallParallelEfficiency << "}\n";
  }
  js << "  },\n"
     << "  \"sweep\": {\n"
     << "    \"jobs\": " << (gStripTimes ? 0 : jobs) << ",\n"
     << "    \"hardware_threads\": " << (gStripTimes ? 0 : hardwareThreads)
     << ",\n"
     << "    \"cosim_shards\": " << lis::bench::kCosimShards << ",\n"
     << "    \"flow_wall_seconds\": " << scrub(flowWall) << ",\n"
     << "    \"serial_wall_seconds\": " << scrub(serialWall) << ",\n"
     << "    \"speedup_vs_jobs1\": " << scrub(flowSpeedup) << ",\n"
     << "    \"serial_fraction_est\": " << scrub(serialFraction) << ",\n"
     << "    \"stage_walls\": {\"synthesize\": " << scrub(stageWalls.synthesize)
     << ", \"optimize\": " << scrub(stageWalls.optimize)
     << ", \"map\": " << scrub(stageWalls.map)
     << ", \"sta\": " << scrub(stageWalls.sta)
     << ", \"cosim\": " << scrub(stageWalls.cosim) << "},\n"
     << "    \"entries\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    js << "  " << jsonSystem(sweep[i]) << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  js << "    ],\n"
     << "    \"scale_entries\": [\n";
  for (std::size_t i = 0; i < scaleRows.size(); ++i) {
    js << "  " << jsonSystem(scaleRows[i])
       << (i + 1 < scaleRows.size() ? ",\n" : "\n");
  }
  js << "    ]\n"
     << "  }\n}\n";

  std::ofstream out(outPath);
  out << js.str();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", outPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", outPath.c_str());
  if (!tracePath.empty()) {
    lis::obs::Tracer::instance().disable();
    if (!lis::obs::Tracer::instance().writeChromeTrace(tracePath)) {
      std::fprintf(stderr, "failed to write trace %s\n", tracePath.c_str());
      return 1;
    }
    std::printf("wrote %s\n", tracePath.c_str());
  }
  if (failedConfigs != 0) {
    std::fprintf(stderr, "%zu config(s) failed (marked in %s)\n",
                 failedConfigs, outPath.c_str());
    return 1;
  }
  return 0;
}
