#pragma once
// Unbounded proofs of the LIS protocol invariants: k-induction and
// PDR/IC3 over the incremental CDCL core.
//
// proveUnbounded decides whether token conservation, the
// buffer-occupancy bound and the deadlock watchdog hold for *all* time.
// This monitor is the one formal definition of the three invariants.
// Every (input i, output j) channel pair gets one finite saturating
// difference register, offset-encoded so diff == accepted_i −
// delivered_j + 1 lives in [0, B+2]: the low rail means some output
// delivered a token every input still owes it (token conservation —
// reset sits one step above this rail, so the first excess delivery is
// caught immediately), the high rail means some input out-ran every
// output by more than B (occupancy). Updates are ±1 per cycle and a
// rail is only ever *reached* exactly, so saturation never masks the
// first violation of either G-property. The deadlock watchdog is a
// saturating counter of consecutive cycles without any handshake,
// judged under the maximal-progress environment (every inValid held 1,
// every outStop held 0); it fails once the count reaches the window.
// B is the storage bound: total seed tokens plus relay storage plus
// shell/pearl buffering — capacityBound() computes a sound (generous)
// value from a spec.
//
// Each property is proved on the sequential cone of influence of its
// own fail output (netlist::sequentialCone), not on the whole monitored
// netlist: the three invariants read only the wrapper's valid/stop
// control and the monitor registers, so the encapsulated data path and
// the other properties' monitors never reach the solver. The cone keeps
// the reset values, enables and input order the engine relies on, and a
// property violated on the cone is violated on the design with the same
// trace.
//
// Per property the engine climbs two rungs:
//
//   k-induction  base case = plain BMC frames over sat::Unroller (a SAT
//                answer is a genuine counterexample with its exact
//                depth); inductive step = a second unrolling from a
//                *free* initial state with pairwise state-distinctness
//                (loop-free) constraints and ¬fail assumed on every
//                frame but the last. Cheap, and complete in the limit —
//                but capped at a small k.
//   PDR/IC3      frame-relative clause trapezoid F_1 ⊇ F_2 ⊇ … over a
//                one-step transition relation (a free-initial-state
//                Unroller with a single frame), a proof-obligation
//                priority queue, inductive generalization driven by the
//                solver's unsat cores over the assumption literals,
//                clause pushing after every new frame, and fixpoint
//                detection (some frame's delta empties) → proved for
//                all time.
//
// Counterexamples come back as multi-frame input traces. replayTrace
// re-simulates the trace cycle-accurately on the *design* netlist
// (netlist::NetlistSim) with an independent software mirror of the
// monitor's saturating-offset property semantics, and
// replayTraceOnOracle drives the behavioural fleet (sync::Oracle) in
// lockstep with the netlist — the cosim cross-validation of the
// monitor. A budget/cancellation stop degrades to the bounded result
// (`degraded = true`, depthReached = the BMC bound established on the
// way up), never to `proved`.

#include <cstdint>
#include <string>
#include <vector>

#include "lis/oracle.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "netlist/netlist.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "support/cancellation.hpp"

namespace lis::sat {

struct PdrOptions {
  /// Storage bound B (see header); capacityBound() derives it from a
  /// spec. Too small produces spurious violations, too large weakens
  /// the invariant — never unsoundness.
  unsigned capacityBound = 8;
  /// Consecutive handshake-free cycles the deadlock watchdog tolerates.
  unsigned watchdogWindow = 8;
  /// k-induction rung: largest inductive step tried before PDR takes
  /// over (0 skips straight to PDR; the base-case BMC frames are kept
  /// either way as the degraded-result bound).
  unsigned maxInductionK = 4;
  /// PDR frame cap — a trapezoid this tall without a fixpoint degrades.
  unsigned maxFrames = 128;
  /// Literal-drop attempts per inductive generalization beyond the
  /// unsat-core shrink (0 = core only).
  unsigned micAttempts = 24;
  /// Whole-run solver budgets per property, absolute (0 = unlimited).
  std::uint64_t conflictBudget = 1u << 22;
  std::uint64_t propagationBudget = 0;
  bool tokenConservation = true;
  bool occupancyBound = true;
  bool deadlockWatchdog = true;
  std::uint64_t seed = 0x9d2feedULL;
  const support::CancellationToken* cancel = nullptr;
};

/// A counterexample as multi-frame input assignments. frames[f][i] is
/// the value of inputs[i] at cycle f; `forced` pins the environment
/// inputs the trace's unrolling held constant (the watchdog's
/// maximal-progress environment), exactly as the caller passed them.
/// `inputs` lists only the free inputs inside the property's cone of
/// influence, by their ids in the caller's netlist; every other input
/// is a don't-care that cannot affect the property (the replays below
/// drive it to 0). The violation is observable at cycle
/// frames.size() - 1.
struct PdrTrace {
  std::vector<netlist::NodeId> inputs;
  std::vector<ForcedInput> forced;
  std::vector<std::vector<bool>> frames;
};

/// Aggregate engine counters (summed over both rungs).
struct PdrEngineStats {
  std::uint64_t obligations = 0;     // proof obligations dequeued
  std::uint64_t cubesBlocked = 0;    // clauses learned into the trapezoid
  std::uint64_t coreShrunkLits = 0;  // cube literals dropped via unsat cores
  std::uint64_t micDroppedLits = 0;  // further literals dropped by MIC passes
  std::uint64_t pushedClauses = 0;   // clauses propagated forward a frame
  std::uint64_t liftedLits = 0;      // literals dropped lifting model cubes
  // Size of the sequential cone both rungs ran on (not summed).
  std::uint64_t coneDffs = 0;        // DFFs in the property's cone
  std::uint64_t coneAnds = 0;        // AND nodes of the cone's lifted AIG
};

struct PdrPropertyResult {
  std::string name;
  bool provedUnbounded = false;
  bool violated = false;
  bool degraded = false;       // budget/cancel/frame-cap stop: bounded only
  std::string method;          // "induction" | "pdr" | "bmc" (violations/degrades)
  unsigned inductionK = 0;     // proving k (method == "induction")
  unsigned frames = 0;         // PDR trapezoid height at exit
  unsigned clauses = 0;        // live trapezoid clauses at exit
  unsigned failDepth = 0;      // first violating cycle (valid when violated)
  unsigned depthReached = 0;   // deepest cycle proven clean (bounded sense)
  PdrTrace trace;              // non-empty when violated
  PdrEngineStats engine;
};

struct PdrResult {
  std::vector<PdrPropertyResult> properties;
  SolverStats stats; // summed over every solver the engine ran

  /// True when every enabled property is proved for all time; false
  /// with zero enabled properties, so an all-disabled run never reads
  /// as a proof.
  bool allProved() const {
    if (properties.empty()) return false;
    for (const PdrPropertyResult& p : properties) {
      if (!p.provedUnbounded) return false;
    }
    return true;
  }
  bool anyViolated() const {
    for (const PdrPropertyResult& p : properties) {
      if (p.violated) return true;
    }
    return false;
  }
  bool anyDegraded() const {
    for (const PdrPropertyResult& p : properties) {
      if (p.degraded) return true;
    }
    return false;
  }
  /// Bounded clean depth over the non-proved properties; ~0u ("all
  /// time") when every enabled property is proved, 0 when none enabled.
  unsigned minDepthReached() const {
    if (properties.empty()) return 0;
    unsigned d = ~0u;
    for (const PdrPropertyResult& p : properties) {
      if (p.provedUnbounded) continue;
      d = p.depthReached < d ? p.depthReached : d;
    }
    return d;
  }
  unsigned maxInductionK() const {
    unsigned k = 0;
    for (const PdrPropertyResult& p : properties) {
      k = p.inductionK > k ? p.inductionK : k;
    }
    return k;
  }
  unsigned totalFrames() const {
    unsigned f = 0;
    for (const PdrPropertyResult& p : properties) f += p.frames;
    return f;
  }
  unsigned totalClauses() const {
    unsigned c = 0;
    for (const PdrPropertyResult& p : properties) c += p.clauses;
    return c;
  }
};

/// Prove the protocol invariants on `nl` seen through `ports` for all
/// time (or find counterexample traces / degrade to a bound).
PdrResult proveUnbounded(const netlist::Netlist& nl,
                         const sync::PortView& ports,
                         const PdrOptions& opts = {});

/// Generic single-property entry: prove output `badOutput` of `nl` can
/// never assert, with `forced` inputs pinned every cycle. Used by the
/// protocol driver above and directly unit-testable on hand-built
/// state machines. Runs on the sequential cone of `badOutput` (see the
/// header); throws std::invalid_argument when a forced node is not an
/// input of `nl` or an in-cone ROM is present. `statsOut` accumulates
/// the solver totals.
PdrPropertyResult provePropertyUnbounded(const netlist::Netlist& nl,
                                         netlist::NodeId badOutput,
                                         std::vector<ForcedInput> forced,
                                         const PdrOptions& opts,
                                         SolverStats& statsOut);

struct ReplayOptions {
  unsigned capacityBound = 8;
  unsigned watchdogWindow = 8;
};

struct ReplayResult {
  bool reproduced = false;     // property condition observed in replay
  unsigned violationCycle = 0; // first cycle the condition held
  std::string detail;          // human-readable account / mismatch
  bool oracleChecked = false;  // lockstep oracle comparison ran
  bool oracleAgrees = false;   // netlist and behavioural outputs matched
};

/// Replay `trace` on the design netlist, judging the property with a
/// software mirror of the monitor's saturating offset registers and
/// stall counter — independent of the SAT encoding, but with the same
/// clamped semantics, so a verdict transfers cycle for cycle (property
/// is the result's name: "token_conservation" | "occupancy_bound" |
/// "deadlock_watchdog").
ReplayResult replayTrace(const netlist::Netlist& nl,
                         const sync::PortView& ports,
                         const std::string& property, const PdrTrace& trace,
                         const ReplayOptions& opts);

/// Same, additionally driving `beh` in lockstep and comparing the
/// netlist's stop/valid/data port signals against the behavioural
/// fleet every cycle (the cosim oracle cross-validation).
ReplayResult replayTraceOnOracle(const netlist::Netlist& nl,
                                 const sync::PortView& ports,
                                 sync::Oracle& beh,
                                 const std::string& property,
                                 const PdrTrace& trace,
                                 const ReplayOptions& opts);

/// Sound storage bounds for the canned constructions.
unsigned capacityBound(const sync::SystemSpec& spec);
unsigned capacityBound(const sync::WrapperConfig& cfg);

} // namespace lis::sat
