#pragma once
// Co-simulation oracles: drive a synthesized netlist and the behavioural
// model fleet with identical randomized stall patterns, and check
// cycle-accurate agreement of every protocol output. Sources respect the
// LIS protocol: a token is only offered when the design's (Moore) stop
// output is low.
//
// Two entry points:
//   cosimWrapper  the single buildWrapper composition (shell + one relay
//                 station per output channel)
//   cosimSystem   any SystemSpec topology, checked against a behavioural
//                 reference network mirroring the spec (one ShellModel +
//                 PearlModel per pearl, one RelayStationModel per relay
//                 station), with per-channel randomized offers and stalls
//
// Every run has two phases. The gate phase simulates all seed shards at
// once, shard i in lane i of one bit-parallel netlist::BitSim, and records
// each lane's protocol outputs cycle by cycle (one settle pass per cycle
// serves every shard). The oracle phase then replays each shard's
// stimulus on its own behavioural fleet and compares it against the
// recorded lane. Lanes are independent, so the replays may run in any
// order or concurrently; the shards are joined by index either way.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "sim/vcd.hpp"
#include "support/cancellation.hpp"

namespace lis::sync {

struct CosimOptions {
  std::uint64_t cycles = 1500;
  std::uint64_t seed = 0xC0517;
  unsigned offerPercent = 70; // P(source offers a token), per channel/cycle
  unsigned stallPercent = 30; // P(sink asserts stop), per channel/cycle
  /// Split the run into this many independent from-reset simulations
  /// ("shards"). Shard i gets cycles/shards of the cycle budget (early
  /// shards take the remainder) and the i-th SplitMix64 fork of `seed`,
  /// so the joined result is a pure function of the options. Shards are
  /// simulator lanes: one gate-phase BitSim of ceil(shards/64) words
  /// runs them all, so extra shards cost the gate side almost nothing.
  /// shards <= 1 is the classic single continuous run (one lane, the
  /// unforked seed).
  unsigned shards = 1;
  /// Parallel-for hook for the oracle phase: runner(n, f) must call
  /// f(0), ..., f(n-1) (in any order, possibly concurrently) and return
  /// once all have finished; f(i) replays shard i on its own behavioural
  /// fleet. The gate phase is one simulation and never uses it. Null runs
  /// the replays serially in index order; either way shard results are
  /// joined by index, so the output is byte-identical. The flow Cosim
  /// pass points this at its Executor.
  std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
      runner;
  /// Optional trace of the behavioural side (attached to its Simulator,
  /// all wires traced). Must not have sampled yet. Tracing forces a
  /// single continuous run (shards is ignored).
  sim::VcdWriter* vcd = nullptr;
  /// Cooperative cancellation (per-pass deadline): polled every 128
  /// cycles by both phases; a tripped token ends the run early with
  /// ok == false, cancelled == true and the counters the oracle replays
  /// accumulated so far. A gate phase cut short leaves a truncated trace,
  /// which the oracle phase reports as cancelled at the cycle where it
  /// ends. Polling consumes no randomness, so an untripped token never
  /// changes results.
  const support::CancellationToken* cancel = nullptr;
};

struct CosimResult {
  bool ok = false;
  std::uint64_t cyclesRun = 0;
  std::uint64_t fires = 0;  // pearl activations (behavioural count, summed)
  std::uint64_t tokens = 0; // tokens delivered across all output channels
  std::vector<std::uint64_t> tokensPerOutput; // per external output channel
  std::string mismatch;     // first disagreement, empty when ok
  bool cancelled = false;   // ended early by a tripped CancellationToken
};

/// The gate phase of one co-simulation: every lane's protocol outputs
/// (inStop before the cycle's drive, outValid and outData after it), as
/// one packed bit record per lane and cycle. Produced by cosimGatePhase,
/// consumed by cosimOraclePhase; read-only once built, so concurrent
/// replays may share it.
struct CosimTrace {
  CosimOptions options;        // the run's options (runner cleared)
  std::size_t lanes = 0;       // = shards (1 under vcd or shards <= 1)
  std::uint64_t cycles = 0;    // cycles recorded; short only if cancelled
  std::uint64_t gatePasses = 0; // full BitSim settle passes: the reset's
                                // plus one per cycle, shared by all lanes
  std::size_t numInputs = 0;
  std::size_t numOutputs = 0;
  unsigned dataBits = 0;       // width of each outData bus
  /// Per lane: cycles x (numInputs + numOutputs * (1 + dataBits)) bits,
  /// cycle-major; within a cycle the inStop bits, the outValid bits, then
  /// each output's data bus LSB first. The record grows with the cycles
  /// simulated, so a long unsharded run holds that many bits per cycle.
  std::vector<std::vector<std::uint64_t>> bits;
};

/// Gate phase over an already-built wrapper/system (must match cfg/spec).
CosimTrace cosimGatePhase(const Wrapper& w, const WrapperConfig& cfg,
                          const CosimOptions& opts);
CosimTrace cosimGatePhase(const System& sys, const SystemSpec& spec,
                          const CosimOptions& opts);

/// Oracle phase of one lane: replay its stimulus on a fresh behavioural
/// fleet for cfg/spec and compare against the recorded gate outputs. The
/// result is the shard's CosimResult; cosimMergeShards joins them. Throws
/// std::out_of_range for lane >= trace.lanes.
CosimResult cosimOraclePhase(const CosimTrace& trace, std::size_t lane,
                             const WrapperConfig& cfg);
CosimResult cosimOraclePhase(const CosimTrace& trace, std::size_t lane,
                             const SystemSpec& spec);

/// Build the wrapper for `cfg` and co-simulate it against the behavioural
/// models for opts.cycles cycles.
CosimResult cosimWrapper(const WrapperConfig& cfg,
                         const CosimOptions& opts = {});

/// Same oracle over an already-built wrapper (must match `cfg`) — callers
/// holding a synthesized netlist (flow::Design) skip the rebuild.
CosimResult cosimWrapper(const Wrapper& w, const WrapperConfig& cfg,
                         const CosimOptions& opts = {});

/// Build the system for `spec` and co-simulate it against the behavioural
/// reference network for opts.cycles cycles.
CosimResult cosimSystem(const SystemSpec& spec, const CosimOptions& opts = {});

/// Same oracle over an already-built system (must match `spec`).
CosimResult cosimSystem(const System& sys, const SystemSpec& spec,
                        const CosimOptions& opts = {});

/// Options of the i-th of base.shards independent from-reset runs: an even
/// slice of the cycle budget (early shards absorb the remainder), the i-th
/// SplitMix64 fork of the seed, shards = 1, runner/vcd cleared. Running
/// each shard alone with these options and merging reproduces the sharded
/// result bit-for-bit.
CosimOptions cosimShardOptions(const CosimOptions& base, std::size_t shard);

/// Join shard results in index order: counters accumulate up to and
/// including the first failing shard (what a serial stop-at-first-failure
/// loop would report); later shards are discarded. Execution order cannot
/// leak into the result.
CosimResult cosimMergeShards(std::vector<CosimResult> parts);

} // namespace lis::sync
