#include "lis/cosim.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "lis/behavioral.hpp"
#include "lis/oracle.hpp"
#include "netlist/bitsim.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace lis::sync {

namespace {

std::string cyc(std::uint64_t cycle, const std::string& what) {
  std::ostringstream os;
  os << "cycle " << cycle << ": " << what;
  return os.str();
}

bool cancelledAt(const CosimOptions& o, std::uint64_t cycle) {
  return o.cancel != nullptr && (cycle & 127u) == 0 && o.cancel->cancelled();
}

std::size_t laneCount(const CosimOptions& opts) {
  return opts.vcd == nullptr && opts.shards > 1 ? opts.shards : 1;
}

/// Stimulus options of one lane: the base options themselves for a
/// single continuous run, the shard's slice and seed fork otherwise.
CosimOptions laneOptions(const CosimOptions& base, std::size_t lanes,
                         std::size_t lane) {
  return lanes == 1 ? base : cosimShardOptions(base, lane);
}

/// One lane's stimulus: persistent LIS sources (a token, once offered,
/// holds valid/data until valid && !stop — the behaviour of a real
/// upstream shell or relay station, which exercises the offer-under-stop
/// path of the shell control) and randomized per-channel sink stalls.
/// Both phases drive through this class, so they draw the rng in the same
/// order by construction.
class Stimulus {
public:
  Stimulus(const CosimOptions& o, std::size_t nIn, std::uint64_t mask)
      : rng_(o.seed), cycles_(o.cycles), offerPercent_(o.offerPercent),
        stallPercent_(o.stallPercent), mask_(mask), pending_(nIn, 0),
        data_(nIn, 0) {}

  /// The lane's cycle budget.
  std::uint64_t cycles() const { return cycles_; }

  /// Valid of input channel i this cycle, given the (Moore) stop it sees
  /// before the drive. A valid token under a low stop transfers.
  bool offer(std::size_t i, bool stop) {
    if (pending_[i] == 0 && rng_.below(100) < offerPercent_) {
      pending_[i] = 1;
      data_[i] = rng_.next() & mask_;
    }
    const bool valid = pending_[i] != 0;
    if (valid && !stop) pending_[i] = 0;
    return valid;
  }
  /// Data driven on input channel i (the last token, held when idle).
  std::uint64_t data(std::size_t i) const { return data_[i]; }
  bool stall() { return rng_.below(100) < stallPercent_; }

private:
  support::SplitMix64 rng_;
  std::uint64_t cycles_;
  unsigned offerPercent_;
  unsigned stallPercent_;
  std::uint64_t mask_;
  std::vector<char> pending_;
  std::vector<std::uint64_t> data_;
};

void setBit(std::vector<std::uint64_t>& bits, std::size_t pos) {
  bits[pos >> 6] |= std::uint64_t{1} << (pos & 63);
}

CosimTrace recordGate(const netlist::Netlist& nl, const PortView& ports,
                      unsigned dataWidth, const CosimOptions& opts) {
  CosimTrace t;
  t.options = opts;
  t.options.runner = nullptr;
  t.lanes = laneCount(opts);
  t.numInputs = ports.inValid.size();
  t.numOutputs = ports.outValid.size();
  t.dataBits = t.numOutputs == 0
                   ? 0
                   : static_cast<unsigned>(ports.outData.front().size());
  if (ports.inStop.size() != t.numInputs ||
      ports.inData.size() != t.numInputs ||
      ports.outData.size() != t.numOutputs ||
      ports.outStop.size() != t.numOutputs) {
    throw std::invalid_argument("cosim: inconsistent channel port counts");
  }
  for (const netlist::Bus& b : ports.inData) {
    if (b.size() > 64) {
      throw std::invalid_argument("cosim: input bus wider than 64 bits");
    }
  }
  for (const netlist::Bus& b : ports.outData) {
    if (b.size() != t.dataBits || b.size() > 64) {
      throw std::invalid_argument(
          "cosim: output buses must share one width of at most 64 bits");
    }
  }
  obs::Span span("cosim.gate");
  span.arg("lanes", static_cast<double>(t.lanes));

  // Recorded nodes in record order; see CosimTrace::bits.
  std::vector<netlist::NodeId> rec(ports.inStop);
  rec.insert(rec.end(), ports.outValid.begin(), ports.outValid.end());
  for (const netlist::Bus& b : ports.outData) {
    rec.insert(rec.end(), b.begin(), b.end());
  }
  const std::size_t perCycle = rec.size();

  std::vector<Stimulus> stim;
  std::uint64_t cycles = 0;
  for (std::size_t l = 0; l < t.lanes; ++l) {
    stim.emplace_back(laneOptions(opts, t.lanes, l), t.numInputs,
                      widthMask(dataWidth));
    cycles = std::max(cycles, stim.back().cycles());
  }
  t.bits.resize(t.lanes);

  netlist::BitSim sim(nl, static_cast<unsigned>((t.lanes + 63) / 64));
  // The stops a cycle starts with depend on the freshly latched state
  // only through their own (small) cone, so each cycle pays one full
  // settle pass: latch, settle the stop cone, drive, settle.
  const netlist::BitSim::Cone stopCone = sim.cone(ports.inStop);
  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    if (cancelledAt(opts, cycle)) break;
    if (cycle > 0) {
      sim.latch();
      sim.settleCone(stopCone);
    }
    const std::size_t base = cycle * perCycle;
    // Stops are read (and recorded) before any of this cycle's inputs
    // are driven. A lane past its budget idles on its last inputs.
    for (std::size_t l = 0; l < t.lanes; ++l) {
      if (cycle >= stim[l].cycles()) continue;
      t.bits[l].resize((base + perCycle + 63) / 64, 0);
      for (std::size_t i = 0; i < t.numInputs; ++i) {
        const bool stop = sim.lane(ports.inStop[i], l);
        if (stop) setBit(t.bits[l], base + i);
        sim.setInputLane(ports.inValid[i], l, stim[l].offer(i, stop));
        const std::uint64_t data = stim[l].data(i);
        for (std::size_t k = 0; k < ports.inData[i].size(); ++k) {
          sim.setInputLane(ports.inData[i][k], l, ((data >> k) & 1u) != 0);
        }
      }
      for (const netlist::NodeId stop : ports.outStop) {
        sim.setInputLane(stop, l, stim[l].stall());
      }
    }
    sim.settle();
    for (std::size_t l = 0; l < t.lanes; ++l) {
      if (cycle >= stim[l].cycles()) continue;
      for (std::size_t k = t.numInputs; k < perCycle; ++k) {
        if (sim.lane(rec[k], l)) setBit(t.bits[l], base + k);
      }
    }
    ++t.cycles;
  }
  t.gatePasses = sim.settlePasses();
  span.arg("cycles", static_cast<double>(t.cycles));
  return t;
}

/// The oracle phase of one lane: the classic cosim drive loop (Moore stop
/// outputs read *before* offering, cycle-accurate comparison of every
/// protocol output) with the gate side read back from the trace.
CosimResult replayLane(const CosimTrace& t, std::size_t lane, Oracle& beh) {
  if (lane >= t.lanes) throw std::out_of_range("cosim: lane index");
  obs::Span span("cosim.oracle");
  span.arg("lane", static_cast<double>(lane));
  const CosimOptions o = laneOptions(t.options, t.lanes, lane);
  if (o.vcd != nullptr) {
    o.vcd->traceAll(beh.simulator().wires());
    beh.simulator().attachVcd(o.vcd);
  }
  beh.reset();

  const std::size_t nIn = t.numInputs;
  const std::size_t nOut = t.numOutputs;
  const std::size_t perCycle = nIn + nOut * (1 + std::size_t{t.dataBits});
  const std::vector<std::uint64_t>& bits = t.bits[lane];
  const auto bit = [&bits](std::size_t pos) {
    return ((bits[pos >> 6] >> (pos & 63)) & 1u) != 0;
  };
  Stimulus stim(o, nIn, widthMask(beh.dataWidth()));
  std::vector<char> stalled(nOut, 0);

  CosimResult result;
  result.tokensPerOutput.assign(nOut, 0);
  for (std::uint64_t cycle = 0; cycle < o.cycles; ++cycle) {
    if (cancelledAt(o, cycle) || cycle >= t.cycles) {
      result.cancelled = true;
      result.mismatch = cyc(cycle, "cancelled (deadline exceeded)");
      return result;
    }
    const std::size_t base = cycle * perCycle;
    // Re-settle the behavioural side so its wires reflect the post-clock
    // register state (Simulator::step clocks *after* settling, so wires are
    // one phase stale here). The stop outputs are Moore, so sources may
    // then read them before offering tokens.
    beh.settle();
    for (std::size_t i = 0; i < nIn; ++i) {
      const bool stopGate = bit(base + i);
      const bool stopBeh = beh.inStop(i);
      if (stopGate != stopBeh) {
        result.mismatch = cyc(cycle, "in" + std::to_string(i) + "_stop: gate=" +
                                         std::to_string(stopGate) +
                                         " behavioural=" +
                                         std::to_string(stopBeh));
        return result;
      }
      const bool valid = stim.offer(i, stopBeh);
      beh.driveInput(i, valid, stim.data(i));
    }
    for (std::size_t j = 0; j < nOut; ++j) {
      const bool stall = stim.stall();
      beh.driveOutStop(j, stall);
      stalled[j] = stall ? 1 : 0;
    }

    beh.settle();

    for (std::size_t j = 0; j < nOut; ++j) {
      const bool vGate = bit(base + nIn + j);
      const bool vBeh = beh.outValid(j);
      if (vGate != vBeh) {
        result.mismatch = cyc(cycle, "out" + std::to_string(j) + "_valid: gate=" +
                                         std::to_string(vGate) +
                                         " behavioural=" + std::to_string(vBeh));
        return result;
      }
      if (vGate) {
        const std::size_t dataPos = base + nIn + nOut + j * t.dataBits;
        std::uint64_t dGate = 0;
        for (unsigned k = 0; k < t.dataBits; ++k) {
          if (bit(dataPos + k)) dGate |= std::uint64_t{1} << k;
        }
        const std::uint64_t dBeh = beh.outData(j);
        if (dGate != dBeh) {
          std::ostringstream os;
          os << "out" << j << "_data: gate=0x" << std::hex << dGate
             << " behavioural=0x" << dBeh;
          result.mismatch = cyc(cycle, os.str());
          return result;
        }
        if (stalled[j] == 0) {
          ++result.tokens;
          ++result.tokensPerOutput[j];
        }
      }
    }

    beh.step();
    ++result.cyclesRun;
  }
  result.fires = beh.fires();
  result.ok = true;
  return result;
}

/// Both phases: one gate pass for every lane, then the per-lane oracle
/// replays on opts.runner (serially without one), joined by index.
template <class Model>
CosimResult runPhases(const CosimTrace& trace, const Model& model,
                      const CosimOptions& opts) {
  std::vector<CosimResult> parts(trace.lanes);
  const auto body = [&](std::size_t l) {
    parts[l] = cosimOraclePhase(trace, l, model);
  };
  if (opts.runner) {
    opts.runner(parts.size(), body);
  } else {
    for (std::size_t l = 0; l < parts.size(); ++l) body(l);
  }
  return cosimMergeShards(std::move(parts));
}

} // namespace

CosimOptions cosimShardOptions(const CosimOptions& base, std::size_t shard) {
  // Forking, not offsetting, keeps the shard streams decorrelated and —
  // crucially — independent of how the other shards consume theirs.
  CosimOptions o = base;
  const std::uint64_t whole = base.cycles / base.shards;
  const std::uint64_t extra = base.cycles % base.shards;
  o.cycles = whole + (shard < extra ? 1 : 0);
  o.seed = support::SplitMix64(base.seed).forkSeed(shard);
  o.shards = 1;
  o.runner = nullptr;
  o.vcd = nullptr;
  return o;
}

CosimResult cosimMergeShards(std::vector<CosimResult> parts) {
  CosimResult total;
  if (!parts.empty()) {
    total.tokensPerOutput.assign(parts.front().tokensPerOutput.size(), 0);
  }
  total.ok = true;
  for (CosimResult& p : parts) {
    total.cyclesRun += p.cyclesRun;
    total.fires += p.fires;
    total.tokens += p.tokens;
    for (std::size_t j = 0;
         j < p.tokensPerOutput.size() && j < total.tokensPerOutput.size();
         ++j) {
      total.tokensPerOutput[j] += p.tokensPerOutput[j];
    }
    if (!p.ok) {
      total.ok = false;
      total.cancelled = p.cancelled;
      total.mismatch = std::move(p.mismatch);
      break;
    }
  }
  return total;
}

CosimTrace cosimGatePhase(const Wrapper& w, const WrapperConfig& cfg,
                          const CosimOptions& opts) {
  return recordGate(w.netlist, portView(w.ports), cfg.dataWidth, opts);
}

CosimTrace cosimGatePhase(const System& sys, const SystemSpec& spec,
                          const CosimOptions& opts) {
  return recordGate(sys.netlist, portView(sys.ports), spec.dataWidth, opts);
}

CosimResult cosimOraclePhase(const CosimTrace& trace, std::size_t lane,
                             const WrapperConfig& cfg) {
  Oracle beh(cfg);
  return replayLane(trace, lane, beh);
}

CosimResult cosimOraclePhase(const CosimTrace& trace, std::size_t lane,
                             const SystemSpec& spec) {
  Oracle beh(spec);
  return replayLane(trace, lane, beh);
}

CosimResult cosimWrapper(const WrapperConfig& cfg, const CosimOptions& opts) {
  return cosimWrapper(buildWrapper(cfg), cfg, opts);
}

CosimResult cosimWrapper(const Wrapper& w, const WrapperConfig& cfg,
                         const CosimOptions& opts) {
  return runPhases(cosimGatePhase(w, cfg, opts), cfg, opts);
}

CosimResult cosimSystem(const SystemSpec& spec, const CosimOptions& opts) {
  return cosimSystem(buildSystem(spec), spec, opts);
}

CosimResult cosimSystem(const System& sys, const SystemSpec& spec,
                        const CosimOptions& opts) {
  return runPhases(cosimGatePhase(sys, spec, opts), spec, opts);
}

} // namespace lis::sync
