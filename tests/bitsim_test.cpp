#include "netlist/bitsim.hpp"

#include <stdexcept>
#include <vector>

#include "netlist/generate.hpp"
#include "netlist/netlist_sim.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

using namespace lis::netlist;
using lis::support::SplitMix64;

namespace {

// Independent scalar oracle: a direct re-implementation of the historical
// one-bit-per-node evaluator, kept here so BitSim (and the BitSim-backed
// NetlistSim) are checked against something that shares none of their code.
class RefSim {
public:
  explicit RefSim(const Netlist& nl)
      : nl_(&nl), order_(nl.topoOrder()), values_(nl.nodeCount(), 0),
        dffNext_(nl.nodeCount(), 0) {
    reset();
  }

  void reset() {
    std::fill(values_.begin(), values_.end(), char{0});
    for (NodeId id : nl_->dffs()) {
      values_[id] = nl_->node(id).resetValue ? 1 : 0;
    }
    settle();
  }

  void setInput(NodeId id, bool v) { values_[id] = v ? 1 : 0; }

  void settle() {
    for (NodeId id : order_) {
      const Node& n = nl_->node(id);
      switch (n.op) {
        case Op::Input:
        case Op::Dff:
          break;
        case Op::Const0:
          values_[id] = 0;
          break;
        case Op::Const1:
          values_[id] = 1;
          break;
        case Op::Not:
          values_[id] = values_[n.fanin[0]] != 0 ? 0 : 1;
          break;
        case Op::And:
          values_[id] = (values_[n.fanin[0]] & values_[n.fanin[1]]) != 0;
          break;
        case Op::Or:
          values_[id] = (values_[n.fanin[0]] | values_[n.fanin[1]]) != 0;
          break;
        case Op::Xor:
          values_[id] = (values_[n.fanin[0]] ^ values_[n.fanin[1]]) != 0;
          break;
        case Op::Mux:
          values_[id] = values_[n.fanin[0]] != 0 ? values_[n.fanin[2]]
                                                 : values_[n.fanin[1]];
          break;
        case Op::Output:
          values_[id] = values_[n.fanin[0]];
          break;
        case Op::RomBit: {
          std::uint64_t addr = 0;
          for (std::size_t i = 0; i < n.fanin.size(); ++i) {
            if (values_[n.fanin[i]] != 0) addr |= std::uint64_t{1} << i;
          }
          const Rom& rom = nl_->rom(n.romId);
          const std::uint64_t word =
              addr < rom.words.size() ? rom.words[addr] : 0;
          values_[id] = ((word >> n.romBit) & 1u) != 0;
          break;
        }
      }
    }
  }

  void clock() {
    for (NodeId id : nl_->dffs()) {
      const Node& n = nl_->node(id);
      const bool enabled = !n.hasEnable || values_[n.fanin[1]] != 0;
      dffNext_[id] = enabled ? values_[n.fanin[0]] : values_[id];
    }
    for (NodeId id : nl_->dffs()) values_[id] = dffNext_[id];
    settle();
  }

  bool value(NodeId id) const { return values_[id] != 0; }

private:
  const Netlist* nl_;
  std::vector<NodeId> order_;
  std::vector<char> values_;
  std::vector<char> dffNext_;
};

/// Every lane of a multi-word BitSim must match the oracle re-run pattern by
/// pattern; lane 0 doubles as the NetlistSim contract.
void checkCombParity(const Netlist& nl, std::uint64_t seed) {
  const unsigned words = 2;
  BitSim bits(nl, words);
  RefSim ref(nl);
  NetlistSim scalar(nl);
  SplitMix64 rng(seed);

  int mismatches = 0;
  const unsigned chunks = 8; // 8 * 128 = 1024 patterns
  std::vector<std::vector<std::uint64_t>> stimulus(nl.inputs().size());
  for (unsigned chunk = 0; chunk < chunks; ++chunk) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      stimulus[i].assign(words, 0);
      for (unsigned w = 0; w < words; ++w) stimulus[i][w] = rng.next();
      bits.setInput(nl.inputs()[i], stimulus[i]);
    }
    bits.settle();
    for (std::size_t lane = 0; lane < bits.numPatterns(); ++lane) {
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        const bool v = ((stimulus[i][lane / 64] >> (lane % 64)) & 1u) != 0;
        ref.setInput(nl.inputs()[i], v);
        if (lane == 0) scalar.setInput(nl.inputs()[i], v);
      }
      ref.settle();
      if (lane == 0) scalar.settle();
      for (NodeId id = 0; id < static_cast<NodeId>(nl.nodeCount()); ++id) {
        if (bits.lane(id, lane) != ref.value(id)) ++mismatches;
        if (lane == 0 && scalar.value(id) != ref.value(id)) ++mismatches;
      }
    }
  }
  CHECK_EQ(mismatches, 0);
}

void testCombParity() {
  for (std::uint64_t seed : {1, 2, 3}) {
    checkCombParity(gen::randomDag(8, 120, 6, seed), seed * 17 + 5);
  }
  checkCombParity(gen::muxTree(3, gen::MuxStyle::Tree), 11);
  checkCombParity(gen::muxTree(3, gen::MuxStyle::SumOfProducts), 12);
  checkCombParity(gen::romReader(4, 8, 7), 13);
  checkCombParity(gen::romReader(8, 4, 7), 14); // deep ROM: lane-serial path
}

void testSequentialParity() {
  for (std::uint64_t seed : {4, 5}) {
    const Netlist nl = gen::randomSeq(6, 80, 10, 5, seed);
    BitSim bits(nl, 1);
    RefSim ref(nl);
    SplitMix64 rng(seed + 100);

    int mismatches = 0;
    for (unsigned cycle = 0; cycle < 200; ++cycle) {
      for (NodeId in : nl.inputs()) {
        const bool v = rng.flip();
        bits.setInputAll(in, v);
        ref.setInput(in, v);
      }
      bits.settle();
      ref.settle();
      for (NodeId id = 0; id < static_cast<NodeId>(nl.nodeCount()); ++id) {
        if (bits.lane(id, 0) != ref.value(id)) ++mismatches;
      }
      bits.clock();
      ref.clock();
    }
    CHECK_EQ(mismatches, 0);

    bits.reset();
    ref.reset();
    for (NodeId id : nl.dffs()) CHECK_EQ(bits.lane(id, 0), ref.value(id));
  }
}

void testLatchAndCone() {
  // latch() + settleCone(cone(outputs)) must leave every output exactly
  // where clock() (latch + full settle) would — in every lane of a
  // multi-word simulator, across many cycles of random stimulus — and
  // count no extra settle pass.
  for (std::uint64_t seed : {6, 7}) {
    const Netlist nl = gen::randomSeq(6, 120, 12, 6, seed);
    BitSim full(nl, 2);
    BitSim coned(nl, 2);
    const BitSim::Cone outs = coned.cone(nl.outputs());
    CHECK(outs.size() > 0);
    CHECK(outs.size() <= nl.nodeCount());
    SplitMix64 rng(seed + 200);
    int mismatches = 0;
    for (unsigned cycle = 0; cycle < 100; ++cycle) {
      for (NodeId in : nl.inputs()) {
        for (unsigned w = 0; w < 2; ++w) {
          const std::uint64_t lanes = rng.next();
          full.setInputWord(in, w, lanes);
          coned.setInputWord(in, w, lanes);
        }
      }
      full.settle();
      coned.settle();
      full.clock();
      coned.latch();
      coned.settleCone(outs);
      for (NodeId id : nl.outputs()) {
        for (unsigned w = 0; w < 2; ++w) {
          if (full.word(id, w) != coned.word(id, w)) ++mismatches;
        }
      }
      for (NodeId id : nl.dffs()) {
        for (unsigned w = 0; w < 2; ++w) {
          if (full.word(id, w) != coned.word(id, w)) ++mismatches;
        }
      }
    }
    CHECK_EQ(mismatches, 0);
    CHECK_EQ(coned.settlePasses(), 1u + 100u);
    CHECK_EQ(full.settlePasses(), 1u + 200u);
  }

  // A DFF-only root has an empty cone: its value is the latched state.
  const Netlist nl = gen::randomSeq(3, 20, 4, 2, 9);
  BitSim sim(nl, 1);
  const std::vector<NodeId> dff{nl.dffs().front()};
  CHECK_EQ(sim.cone(dff).size(), 0u);
}

void testApi() {
  const Netlist nl = gen::randomDag(4, 10, 2, 1);
  CHECK_THROWS(BitSim(nl, 0), std::invalid_argument);

  BitSim bits(nl, 3);
  CHECK_EQ(bits.numWords(), 3u);
  CHECK_EQ(bits.numPatterns(), 192u);

  const NodeId in0 = nl.inputs()[0];
  const std::vector<std::uint64_t> tooFew(2, 0);
  CHECK_THROWS(bits.setInput(in0, tooFew), std::invalid_argument);
  CHECK_THROWS(bits.setInputWord(in0, 3, 0), std::out_of_range);
  CHECK_THROWS(bits.setInputWord(nl.outputs()[0], 0, 0),
               std::invalid_argument);

  bits.setInputWord(in0, 2, 0x5ull);
  CHECK_EQ(bits.word(in0, 2), 0x5ull);
  CHECK(bits.lane(in0, 128));
  CHECK(!bits.lane(in0, 129));
  CHECK(bits.lane(in0, 130));

  bits.setInputLane(in0, 129, true);
  bits.setInputLane(in0, 130, false);
  CHECK_EQ(bits.word(in0, 2), 0x3ull);
  CHECK_THROWS(bits.setInputLane(in0, 192, true), std::out_of_range);
  CHECK_THROWS(bits.setInputLane(nl.outputs()[0], 0, true),
               std::invalid_argument);

  const std::vector<NodeId> tooWide(65, in0);
  CHECK_THROWS(bits.busValue(tooWide, 0), std::invalid_argument);
}

} // namespace

int main() {
  testCombParity();
  testSequentialParity();
  testLatchAndCone();
  testApi();
  return testExit();
}
