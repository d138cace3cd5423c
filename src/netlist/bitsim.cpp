#include "netlist/bitsim.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace lis::netlist {

namespace {
constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// Addresses a RomBit can actually present: limited both by the ROM depth
/// and by the number of address bits wired to it.
std::uint64_t reachableDepth(std::uint64_t depth, std::size_t addrBits) {
  if (addrBits >= 64) return depth;
  return std::min<std::uint64_t>(depth, std::uint64_t{1} << addrBits);
}
} // namespace

BitSim::BitSim(const Netlist& nl, unsigned numWords)
    : nl_(&nl), numWords_(numWords) {
  static_assert(sizeof(Instr) == 16, "settle streams 16-byte instructions");
  if (numWords == 0) {
    throw std::invalid_argument("BitSim: numWords must be >= 1");
  }
  values_.assign(nl.nodeCount() * std::size_t{numWords_}, 0);
  dffNext_.assign(nl.dffs().size() * std::size_t{numWords_}, 0);
  latches_.reserve(nl.dffs().size());
  for (NodeId id : nl.dffs()) {
    const Node& n = nl.node(id);
    latches_.push_back({id, n.fanin[0], n.hasEnable ? n.fanin[1] : kNoNode});
  }

  const std::vector<NodeId> order = nl.topoOrder();
  instrs_.reserve(order.size());
  for (NodeId id : order) {
    const Node& n = nl.node(id);
    if (n.op == Op::Input || n.op == Op::Dff || n.op == Op::Const0 ||
        n.op == Op::Const1) {
      continue; // sources: driven externally, latched, or set at reset
    }
    Instr ins;
    ins.op = n.op;
    ins.dst = id;
    ins.faninBegin = static_cast<std::uint32_t>(fanins_.size());
    ins.faninCount = static_cast<std::uint8_t>(n.fanin.size());
    ins.romId = n.romId;
    ins.romBit = static_cast<std::uint8_t>(n.romBit);
    ins.romBitSliced = false;
    if (n.op == Op::RomBit) {
      // Shallow ROMs: bit-sliced minterm OR beats a 64-iteration lane
      // gather; deep ROMs: the other way round.
      ins.romBitSliced =
          reachableDepth(nl.rom(n.romId).words.size(), n.fanin.size()) <= 64;
    }
    fanins_.insert(fanins_.end(), n.fanin.begin(), n.fanin.end());
    instrs_.push_back(ins);
  }
  reset();
}

void BitSim::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  for (NodeId id = 0; id < static_cast<NodeId>(nl_->nodeCount()); ++id) {
    if (nl_->node(id).op == Op::Const1) {
      std::fill_n(val(id), numWords_, kAllLanes);
    }
  }
  for (NodeId id : nl_->dffs()) {
    if (nl_->node(id).resetValue) std::fill_n(val(id), numWords_, kAllLanes);
  }
  settle();
}

void BitSim::checkInput(NodeId input) const {
  if (nl_->node(input).op != Op::Input) {
    throw std::invalid_argument("BitSim::setInput: not an input node");
  }
}

void BitSim::setInputWord(NodeId input, unsigned word, std::uint64_t lanes) {
  checkInput(input);
  if (word >= numWords_) {
    throw std::out_of_range("BitSim::setInputWord: word index");
  }
  val(input)[word] = lanes;
}

void BitSim::setInput(NodeId input, std::span<const std::uint64_t> words) {
  checkInput(input);
  if (words.size() != numWords_) {
    throw std::invalid_argument("BitSim::setInput: word count mismatch");
  }
  std::copy(words.begin(), words.end(), val(input));
}

void BitSim::setInputLane(NodeId input, std::size_t lane, bool value) {
  checkInput(input);
  if (lane >= numPatterns()) {
    throw std::out_of_range("BitSim::setInputLane: lane index");
  }
  std::uint64_t& w = val(input)[lane / 64];
  const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
  w = value ? (w | bit) : (w & ~bit);
}

void BitSim::setInputAll(NodeId input, bool value) {
  checkInput(input);
  std::fill_n(val(input), numWords_, value ? kAllLanes : 0);
}

void BitSim::setForce(NodeId node, bool value) {
  if (node >= nl_->nodeCount()) {
    throw std::out_of_range("BitSim::setForce: node id");
  }
  if (force_.empty()) force_.assign(nl_->nodeCount(), kNoForce);
  if (force_[node] == kNoForce) ++forceCount_;
  force_[node] = value ? 1 : 0;
  std::fill_n(val(node), numWords_, value ? kAllLanes : 0);
}

void BitSim::clearForce(NodeId node) {
  if (node >= force_.size() || force_[node] == kNoForce) return;
  force_[node] = kNoForce;
  --forceCount_;
}

void BitSim::clearForces() {
  std::fill(force_.begin(), force_.end(), kNoForce);
  forceCount_ = 0;
}

void BitSim::pokeAll(NodeId node, bool value) {
  if (node >= nl_->nodeCount()) {
    throw std::out_of_range("BitSim::pokeAll: node id");
  }
  std::fill_n(val(node), numWords_, value ? kAllLanes : 0);
}

void BitSim::applySourceForces() {
  // Source nodes (inputs, DFF state, constants) are not in the instruction
  // stream, so a forced one is re-pinned here; forced combinational nodes
  // are overwritten inline right after their evaluation in settle().
  for (NodeId id = 0; id < static_cast<NodeId>(force_.size()); ++id) {
    if (force_[id] == kNoForce) continue;
    std::fill_n(val(id), numWords_, force_[id] != 0 ? kAllLanes : 0);
  }
}

void BitSim::evalRom(const Instr& ins, const NodeId* f,
                     std::uint64_t* dst) const {
  const Rom& rom = nl_->rom(ins.romId);
  const unsigned W = numWords_;
  const unsigned abits = ins.faninCount;
  const std::uint64_t depth = rom.words.size();
  if (ins.romBitSliced) {
    // out = OR over set addresses of AND_i (addr bit i ? v_i : ~v_i).
    const std::uint64_t reach = reachableDepth(depth, abits);
    for (unsigned w = 0; w < W; ++w) {
      std::uint64_t out = 0;
      for (std::uint64_t addr = 0; addr < reach; ++addr) {
        if (((rom.words[addr] >> ins.romBit) & 1u) == 0) continue;
        std::uint64_t m = kAllLanes;
        for (unsigned i = 0; i < abits && m != 0; ++i) {
          const std::uint64_t vi = val(f[i])[w];
          m &= ((addr >> i) & 1u) != 0 ? vi : ~vi;
        }
        out |= m;
      }
      dst[w] = out;
    }
  } else {
    // Gather each lane's address; out-of-range addresses read as 0.
    for (unsigned w = 0; w < W; ++w) {
      std::uint64_t out = 0;
      for (unsigned l = 0; l < 64; ++l) {
        std::uint64_t addr = 0;
        for (unsigned i = 0; i < abits; ++i) {
          addr |= ((val(f[i])[w] >> l) & 1u) << i;
        }
        if (addr < depth) {
          out |= ((rom.words[addr] >> ins.romBit) & std::uint64_t{1}) << l;
        }
      }
      dst[w] = out;
    }
  }
}

BitSim::~BitSim() {
  obs::Registry& global = obs::Registry::global();
  global.add("bitsim.settle_passes", static_cast<double>(settlePasses_));
  global.add("bitsim.patterns_settled",
             static_cast<double>(settlePasses_) *
                 static_cast<double>(numPatterns()));
}

void BitSim::settle() {
  ++settlePasses_;
  eval(instrs_.data(), instrs_.data() + instrs_.size());
}

void BitSim::settleCone(const Cone& c) {
  eval(c.instrs_.data(), c.instrs_.data() + c.instrs_.size());
}

BitSim::Cone BitSim::cone(std::span<const NodeId> roots) const {
  std::vector<char> in(nl_->nodeCount(), 0);
  std::vector<NodeId> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (in[id] != 0) continue;
    in[id] = 1;
    const Node& n = nl_->node(id);
    if (n.op == Op::Dff) continue; // state: a source of the settle pass
    stack.insert(stack.end(), n.fanin.begin(), n.fanin.end());
  }
  Cone c;
  for (const Instr& ins : instrs_) {
    if (in[ins.dst] != 0) c.instrs_.push_back(ins);
  }
  return c;
}

void BitSim::eval(const Instr* begin, const Instr* end) {
  // One-word simulators (scalar views, single-word cosim) get a loop with
  // the word count folded to a constant.
  if (numWords_ == 1) {
    evalWords<1>(begin, end);
  } else {
    evalWords<0>(begin, end);
  }
}

template <unsigned kWords>
void BitSim::evalWords(const Instr* begin, const Instr* end) {
  const unsigned W = kWords != 0 ? kWords : numWords_;
  std::uint64_t* const v = values_.data();
  const NodeId* const fan = fanins_.data();
  const bool faulted = forceCount_ != 0;
  if (faulted) applySourceForces();
  for (const Instr* it = begin; it != end; ++it) {
    const Instr& ins = *it;
    std::uint64_t* dst = v + std::size_t{ins.dst} * W;
    if (faulted && force_[ins.dst] != kNoForce) {
      std::fill_n(dst, W, force_[ins.dst] != 0 ? kAllLanes : 0);
      continue;
    }
    const NodeId* f = fan + ins.faninBegin;
    switch (ins.op) {
      case Op::Not: {
        const std::uint64_t* a = v + std::size_t{f[0]} * W;
        for (unsigned w = 0; w < W; ++w) dst[w] = ~a[w];
        break;
      }
      case Op::And: {
        const std::uint64_t* a = v + std::size_t{f[0]} * W;
        const std::uint64_t* b = v + std::size_t{f[1]} * W;
        for (unsigned w = 0; w < W; ++w) dst[w] = a[w] & b[w];
        break;
      }
      case Op::Or: {
        const std::uint64_t* a = v + std::size_t{f[0]} * W;
        const std::uint64_t* b = v + std::size_t{f[1]} * W;
        for (unsigned w = 0; w < W; ++w) dst[w] = a[w] | b[w];
        break;
      }
      case Op::Xor: {
        const std::uint64_t* a = v + std::size_t{f[0]} * W;
        const std::uint64_t* b = v + std::size_t{f[1]} * W;
        for (unsigned w = 0; w < W; ++w) dst[w] = a[w] ^ b[w];
        break;
      }
      case Op::Mux: {
        const std::uint64_t* s = v + std::size_t{f[0]} * W;
        const std::uint64_t* a0 = v + std::size_t{f[1]} * W;
        const std::uint64_t* a1 = v + std::size_t{f[2]} * W;
        for (unsigned w = 0; w < W; ++w) {
          dst[w] = (s[w] & a1[w]) | (~s[w] & a0[w]);
        }
        break;
      }
      case Op::Output: {
        const std::uint64_t* a = v + std::size_t{f[0]} * W;
        for (unsigned w = 0; w < W; ++w) dst[w] = a[w];
        break;
      }
      case Op::RomBit:
        evalRom(ins, f, dst);
        break;
      default:
        break; // sources never enter the instruction stream
    }
  }
}

void BitSim::clock() {
  latch();
  settle();
}

void BitSim::latch() {
  const unsigned W = numWords_;
  for (std::size_t k = 0; k < latches_.size(); ++k) {
    const Latch& l = latches_[k];
    const std::uint64_t* q = val(l.q);
    const std::uint64_t* d = val(l.d);
    std::uint64_t* next = dffNext_.data() + k * W;
    if (l.enable != kNoNode) {
      const std::uint64_t* en = val(l.enable);
      for (unsigned w = 0; w < W; ++w) {
        next[w] = (d[w] & en[w]) | (q[w] & ~en[w]);
      }
    } else {
      for (unsigned w = 0; w < W; ++w) next[w] = d[w];
    }
  }
  for (std::size_t k = 0; k < latches_.size(); ++k) {
    std::copy_n(dffNext_.data() + k * W, W, val(latches_[k].q));
  }
}

std::uint64_t BitSim::busValue(std::span<const NodeId> bus,
                               std::size_t laneIdx) const {
  if (bus.size() > 64) {
    throw std::invalid_argument("BitSim::busValue: bus wider than 64 bits");
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    if (lane(bus[i], laneIdx)) v |= std::uint64_t{1} << i;
  }
  return v;
}

} // namespace lis::netlist
