#include "netlist/netlist.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace lis::netlist {

const char* opName(Op op) {
  switch (op) {
    case Op::Input: return "input";
    case Op::Output: return "output";
    case Op::Const0: return "const0";
    case Op::Const1: return "const1";
    case Op::Not: return "not";
    case Op::And: return "and";
    case Op::Or: return "or";
    case Op::Xor: return "xor";
    case Op::Mux: return "mux";
    case Op::Dff: return "dff";
    case Op::RomBit: return "rombit";
  }
  return "?";
}

Netlist::Netlist(std::string name) : name_(std::move(name)) {}

NodeId Netlist::addNode(Node n) {
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Netlist::addInput(std::string name) {
  Node n;
  n.op = Op::Input;
  n.name = std::move(name);
  const NodeId id = addNode(std::move(n));
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::addOutput(std::string name, NodeId src) {
  Node n;
  n.op = Op::Output;
  n.name = std::move(name);
  n.fanin = {src};
  const NodeId id = addNode(std::move(n));
  outputs_.push_back(id);
  return id;
}

NodeId Netlist::constant(bool value) {
  NodeId& cached = value ? const1_ : const0_;
  if (cached == kNoNode) {
    Node n;
    n.op = value ? Op::Const1 : Op::Const0;
    cached = addNode(std::move(n));
  }
  return cached;
}

NodeId Netlist::mkNot(NodeId a) {
  // Tiny peephole: double negation and constants fold away.
  if (nodes_[a].op == Op::Not) return nodes_[a].fanin[0];
  if (nodes_[a].op == Op::Const0) return constant(true);
  if (nodes_[a].op == Op::Const1) return constant(false);
  Node n;
  n.op = Op::Not;
  n.fanin = {a};
  return addNode(std::move(n));
}

NodeId Netlist::mkAnd(NodeId a, NodeId b) {
  if (nodes_[a].op == Op::Const0 || nodes_[b].op == Op::Const0)
    return constant(false);
  if (nodes_[a].op == Op::Const1) return b;
  if (nodes_[b].op == Op::Const1) return a;
  if (a == b) return a;
  Node n;
  n.op = Op::And;
  n.fanin = {a, b};
  return addNode(std::move(n));
}

NodeId Netlist::mkOr(NodeId a, NodeId b) {
  if (nodes_[a].op == Op::Const1 || nodes_[b].op == Op::Const1)
    return constant(true);
  if (nodes_[a].op == Op::Const0) return b;
  if (nodes_[b].op == Op::Const0) return a;
  if (a == b) return a;
  Node n;
  n.op = Op::Or;
  n.fanin = {a, b};
  return addNode(std::move(n));
}

NodeId Netlist::mkXor(NodeId a, NodeId b) {
  if (nodes_[a].op == Op::Const0) return b;
  if (nodes_[b].op == Op::Const0) return a;
  if (nodes_[a].op == Op::Const1) return mkNot(b);
  if (nodes_[b].op == Op::Const1) return mkNot(a);
  if (a == b) return constant(false);
  Node n;
  n.op = Op::Xor;
  n.fanin = {a, b};
  return addNode(std::move(n));
}

NodeId Netlist::mkMux(NodeId sel, NodeId a0, NodeId a1) {
  if (nodes_[sel].op == Op::Const0) return a0;
  if (nodes_[sel].op == Op::Const1) return a1;
  if (a0 == a1) return a0;
  Node n;
  n.op = Op::Mux;
  n.fanin = {sel, a0, a1};
  return addNode(std::move(n));
}

NodeId Netlist::mkDff(NodeId d, NodeId enable, bool resetValue,
                      std::string name) {
  Node n;
  n.op = Op::Dff;
  n.resetValue = resetValue;
  n.name = std::move(name);
  if (enable != kNoNode) {
    n.hasEnable = true;
    n.fanin = {d, enable};
  } else {
    n.fanin = {d};
  }
  const NodeId id = addNode(std::move(n));
  dffs_.push_back(id);
  return id;
}

void Netlist::setDffInputs(NodeId dff, NodeId d, NodeId enable) {
  Node& n = nodes_[dff];
  if (n.op != Op::Dff) throw std::logic_error("setDffInputs: not a DFF");
  if (enable != kNoNode) {
    n.hasEnable = true;
    n.fanin = {d, enable};
  } else {
    n.hasEnable = false;
    n.fanin = {d};
  }
}

NodeId Netlist::andTree(std::span<const NodeId> terms) {
  if (terms.empty()) return constant(true);
  std::vector<NodeId> level(terms.begin(), terms.end());
  while (level.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(mkAnd(level[i], level[i + 1]));
    }
    if (level.size() % 2 != 0) next.push_back(level.back());
    level = std::move(next);
  }
  return level.front();
}

NodeId Netlist::orTree(std::span<const NodeId> terms) {
  if (terms.empty()) return constant(false);
  std::vector<NodeId> level(terms.begin(), terms.end());
  while (level.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(mkOr(level[i], level[i + 1]));
    }
    if (level.size() % 2 != 0) next.push_back(level.back());
    level = std::move(next);
  }
  return level.front();
}

std::uint32_t Netlist::addRom(unsigned width, std::vector<std::uint64_t> words,
                              std::string name) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("Netlist::addRom: width must be 1..64");
  }
  roms_.push_back(Rom{width, std::move(words), std::move(name)});
  return static_cast<std::uint32_t>(roms_.size() - 1);
}

NodeId Netlist::mkRomBit(std::uint32_t romId, std::uint32_t bit,
                         std::span<const NodeId> addr) {
  if (romId >= roms_.size()) throw std::out_of_range("mkRomBit: bad rom id");
  if (bit >= roms_[romId].width) throw std::out_of_range("mkRomBit: bad bit");
  // Every evaluator (BitSim, the BDD builder) forms the address in a
  // uint64_t; wider addresses could not select a representable word anyway.
  if (addr.size() > 64) {
    throw std::invalid_argument("mkRomBit: more than 64 address bits");
  }
  Node n;
  n.op = Op::RomBit;
  n.romId = romId;
  n.romBit = bit;
  n.fanin.assign(addr.begin(), addr.end());
  return addNode(std::move(n));
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  s.inputs = inputs_.size();
  s.outputs = outputs_.size();
  s.dffs = dffs_.size();
  for (const Node& n : nodes_) {
    switch (n.op) {
      case Op::Not: ++s.nots; ++s.gates; break;
      case Op::And: ++s.ands; ++s.gates; break;
      case Op::Or: ++s.ors; ++s.gates; break;
      case Op::Xor: ++s.xors; ++s.gates; break;
      case Op::Mux: ++s.muxes; ++s.gates; break;
      default:
        break;
    }
  }
  for (const Rom& r : roms_) s.romBits += r.width * r.words.size();
  return s;
}

std::vector<std::uint32_t> Netlist::fanoutCounts() const {
  std::vector<std::uint32_t> counts(nodes_.size(), 0);
  for (const Node& n : nodes_) {
    for (NodeId f : n.fanin) ++counts[f];
  }
  return counts;
}

std::vector<NodeId> Netlist::topoOrder() const {
  // Combinational dependencies only: a Dff breaks the cycle (its output is
  // available at the start of the cycle; its fanins are sinks).
  // Kahn's algorithm over a flat (CSR) consumer table: node f's
  // combinational consumers, in ascending id order, are
  // consumers[first[f] .. first[f + 1]).
  const std::size_t n = nodes_.size();
  const auto isSource = [](const Node& node) {
    return node.op == Op::Input || node.op == Op::Dff ||
           node.op == Op::Const0 || node.op == Op::Const1;
  };
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::uint32_t> first(n + 1, 0);
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = nodes_[id];
    if (isSource(node)) {
      ready.push_back(id);
      continue;
    }
    pending[id] = static_cast<std::uint32_t>(node.fanin.size());
    for (NodeId f : node.fanin) ++first[f + 1];
    if (node.fanin.empty()) ready.push_back(id);
  }
  for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<NodeId> consumers(first[n]);
  std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
  for (NodeId id = 0; id < n; ++id) {
    if (isSource(nodes_[id])) continue;
    for (NodeId f : nodes_[id].fanin) consumers[fill[f]++] = id;
  }

  std::vector<NodeId> order;
  order.reserve(n);
  std::size_t head = 0;
  while (head < ready.size()) {
    const NodeId id = ready[head++];
    order.push_back(id);
    for (std::uint32_t k = first[id]; k < first[id + 1]; ++k) {
      if (--pending[consumers[k]] == 0) ready.push_back(consumers[k]);
    }
  }
  // Dff fanins must still be combinationally reachable; check all
  // non-sequential nodes were ordered.
  std::size_t combNodes = 0;
  for (const Node& n : nodes_) {
    if (n.op != Op::Dff) ++combNodes;
  }
  std::size_t orderedComb = 0;
  for (NodeId id : order) {
    if (nodes_[id].op != Op::Dff) ++orderedComb;
  }
  if (orderedComb != combNodes) {
    throw std::runtime_error("Netlist::topoOrder: combinational cycle in " +
                             name_);
  }
  return order;
}

std::string Netlist::toDot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n  rankdir=LR;\n";
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    os << "  n" << id << " [label=\"" << opName(n.op);
    if (!n.name.empty()) os << "\\n" << n.name;
    os << "\"";
    if (n.op == Op::Dff) os << ", shape=box";
    if (n.op == Op::Input || n.op == Op::Output) os << ", shape=ellipse, style=filled";
    os << "];\n";
    for (NodeId f : n.fanin) {
      os << "  n" << f << " -> n" << id << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

} // namespace lis::netlist
