#include "netlist/cone.hpp"

#include <stdexcept>
#include <unordered_map>

namespace lis::netlist {

SequentialCone sequentialCone(const Netlist& nl,
                              std::span<const NodeId> roots) {
  // Mark the cone: a worklist over fanins, where a DFF's fanins are its
  // data and enable pins — that is what makes the cone sequential.
  std::vector<bool> inCone(nl.nodeCount(), false);
  std::vector<NodeId> work;
  for (const NodeId r : roots) {
    if (nl.node(r).op != Op::Output) {
      throw std::invalid_argument("sequentialCone: root " + std::to_string(r) +
                                  " is not an output");
    }
    inCone[r] = true;
    work.push_back(r);
  }
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    for (const NodeId f : nl.node(id).fanin) {
      if (!inCone[f]) {
        inCone[f] = true;
        work.push_back(f);
      }
    }
  }

  SequentialCone cone{Netlist(nl.name() + "_cone"), {}};
  Netlist& c = cone.nl;
  std::vector<NodeId> map(nl.nodeCount(), kNoNode);
  const auto in = [&](NodeId f) {
    const Op op = nl.node(f).op;
    if (op == Op::Const0 || op == Op::Const1) return c.constant(op == Op::Const1);
    return map[f];
  };
  for (const NodeId id : nl.inputs()) {
    if (inCone[id]) map[id] = c.addInput(nl.node(id).name);
  }
  for (const NodeId id : nl.dffs()) {
    if (!inCone[id]) continue;
    const Node& d = nl.node(id);
    map[id] = c.mkDff(c.constant(false), kNoNode, d.resetValue, d.name);
  }
  // Gates are rebuilt in id order: nodes are append-only and a gate's
  // fanins exist before it (only DFF pins are wired later), so id order
  // is a topological order — and it keeps the original's relative node
  // order, which the SAT encoding inherits.
  std::unordered_map<std::uint32_t, std::uint32_t> romOf;
  for (NodeId id = 0; id < nl.nodeCount(); id++) {
    if (!inCone[id]) continue;
    const Node& n = nl.node(id);
    switch (n.op) {
    case Op::Not:
      map[id] = c.mkNot(in(n.fanin[0]));
      break;
    case Op::And:
      map[id] = c.mkAnd(in(n.fanin[0]), in(n.fanin[1]));
      break;
    case Op::Or:
      map[id] = c.mkOr(in(n.fanin[0]), in(n.fanin[1]));
      break;
    case Op::Xor:
      map[id] = c.mkXor(in(n.fanin[0]), in(n.fanin[1]));
      break;
    case Op::Mux:
      map[id] = c.mkMux(in(n.fanin[0]), in(n.fanin[1]), in(n.fanin[2]));
      break;
    case Op::RomBit: {
      auto [it, fresh] = romOf.try_emplace(n.romId, 0);
      if (fresh) {
        const Rom& rom = nl.rom(n.romId);
        it->second = c.addRom(rom.width, rom.words, rom.name);
      }
      std::vector<NodeId> addr;
      addr.reserve(n.fanin.size());
      for (const NodeId f : n.fanin) addr.push_back(in(f));
      map[id] = c.mkRomBit(it->second, n.romBit, addr);
      break;
    }
    default: // ports, constants and DFFs are handled around this loop
      break;
    }
  }
  for (const NodeId id : nl.dffs()) {
    if (!inCone[id]) continue;
    const Node& d = nl.node(id);
    c.setDffInputs(map[id], in(d.fanin[0]),
                   d.hasEnable ? in(d.fanin[1]) : kNoNode);
  }
  for (const NodeId r : roots) {
    map[r] = c.addOutput(nl.node(r).name, in(nl.node(r).fanin[0]));
  }

  // Ports and registers first, so they keep their own original even
  // where a folded gate maps onto them; then the first gate per node.
  cone.origOf.assign(c.nodeCount(), kNoNode);
  const auto note = [&](NodeId id) {
    if (map[id] != kNoNode && cone.origOf[map[id]] == kNoNode) {
      cone.origOf[map[id]] = id;
    }
  };
  for (const NodeId id : nl.inputs()) note(id);
  for (const NodeId id : nl.dffs()) note(id);
  for (const NodeId id : roots) note(id);
  for (NodeId id = 0; id < nl.nodeCount(); id++) note(id);
  return cone;
}

} // namespace lis::netlist
