#pragma once
// Sequential cone of influence.
//
// sequentialCone keeps only the part of a netlist that can ever affect a
// set of root outputs: their combinational fan-in, and — through every
// DFF that fan-in reaches — the fan-in of that DFF's data and enable
// pins, to a fixpoint. Everything else (state and logic the roots can
// never observe, inputs nothing in the cone reads) is dropped. A proof
// about the roots holds on the cone exactly when it holds on the
// original, so property checkers run on the cone to encode only the
// logic the property depends on.
//
// The reduced netlist keeps the original's shape where callers rely on
// it:
//   - in-cone inputs appear in their original relative order, named as
//     before;
//   - in-cone DFFs appear in their original relative order with the same
//     reset values, enables and names;
//   - in-cone RomBits are kept (with their ROM contents), so consumers
//     that reject ROMs still see them;
//   - every root becomes an output of the cone, in root order, with its
//     original name.
// Gates are rebuilt in their original relative order through the
// Netlist constructors, so their constant peepholes may fold a node or
// two; behaviour at every root is unchanged.

#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace lis::netlist {

struct SequentialCone {
  Netlist nl;
  /// origOf[id] is the original node a cone node was copied from
  /// (kNoNode for nodes with no original, such as a folded constant).
  /// Inputs, DFFs and outputs always map one to one.
  std::vector<NodeId> origOf;
};

/// The sequential cone of `roots` (Output nodes of `nl`). Throws
/// std::invalid_argument when a root is not an Output.
SequentialCone sequentialCone(const Netlist& nl, std::span<const NodeId> roots);

} // namespace lis::netlist
