#pragma once
// BitSim: 64-way bit-parallel simulator for the gate-level IR.
//
// Where NetlistSim evaluates one input pattern per settle pass, BitSim packs
// 64 independent patterns into every uint64_t ("lanes") and, with
// numWords > 1, simulates 64*numWords patterns per pass. At construction the
// netlist is flattened into a CSR-style instruction stream in topological
// order — a structure-of-arrays of {op, dst, fanin-slice} records over one
// flat fanin array — so the settle loop is a tight dispatch over contiguous
// memory with no per-node std::vector indirection.
//
// Value layout is node-major: values_[node * numWords + w] holds lanes
// [w*64, (w+1)*64) of `node`, so a gate's word loop streams through
// consecutive memory. DFF clocking honours per-lane enables. ROM bits are
// evaluated bit-sliced (OR of address minterms over whole words) when the
// ROM is shallow, or lane-serial (gather each lane's address) when deep.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace lis::netlist {

class BitSim {
  // 16 bytes: the settle loop streams the whole array every pass.
  struct Instr {
    NodeId dst;
    std::uint32_t faninBegin; // slice [faninBegin, faninBegin+faninCount)
    std::uint32_t romId;      // RomBit only
    Op op;
    std::uint8_t faninCount;  // of fanins_ (<= 64: RomBit address bits)
    std::uint8_t romBit;      // RomBit only (< 64)
    bool romBitSliced;        // RomBit only: eval strategy
  };
  struct Latch {
    NodeId q;
    NodeId d;
    NodeId enable; // kNoNode: always enabled
  };

public:
  /// A slice of the settle stream: the combinational nodes in the
  /// transitive fan-in of some roots, in settle order (see cone()).
  class Cone {
  public:
    std::size_t size() const { return instrs_.size(); }

  private:
    friend class BitSim;
    std::vector<Instr> instrs_;
  };

  explicit BitSim(const Netlist& nl, unsigned numWords = 1);
  /// Flushes settle-pass / pattern counts into the process-wide
  /// obs::Registry ("bitsim.*" counters).
  ~BitSim();

  const Netlist& netlist() const { return *nl_; }
  unsigned numWords() const { return numWords_; }
  /// Patterns simulated per settle pass (64 * numWords).
  std::size_t numPatterns() const { return std::size_t{64} * numWords_; }
  /// Settle passes run so far (construction's reset included).
  std::uint64_t settlePasses() const { return settlePasses_; }

  /// Load DFF reset values into every lane, then settle.
  void reset();

  /// Set one 64-lane word of an input. Throws std::invalid_argument if the
  /// node is not an Input, std::out_of_range if word >= numWords().
  void setInputWord(NodeId input, unsigned word, std::uint64_t lanes);
  /// Set all words of an input; words.size() must equal numWords().
  void setInput(NodeId input, std::span<const std::uint64_t> words);
  /// Broadcast a scalar value into every lane of an input.
  void setInputAll(NodeId input, bool value);
  /// Set one lane of an input. Throws std::invalid_argument if the node
  /// is not an Input, std::out_of_range if lane >= numPatterns().
  void setInputLane(NodeId input, std::size_t lane, bool value);

  /// Re-evaluate combinational logic (topological order, single pass).
  void settle();

  /// Latch all DFFs from the settled values (per-lane enables), then settle.
  void clock();

  /// Latch all DFFs like clock() but without the settle: combinational
  /// values stay stale until the next settle() or settleCone().
  void latch();

  /// The combinational nodes `roots` depend on through combinational
  /// logic (roots included, stopping at inputs, DFFs and constants).
  Cone cone(std::span<const NodeId> roots) const;

  /// Re-evaluate only the cone's nodes. Afterwards each holds exactly the
  /// value a full settle() would give it — e.g. after latch(), the Moore
  /// outputs of the new state at the cost of their cone alone. Does not
  /// count as a settle pass.
  void settleCone(const Cone& c);

  /// Pin a node to a constant in every lane (stuck-at fault model). The
  /// force persists across settle()/clock() until cleared: source nodes
  /// (inputs, DFFs, constants) are overwritten at the start of every
  /// settle pass, combinational nodes immediately after their own
  /// evaluation. Zero cost on the hot path while no force is active.
  void setForce(NodeId node, bool value);
  void clearForce(NodeId node);
  void clearForces();
  bool forced(NodeId node) const {
    return node < force_.size() && force_[node] != kNoForce;
  }

  /// Overwrite a node's current value in every lane without registering a
  /// persistent force — the transient-SEU model: poke a DFF's state, then
  /// settle() to propagate; the next clock() overwrites it normally.
  void pokeAll(NodeId node, bool value);

  std::uint64_t word(NodeId node, unsigned w) const {
    return values_[std::size_t{node} * numWords_ + w];
  }
  bool lane(NodeId node, std::size_t laneIdx) const {
    return ((word(node, static_cast<unsigned>(laneIdx / 64)) >>
             (laneIdx % 64)) &
            1u) != 0;
  }
  /// Bus value seen by one lane (LSB-first). Throws std::invalid_argument
  /// for buses wider than 64 bits.
  std::uint64_t busValue(std::span<const NodeId> bus, std::size_t laneIdx) const;

private:
  std::uint64_t* val(NodeId id) {
    return values_.data() + std::size_t{id} * numWords_;
  }
  const std::uint64_t* val(NodeId id) const {
    return values_.data() + std::size_t{id} * numWords_;
  }
  void checkInput(NodeId input) const;
  void evalRom(const Instr& ins, const NodeId* f, std::uint64_t* dst) const;
  void applySourceForces();
  /// Evaluate instructions [begin, end) in order (the settle loop body).
  void eval(const Instr* begin, const Instr* end);
  /// eval() with the word count fixed at compile time (0: numWords_).
  template <unsigned kWords>
  void evalWords(const Instr* begin, const Instr* end);

  static constexpr std::uint8_t kNoForce = 2;

  const Netlist* nl_;
  unsigned numWords_;
  std::vector<Instr> instrs_;  // combinational nodes in topological order
  std::vector<NodeId> fanins_; // flat CSR fanin array
  std::vector<std::uint64_t> values_;  // node-major, numWords_ per node
  std::vector<Latch> latches_;         // one per DFF, in dffs() order
  std::vector<std::uint64_t> dffNext_; // dffs().size() * numWords_
  std::vector<std::uint8_t> force_;    // per node: 0/1 forced, kNoForce none
  std::uint64_t settlePasses_ = 0;     // lifetime count, flushed by ~BitSim
  std::size_t forceCount_ = 0;         // active forces (gates the hot path)
};

} // namespace lis::netlist
