#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/engine.h"

namespace ssresf::sim {

/// Topological evaluation order shared by the zero-delay cycle-based
/// engines: combinational cells (inputs = all pins) and memory macros
/// (inputs = RADDR pins only; the read output is combinational, everything
/// else is sampled). LevelizedSimulator and BitParallelSimulator must settle
/// in this exact order for their trajectories to stay bit-identical.
/// Throws Error on a combinational cycle.
[[nodiscard]] std::vector<CellId> levelized_eval_order(const Netlist& netlist);

/// The activity-driven settle of the zero-delay engines: levelized_eval_order
/// plus a dirty bit per position. An engine marks the readers of every net
/// whose effective (consumer-visible) value changes, and settle() drains the
/// marked positions in ascending order. Every reader of an evaluated node's
/// output sits at a higher position, so one forward pass reaches the same
/// fixed point as evaluating every node in order, and evaluates only nodes
/// with a changed input.
///
/// The invariant the engines keep: an unmarked node's output already equals
/// its evaluation on the current inputs. Anything that changes a net's
/// effective value outside the drain (inputs, forces, deposits, clock-edge
/// commits, async resets) marks its readers; a memory array write marks the
/// memory itself; replacing the state wholesale marks everything — unless
/// the new state is known to be settled (a snapshot taken while nothing was
/// marked), which needs no evaluation at all.
///
/// Readers come from Netlist::fanout plus one position per cell, and the
/// order and positions are computed once per netlist and shared by every
/// schedule over it: each campaign thread holds engine replicas, so only
/// the dirty bits are per engine.
class LevelizedSchedule {
 public:
  explicit LevelizedSchedule(const Netlist& netlist);

  /// Marks the nodes whose output depends on `net`: combinational cells
  /// reading it and memories using it as a read-address bit.
  void mark_readers(NetId net) {
    for (const netlist::Fanout& fo : netlist_->fanout(net)) {
      std::uint32_t pos = pos_of_[fo.cell.index()];
      if (pos == kNotScheduled) continue;
      if ((pos & kMemoryBit) != 0) {
        if (!is_read_address_pin(fo)) continue;
        pos &= ~kMemoryBit;
      }
      mark(pos);
    }
  }

  /// Marks `cell`'s own position (a memory whose array was written).
  void mark_cell(CellId cell) { mark(pos_of_[cell.index()] & ~kMemoryBit); }

  /// Marks every node (the dynamic state was replaced wholesale).
  void mark_all();
  /// Unmarks every node (the state was replaced by a settled one).
  void clear();
  /// No node is marked: every output equals its evaluation, so the state is
  /// a fixed point of the settle.
  [[nodiscard]] bool settled() const { return lo_ >= bits_.size(); }

  /// Calls eval(cell) for every marked node in ascending position order,
  /// unmarking each just before its call. Nodes that eval marks (readers of
  /// an output it changed) are drained in the same pass.
  template <class Eval>
  void drain(Eval&& eval) {
    for (std::size_t w = lo_; w <= hi_ && w < bits_.size(); ++w) {
      while (bits_[w] != 0) {
        const std::uint64_t word = bits_[w];
        bits_[w] = word & (word - 1);
        eval(order_[w * 64 + static_cast<std::size_t>(std::countr_zero(word))]);
      }
    }
    lo_ = bits_.size();
    hi_ = 0;
  }

 private:
  static constexpr std::uint32_t kNotScheduled =
      std::numeric_limits<std::uint32_t>::max();
  // Set on a memory's position: only its read-address pins are inputs.
  static constexpr std::uint32_t kMemoryBit = std::uint32_t{1} << 31;

  void mark(std::uint32_t pos) {
    const std::size_t w = pos >> 6;
    bits_[w] |= std::uint64_t{1} << (pos & 63);
    if (w < lo_) lo_ = w;
    if (w > hi_) hi_ = w;
  }
  [[nodiscard]] bool is_read_address_pin(const netlist::Fanout& fo) const;

  struct Topology {
    std::vector<CellId> order;
    std::vector<std::uint32_t> pos_of;  // per cell: position, or kNotScheduled
  };
  [[nodiscard]] static std::shared_ptr<const Topology> shared_topology(
      const Netlist& netlist);

  const Netlist* netlist_;
  std::shared_ptr<const Topology> topology_;
  const CellId* order_;             // topology_->order.data()
  const std::uint32_t* pos_of_;     // topology_->pos_of.data()
  std::vector<std::uint64_t> bits_;  // dirty bit per position
  std::size_t lo_ = 0;                 // bounds of the possibly-nonzero words
  std::size_t hi_ = 0;
};

}  // namespace ssresf::sim
