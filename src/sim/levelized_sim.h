#pragma once

#include <vector>

#include "sim/engine.h"
#include "sim/levelized_schedule.h"

namespace ssresf::sim {

/// Levelized (compiled-style) cycle-based simulator: the second baseline
/// engine. Combinational cells and memory-macro asynchronous reads are
/// evaluated in topological order, activity-driven: a settle evaluates only
/// the nodes with an input whose value changed since the last settle (see
/// LevelizedSchedule), which reaches exactly the fixed point an oblivious
/// pass over every node would. A rising edge on a clock-connected primary
/// input triggers the sequential capture/commit step.
///
/// Timing model: zero-delay within a cycle. Consequently a forced SET pulse
/// is latched iff the force is still active when a clock edge occurs —
/// transport/inertial effects inside a cycle are intentionally not modelled
/// (that is exactly the fidelity difference between the two engines the
/// campaign measures).
class LevelizedSimulator final : public Engine {
 public:
  explicit LevelizedSimulator(const Netlist& netlist);

  [[nodiscard]] const Netlist& design() const override { return netlist_; }
  void reset_state() override;
  [[nodiscard]] std::unique_ptr<EngineState> save_state() const override;
  void restore_state(const EngineState& state) override;
  void serialize_state(const EngineState& state,
                       util::ByteWriter& out) const override;
  [[nodiscard]] std::unique_ptr<EngineState> deserialize_state(
      util::ByteReader& in) const override;
  [[nodiscard]] bool state_matches(const EngineState& state) const override;
  void set_input(NetId net, Logic value) override;
  void advance_to(std::uint64_t time_ps) override;
  [[nodiscard]] std::uint64_t now() const override { return now_; }
  [[nodiscard]] Logic value(NetId net) const override;

  void force_net(NetId net, Logic value) override;
  void release_net(NetId net) override;
  void deposit_ff(CellId ff, Logic q) override;
  [[nodiscard]] Logic ff_state(CellId ff) const override;
  void write_mem_word(CellId mem, std::uint32_t word,
                      std::uint64_t value) override;
  [[nodiscard]] std::uint64_t read_mem_word(CellId mem,
                                            std::uint32_t word) const override;
  void set_observer(ChangeObserver observer) override {
    observer_ = std::move(observer);
    has_observer_ = static_cast<bool>(observer_);
  }
  [[nodiscard]] std::string_view name() const override { return "levelized"; }

  /// Cells (and memory reads) actually evaluated since reset_state — the
  /// activity a settle had to process, not eval-order length x settles.
  /// Part of the saved state; state_matches ignores it.
  [[nodiscard]] std::uint64_t evals_performed() const { return evals_; }

 private:
  struct State;

  void settle();
  void clock_edge();
  [[nodiscard]] Logic effective(NetId net) const;
  void write_net(NetId net, Logic v);
  void mark_if_changed(NetId net, Logic before);
  [[nodiscard]] bool mem_addr(const netlist::Cell& cell, std::uint64_t& addr) const;

  const Netlist& netlist_;
  std::uint64_t now_ = 0;
  std::uint64_t evals_ = 0;

  std::vector<Logic> driven_;
  std::vector<Logic> forced_val_;
  // Byte flags, not std::vector<bool>: effective()/write_net() read these on
  // every gate input of every settle, and the bit-proxy indexing costs more
  // than the memory it saves.
  std::vector<std::uint8_t> forced_;
  std::vector<Logic> ff_q_;
  std::vector<std::vector<std::uint64_t>> mems_;

  LevelizedSchedule schedule_;     // comb cells + memory reads, topo order
  std::vector<CellId> seq_cells_;  // FFs + memories, creation order
  std::vector<CellId> reset_ffs_;  // flip-flops with an async reset pin
  std::vector<std::uint8_t> is_clock_net_;
  // clock_edge scratch, reused across edges.
  struct FfUpdate {
    CellId cell;
    Logic q;
  };
  struct MemWrite {
    CellId cell;
    std::uint64_t addr;
    std::uint64_t word;
  };
  std::vector<FfUpdate> ff_updates_;
  std::vector<MemWrite> mem_writes_;
  ChangeObserver observer_;
  bool has_observer_ = false;  // hot-path guard: skip the std::function call
};

}  // namespace ssresf::sim
