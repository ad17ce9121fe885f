#pragma once

#include <vector>

#include "netlist/packed_wide.h"
#include "sim/engine.h"
#include "sim/levelized_schedule.h"

namespace ssresf::sim {

using netlist::PackedLogic;

/// Bit-parallel packed fault simulator: the third engine, generalized over
/// lane width. Simulates 64*W concurrent runs of the same netlist — slot 0 is
/// the golden (fault-free) run, slots 1..64*W-1 carry faulty variants — using
/// two bit-planes of W machine words per net (value + unknown) so full
/// 4-valued semantics are preserved (see PackedLogic in netlist/logic.h and
/// PackedVecT in netlist/packed_wide.h). A settle evaluates, with
/// branch-free bitwise plane algebra, only the cells with an input that
/// changed in some lane since the last settle (the activity-driven
/// LevelizedSchedule, shared with LevelizedSimulator) — the classic
/// PROOFS/HOPE word-parallel speedup on top of event-style activity.
///
/// Two widths are instantiated:
///   W=1 (BitParallelSimulator):   the classic 64-lane word engine.
///   W=4 (BitParallelSimulator256): 256 lanes; plane ops run through a
///        runtime-dispatched kernel — AVX2 when the CPU has it, a portable
///        word-loop otherwise (see netlist/packed_wide.h). Both kernels are
///        lane-wise identical to the scalar operators, so lane width never
///        changes simulation results, only throughput.
///
/// Timing model: identical to LevelizedSimulator (levelized zero-delay
/// settle, capture on a rising clock-connected primary input), so a slot's
/// trajectory is bit-identical to a scalar levelized run with the same
/// stimulus — the campaign's word-batch scheduler relies on this to keep
/// packed-engine records byte-identical to kLevelized at any lane width.
///
/// The scalar Engine interface broadcasts writes to all lanes and reads back
/// slot 0, so the engine is a drop-in levelized simulator when driven
/// scalar-only (testbench clocking, golden replay, checkpointing). Fault
/// injection uses the slot-indexed *_slot variants, which touch one lane.
template <int W>
class PackedSimulatorT final : public Engine {
  static_assert(W == 1 || W == 4, "instantiated lane widths: 64 and 256");

 public:
  /// Number of runs per batch: slot 0 golden + kFaultSlots faulty.
  static constexpr int kSlots = 64 * W;
  static constexpr int kFaultSlots = kSlots - 1;
  /// Words per bit-plane (the W template argument, for generic callers).
  static constexpr int kWords = W;

  using Planes = netlist::PackedVecT<W>;
  using Mask = netlist::LaneMaskT<W>;

  explicit PackedSimulatorT(const Netlist& netlist);

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
  [[nodiscard]] Logic value(NetId net) const override {
    return netlist::wide_get(effective(net), 0);
  }

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
  [[nodiscard]] std::string_view name() const override {
    return W == 1 ? "bit-parallel" : "bit-parallel-256";
  }

  // --- slot-indexed injection (the per-lane Engine contract) -----------------
  [[nodiscard]] Logic value_slot(NetId net, int slot) const {
    return netlist::wide_get(effective(net), slot);
  }
  [[nodiscard]] Planes packed_value(NetId net) const { return effective(net); }
  void force_net_slot(NetId net, int slot, Logic value);
  void release_net_slot(NetId net, int slot);
  void deposit_ff_slot(CellId ff, int slot, Logic q);
  [[nodiscard]] Logic ff_state_slot(CellId ff, int slot) const;
  void write_mem_word_slot(CellId mem, int slot, std::uint32_t word,
                           std::uint64_t value);
  [[nodiscard]] std::uint64_t read_mem_word_slot(CellId mem, int slot,
                                                 std::uint32_t word) const;

  /// Broadcasts a scalar engine's force-free dynamic state (net values,
  /// flip-flops, memories, time) into all lanes. Used by the campaign to
  /// seed word batches from the cheap scalar levelized checkpoint ladder —
  /// the two engines share the zero-delay timing model, so the adopted state
  /// is exactly what a packed replay would have produced. Precondition: no
  /// force is active on `golden` (checkpoints are taken on clean replays).
  void adopt_golden(const Engine& golden);

  /// Mask of lanes whose dynamic state may differ from the golden lane 0:
  /// flip-flop planes compared exactly, active forces and memory divergence
  /// tracked conservatively (a set bit may be a false positive, a clear bit
  /// never is). Combinational nets are a pure function of that state under
  /// broadcast inputs, so a clear bit proves the slot's future coincides
  /// with golden — the campaign's per-slot masked exit.
  [[nodiscard]] Mask state_diff_from_golden();

  /// Packed cell evaluations (each covering 64*W lanes) actually performed
  /// since reset_state — the activity the settles had to process. Part of
  /// the saved state; state_matches ignores it.
  [[nodiscard]] std::uint64_t evals_performed() const { return evals_; }

 private:
  struct State;

  void settle();
  void clock_edge(const Mask& capture_mask);
  [[nodiscard]] Planes effective(NetId net) const;
  void write_net(NetId net, const Planes& v);
  void mark_if_changed(NetId net, const Planes& before);
  void note_forced(NetId net);
  void read_memory(const netlist::Cell& cell);
  [[nodiscard]] Planes eval_comb(netlist::CellKind kind, const Planes* ins,
                                 std::size_t n) const;

  const Netlist& netlist_;
  std::uint64_t now_ = 0;
  std::uint64_t evals_ = 0;

  std::vector<Planes> driven_;
  std::vector<Planes> forced_val_;
  std::vector<Mask> forced_;  // per-net mask of forced lanes
  std::vector<Planes> ff_q_;
  // Per memory index: 64*W lane-major arrays (lane * words + word).
  std::vector<std::vector<std::uint64_t>> mems_;
  // Lanes whose array may differ from lane 0 (conservative, per memory).
  std::vector<Mask> mem_dirty_;
  // Nets that may hold a non-zero forced_ mask (compacted lazily).
  std::vector<std::uint32_t> forced_nets_;

  LevelizedSchedule schedule_;     // comb cells + memory reads, topo order
  std::vector<CellId> seq_cells_;  // FFs + memories, creation order
  std::vector<CellId> reset_ffs_;  // flip-flops with an async reset pin
  std::vector<std::uint8_t> is_clock_net_;
  std::vector<Planes> ff_next_;  // clock_edge scratch (per cell index)
  netlist::EvalCellW4Fn eval_w4_ = nullptr;  // W=4 kernel (AVX2 or generic)
  ChangeObserver observer_;
  bool has_observer_ = false;
};

extern template class PackedSimulatorT<1>;
extern template class PackedSimulatorT<4>;

/// The classic 64-lane engine (EngineKind::kBitParallel).
using BitParallelSimulator = PackedSimulatorT<1>;
/// The 256-lane engine (campaign `lanes = 256`): same results, wider batches.
using BitParallelSimulator256 = PackedSimulatorT<4>;

}  // namespace ssresf::sim
