#include "sim/levelized_sim.h"

#include <algorithm>

#include "util/bytes.h"
#include "util/error.h"

namespace ssresf::sim {

using netlist::as_input;
using netlist::Cell;
using netlist::CellKind;
using netlist::eval_cell;
using netlist::from_bool;
using netlist::is_flip_flop;
using netlist::is_known;
using netlist::logic_not;
using netlist::MemoryInfo;

LevelizedSimulator::LevelizedSimulator(const Netlist& netlist)
    : netlist_(netlist), schedule_(netlist) {
  // Clock nets: primary inputs connected to any CK/CLK pin.
  is_clock_net_.assign(netlist_.num_nets(), 0);
  for (const CellId id : netlist_.all_cells()) {
    const Cell& cell = netlist_.cell(id);
    if (is_flip_flop(cell.kind)) {
      is_clock_net_[cell.inputs[1].index()] = 1;
      seq_cells_.push_back(id);
      if (cell.kind != CellKind::kDff) reset_ffs_.push_back(id);
    } else if (cell.kind == CellKind::kMemory) {
      is_clock_net_[cell.inputs[0].index()] = 1;
      seq_cells_.push_back(id);
    }
  }
  reset_state();
}

void LevelizedSimulator::reset_state() {
  now_ = 0;
  evals_ = 0;
  driven_.assign(netlist_.num_nets(), Logic::X);
  forced_val_.assign(netlist_.num_nets(), Logic::X);
  forced_.assign(netlist_.num_nets(), 0);
  ff_q_.assign(netlist_.num_cells(), Logic::X);
  mems_.clear();
  for (const CellId id : netlist_.all_cells()) {
    const Cell& cell = netlist_.cell(id);
    if (cell.kind == CellKind::kMemory) {
      const MemoryInfo& mi = netlist_.memory(cell.memory_index);
      if (mems_.size() <= static_cast<std::size_t>(cell.memory_index)) {
        mems_.resize(static_cast<std::size_t>(cell.memory_index) + 1);
      }
      auto& array = mems_[static_cast<std::size_t>(cell.memory_index)];
      array = mi.init.empty() ? std::vector<std::uint64_t>(mi.words, 0)
                              : mi.init;
    } else if (cell.kind == CellKind::kConst0) {
      driven_[cell.outputs[0].index()] = Logic::L0;
    } else if (cell.kind == CellKind::kConst1) {
      driven_[cell.outputs[0].index()] = Logic::L1;
    }
  }
  schedule_.mark_all();
  settle();
}

struct LevelizedSimulator::State final : EngineState {
  std::uint64_t now = 0;
  std::uint64_t evals = 0;
  // Nothing was marked at save time: restoring needs no evaluation. Not
  // serialized — a decoded snapshot is settled again from scratch.
  bool settled = false;
  std::vector<Logic> driven;
  std::vector<Logic> forced_val;
  std::vector<std::uint8_t> forced;
  std::vector<Logic> ff_q;
  std::vector<std::vector<std::uint64_t>> mems;
};

std::unique_ptr<EngineState> LevelizedSimulator::save_state() const {
  auto state = std::make_unique<State>();
  state->now = now_;
  state->evals = evals_;
  state->settled = schedule_.settled();
  state->driven = driven_;
  state->forced_val = forced_val_;
  state->forced = forced_;
  state->ff_q = ff_q_;
  state->mems = mems_;
  return state;
}

void LevelizedSimulator::restore_state(const EngineState& state) {
  const auto* s = dynamic_cast<const State*>(&state);
  if (s == nullptr) {
    throw InvalidArgument(
        "restore_state: snapshot is not a levelized-engine state");
  }
  if (s->driven.size() != netlist_.num_nets() ||
      s->ff_q.size() != netlist_.num_cells()) {
    throw InvalidArgument("restore_state: snapshot from a different design");
  }
  now_ = s->now;
  evals_ = s->evals;
  driven_ = s->driven;
  forced_val_ = s->forced_val;
  forced_ = s->forced;
  ff_q_ = s->ff_q;
  mems_ = s->mems;
  if (s->settled) {
    schedule_.clear();
  } else {
    schedule_.mark_all();
  }
}

void LevelizedSimulator::serialize_state(const EngineState& state,
                                         util::ByteWriter& out) const {
  const auto* s = dynamic_cast<const State*>(&state);
  if (s == nullptr) {
    throw InvalidArgument(
        "serialize_state: snapshot is not a levelized-engine state");
  }
  out.varint(s->now);
  out.varint(s->evals);
  out.byte_vec(s->driven);
  out.byte_vec(s->forced_val);
  out.byte_vec(s->forced);
  out.byte_vec(s->ff_q);
  out.varint(s->mems.size());
  for (const auto& mem : s->mems) out.u64_vec(mem);
}

std::unique_ptr<EngineState> LevelizedSimulator::deserialize_state(
    util::ByteReader& in) const {
  auto s = std::make_unique<State>();
  s->now = in.varint();
  s->evals = in.varint();
  s->driven = in.byte_vec<Logic>();
  s->forced_val = in.byte_vec<Logic>();
  s->forced = in.byte_vec<std::uint8_t>();
  s->ff_q = in.byte_vec<Logic>();
  // element_count bounds the count by the remaining input (each array is at
  // least its one-byte length prefix), so a malformed count cannot drive an
  // oversized allocation.
  const std::size_t num_mems = in.element_count(1);
  s->mems.reserve(num_mems);
  for (std::size_t m = 0; m < num_mems; ++m) s->mems.push_back(in.u64_vec());
  if (s->driven.size() != netlist_.num_nets() ||
      s->forced_val.size() != netlist_.num_nets() ||
      s->forced.size() != netlist_.num_nets() ||
      s->ff_q.size() != netlist_.num_cells()) {
    throw InvalidArgument("deserialize_state: snapshot from a different design");
  }
  // Memory arrays must match this engine's shape exactly: a truncated array
  // would otherwise become an out-of-bounds access on the next memory read.
  if (s->mems.size() != mems_.size()) {
    throw InvalidArgument("deserialize_state: memory count mismatch");
  }
  for (std::size_t m = 0; m < mems_.size(); ++m) {
    if (s->mems[m].size() != mems_[m].size()) {
      throw InvalidArgument("deserialize_state: memory array size mismatch");
    }
  }
  return s;
}

bool LevelizedSimulator::state_matches(const EngineState& state) const {
  const auto* s = dynamic_cast<const State*>(&state);
  if (s == nullptr) return false;
  if (now_ != s->now || driven_ != s->driven || ff_q_ != s->ff_q ||
      forced_ != s->forced || mems_ != s->mems) {
    return false;
  }
  for (std::size_t n = 0; n < forced_.size(); ++n) {
    if (forced_[n] != 0 && forced_val_[n] != s->forced_val[n]) return false;
  }
  return true;
}

Logic LevelizedSimulator::effective(NetId net) const {
  return forced_[net.index()] != 0 ? forced_val_[net.index()]
                                   : driven_[net.index()];
}

Logic LevelizedSimulator::value(NetId net) const { return effective(net); }

void LevelizedSimulator::write_net(NetId net, Logic v) {
  const auto n = net.index();
  if (driven_[n] == v) return;
  driven_[n] = v;
  if (forced_[n] != 0) return;  // readers see the forced value
  schedule_.mark_readers(net);
  if (has_observer_) observer_(net, now_, v);
}

void LevelizedSimulator::mark_if_changed(NetId net, Logic before) {
  if (effective(net) != before) schedule_.mark_readers(net);
}

bool LevelizedSimulator::mem_addr(const Cell& cell, std::uint64_t& addr) const {
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  addr = 0;
  for (int i = 0; i < mi.addr_bits; ++i) {
    const Logic bit = as_input(effective(cell.inputs[3u + i]));
    if (!is_known(bit)) return false;
    if (bit == Logic::L1) addr |= 1ull << i;
  }
  return addr < mi.words;
}

void LevelizedSimulator::settle() {
  // Asynchronous reset acts level-sensitively, independent of the clock.
  for (const CellId id : reset_ffs_) {
    const Cell& cell = netlist_.cell(id);
    const Logic rn = as_input(effective(cell.inputs[2]));
    if (rn == Logic::L0 && ff_q_[id.index()] != Logic::L0) {
      ff_q_[id.index()] = Logic::L0;
      write_net(cell.outputs[0], Logic::L0);
      write_net(cell.outputs[1], Logic::L1);
    } else if (rn == Logic::X && ff_q_[id.index()] != Logic::L0 &&
               ff_q_[id.index()] != Logic::X) {
      ff_q_[id.index()] = Logic::X;
      write_net(cell.outputs[0], Logic::X);
      write_net(cell.outputs[1], Logic::X);
    }
  }
  Logic ins[4];
  schedule_.drain([&](CellId id) {
    const Cell& cell = netlist_.cell(id);
    ++evals_;
    if (cell.kind == CellKind::kMemory) {
      const MemoryInfo& mi = netlist_.memory(cell.memory_index);
      std::uint64_t addr = 0;
      if (!mem_addr(cell, addr)) {
        for (int i = 0; i < mi.width; ++i) write_net(cell.outputs[i], Logic::X);
      } else {
        const std::uint64_t word =
            mems_[static_cast<std::size_t>(cell.memory_index)][addr];
        for (int i = 0; i < mi.width; ++i) {
          write_net(cell.outputs[i], from_bool((word >> i) & 1));
        }
      }
      return;
    }
    for (std::size_t i = 0; i < cell.inputs.size(); ++i) {
      ins[i] = effective(cell.inputs[i]);
    }
    write_net(cell.outputs[0],
              eval_cell(cell.kind, std::span<const Logic>(ins, cell.inputs.size())));
  });
}

void LevelizedSimulator::clock_edge() {
  settle();  // make sure D pins are current

  // Capture phase: compute every sequential element's next state from the
  // pre-edge values, then commit — mirrors nonblocking assignment semantics.
  ff_updates_.clear();
  mem_writes_.clear();

  for (const CellId id : seq_cells_) {
    const Cell& cell = netlist_.cell(id);
    if (is_flip_flop(cell.kind)) {
      if (cell.kind != CellKind::kDff) {
        const Logic rn = as_input(effective(cell.inputs[2]));
        if (rn == Logic::L0) {
          if (ff_q_[id.index()] != Logic::L0) {
            ff_updates_.push_back({id, Logic::L0});
          }
          continue;
        }
        if (rn == Logic::X) {
          if (ff_q_[id.index()] != Logic::L0) ff_updates_.push_back({id, Logic::X});
          continue;
        }
      }
      if (cell.kind == CellKind::kDffE) {
        const Logic en = as_input(effective(cell.inputs[3]));
        if (en == Logic::L0) continue;
        if (en == Logic::X) {
          const Logic d = as_input(effective(cell.inputs[0]));
          if (d != ff_q_[id.index()]) ff_updates_.push_back({id, Logic::X});
          continue;
        }
      }
      const Logic d = as_input(effective(cell.inputs[0]));
      if (d != ff_q_[id.index()]) ff_updates_.push_back({id, d});
    } else if (cell.kind == CellKind::kMemory) {
      const Logic en = as_input(effective(cell.inputs[1]));
      const Logic we = as_input(effective(cell.inputs[2]));
      if (en != Logic::L1 || we != Logic::L1) continue;
      const MemoryInfo& mi = netlist_.memory(cell.memory_index);
      std::uint64_t addr = 0;
      bool addr_known = true;
      for (int i = 0; i < mi.addr_bits; ++i) {
        const Logic bit =
            as_input(effective(cell.inputs[3u + mi.addr_bits + i]));
        if (!is_known(bit)) {
          addr_known = false;
          break;
        }
        if (bit == Logic::L1) addr |= 1ull << i;
      }
      if (!addr_known || addr >= mi.words) continue;
      std::uint64_t word = 0;
      bool known = true;
      for (int i = 0; i < mi.width; ++i) {
        const Logic bit =
            as_input(effective(cell.inputs[3u + 2u * mi.addr_bits + i]));
        if (!is_known(bit)) {
          known = false;
          break;
        }
        if (bit == Logic::L1) word |= 1ull << i;
      }
      if (known) mem_writes_.push_back({id, addr, word});
    }
  }

  for (const auto& up : ff_updates_) {
    ff_q_[up.cell.index()] = up.q;
    const Cell& cell = netlist_.cell(up.cell);
    write_net(cell.outputs[0], up.q);
    write_net(cell.outputs[1], logic_not(up.q));
  }
  for (const auto& wr : mem_writes_) {
    const auto m = static_cast<std::size_t>(netlist_.cell(wr.cell).memory_index);
    mems_[m][wr.addr] = wr.word;
    schedule_.mark_cell(wr.cell);
  }

  settle();  // propagate the new state
}

void LevelizedSimulator::set_input(NetId net, Logic v) {
  if (!netlist_.net(net).is_primary_input) {
    throw InvalidArgument("set_input on non-primary-input net");
  }
  const Logic old = driven_[net.index()];
  if (old == v) return;
  const Logic before = effective(net);
  driven_[net.index()] = v;
  mark_if_changed(net, before);
  if (is_clock_net_[net.index()] != 0 && old == Logic::L0 && v == Logic::L1 &&
      forced_[net.index()] == 0) {
    clock_edge();
  } else {
    settle();
  }
}

void LevelizedSimulator::advance_to(std::uint64_t time_ps) {
  now_ = std::max(now_, time_ps);
}

void LevelizedSimulator::force_net(NetId net, Logic v) {
  const Logic before = effective(net);
  forced_[net.index()] = 1;
  forced_val_[net.index()] = v;
  mark_if_changed(net, before);
  settle();
}

void LevelizedSimulator::release_net(NetId net) {
  if (forced_[net.index()] == 0) return;
  const Logic before = effective(net);
  forced_[net.index()] = 0;
  mark_if_changed(net, before);
  settle();
}

void LevelizedSimulator::deposit_ff(CellId ff, Logic q) {
  const Cell& cell = netlist_.cell(ff);
  if (!is_flip_flop(cell.kind)) {
    throw InvalidArgument("deposit_ff on non-flip-flop cell");
  }
  ff_q_[ff.index()] = q;
  write_net(cell.outputs[0], q);
  write_net(cell.outputs[1], logic_not(q));
  settle();
}

Logic LevelizedSimulator::ff_state(CellId ff) const {
  const Cell& cell = netlist_.cell(ff);
  if (!is_flip_flop(cell.kind)) {
    throw InvalidArgument("ff_state on non-flip-flop cell");
  }
  return ff_q_[ff.index()];
}

void LevelizedSimulator::write_mem_word(CellId mem, std::uint32_t word,
                                        std::uint64_t v) {
  const Cell& cell = netlist_.cell(mem);
  if (cell.kind != CellKind::kMemory) {
    throw InvalidArgument("write_mem_word on non-memory cell");
  }
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  if (word >= mi.words) throw InvalidArgument("memory word out of range");
  mems_[static_cast<std::size_t>(cell.memory_index)][word] = v;
  schedule_.mark_cell(mem);
  settle();
}

std::uint64_t LevelizedSimulator::read_mem_word(CellId mem,
                                                std::uint32_t word) const {
  const Cell& cell = netlist_.cell(mem);
  if (cell.kind != CellKind::kMemory) {
    throw InvalidArgument("read_mem_word on non-memory cell");
  }
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  if (word >= mi.words) throw InvalidArgument("memory word out of range");
  return mems_[static_cast<std::size_t>(cell.memory_index)][word];
}

}  // namespace ssresf::sim
