#include "sim/bit_parallel_sim.h"

#include <algorithm>
#include <array>
#include <bit>

#include "util/bytes.h"
#include "util/error.h"

namespace ssresf::sim {

using netlist::Cell;
using netlist::CellKind;
using netlist::eval_cell_packed;
using netlist::is_flip_flop;
using netlist::LaneMaskT;
using netlist::MemoryInfo;
using netlist::PackedVecT;
using netlist::wide_as_input;
using netlist::wide_get;
using netlist::wide_not;
using netlist::wide_select;
using netlist::wide_set;
using netlist::wide_splat;

namespace {

/// All-ones when bit 0 of x is set (broadcast of the golden lane's bit).
[[nodiscard]] constexpr std::uint64_t splat_lane0(std::uint64_t x) {
  return std::uint64_t{0} - (x & 1);
}

/// Lanes whose symbol differs from lane 0's symbol.
template <int W>
[[nodiscard]] constexpr LaneMaskT<W> plane_nonuniform(const PackedVecT<W>& p) {
  const std::uint64_t sv = splat_lane0(p.val[0]);
  const std::uint64_t su = splat_lane0(p.unk[0]);
  LaneMaskT<W> m;
  for (int k = 0; k < W; ++k) m.w[k] = (p.val[k] ^ sv) | (p.unk[k] ^ su);
  return m;
}

/// Lanes whose mask bit differs from lane 0's bit.
template <int W>
[[nodiscard]] constexpr LaneMaskT<W> mask_nonuniform(const LaneMaskT<W>& m) {
  const std::uint64_t s = splat_lane0(m.w[0]);
  LaneMaskT<W> o;
  for (int k = 0; k < W; ++k) o.w[k] = m.w[k] ^ s;
  return o;
}

/// Bit `lane` of a W-word plane.
template <int W>
[[nodiscard]] constexpr std::uint64_t plane_bit(
    const std::array<std::uint64_t, W>& plane, int lane) {
  return (plane[lane >> 6] >> (lane & 63)) & 1;
}

}  // namespace

template <int W>
PackedSimulatorT<W>::PackedSimulatorT(const Netlist& netlist)
    // Settling in the exact levelized order is what keeps every lane
    // bit-identical to a scalar levelized run.
    : netlist_(netlist), schedule_(netlist) {
  if constexpr (W == 4) eval_w4_ = netlist::eval_cell_w4_dispatch();
  // Clock nets: primary inputs connected to any CK/CLK pin (same single
  // clock-domain model as the levelized engine).
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
  ff_next_.resize(netlist_.num_cells());
  reset_state();
}

template <int W>
void PackedSimulatorT<W>::reset_state() {
  now_ = 0;
  evals_ = 0;
  driven_.assign(netlist_.num_nets(), wide_splat<W>(Logic::X));
  forced_val_.assign(netlist_.num_nets(), wide_splat<W>(Logic::X));
  forced_.assign(netlist_.num_nets(), Mask{});
  forced_nets_.clear();
  ff_q_.assign(netlist_.num_cells(), wide_splat<W>(Logic::X));
  mems_.clear();
  mem_dirty_.clear();
  for (const CellId id : netlist_.all_cells()) {
    const Cell& cell = netlist_.cell(id);
    if (cell.kind == CellKind::kMemory) {
      const MemoryInfo& mi = netlist_.memory(cell.memory_index);
      const auto m = static_cast<std::size_t>(cell.memory_index);
      if (mems_.size() <= m) {
        mems_.resize(m + 1);
        mem_dirty_.resize(m + 1, Mask{});
      }
      auto& array = mems_[m];
      array.assign(static_cast<std::size_t>(kSlots) * mi.words, 0);
      if (!mi.init.empty()) {
        for (int lane = 0; lane < kSlots; ++lane) {
          std::copy(mi.init.begin(), mi.init.end(),
                    array.begin() + static_cast<std::ptrdiff_t>(
                                        static_cast<std::size_t>(lane) * mi.words));
        }
      }
      mem_dirty_[m] = Mask{};
    } else if (cell.kind == CellKind::kConst0) {
      driven_[cell.outputs[0].index()] = wide_splat<W>(Logic::L0);
    } else if (cell.kind == CellKind::kConst1) {
      driven_[cell.outputs[0].index()] = wide_splat<W>(Logic::L1);
    }
  }
  schedule_.mark_all();
  settle();
}

template <int W>
struct PackedSimulatorT<W>::State final : EngineState {
  std::uint64_t now = 0;
  std::uint64_t evals = 0;
  // Nothing was marked at save time: restoring needs no evaluation. Not
  // serialized — a decoded snapshot is settled again from scratch.
  bool settled = false;
  std::vector<Planes> driven;
  std::vector<Planes> forced_val;
  std::vector<Mask> forced;
  std::vector<std::uint32_t> forced_nets;
  std::vector<Planes> ff_q;
  std::vector<std::vector<std::uint64_t>> mems;
  std::vector<Mask> mem_dirty;
};

template <int W>
std::unique_ptr<EngineState> PackedSimulatorT<W>::save_state() const {
  auto state = std::make_unique<State>();
  state->now = now_;
  state->evals = evals_;
  state->settled = schedule_.settled();
  state->driven = driven_;
  state->forced_val = forced_val_;
  state->forced = forced_;
  state->forced_nets = forced_nets_;
  state->ff_q = ff_q_;
  state->mems = mems_;
  state->mem_dirty = mem_dirty_;
  return state;
}

template <int W>
void PackedSimulatorT<W>::restore_state(const EngineState& state) {
  const auto* s = dynamic_cast<const State*>(&state);
  if (s == nullptr) {
    throw InvalidArgument(
        "restore_state: snapshot is not a bit-parallel-engine state");
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
  forced_nets_ = s->forced_nets;
  ff_q_ = s->ff_q;
  mems_ = s->mems;
  mem_dirty_ = s->mem_dirty;
  if (s->settled) {
    schedule_.clear();
  } else {
    schedule_.mark_all();
  }
}

namespace {

/// Plane-separated layout (all value planes, then all unknown planes): the
/// unknown planes of a settled design are almost entirely zero, so the
/// codec's RLE pass collapses them to a handful of bytes. For W=1 this is
/// byte-identical to the historical single-word format.
template <int W>
void write_packed_vec(util::ByteWriter& out,
                      const std::vector<PackedVecT<W>>& v) {
  out.varint(v.size());
  for (const PackedVecT<W>& p : v) {
    for (int k = 0; k < W; ++k) out.fixed64(p.val[k]);
  }
  for (const PackedVecT<W>& p : v) {
    for (int k = 0; k < W; ++k) out.fixed64(p.unk[k]);
  }
}

template <int W>
[[nodiscard]] std::vector<PackedVecT<W>> read_packed_vec(util::ByteReader& in) {
  // Two W*8-byte planes per entry.
  const std::size_t n = in.element_count(16 * static_cast<std::size_t>(W));
  std::vector<PackedVecT<W>> v(n);
  for (PackedVecT<W>& p : v) {
    for (int k = 0; k < W; ++k) p.val[k] = in.fixed64();
  }
  for (PackedVecT<W>& p : v) {
    for (int k = 0; k < W; ++k) p.unk[k] = in.fixed64();
  }
  return v;
}

/// Masks flatten to W words each; for W=1 this matches the historical
/// one-word-per-net u64_vec layout.
template <int W>
void write_mask_vec(util::ByteWriter& out, const std::vector<LaneMaskT<W>>& v) {
  std::vector<std::uint64_t> flat;
  flat.reserve(v.size() * static_cast<std::size_t>(W));
  for (const LaneMaskT<W>& m : v) {
    for (int k = 0; k < W; ++k) flat.push_back(m.w[k]);
  }
  out.u64_vec(flat);
}

template <int W>
[[nodiscard]] std::vector<LaneMaskT<W>> read_mask_vec(util::ByteReader& in) {
  const std::vector<std::uint64_t> flat = in.u64_vec();
  if (flat.size() % static_cast<std::size_t>(W) != 0) {
    throw InvalidArgument("packed state: lane-mask vector not a multiple of W");
  }
  std::vector<LaneMaskT<W>> v(flat.size() / static_cast<std::size_t>(W));
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (int k = 0; k < W; ++k) {
      v[i].w[k] = flat[i * static_cast<std::size_t>(W) + static_cast<std::size_t>(k)];
    }
  }
  return v;
}

}  // namespace

template <int W>
void PackedSimulatorT<W>::serialize_state(const EngineState& state,
                                          util::ByteWriter& out) const {
  const auto* s = dynamic_cast<const State*>(&state);
  if (s == nullptr) {
    throw InvalidArgument(
        "serialize_state: snapshot is not a bit-parallel-engine state");
  }
  out.varint(s->now);
  out.varint(s->evals);
  write_packed_vec<W>(out, s->driven);
  write_packed_vec<W>(out, s->forced_val);
  write_mask_vec<W>(out, s->forced);
  out.varint(s->forced_nets.size());
  for (const std::uint32_t n : s->forced_nets) out.varint(n);
  write_packed_vec<W>(out, s->ff_q);
  out.varint(s->mems.size());
  for (const auto& mem : s->mems) out.u64_vec(mem);
  write_mask_vec<W>(out, s->mem_dirty);
}

template <int W>
std::unique_ptr<EngineState> PackedSimulatorT<W>::deserialize_state(
    util::ByteReader& in) const {
  auto s = std::make_unique<State>();
  s->now = in.varint();
  s->evals = in.varint();
  s->driven = read_packed_vec<W>(in);
  s->forced_val = read_packed_vec<W>(in);
  s->forced = read_mask_vec<W>(in);
  // element_count bounds every count by the remaining input (each entry is
  // at least one byte), so a malformed count cannot drive an oversized
  // allocation.
  const std::size_t num_forced_nets = in.element_count(1);
  s->forced_nets.reserve(num_forced_nets);
  for (std::size_t i = 0; i < num_forced_nets; ++i) {
    s->forced_nets.push_back(static_cast<std::uint32_t>(in.varint()));
  }
  s->ff_q = read_packed_vec<W>(in);
  const std::size_t num_mems = in.element_count(1);
  s->mems.reserve(num_mems);
  for (std::size_t m = 0; m < num_mems; ++m) s->mems.push_back(in.u64_vec());
  s->mem_dirty = read_mask_vec<W>(in);
  if (s->driven.size() != netlist_.num_nets() ||
      s->forced_val.size() != netlist_.num_nets() ||
      s->forced.size() != netlist_.num_nets() ||
      s->ff_q.size() != netlist_.num_cells()) {
    throw InvalidArgument("deserialize_state: snapshot from a different design");
  }
  // Memory arrays (64*W lane-major copies each), the dirty mask, and the
  // forced-net index list must match this engine's shape exactly: a
  // truncated array or an out-of-range net index would otherwise become an
  // out-of-bounds access on the next settle.
  if (s->mems.size() != mems_.size() || s->mem_dirty.size() != mem_dirty_.size()) {
    throw InvalidArgument("deserialize_state: memory count mismatch");
  }
  for (std::size_t m = 0; m < mems_.size(); ++m) {
    if (s->mems[m].size() != mems_[m].size()) {
      throw InvalidArgument("deserialize_state: memory array size mismatch");
    }
  }
  for (const std::uint32_t n : s->forced_nets) {
    if (n >= netlist_.num_nets()) {
      throw InvalidArgument("deserialize_state: forced net out of range");
    }
  }
  return s;
}

template <int W>
bool PackedSimulatorT<W>::state_matches(const EngineState& state) const {
  const auto* s = dynamic_cast<const State*>(&state);
  if (s == nullptr) return false;
  if (now_ != s->now || driven_ != s->driven || ff_q_ != s->ff_q ||
      forced_ != s->forced || mems_ != s->mems) {
    return false;
  }
  // Forced overlay values matter only on lanes where a force is active.
  for (std::size_t n = 0; n < forced_.size(); ++n) {
    const Mask& mask = forced_[n];
    if (mask.none()) continue;
    const Planes& a = forced_val_[n];
    const Planes& b = s->forced_val[n];
    for (int k = 0; k < W; ++k) {
      if (((a.val[k] ^ b.val[k]) | (a.unk[k] ^ b.unk[k])) & mask.w[k]) {
        return false;
      }
    }
  }
  return true;
}

template <int W>
typename PackedSimulatorT<W>::Planes PackedSimulatorT<W>::effective(
    NetId net) const {
  const auto n = net.index();
  const Mask& m = forced_[n];
  const Planes& d = driven_[n];
  std::uint64_t any = 0;
  for (int k = 0; k < W; ++k) any |= m.w[k];
  if (any == 0) return d;
  const Planes& f = forced_val_[n];
  Planes o;
  for (int k = 0; k < W; ++k) {
    o.val[k] = (d.val[k] & ~m.w[k]) | (f.val[k] & m.w[k]);
    o.unk[k] = (d.unk[k] & ~m.w[k]) | (f.unk[k] & m.w[k]);
  }
  return o;
}

template <int W>
void PackedSimulatorT<W>::write_net(NetId net, const Planes& v) {
  const auto n = net.index();
  Planes& cur = driven_[n];
  if (cur == v) return;
  // Readers see a change only in lanes the net is not forced in.
  const Mask& forced = forced_[n];
  std::uint64_t visible[W];
  std::uint64_t any_visible = 0;
  for (int k = 0; k < W; ++k) {
    visible[k] =
        ((cur.val[k] ^ v.val[k]) | (cur.unk[k] ^ v.unk[k])) & ~forced.w[k];
    any_visible |= visible[k];
  }
  cur = v;
  if (any_visible == 0) return;
  schedule_.mark_readers(net);
  // The observer sees the golden slot only (per-slot VCD is meaningless).
  if (has_observer_ && (visible[0] & 1) != 0) {
    observer_(net, now_, wide_get(v, 0));
  }
}

template <int W>
void PackedSimulatorT<W>::mark_if_changed(NetId net, const Planes& before) {
  if (effective(net) != before) schedule_.mark_readers(net);
}

template <int W>
void PackedSimulatorT<W>::note_forced(NetId net) {
  forced_nets_.push_back(static_cast<std::uint32_t>(net.index()));
}

template <int W>
typename PackedSimulatorT<W>::Planes PackedSimulatorT<W>::eval_comb(
    CellKind kind, const Planes* ins, std::size_t n) const {
  if constexpr (W == 4) {
    return eval_w4_(kind, ins, n);
  } else {
    // W=1: the scalar packed evaluator (identical formulas, single word).
    std::array<PackedLogic, 4> pins;
    for (std::size_t i = 0; i < n; ++i) pins[i] = ins[i].word(0);
    Planes o;
    o.set_word(0,
               eval_cell_packed(kind, std::span<const PackedLogic>(pins.data(), n)));
    return o;
  }
}

template <int W>
void PackedSimulatorT<W>::read_memory(const Cell& cell) {
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  const auto m = static_cast<std::size_t>(cell.memory_index);
  const std::uint64_t words = mi.words;
  const auto& array = mems_[m];

  std::array<Planes, 64> addr_planes;
  Mask unk_lanes;
  Mask nonuni = mem_dirty_[m];
  for (int i = 0; i < mi.addr_bits; ++i) {
    const Planes p = wide_as_input(effective(cell.inputs[3u + i]));
    addr_planes[static_cast<std::size_t>(i)] = p;
    for (int k = 0; k < W; ++k) unk_lanes.w[k] |= p.unk[k];
    nonuni |= plane_nonuniform<W>(p);
  }
  auto lane_addr = [&](int l, bool& ok) {
    std::uint64_t addr = 0;
    if (unk_lanes.test(l)) {
      ok = false;
      return addr;
    }
    for (int i = 0; i < mi.addr_bits; ++i) {
      addr |= plane_bit<W>(addr_planes[static_cast<std::size_t>(i)].val, l) << i;
    }
    ok = addr < words;
    return addr;
  };

  // Fast path: decode the golden lane once and broadcast, then patch only
  // lanes whose address or array contents may differ from lane 0.
  std::array<Mask, 64> val_p{};
  std::array<Mask, 64> unk_p{};
  bool ok0 = false;
  const std::uint64_t addr0 = lane_addr(0, ok0);
  const std::uint64_t word0 = ok0 ? array[addr0] : 0;
  for (int b = 0; b < mi.width; ++b) {
    if (ok0) {
      if ((word0 >> b) & 1) val_p[static_cast<std::size_t>(b)] = ~Mask{};
    } else {
      unk_p[static_cast<std::size_t>(b)] = ~Mask{};
    }
  }
  Mask patch = nonuni;
  patch.reset(0);
  for_each_set_lane(patch, [&](int l) {
    bool ok = false;
    const std::uint64_t addr = lane_addr(l, ok);
    const int wk = l >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (l & 63);
    const std::uint64_t word =
        ok ? array[static_cast<std::size_t>(l) * words + addr] : 0;
    for (int b = 0; b < mi.width; ++b) {
      const auto bi = static_cast<std::size_t>(b);
      if (ok) {
        val_p[bi].w[wk] = (val_p[bi].w[wk] & ~bit) | ((word >> b) & 1 ? bit : 0);
        unk_p[bi].w[wk] &= ~bit;
      } else {
        val_p[bi].w[wk] &= ~bit;
        unk_p[bi].w[wk] |= bit;
      }
    }
  });
  for (int b = 0; b < mi.width; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    Planes out;
    out.val = val_p[bi].w;
    out.unk = unk_p[bi].w;
    write_net(cell.outputs[bi], out);
  }
}

template <int W>
void PackedSimulatorT<W>::settle() {
  // Asynchronous reset acts level-sensitively, independent of the clock.
  for (const CellId id : reset_ffs_) {
    const Cell& cell = netlist_.cell(id);
    const Planes rn = wide_as_input(effective(cell.inputs[2]));
    const Planes& q = ff_q_[id.index()];
    Planes nq;
    std::uint64_t any = 0;
    for (int k = 0; k < W; ++k) {
      const std::uint64_t rn0 = ~rn.val[k] & ~rn.unk[k];
      const std::uint64_t q_is0 = ~q.val[k] & ~q.unk[k];
      const std::uint64_t q_isx = q.unk[k] & ~q.val[k];
      const std::uint64_t to0 = rn0 & ~q_is0;
      const std::uint64_t tox = rn.unk[k] & ~q_is0 & ~q_isx;
      any |= to0 | tox;
      nq.val[k] = q.val[k] & ~(to0 | tox);
      nq.unk[k] = (q.unk[k] & ~to0) | tox;
    }
    if (any == 0) continue;
    ff_q_[id.index()] = nq;
    write_net(cell.outputs[0], nq);
    write_net(cell.outputs[1], wide_not(nq));
  }
  Planes ins[4];
  schedule_.drain([&](CellId id) {
    const Cell& cell = netlist_.cell(id);
    ++evals_;
    if (cell.kind == CellKind::kMemory) {
      read_memory(cell);
      return;
    }
    for (std::size_t i = 0; i < cell.inputs.size(); ++i) {
      ins[i] = effective(cell.inputs[i]);
    }
    write_net(cell.outputs[0], eval_comb(cell.kind, ins, cell.inputs.size()));
  });
}

template <int W>
void PackedSimulatorT<W>::clock_edge(const Mask& capture_mask) {
  settle();  // make sure D pins are current

  // Capture phase: compute every flip-flop's next state from the pre-edge
  // values (nonblocking assignment semantics), lane-wise. Lanes outside
  // capture_mask (clock forced in that slot) hold their state.
  for (const CellId id : seq_cells_) {
    const Cell& cell = netlist_.cell(id);
    if (cell.kind == CellKind::kMemory) continue;
    const Planes& q = ff_q_[id.index()];
    const Planes d = wide_as_input(effective(cell.inputs[0]));
    Planes nq = d;
    if (cell.kind == CellKind::kDffE) {
      const Planes en = wide_as_input(effective(cell.inputs[3]));
      for (int k = 0; k < W; ++k) {
        const std::uint64_t en1 = en.val[k];  // known 1 (val plane normalized)
        const std::uint64_t en0 = ~en.val[k] & ~en.unk[k];
        const std::uint64_t neq =
            ~netlist::packed_eq_mask(d.word(k), q.word(k));
        const std::uint64_t tox = en.unk[k] & neq;
        const std::uint64_t keep = en0 | (en.unk[k] & ~neq);
        nq.val[k] = (en1 & d.val[k]) | (keep & q.val[k]);
        nq.unk[k] = (en1 & d.unk[k]) | (keep & q.unk[k]) | tox;
      }
    }
    if (cell.kind != CellKind::kDff) {
      const Planes rn = wide_as_input(effective(cell.inputs[2]));
      for (int k = 0; k < W; ++k) {
        const std::uint64_t rn1 = rn.val[k];
        const std::uint64_t q_is0 = ~q.val[k] & ~q.unk[k];
        const std::uint64_t tox = rn.unk[k] & ~q_is0;
        // rn known-0 lanes and (rn X, q already 0) lanes resolve to L0.
        nq.val[k] = rn1 & nq.val[k];
        nq.unk[k] = (rn1 & nq.unk[k]) | tox;
      }
    }
    ff_next_[id.index()] = wide_select(capture_mask, nq, q);
  }

  // Memory write ports, from pre-edge values. Commit is safe before the FF
  // commit: arrays are only consumed by the settle below.
  const Mask capture_nonuni = mask_nonuniform<W>(capture_mask);
  for (const CellId id : seq_cells_) {
    const Cell& cell = netlist_.cell(id);
    if (cell.kind != CellKind::kMemory) continue;
    const MemoryInfo& mi = netlist_.memory(cell.memory_index);
    const auto m = static_cast<std::size_t>(cell.memory_index);
    const std::uint64_t words = mi.words;
    auto& array = mems_[m];

    const Planes en = wide_as_input(effective(cell.inputs[1]));
    const Planes we = wide_as_input(effective(cell.inputs[2]));
    std::array<Planes, 64> waddr;
    std::array<Planes, 64> wdata;
    Mask nonuni = mem_dirty_[m] | capture_nonuni | plane_nonuniform<W>(en) |
                  plane_nonuniform<W>(we);
    for (int i = 0; i < mi.addr_bits; ++i) {
      const Planes p =
          wide_as_input(effective(cell.inputs[3u + mi.addr_bits + i]));
      waddr[static_cast<std::size_t>(i)] = p;
      nonuni |= plane_nonuniform<W>(p);
    }
    for (int i = 0; i < mi.width; ++i) {
      const Planes p =
          wide_as_input(effective(cell.inputs[3u + 2u * mi.addr_bits + i]));
      wdata[static_cast<std::size_t>(i)] = p;
      nonuni |= plane_nonuniform<W>(p);
    }

    // Scalar write condition, per lane: EN and WE known 1, address and data
    // fully known, address in range.
    auto lane_write = [&](int l, std::uint64_t& addr, std::uint64_t& word) {
      if (!capture_mask.test(l)) return false;
      if (plane_bit<W>(en.val, l) == 0 || plane_bit<W>(we.val, l) == 0) {
        return false;
      }
      addr = 0;
      for (int i = 0; i < mi.addr_bits; ++i) {
        const Planes& p = waddr[static_cast<std::size_t>(i)];
        if (plane_bit<W>(p.unk, l) != 0) return false;
        addr |= plane_bit<W>(p.val, l) << i;
      }
      if (addr >= words) return false;
      word = 0;
      for (int i = 0; i < mi.width; ++i) {
        const Planes& p = wdata[static_cast<std::size_t>(i)];
        if (plane_bit<W>(p.unk, l) != 0) return false;
        word |= plane_bit<W>(p.val, l) << i;
      }
      return true;
    };

    std::uint64_t addr0 = 0;
    std::uint64_t word0 = 0;
    const bool w0 = lane_write(0, addr0, word0);
    bool wrote = w0;
    // Lanes outside nonuni provably behave like lane 0.
    if (w0) {
      for (int l = 0; l < kSlots; ++l) {
        if (!nonuni.test(l)) {
          array[static_cast<std::size_t>(l) * words + addr0] = word0;
        }
      }
    }
    Mask patch = nonuni;
    patch.reset(0);
    for_each_set_lane(patch, [&](int l) {
      std::uint64_t addr = 0;
      std::uint64_t word = 0;
      const bool w = lane_write(l, addr, word);
      if (w) array[static_cast<std::size_t>(l) * words + addr] = word;
      wrote = wrote || w;
      if (w != w0 || (w && (addr != addr0 || word != word0))) {
        mem_dirty_[m].set(l);
      }
    });
    if (wrote) schedule_.mark_cell(id);
  }

  // Commit flip-flops and propagate Q/QN.
  for (const CellId id : seq_cells_) {
    const Cell& cell = netlist_.cell(id);
    if (cell.kind == CellKind::kMemory) continue;
    const Planes& fin = ff_next_[id.index()];
    if (fin == ff_q_[id.index()]) continue;
    ff_q_[id.index()] = fin;
    write_net(cell.outputs[0], fin);
    write_net(cell.outputs[1], wide_not(fin));
  }

  settle();  // propagate the new state
}

template <int W>
void PackedSimulatorT<W>::set_input(NetId net, Logic v) {
  if (!netlist_.net(net).is_primary_input) {
    throw InvalidArgument("set_input on non-primary-input net");
  }
  const auto n = net.index();
  const Planes pv = wide_splat<W>(v);
  const Planes old = driven_[n];
  if (old == pv) return;
  const Planes before = effective(net);
  driven_[n] = pv;
  mark_if_changed(net, before);
  if (is_clock_net_[n] != 0 && wide_get(old, 0) == Logic::L0 &&
      v == Logic::L1) {
    // Lanes forcing the clock net see no edge, exactly like the scalar
    // engine with a forced clock.
    const Mask capture = ~forced_[n];
    if (capture.any()) {
      clock_edge(capture);
      return;
    }
  }
  settle();
}

template <int W>
void PackedSimulatorT<W>::advance_to(std::uint64_t time_ps) {
  now_ = std::max(now_, time_ps);
}

template <int W>
void PackedSimulatorT<W>::force_net(NetId net, Logic v) {
  const auto n = net.index();
  const Planes before = effective(net);
  if (forced_[n].none()) note_forced(net);
  forced_[n] = ~Mask{};
  forced_val_[n] = wide_splat<W>(v);
  mark_if_changed(net, before);
  settle();
}

template <int W>
void PackedSimulatorT<W>::release_net(NetId net) {
  if (forced_[net.index()].none()) return;
  const Planes before = effective(net);
  forced_[net.index()] = Mask{};
  mark_if_changed(net, before);
  settle();
}

template <int W>
void PackedSimulatorT<W>::force_net_slot(NetId net, int slot, Logic v) {
  const auto n = net.index();
  const Planes before = effective(net);
  if (forced_[n].none()) note_forced(net);
  forced_[n].set(slot);
  wide_set(forced_val_[n], slot, v);
  mark_if_changed(net, before);
  settle();
}

template <int W>
void PackedSimulatorT<W>::release_net_slot(NetId net, int slot) {
  const auto n = net.index();
  if (!forced_[n].test(slot)) return;
  const Planes before = effective(net);
  forced_[n].reset(slot);
  mark_if_changed(net, before);
  settle();
}

template <int W>
void PackedSimulatorT<W>::deposit_ff(CellId ff, Logic q) {
  const Cell& cell = netlist_.cell(ff);
  if (!is_flip_flop(cell.kind)) {
    throw InvalidArgument("deposit_ff on non-flip-flop cell");
  }
  ff_q_[ff.index()] = wide_splat<W>(q);
  write_net(cell.outputs[0], ff_q_[ff.index()]);
  write_net(cell.outputs[1], wide_not(ff_q_[ff.index()]));
  settle();
}

template <int W>
void PackedSimulatorT<W>::deposit_ff_slot(CellId ff, int slot, Logic q) {
  const Cell& cell = netlist_.cell(ff);
  if (!is_flip_flop(cell.kind)) {
    throw InvalidArgument("deposit_ff on non-flip-flop cell");
  }
  wide_set(ff_q_[ff.index()], slot, q);
  write_net(cell.outputs[0], ff_q_[ff.index()]);
  write_net(cell.outputs[1], wide_not(ff_q_[ff.index()]));
  settle();
}

template <int W>
Logic PackedSimulatorT<W>::ff_state(CellId ff) const {
  return ff_state_slot(ff, 0);
}

template <int W>
Logic PackedSimulatorT<W>::ff_state_slot(CellId ff, int slot) const {
  const Cell& cell = netlist_.cell(ff);
  if (!is_flip_flop(cell.kind)) {
    throw InvalidArgument("ff_state on non-flip-flop cell");
  }
  return wide_get(ff_q_[ff.index()], slot);
}

template <int W>
void PackedSimulatorT<W>::write_mem_word(CellId mem, std::uint32_t word,
                                         std::uint64_t v) {
  const Cell& cell = netlist_.cell(mem);
  if (cell.kind != CellKind::kMemory) {
    throw InvalidArgument("write_mem_word on non-memory cell");
  }
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  if (word >= mi.words) throw InvalidArgument("memory word out of range");
  auto& array = mems_[static_cast<std::size_t>(cell.memory_index)];
  for (int lane = 0; lane < kSlots; ++lane) {
    array[static_cast<std::size_t>(lane) * mi.words + word] = v;
  }
  schedule_.mark_cell(mem);
  settle();
}

template <int W>
void PackedSimulatorT<W>::write_mem_word_slot(CellId mem, int slot,
                                              std::uint32_t word,
                                              std::uint64_t v) {
  const Cell& cell = netlist_.cell(mem);
  if (cell.kind != CellKind::kMemory) {
    throw InvalidArgument("write_mem_word on non-memory cell");
  }
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  if (word >= mi.words) throw InvalidArgument("memory word out of range");
  const auto m = static_cast<std::size_t>(cell.memory_index);
  mems_[m][static_cast<std::size_t>(slot) * mi.words + word] = v;
  // A golden-lane write diverges every other lane instead.
  if (slot == 0) {
    Mask all = ~Mask{};
    all.reset(0);
    mem_dirty_[m] |= all;
  } else {
    mem_dirty_[m].set(slot);
  }
  schedule_.mark_cell(mem);
  settle();
}

template <int W>
std::uint64_t PackedSimulatorT<W>::read_mem_word(CellId mem,
                                                 std::uint32_t word) const {
  return read_mem_word_slot(mem, 0, word);
}

template <int W>
std::uint64_t PackedSimulatorT<W>::read_mem_word_slot(CellId mem, int slot,
                                                      std::uint32_t word) const {
  const Cell& cell = netlist_.cell(mem);
  if (cell.kind != CellKind::kMemory) {
    throw InvalidArgument("read_mem_word on non-memory cell");
  }
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  if (word >= mi.words) throw InvalidArgument("memory word out of range");
  return mems_[static_cast<std::size_t>(cell.memory_index)]
              [static_cast<std::size_t>(slot) * mi.words + word];
}

template <int W>
void PackedSimulatorT<W>::adopt_golden(const Engine& golden) {
  if (&golden.design() != &netlist_) {
    throw InvalidArgument("adopt_golden: engine built over a different design");
  }
  now_ = golden.now();
  const std::size_t num_nets = netlist_.num_nets();
  for (std::size_t n = 0; n < num_nets; ++n) {
    driven_[n] =
        wide_splat<W>(golden.value(NetId{static_cast<std::uint32_t>(n)}));
  }
  std::fill(forced_.begin(), forced_.end(), Mask{});
  forced_nets_.clear();
  std::vector<std::uint64_t> scratch;
  for (const CellId id : seq_cells_) {
    const Cell& cell = netlist_.cell(id);
    if (is_flip_flop(cell.kind)) {
      ff_q_[id.index()] = wide_splat<W>(golden.ff_state(id));
      continue;
    }
    const MemoryInfo& mi = netlist_.memory(cell.memory_index);
    const auto m = static_cast<std::size_t>(cell.memory_index);
    scratch.resize(mi.words);
    for (std::uint32_t w = 0; w < mi.words; ++w) {
      scratch[w] = golden.read_mem_word(id, w);
    }
    auto& array = mems_[m];
    for (int lane = 0; lane < kSlots; ++lane) {
      std::copy(scratch.begin(), scratch.end(),
                array.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(lane) * mi.words));
    }
    mem_dirty_[m] = Mask{};
  }
  schedule_.mark_all();
}

template <int W>
typename PackedSimulatorT<W>::Mask PackedSimulatorT<W>::state_diff_from_golden() {
  Mask diff;
  for (const CellId id : seq_cells_) {
    if (netlist_.cell(id).kind == CellKind::kMemory) continue;
    diff |= plane_nonuniform<W>(ff_q_[id.index()]);
  }
  for (const Mask& dirty : mem_dirty_) diff |= dirty;
  // Compact the forced-net list while folding in active force masks: a lane
  // holding any force differs from the (never forced) golden lane.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < forced_nets_.size(); ++i) {
    const Mask& mask = forced_[forced_nets_[i]];
    if (mask.none()) continue;
    diff |= mask;
    forced_nets_[kept++] = forced_nets_[i];
  }
  forced_nets_.resize(kept);
  diff.reset(0);
  return diff;
}

template class PackedSimulatorT<1>;
template class PackedSimulatorT<4>;

}  // namespace ssresf::sim
