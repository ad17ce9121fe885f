// Differential check of the activity-driven settle: engine A runs a seeded
// random sequence of every state mutator directly, while engine B is reset
// to A's state before each step through a serialized snapshot — a decoded
// snapshot is not known to be settled, so restore_state marks every node
// and B's settle evaluates all of them: the oblivious reference, through
// the same code. After each step both must agree on every net, on the
// complete dynamic state, and on the observer's change sequence. A mutator
// that forgets to mark a reader leaves A with a stale net that B recomputes.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "netlist/cell_library.h"
#include "sim/levelized_sim.h"
#include "util/bytes.h"
#include "util/rng.h"

#include "random_design.h"

namespace ssresf::testing_support {

template <class E>
void expect_activity_settle_matches_full_settle(std::uint64_t seed) {
  using netlist::CellId;
  using netlist::CellKind;
  using netlist::Logic;
  constexpr bool kPacked =
      requires(E& e, const sim::Engine& g) { e.adopt_golden(g); };

  const RandomDesign d = random_design(seed, /*with_memory=*/true);
  const Netlist& nl = d.netlist;
  std::vector<CellId> ffs;
  CellId mem;
  for (const CellId id : nl.all_cells()) {
    const CellKind kind = nl.cell(id).kind;
    if (netlist::is_flip_flop(kind)) ffs.push_back(id);
    if (kind == CellKind::kMemory) mem = id;
  }
  ASSERT_FALSE(ffs.empty());
  ASSERT_TRUE(mem.valid());
  const netlist::MemoryInfo& mi = nl.memory(nl.cell(mem).memory_index);
  const std::vector<NetId>& mem_pins = nl.cell(mem).inputs;
  const auto addr_bits = static_cast<std::size_t>(mi.addr_bits);
  std::vector<NetId> drivable = d.inputs;
  drivable.push_back(d.rstn);

  E a(nl);
  E b(nl);
  // Force-free scalar run on the same inputs: the adopt_golden source.
  sim::LevelizedSimulator golden(nl);
  using Change = std::pair<std::uint32_t, Logic>;
  std::vector<Change> changes_a;
  std::vector<Change> changes_b;
  a.set_observer([&](NetId n, std::uint64_t, Logic v) {
    changes_a.emplace_back(n.value, v);
  });
  b.set_observer([&](NetId n, std::uint64_t, Logic v) {
    changes_b.emplace_back(n.value, v);
  });
  std::vector<std::unique_ptr<sim::EngineState>> snapshots;

  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const auto any_net = [&] {
    return NetId{static_cast<std::uint32_t>(rng.below(nl.num_nets()))};
  };
  const auto any_bit = [&] { return netlist::from_bool(rng.below(2) != 0); };
  // X or Z one time in four: mostly known values keep the design active.
  const auto any_value = [&] {
    return rng.below(4) == 0 ? static_cast<Logic>(2 + rng.below(2)) : any_bit();
  };
  const auto any_ff = [&] { return ffs[rng.below(ffs.size())]; };
  // Ops 0-8 apply to every engine; 9-13 are the packed per-slot mutators
  // and adopt_golden.
  const int num_ops = kPacked ? 14 : 9;

  const std::size_t num_nodes = sim::levelized_eval_order(nl).size();

  for (int step = 0; step < 1000; ++step) {
    util::ByteWriter bytes;
    a.serialize_state(*a.save_state(), bytes);
    util::ByteReader reader(bytes.data());
    b.restore_state(*b.deserialize_state(reader));
    const std::uint64_t evals_before = b.evals_performed();
    changes_a.clear();
    changes_b.clear();
    // Op -1 toggles the clock; scalar clocking dominates, as in a testbench.
    const int op = rng.below(3) == 0
                       ? -1
                       : static_cast<int>(rng.below(static_cast<std::uint64_t>(num_ops)));
    if (op == -1) {
      const Logic v = a.value(d.clk) == Logic::L1 ? Logic::L0 : Logic::L1;
      a.set_input(d.clk, v);
      b.set_input(d.clk, v);
      golden.set_input(d.clk, v);
    } else if (op == 0) {
      const NetId in = drivable[rng.below(drivable.size())];
      const Logic v = rng.below(8) == 0 ? Logic::X : any_bit();
      a.set_input(in, v);
      b.set_input(in, v);
      golden.set_input(in, v);
    } else if (op == 1) {
      const NetId n = any_net();
      const Logic v = any_value();
      a.force_net(n, v);
      b.force_net(n, v);
    } else if (op == 2) {
      const NetId n = any_net();
      a.release_net(n);
      b.release_net(n);
    } else if (op == 3) {
      const CellId ff = any_ff();
      const Logic v = any_value();
      a.deposit_ff(ff, v);
      b.deposit_ff(ff, v);
    } else if (op == 4) {
      const auto w = static_cast<std::uint32_t>(rng.below(mi.words));
      const std::uint64_t v = rng.below(16);
      a.write_mem_word(mem, w, v);
      b.write_mem_word(mem, w, v);
    } else if (op == 5) {
      snapshots.push_back(a.save_state());
    } else if (op == 6) {
      if (snapshots.empty()) continue;
      const auto& s = *snapshots[rng.below(snapshots.size())];
      a.restore_state(s);
      b.restore_state(s);
    } else if (op == 7) {
      a.advance_to(a.now() + 1 + rng.below(500));
      b.advance_to(a.now());
    } else if (op == 8) {
      // Aim the memory's write port at its read port (same address, WE=1,
      // random data) so the next rising edge rewrites the word being read:
      // only the clock-edge write can make the read output change. Packed
      // engines sometimes aim the write port of one slot only, with WE held
      // low in every other lane, so that only a non-golden lane writes.
      int slot = -1;
      if constexpr (kPacked) {
        if (rng.below(2) == 0) slot = static_cast<int>(rng.below(E::kSlots));
      }
      const auto force = [&](NetId n, Logic v, bool write_port) {
        if constexpr (kPacked) {
          if (write_port && slot >= 0) {
            a.force_net_slot(n, slot, v);
            b.force_net_slot(n, slot, v);
            return;
          }
        }
        a.force_net(n, v);
        b.force_net(n, v);
      };
      if (slot >= 0) force(mem_pins[2], Logic::L0, false);
      force(mem_pins[2], Logic::L1, true);
      for (std::size_t i = 0; i < addr_bits; ++i) {
        const Logic bit = any_bit();
        force(mem_pins[3 + i], bit, false);
        force(mem_pins[3 + addr_bits + i], bit, true);
      }
      for (int i = 0; i < mi.width; ++i) {
        force(mem_pins[3 + 2 * addr_bits + static_cast<std::size_t>(i)], any_bit(),
              true);
      }
    } else if constexpr (kPacked) {
      const int slot = static_cast<int>(rng.below(E::kSlots));
      if (op == 9) {
        const NetId n = any_net();
        const Logic v = any_value();
        a.force_net_slot(n, slot, v);
        b.force_net_slot(n, slot, v);
      } else if (op == 10) {
        const NetId n = any_net();
        a.release_net_slot(n, slot);
        b.release_net_slot(n, slot);
      } else if (op == 11) {
        const CellId ff = any_ff();
        const Logic v = any_value();
        a.deposit_ff_slot(ff, slot, v);
        b.deposit_ff_slot(ff, slot, v);
      } else if (op == 12) {
        const auto w = static_cast<std::uint32_t>(rng.below(mi.words));
        const std::uint64_t v = rng.below(16);
        a.write_mem_word_slot(mem, slot, w, v);
        b.write_mem_word_slot(mem, slot, w, v);
      } else {
        golden.advance_to(a.now());
        a.adopt_golden(golden);
        b.adopt_golden(golden);
      }
    }
    for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
      if constexpr (kPacked) {
        ASSERT_EQ(a.packed_value(NetId{n}), b.packed_value(NetId{n}))
            << "seed " << seed << " step " << step << " op " << op << " net "
            << nl.net_name(NetId{n});
      } else {
        ASSERT_EQ(a.value(NetId{n}), b.value(NetId{n}))
            << "seed " << seed << " step " << step << " op " << op << " net "
            << nl.net_name(NetId{n});
      }
    }
    // B is the full-settle reference only if restoring the decoded snapshot
    // marked every node: an op that always settles must have evaluated them
    // all.
    const bool always_settles =
        op == 1 || op == 3 || op == 4 || op == 8 || op == 9 || op == 11 || op == 12;
    if (always_settles) {
      ASSERT_GE(b.evals_performed(), evals_before + num_nodes)
          << "seed " << seed << " step " << step << " op " << op;
    }
    ASSERT_TRUE(b.state_matches(*a.save_state()))
        << "seed " << seed << " step " << step << " op " << op;
    ASSERT_EQ(changes_a, changes_b)
        << "seed " << seed << " step " << step << " op " << op;
  }
}

}  // namespace ssresf::testing_support
