// Bit-parallel packed simulation: exhaustive lane-wise equivalence of the
// PackedLogic plane algebra against the scalar 4-valued ops, engine-level
// equivalence of per-slot runs against scalar levelized runs, and campaign
// determinism (kBitParallel records byte-identical to kLevelized).
#include <gtest/gtest.h>

#include <array>

#include "fi/campaign.h"
#include "netlist/builder.h"
#include "netlist/cell_library.h"
#include "netlist/logic.h"
#include "sim/bit_parallel_sim.h"
#include "sim/levelized_sim.h"
#include "sim/testbench.h"
#include "soc/programs.h"
#include "util/bytes.h"
#include "util/error.h"

#include "settle_differential.h"

namespace ssresf {
namespace {

using netlist::Logic;
using netlist::PackedLogic;

constexpr std::array<Logic, 4> kAll = {Logic::L0, Logic::L1, Logic::X,
                                       Logic::Z};

/// Fills all 64 lanes with a rotating pattern of the given symbols so every
/// lane position is exercised, not just lane 0.
template <std::size_t N>
PackedLogic pack_pattern(const std::array<Logic, N>& symbols, int phase) {
  PackedLogic p;
  for (int lane = 0; lane < 64; ++lane) {
    packed_set(p, lane, symbols[(static_cast<std::size_t>(lane + phase)) % N]);
  }
  return p;
}

TEST(PackedLogic, SplatGetSetRoundTrip) {
  for (const Logic v : kAll) {
    const PackedLogic p = netlist::packed_splat(v);
    for (int lane = 0; lane < 64; ++lane) {
      EXPECT_EQ(netlist::packed_get(p, lane), v);
    }
  }
  PackedLogic p = netlist::packed_splat(Logic::X);
  for (int lane = 0; lane < 64; ++lane) {
    const Logic v = kAll[static_cast<std::size_t>(lane) % 4];
    packed_set(p, lane, v);
  }
  for (int lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(netlist::packed_get(p, lane),
              kAll[static_cast<std::size_t>(lane) % 4]);
  }
}

TEST(PackedLogic, UnaryOpsMatchScalarExhaustively) {
  // Every 4-valued input symbol, in every lane position.
  for (int phase = 0; phase < 4; ++phase) {
    const PackedLogic a = pack_pattern(kAll, phase);
    const PackedLogic nt = netlist::packed_not(a);
    const PackedLogic ai = netlist::packed_as_input(a);
    const PackedLogic fl = netlist::packed_flip(a);
    for (int lane = 0; lane < 64; ++lane) {
      const Logic sa = netlist::packed_get(a, lane);
      EXPECT_EQ(netlist::packed_get(nt, lane), netlist::logic_not(sa));
      EXPECT_EQ(netlist::packed_get(ai, lane), netlist::as_input(sa));
      EXPECT_EQ(netlist::packed_get(fl, lane), netlist::logic_flip(sa));
    }
  }
}

TEST(PackedLogic, BinaryOpsMatchScalarExhaustively) {
  // All 16 (a, b) symbol combinations; the b operand rotates against a so
  // every pairing lands in every lane position across phases.
  for (int pa = 0; pa < 4; ++pa) {
    for (int pb = 0; pb < 4; ++pb) {
      const PackedLogic a = pack_pattern(kAll, pa);
      const PackedLogic b = pack_pattern(kAll, pb);
      const PackedLogic o_and = netlist::packed_and(a, b);
      const PackedLogic o_or = netlist::packed_or(a, b);
      const PackedLogic o_xor = netlist::packed_xor(a, b);
      for (int lane = 0; lane < 64; ++lane) {
        const Logic sa = netlist::packed_get(a, lane);
        const Logic sb = netlist::packed_get(b, lane);
        EXPECT_EQ(netlist::packed_get(o_and, lane), netlist::logic_and(sa, sb))
            << netlist::to_char(sa) << " & " << netlist::to_char(sb);
        EXPECT_EQ(netlist::packed_get(o_or, lane), netlist::logic_or(sa, sb))
            << netlist::to_char(sa) << " | " << netlist::to_char(sb);
        EXPECT_EQ(netlist::packed_get(o_xor, lane), netlist::logic_xor(sa, sb))
            << netlist::to_char(sa) << " ^ " << netlist::to_char(sb);
      }
    }
  }
}

TEST(PackedLogic, MuxMatchesScalarExhaustively) {
  // All 64 (sel, a0, a1) symbol combinations via three rotating phases.
  for (int ps = 0; ps < 4; ++ps) {
    for (int p0 = 0; p0 < 4; ++p0) {
      for (int p1 = 0; p1 < 4; ++p1) {
        const PackedLogic sel = pack_pattern(kAll, ps);
        const PackedLogic a0 = pack_pattern(kAll, p0);
        const PackedLogic a1 = pack_pattern(kAll, p1);
        const PackedLogic out = netlist::packed_mux(sel, a0, a1);
        for (int lane = 0; lane < 64; ++lane) {
          EXPECT_EQ(netlist::packed_get(out, lane),
                    netlist::logic_mux(netlist::packed_get(sel, lane),
                                       netlist::packed_get(a0, lane),
                                       netlist::packed_get(a1, lane)));
        }
      }
    }
  }
}

TEST(PackedLogic, EveryCombinationalCellKindMatchesScalar) {
  // Drives eval_cell_packed against eval_cell for every combinational cell
  // kind over every 4^num_inputs input tuple, checked on all 64 lanes.
  for (int k = 0; k < netlist::kNumCellKinds; ++k) {
    const auto kind = static_cast<netlist::CellKind>(k);
    if (netlist::is_sequential(kind)) continue;
    const int n = netlist::spec(kind).num_inputs;
    const int tuples = 1 << (2 * n);  // 4^n
    for (int t = 0; t < tuples; ++t) {
      std::array<Logic, 4> scalar_in{};
      std::array<PackedLogic, 4> packed_in{};
      for (int i = 0; i < n; ++i) {
        const Logic v = kAll[static_cast<std::size_t>((t >> (2 * i)) & 3)];
        scalar_in[static_cast<std::size_t>(i)] = v;
        // Place the tuple's symbol in every lane, with a rotated decoy in
        // the others so cross-lane leaks are caught.
        packed_in[static_cast<std::size_t>(i)] = netlist::packed_splat(v);
      }
      const Logic expect = netlist::eval_cell(
          kind, std::span<const Logic>(scalar_in.data(),
                                       static_cast<std::size_t>(n)));
      const PackedLogic got = netlist::eval_cell_packed(
          kind, std::span<const PackedLogic>(packed_in.data(),
                                             static_cast<std::size_t>(n)));
      for (int lane = 0; lane < 64; ++lane) {
        ASSERT_EQ(netlist::packed_get(got, lane), expect)
            << netlist::spec(kind).lib_name << " tuple " << t << " lane "
            << lane;
      }
    }
  }
}

// --- wide (256-lane) plane algebra -------------------------------------------

using WidePlanes = netlist::PackedVecT<4>;

TEST(PackedWide, EveryCombinationalCellKindKernelsMatchScalar) {
  // The acceptance truth-table: for every combinational cell kind and every
  // 4^num_inputs input tuple, the generic word-loop kernel and the AVX2
  // kernel (when this CPU has one) must agree lane-wise with the scalar
  // 4-valued evaluator on all 256 lanes. Each lane carries a different
  // tuple so cross-lane leaks are caught in the same pass.
  const netlist::EvalCellW4Fn generic = netlist::eval_cell_w4_generic();
  const netlist::EvalCellW4Fn avx2 = netlist::eval_cell_w4_avx2();
  ASSERT_NE(generic, nullptr);
  if (avx2 == nullptr) {
    std::fprintf(stderr, "note: no AVX2 on this CPU, generic kernel only\n");
  }
  for (int k = 0; k < netlist::kNumCellKinds; ++k) {
    const auto kind = static_cast<netlist::CellKind>(k);
    if (netlist::is_sequential(kind)) continue;
    const int n = netlist::spec(kind).num_inputs;
    const int tuples = 1 << (2 * n);  // 4^n <= 64 (n <= 3)
    for (int base = 0; base < tuples; ++base) {
      // Lane l carries tuple (base + l) % tuples.
      std::array<WidePlanes, 4> in{};
      for (int i = 0; i < n; ++i) {
        for (int lane = 0; lane < 256; ++lane) {
          const int t = (base + lane) % tuples;
          netlist::wide_set(in[static_cast<std::size_t>(i)], lane,
                            kAll[static_cast<std::size_t>((t >> (2 * i)) & 3)]);
        }
      }
      const WidePlanes got_generic =
          generic(kind, in.data(), static_cast<std::size_t>(n));
      for (int lane = 0; lane < 256; ++lane) {
        const int t = (base + lane) % tuples;
        std::array<Logic, 4> scalar_in{};
        for (int i = 0; i < n; ++i) {
          scalar_in[static_cast<std::size_t>(i)] =
              kAll[static_cast<std::size_t>((t >> (2 * i)) & 3)];
        }
        const Logic expect = netlist::eval_cell(
            kind, std::span<const Logic>(scalar_in.data(),
                                         static_cast<std::size_t>(n)));
        ASSERT_EQ(netlist::wide_get(got_generic, lane), expect)
            << netlist::spec(kind).lib_name << " tuple " << t << " lane "
            << lane << " (generic kernel)";
      }
      if (avx2 != nullptr) {
        const WidePlanes got_avx2 =
            avx2(kind, in.data(), static_cast<std::size_t>(n));
        for (int w = 0; w < 4; ++w) {
          ASSERT_EQ(got_avx2.val[static_cast<std::size_t>(w)],
                    got_generic.val[static_cast<std::size_t>(w)])
              << netlist::spec(kind).lib_name << " base " << base << " word "
              << w << " (avx2 val plane)";
          ASSERT_EQ(got_avx2.unk[static_cast<std::size_t>(w)],
                    got_generic.unk[static_cast<std::size_t>(w)])
              << netlist::spec(kind).lib_name << " base " << base << " word "
              << w << " (avx2 unk plane)";
        }
      }
    }
  }
}

TEST(PackedWide, LaneMaskOps) {
  using Mask = netlist::LaneMaskT<4>;
  Mask m = Mask::first_lanes(100);
  EXPECT_EQ(m.count(), 100);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(99));
  EXPECT_FALSE(m.test(100));
  m.reset(0);
  EXPECT_EQ(m.count(), 99);
  EXPECT_EQ(m.lowest(), 1);
  int seen = 0;
  int last = 0;
  netlist::for_each_set_lane(m, [&](int lane) {
    EXPECT_GE(lane, last);  // ascending order
    last = lane;
    ++seen;
  });
  EXPECT_EQ(seen, 99);
  EXPECT_EQ(last, 99);
  const Mask inv = ~m;
  EXPECT_EQ(inv.count(), 256 - 99);
  EXPECT_TRUE((m & inv).none());
  EXPECT_EQ((m | inv).count(), 256);
}

// --- engine-level equivalence ------------------------------------------------

using netlist::NetlistBuilder;
using sim::BitParallelSimulator;
using sim::LevelizedSimulator;
using sim::NetId;
using sim::OutputTrace;
using sim::Testbench;
using sim::TestbenchConfig;

struct RingDesign {
  netlist::Netlist netlist;
  NetId clk, rstn;
  std::vector<NetId> monitored;
  netlist::CellId ff0;
  NetId stage0;
};

RingDesign make_ring() {
  NetlistBuilder b("ring");
  RingDesign d;
  d.clk = b.input("clk");
  d.rstn = b.input("rstn");
  const NetId feedback = b.wire("fb");
  std::vector<NetId> qs(5);
  NetId prev = feedback;
  for (int i = 0; i < 5; ++i) {
    const auto ff = b.dffr(prev, d.clk, d.rstn, "s" + std::to_string(i));
    if (i == 0) {
      d.ff0 = ff.cell;
      d.stage0 = ff.q;
    }
    qs[static_cast<std::size_t>(i)] = ff.q;
    prev = ff.q;
  }
  b.drive(feedback, b.inv(qs[4]));
  const NetId parity = b.xor2(b.xor2(qs[0], qs[2]), qs[4]);
  const NetId gated = b.and2(qs[1], b.inv(qs[3]));
  const NetId mux = b.mux2(qs[0], qs[4], parity);
  b.output(qs[4], "tail");
  b.output(parity, "parity");
  b.output(gated, "gated");
  b.output(mux, "mux");
  d.netlist = b.finish();
  for (const auto& [net, name] : d.netlist.primary_outputs()) {
    d.monitored.push_back(net);
  }
  return d;
}

TestbenchConfig ring_tb_config(const RingDesign& d) {
  TestbenchConfig cfg;
  cfg.clk = d.clk;
  cfg.rstn = d.rstn;
  cfg.monitored = d.monitored;
  cfg.clock_period_ps = 1000;
  return cfg;
}

TEST(BitParallelEngine, ScalarDriveMatchesLevelized) {
  // Driven through the scalar Engine interface only, the packed engine must
  // reproduce the levelized engine's trace exactly (all 64 lanes broadcast).
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);

  LevelizedSimulator level(d.netlist);
  Testbench level_tb(level, cfg);
  level_tb.reset();
  level_tb.run_cycles(30);

  BitParallelSimulator packed(d.netlist);
  Testbench packed_tb(packed, cfg);
  packed_tb.reset();
  packed_tb.run_cycles(30);

  EXPECT_EQ(OutputTrace::first_mismatch(level_tb.trace(), packed_tb.trace()),
            std::nullopt);
}

TEST(BitParallelEngine, SlotFaultMatchesScalarRun) {
  // A fault injected into slot k must evolve exactly like the same fault in
  // a scalar levelized run, while slot 0 stays golden.
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);
  constexpr int kCycles = 24;
  constexpr int kFaultCycle = 9;

  // Scalar reference: an SEU on ff0 mid-run.
  LevelizedSimulator golden(d.netlist);
  Testbench golden_tb(golden, cfg);
  golden_tb.reset();
  golden_tb.run_cycles(kCycles - cfg.reset_cycles);

  LevelizedSimulator faulty(d.netlist);
  Testbench faulty_tb(faulty, cfg);
  faulty_tb.at(kFaultCycle * 1000 + 100, [&](sim::Engine& e) {
    e.deposit_ff(d.ff0, netlist::logic_flip(e.ff_state(d.ff0)));
  });
  faulty_tb.reset();
  faulty_tb.run_cycles(kCycles - cfg.reset_cycles);

  // Packed: same stimulus, fault on slot 7 at the same time.
  BitParallelSimulator packed(d.netlist);
  Testbench packed_tb(packed, cfg);
  packed_tb.at(kFaultCycle * 1000 + 100, [&](sim::Engine&) {
    packed.deposit_ff_slot(
        d.ff0, 7, netlist::logic_flip(packed.ff_state_slot(d.ff0, 7)));
  });
  packed_tb.reset();
  packed_tb.run_cycles(kCycles - cfg.reset_cycles);

  // Slot 0 equals the golden run (the testbench samples lane 0).
  EXPECT_EQ(OutputTrace::first_mismatch(golden_tb.trace(), packed_tb.trace()),
            std::nullopt);
  // The golden and faulty scalar runs disagree somewhere, and slot 7's lane
  // reproduces the faulty scalar value on every monitored net right after
  // the strike (spot check at the end of the run).
  EXPECT_NE(OutputTrace::first_mismatch(golden_tb.trace(), faulty_tb.trace()),
            std::nullopt);
  for (std::size_t j = 0; j < d.monitored.size(); ++j) {
    EXPECT_EQ(packed.value_slot(d.monitored[j], 7),
              faulty.value(d.monitored[j]));
    EXPECT_EQ(packed.value_slot(d.monitored[j], 0),
              golden.value(d.monitored[j]));
  }
  // The flipped bit recirculates in the ring forever: slot 7 stays diverged
  // from the golden lane, and only slot 7.
  EXPECT_EQ(packed.state_diff_from_golden().w[0], std::uint64_t{1} << 7);
}

TEST(BitParallelEngine, StateDiffTracksDivergedLanes) {
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);
  BitParallelSimulator packed(d.netlist);
  Testbench tb(packed, cfg);
  tb.reset();
  tb.run_cycles(6);
  EXPECT_EQ(packed.state_diff_from_golden().w[0], 0u);
  // A forced net marks its lane diverged until released and recaptured.
  packed.force_net_slot(d.stage0, 3, Logic::L1);
  EXPECT_NE(packed.state_diff_from_golden().w[0] & (1ull << 3), 0u);
  packed.release_net_slot(d.stage0, 3);
  EXPECT_EQ(packed.state_diff_from_golden().w[0], 0u);
  // A deposited FF flip diverges the lane's sequential state.
  packed.deposit_ff_slot(
      d.ff0, 5, netlist::logic_flip(packed.ff_state_slot(d.ff0, 5)));
  EXPECT_NE(packed.state_diff_from_golden().w[0] & (1ull << 5), 0u);
}

TEST(BitParallelEngine, SnapshotRestoreRoundTrip) {
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);
  BitParallelSimulator a(d.netlist);
  Testbench tb_a(a, cfg);
  tb_a.reset();
  tb_a.run_cycles(6);
  const auto snapshot = a.save_state();
  EXPECT_TRUE(a.state_matches(*snapshot));

  BitParallelSimulator b(d.netlist);
  b.restore_state(*snapshot);
  Testbench tb_b(b, cfg);
  tb_b.resume_at(tb_a.cycles_run(), tb_a.trace());
  tb_a.run_cycles(16);
  tb_b.run_cycles(16);
  EXPECT_EQ(OutputTrace::first_mismatch(tb_a.trace(), tb_b.trace()),
            std::nullopt);
}

TEST(BitParallelEngine, AsyncResetActsPerLane) {
  NetlistBuilder b("ff");
  const NetId d = b.input("d");
  const NetId clk = b.input("clk");
  const NetId rstn = b.input("rstn");
  const auto ff = b.dffr(d, clk, rstn, "u_ff");
  b.output(ff.q, "q");
  const netlist::Netlist nl = b.finish();
  BitParallelSimulator sim(nl);
  sim.set_input(rstn, Logic::L1);
  sim.set_input(clk, Logic::L0);
  sim.set_input(d, Logic::L1);
  sim.set_input(clk, Logic::L1);
  ASSERT_EQ(sim.value_slot(ff.q, 9), Logic::L1);
  // A reset asserted in one lane clears only that lane, and keeps it clear
  // against a deposit although the reset net did not change.
  sim.force_net_slot(rstn, 9, Logic::L0);
  EXPECT_EQ(sim.value_slot(ff.q, 9), Logic::L0);
  EXPECT_EQ(sim.value_slot(ff.q, 0), Logic::L1);
  sim.deposit_ff_slot(ff.cell, 9, Logic::L1);
  EXPECT_EQ(sim.value_slot(ff.q, 9), Logic::L0);
  // Released, that lane holds its cleared state; an unknown reset level in
  // another lane then makes only that lane unknown.
  sim.release_net_slot(rstn, 9);
  EXPECT_EQ(sim.value_slot(ff.q, 9), Logic::L0);
  sim.force_net_slot(rstn, 17, Logic::X);
  EXPECT_EQ(sim.value_slot(ff.q, 17), Logic::X);
  EXPECT_EQ(sim.value_slot(ff.q, 0), Logic::L1);
}

TEST(BitParallelEngine, ActivitySettleMatchesFullSettle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    testing_support::expect_activity_settle_matches_full_settle<
        BitParallelSimulator>(seed);
  }
}

TEST(BitParallel256Engine, ActivitySettleMatchesFullSettle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    testing_support::expect_activity_settle_matches_full_settle<
        sim::BitParallelSimulator256>(seed);
  }
}

TEST(BitParallel256Engine, ObserverSeesTheGoldenSlotOnly) {
  // Slots 64, 128 and 192 are bit 0 of words 1..3: a change there must not
  // reach the observer, which reports slot 0.
  NetlistBuilder b("chain");
  const NetId a = b.input("a");
  const NetId y = b.buf(b.inv(a));
  b.output(y, "y");
  const netlist::Netlist nl = b.finish();
  sim::BitParallelSimulator256 sim(nl);
  sim.set_input(a, Logic::L0);
  int calls = 0;
  sim.set_observer([&](NetId, std::uint64_t, Logic) { ++calls; });
  for (const int slot : {64, 128, 192}) {
    sim.force_net_slot(a, slot, Logic::L1);
    EXPECT_EQ(sim.value_slot(y, slot), Logic::L0);
  }
  EXPECT_EQ(sim.value_slot(y, 0), Logic::L1);
  EXPECT_EQ(calls, 0);
  // A golden-slot change is reported once per net it reaches.
  sim.force_net_slot(a, 0, Logic::L1);
  EXPECT_EQ(calls, 2);
}

TEST(BitParallel256Engine, HighSlotFaultMatchesScalarRun) {
  // Same contract as SlotFaultMatchesScalarRun, but on the 256-lane engine
  // with the fault in a slot far beyond the first machine word — proving the
  // wide planes keep per-lane independence above lane 63.
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);
  constexpr int kCycles = 24;
  constexpr int kFaultCycle = 9;
  constexpr int kSlot = 200;

  LevelizedSimulator golden(d.netlist);
  Testbench golden_tb(golden, cfg);
  golden_tb.reset();
  golden_tb.run_cycles(kCycles - cfg.reset_cycles);

  LevelizedSimulator faulty(d.netlist);
  Testbench faulty_tb(faulty, cfg);
  faulty_tb.at(kFaultCycle * 1000 + 100, [&](sim::Engine& e) {
    e.deposit_ff(d.ff0, netlist::logic_flip(e.ff_state(d.ff0)));
  });
  faulty_tb.reset();
  faulty_tb.run_cycles(kCycles - cfg.reset_cycles);

  sim::BitParallelSimulator256 packed(d.netlist);
  Testbench packed_tb(packed, cfg);
  packed_tb.at(kFaultCycle * 1000 + 100, [&](sim::Engine&) {
    packed.deposit_ff_slot(
        d.ff0, kSlot,
        netlist::logic_flip(packed.ff_state_slot(d.ff0, kSlot)));
  });
  packed_tb.reset();
  packed_tb.run_cycles(kCycles - cfg.reset_cycles);

  EXPECT_EQ(OutputTrace::first_mismatch(golden_tb.trace(), packed_tb.trace()),
            std::nullopt);
  for (std::size_t j = 0; j < d.monitored.size(); ++j) {
    EXPECT_EQ(packed.value_slot(d.monitored[j], kSlot),
              faulty.value(d.monitored[j]));
    EXPECT_EQ(packed.value_slot(d.monitored[j], 0),
              golden.value(d.monitored[j]));
  }
  // Only the struck lane diverges; the ring recirculates the flip forever.
  auto diff = packed.state_diff_from_golden();
  EXPECT_EQ(diff.count(), 1);
  EXPECT_TRUE(diff.test(kSlot));
}

TEST(BitParallel256Engine, ScalarDriveMatchesLevelized) {
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);

  LevelizedSimulator level(d.netlist);
  Testbench level_tb(level, cfg);
  level_tb.reset();
  level_tb.run_cycles(30);

  sim::BitParallelSimulator256 packed(d.netlist);
  Testbench packed_tb(packed, cfg);
  packed_tb.reset();
  packed_tb.run_cycles(30);

  EXPECT_EQ(OutputTrace::first_mismatch(level_tb.trace(), packed_tb.trace()),
            std::nullopt);
}

TEST(BitParallel256Engine, AdoptGoldenAndSerializationInterop) {
  // A W=1 engine's serialized state round-trips through the W=4 engine's
  // codec path contract: adopt_golden from a levelized run, then save /
  // serialize / deserialize / restore must reproduce the same lane-0 values.
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);
  LevelizedSimulator level(d.netlist);
  Testbench tb(level, cfg);
  tb.reset();
  tb.run_cycles(9);

  sim::BitParallelSimulator256 packed(d.netlist);
  packed.adopt_golden(level);
  EXPECT_TRUE(packed.state_diff_from_golden().none());
  for (const NetId net : d.monitored) {
    EXPECT_EQ(packed.value(net), level.value(net));
    for (const int slot : {1, 63, 64, 128, 255}) {
      EXPECT_EQ(packed.value_slot(net, slot), level.value(net));
    }
  }

  const auto snapshot = packed.save_state();
  util::ByteWriter writer;
  packed.serialize_state(*snapshot, writer);
  util::ByteReader reader(writer.data());
  const auto decoded = packed.deserialize_state(reader);
  sim::BitParallelSimulator256 restored(d.netlist);
  restored.restore_state(*decoded);
  EXPECT_TRUE(restored.state_matches(*snapshot));
  for (const NetId net : d.monitored) {
    EXPECT_EQ(restored.value(net), packed.value(net));
  }
}

// --- campaign determinism ----------------------------------------------------

soc::SocModel small_soc() {
  soc::SocConfig cfg;
  cfg.mem_bytes = 16 * 1024;
  cfg.cpu_isa = "RV32I";
  cfg.bus = soc::BusProtocol::kAhb;
  cfg.bus_width_bits = 64;
  const soc::Workload w = soc::checksum_workload(8);
  const soc::Program programs[] = {soc::assemble(w.source)};
  return soc::build_soc(cfg, programs);
}

fi::CampaignConfig small_campaign(std::uint64_t seed = 17) {
  fi::CampaignConfig cfg;
  cfg.clustering.num_clusters = 5;
  cfg.sampling.fraction = 0.01;
  cfg.sampling.min_per_cluster = 4;
  cfg.sampling.max_per_cluster = 10;
  cfg.sampling.memory_macro_draws = 8;
  cfg.seed = seed;
  return cfg;
}

void expect_records_identical(const fi::CampaignResult& a,
                              const fi::CampaignResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_EQ(ra.event.target.cell, rb.event.target.cell) << "record " << i;
    EXPECT_EQ(ra.event.target.kind, rb.event.target.kind) << "record " << i;
    EXPECT_EQ(ra.event.target.word, rb.event.target.word) << "record " << i;
    EXPECT_EQ(ra.event.target.bit, rb.event.target.bit) << "record " << i;
    EXPECT_EQ(ra.event.time_ps, rb.event.time_ps) << "record " << i;
    EXPECT_EQ(ra.event.set_width_ps, rb.event.set_width_ps) << "record " << i;
    EXPECT_EQ(ra.cluster, rb.cluster) << "record " << i;
    EXPECT_EQ(ra.module_class, rb.module_class) << "record " << i;
    EXPECT_EQ(ra.soft_error, rb.soft_error) << "record " << i;
    EXPECT_EQ(ra.first_mismatch_cycle, rb.first_mismatch_cycle)
        << "record " << i;
  }
  EXPECT_DOUBLE_EQ(a.chip_ser_percent, b.chip_ser_percent);
}

TEST(BitParallelCampaign, RecordsByteIdenticalToLevelized) {
  // The paper-facing guarantee of the word-parallel backend: same seed, same
  // records, bit for bit, against the scalar levelized engine.
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto level = small_campaign(51);
  level.engine = sim::EngineKind::kLevelized;
  auto packed = small_campaign(51);
  packed.engine = sim::EngineKind::kBitParallel;
  expect_records_identical(fi::run_campaign(model, level, db),
                           fi::run_campaign(model, packed, db));
}

TEST(BitParallelCampaign, ByteIdenticalAcrossThreadsAndLaneWidths) {
  // The full identity sweep of the word-batch scheduler: every combination
  // of {1,2,4,8} campaign workers x {64,256} lanes must reproduce the
  // 1-thread levelized records bit for bit. The workload is raised well
  // past 64 injections so 256-lane batches actually populate slots beyond
  // the first machine word, and so multiple checkpoint segments and worker
  // hand-offs occur.
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto big = small_campaign(59);
  big.sampling.fraction = 0.2;
  big.sampling.min_per_cluster = 8;
  big.sampling.max_per_cluster = 64;
  big.sampling.memory_macro_draws = 48;

  auto reference_cfg = big;
  reference_cfg.engine = sim::EngineKind::kLevelized;
  reference_cfg.threads = 1;
  const auto reference = fi::run_campaign(model, reference_cfg, db);
  // Enough volume that a 256-lane batch uses slots above 63.
  ASSERT_GT(reference.records.size(), 100u);

  for (const int threads : {1, 2, 4, 8}) {
    for (const int lanes : {64, 256}) {
      auto cfg = big;
      cfg.engine = sim::EngineKind::kBitParallel;
      cfg.threads = threads;
      cfg.lanes = lanes;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " lanes=" + std::to_string(lanes));
      expect_records_identical(reference, fi::run_campaign(model, cfg, db));
    }
  }
}

TEST(BitParallelCampaign, RejectsInvalidLaneWidth) {
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto cfg = small_campaign(61);
  cfg.engine = sim::EngineKind::kBitParallel;
  cfg.lanes = 128;
  EXPECT_THROW(fi::run_campaign(model, cfg, db), InvalidArgument);
}

TEST(BitParallelCampaign, DeterministicAcrossThreadsAndKnobs) {
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto fast = small_campaign(53);
  fast.engine = sim::EngineKind::kBitParallel;
  fast.threads = 4;
  auto slow = small_campaign(53);
  slow.engine = sim::EngineKind::kBitParallel;
  slow.threads = 1;
  slow.use_checkpoint = false;
  slow.early_exit = false;
  slow.masked_exit = false;
  expect_records_identical(fi::run_campaign(model, fast, db),
                           fi::run_campaign(model, slow, db));
}

}  // namespace
}  // namespace ssresf
