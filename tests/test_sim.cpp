// Simulator semantics tests: event scheduling, inertial filtering, DFF and
// reset behaviour, X propagation, forcing (SET), deposits (SEU), memory
// macros, testbench sampling, engine equivalence, and the VCD writer.
#include <gtest/gtest.h>

#include <sstream>

#include "netlist/builder.h"
#include "sim/event_sim.h"
#include "sim/levelized_sim.h"
#include "sim/injection.h"
#include "sim/testbench.h"
#include "sim/vcd.h"
#include "util/error.h"
#include "util/rng.h"

#include "settle_differential.h"

namespace ssresf::sim {
namespace {

using netlist::CellKind;
using netlist::MemoryInfo;
using netlist::NetlistBuilder;

struct InvChain {
  Netlist netlist;
  NetId in;
  NetId out;
};

InvChain make_inv_chain(int n) {
  NetlistBuilder b("chain");
  const NetId in = b.input("in");
  NetId x = in;
  for (int i = 0; i < n; ++i) x = b.inv(x);
  b.output(x, "out");
  return {b.finish(), in, x};
}

TEST(EventSim, PropagatesThroughInverterChain) {
  auto c = make_inv_chain(4);
  EventSimulator sim(c.netlist);
  sim.set_input(c.in, Logic::L0);
  sim.advance_to(1000);
  EXPECT_EQ(sim.value(c.out), Logic::L0);
  sim.set_input(c.in, Logic::L1);
  // Before the propagation delay has elapsed the output still holds.
  sim.advance_to(sim.now() + 1);
  EXPECT_EQ(sim.value(c.out), Logic::L0);
  sim.advance_to(sim.now() + 1000);
  EXPECT_EQ(sim.value(c.out), Logic::L1);
}

TEST(EventSim, InertialFilteringMasksNarrowPulse) {
  // A pulse narrower than the gate delay is swallowed by the first gate.
  auto c = make_inv_chain(2);
  EventSimulator sim(c.netlist);
  sim.set_input(c.in, Logic::L0);
  sim.advance_to(1000);
  const Logic settled = sim.value(c.out);
  std::uint64_t changes = 0;
  sim.set_observer([&](NetId net, std::uint64_t, Logic) {
    if (net == c.out) ++changes;
  });
  sim.set_input(c.in, Logic::L1);
  sim.advance_to(1002);  // 2 ps — narrower than the 8 ps inverter delay
  sim.set_input(c.in, Logic::L0);
  sim.advance_to(2000);
  EXPECT_EQ(sim.value(c.out), settled);
  EXPECT_EQ(changes, 0u) << "narrow glitch leaked through";
}

TEST(EventSim, WidePulsePropagates) {
  auto c = make_inv_chain(2);
  EventSimulator sim(c.netlist);
  sim.set_input(c.in, Logic::L0);
  sim.advance_to(1000);
  std::uint64_t changes = 0;
  sim.set_observer([&](NetId net, std::uint64_t, Logic) {
    if (net == c.out) ++changes;
  });
  sim.set_input(c.in, Logic::L1);
  sim.advance_to(1100);
  sim.set_input(c.in, Logic::L0);
  sim.advance_to(2000);
  EXPECT_EQ(changes, 2u);  // rise and fall both arrive
}

struct DffDesign {
  Netlist netlist;
  NetId d, clk, rstn, q, qn;
  netlist::CellId ff;
};

DffDesign make_dff() {
  NetlistBuilder b("ff");
  const NetId d = b.input("d");
  const NetId clk = b.input("clk");
  const NetId rstn = b.input("rstn");
  auto ff = b.dffr(d, clk, rstn, "u_ff");
  b.output(ff.q, "q");
  b.output(ff.qn, "qn");
  DffDesign out{b.finish(), d, clk, rstn, ff.q, ff.qn, ff.cell};
  return out;
}

TEST(EventSim, DffCapturesOnRisingEdgeOnly) {
  auto d = make_dff();
  EventSimulator sim(d.netlist);
  sim.set_input(d.rstn, Logic::L1);
  sim.set_input(d.clk, Logic::L0);
  sim.set_input(d.d, Logic::L1);
  sim.advance_to(100);
  EXPECT_EQ(sim.value(d.q), Logic::X);  // never clocked, no reset applied
  sim.set_input(d.clk, Logic::L1);      // rising edge
  sim.advance_to(200);
  EXPECT_EQ(sim.value(d.q), Logic::L1);
  EXPECT_EQ(sim.value(d.qn), Logic::L0);
  sim.set_input(d.d, Logic::L0);
  sim.advance_to(300);
  EXPECT_EQ(sim.value(d.q), Logic::L1);  // D change alone does nothing
  sim.set_input(d.clk, Logic::L0);       // falling edge: no capture
  sim.advance_to(400);
  EXPECT_EQ(sim.value(d.q), Logic::L1);
}

TEST(EventSim, AsyncResetClearsAndDominates) {
  auto d = make_dff();
  EventSimulator sim(d.netlist);
  sim.set_input(d.clk, Logic::L0);
  sim.set_input(d.d, Logic::L1);
  sim.set_input(d.rstn, Logic::L0);  // async clear, no clock needed
  sim.advance_to(100);
  EXPECT_EQ(sim.value(d.q), Logic::L0);
  sim.set_input(d.clk, Logic::L1);  // edge during reset: stays 0
  sim.advance_to(200);
  EXPECT_EQ(sim.value(d.q), Logic::L0);
  sim.set_input(d.clk, Logic::L0);
  sim.set_input(d.rstn, Logic::L1);
  sim.advance_to(300);
  sim.set_input(d.clk, Logic::L1);  // now captures
  sim.advance_to(400);
  EXPECT_EQ(sim.value(d.q), Logic::L1);
}

TEST(EventSim, DepositFlipsStateUntilNextCapture) {
  auto d = make_dff();
  EventSimulator sim(d.netlist);
  sim.set_input(d.clk, Logic::L0);
  sim.set_input(d.rstn, Logic::L1);
  sim.set_input(d.d, Logic::L0);
  sim.set_input(d.clk, Logic::L1);
  sim.advance_to(100);
  EXPECT_EQ(sim.value(d.q), Logic::L0);

  // SEU: flip the stored bit.
  InjectionPort port(sim);
  port.deposit(d.ff, Logic::L1);
  sim.advance_to(150);
  EXPECT_EQ(sim.value(d.q), Logic::L1);
  EXPECT_EQ(sim.value(d.qn), Logic::L0);
  EXPECT_EQ(sim.ff_state(d.ff), Logic::L1);

  // Next rising edge recaptures D and heals the upset.
  sim.set_input(d.clk, Logic::L0);
  sim.advance_to(200);
  sim.set_input(d.clk, Logic::L1);
  sim.advance_to(300);
  EXPECT_EQ(sim.value(d.q), Logic::L0);
}

TEST(EventSim, ForceAndReleaseModelSet) {
  auto c = make_inv_chain(3);
  EventSimulator sim(c.netlist);
  sim.set_input(c.in, Logic::L0);
  sim.advance_to(1000);
  EXPECT_EQ(sim.value(c.out), Logic::L1);
  // Force an internal net: the first inverter's output.
  const NetId mid = c.netlist.cell(netlist::CellId{0}).outputs[0];
  sim.force_net(mid, Logic::L0);
  sim.advance_to(2000);
  EXPECT_EQ(sim.value(c.out), Logic::L0);
  // While forced, driver changes are hidden.
  sim.set_input(c.in, Logic::L1);
  sim.advance_to(3000);
  EXPECT_EQ(sim.value(c.out), Logic::L0);
  // Release: the driven value (inv of 1 = 0) reappears -> out = 1... wait,
  // the forced value already equals the driven value now, so no change.
  sim.release_net(mid);
  sim.advance_to(4000);
  EXPECT_EQ(sim.value(c.out), Logic::L0);
  sim.set_input(c.in, Logic::L0);
  sim.advance_to(5000);
  EXPECT_EQ(sim.value(c.out), Logic::L1);
}

TEST(EventSim, XPropagatesAndResolves) {
  NetlistBuilder b("x");
  const NetId a = b.input("a");
  const NetId c = b.input("c");
  const NetId y = b.and2(a, c);
  const NetId z = b.or2(a, c);
  b.output(y, "y");
  b.output(z, "z");
  const Netlist nl = b.finish();
  EventSimulator sim(nl);
  sim.set_input(a, Logic::L0);
  sim.advance_to(100);
  EXPECT_EQ(sim.value(y), Logic::L0);  // 0 & X = 0
  EXPECT_EQ(sim.value(z), Logic::X);   // 0 | X = X
  sim.set_input(c, Logic::L1);
  sim.advance_to(200);
  EXPECT_EQ(sim.value(y), Logic::L0);
  EXPECT_EQ(sim.value(z), Logic::L1);
}

struct MemDesign {
  Netlist netlist;
  NetId clk, we;
  std::vector<NetId> raddr, waddr, wdata, rdata;
  netlist::CellId mem;
};

MemDesign make_mem() {
  NetlistBuilder b("m");
  MemDesign d;
  d.clk = b.input("clk");
  d.we = b.input("we");
  d.raddr = b.input_bus("raddr", 3);
  d.waddr = b.input_bus("waddr", 3);
  d.wdata = b.input_bus("wdata", 8);
  MemoryInfo info;
  info.words = 8;
  info.width = 8;
  info.init = {10, 20, 30, 40, 50, 60, 70, 80};
  auto m = b.memory(std::move(info), d.clk, b.one(), d.we, d.raddr, d.waddr,
                    d.wdata, "u_mem");
  d.rdata = m.rdata;
  d.mem = m.cell;
  b.output_bus(d.rdata, "rdata");
  d.netlist = b.finish();
  return d;
}

void set_bus(Engine& sim, const std::vector<NetId>& bus, std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    sim.set_input(bus[i], netlist::from_bool((value >> i) & 1));
  }
}

std::uint64_t get_bus(const Engine& sim, const std::vector<NetId>& bus) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    EXPECT_TRUE(netlist::is_known(sim.value(bus[i])));
    if (sim.value(bus[i]) == Logic::L1) v |= std::uint64_t{1} << i;
  }
  return v;
}

TEST(EventSim, MemoryAsyncReadSyncWrite) {
  auto d = make_mem();
  EventSimulator sim(d.netlist);
  sim.set_input(d.clk, Logic::L0);
  sim.set_input(d.we, Logic::L0);
  set_bus(sim, d.raddr, 2);
  set_bus(sim, d.waddr, 2);
  set_bus(sim, d.wdata, 99);
  sim.advance_to(1000);
  EXPECT_EQ(get_bus(sim, d.rdata), 30u);  // init contents
  // WE low: clock edge does not write.
  sim.set_input(d.clk, Logic::L1);
  sim.advance_to(2000);
  EXPECT_EQ(get_bus(sim, d.rdata), 30u);
  // Write 99 at address 2.
  sim.set_input(d.clk, Logic::L0);
  sim.set_input(d.we, Logic::L1);
  sim.advance_to(3000);
  sim.set_input(d.clk, Logic::L1);
  sim.advance_to(4000);
  EXPECT_EQ(get_bus(sim, d.rdata), 99u);
  EXPECT_EQ(sim.read_mem_word(d.mem, 2), 99u);
  // Async read: address change re-reads without a clock.
  sim.set_input(d.clk, Logic::L0);
  sim.set_input(d.we, Logic::L0);
  set_bus(sim, d.raddr, 7);
  sim.advance_to(5000);
  EXPECT_EQ(get_bus(sim, d.rdata), 80u);
  // Direct bit flip through the injection port (memory SEU).
  InjectionPort port(sim);
  port.flip_mem_bit(d.mem, 7, 4);  // 80 ^ 16 = 64
  sim.advance_to(6000);
  EXPECT_EQ(get_bus(sim, d.rdata), 64u);
}

TEST(LevelizedSim, MatchesMemorySemantics) {
  auto d = make_mem();
  LevelizedSimulator sim(d.netlist);
  sim.set_input(d.clk, Logic::L0);
  sim.set_input(d.we, Logic::L1);
  set_bus(sim, d.raddr, 5);
  set_bus(sim, d.waddr, 5);
  set_bus(sim, d.wdata, 123);
  EXPECT_EQ(get_bus(sim, d.rdata), 60u);
  sim.set_input(d.clk, Logic::L1);
  EXPECT_EQ(get_bus(sim, d.rdata), 123u);
}

TEST(LevelizedSim, AsyncResetIsLevelSensitive) {
  auto d = make_dff();
  LevelizedSimulator sim(d.netlist);
  sim.set_input(d.rstn, Logic::L1);
  sim.set_input(d.clk, Logic::L0);
  sim.set_input(d.d, Logic::L1);
  sim.set_input(d.clk, Logic::L1);
  ASSERT_EQ(sim.value(d.q), Logic::L1);
  // An unknown reset level makes a set flip-flop unknown, without a clock.
  sim.set_input(d.rstn, Logic::X);
  EXPECT_EQ(sim.value(d.q), Logic::X);
  // An asserted reset clears it and keeps it clear: a deposit is undone by
  // the settle that follows it, although the reset net did not change.
  sim.set_input(d.rstn, Logic::L0);
  EXPECT_EQ(sim.value(d.q), Logic::L0);
  sim.deposit_ff(d.ff, Logic::L1);
  EXPECT_EQ(sim.value(d.q), Logic::L0);
  EXPECT_EQ(sim.value(d.qn), Logic::L1);
  // Released, the flip-flop holds whatever it is given until a capture.
  sim.set_input(d.rstn, Logic::L1);
  sim.deposit_ff(d.ff, Logic::L1);
  EXPECT_EQ(sim.value(d.q), Logic::L1);
}

TEST(LevelizedSim, ActivitySettleMatchesFullSettle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    testing_support::expect_activity_settle_matches_full_settle<
        LevelizedSimulator>(seed);
  }
}

TEST(Engines, RandomSequentialEquivalence) {
  // A small random sequential design driven identically on both engines must
  // produce identical sampled traces.
  NetlistBuilder b("rand");
  util::Rng rng(2024);
  const NetId clk = b.input("clk");
  const NetId rstn = b.input("rstn");
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(b.input("i" + std::to_string(i)));
  std::vector<NetId> pool = ins;
  std::vector<NetId> ffq;
  for (int g = 0; g < 60; ++g) {
    const auto pick = [&] {
      return pool[static_cast<std::size_t>(rng.below(pool.size()))];
    };
    const int kind = static_cast<int>(rng.below(6));
    NetId out;
    switch (kind) {
      case 0:
        out = b.and2(pick(), pick());
        break;
      case 1:
        out = b.or2(pick(), pick());
        break;
      case 2:
        out = b.xor2(pick(), pick());
        break;
      case 3:
        out = b.inv(pick());
        break;
      case 4:
        out = b.mux2(pick(), pick(), pick());
        break;
      default: {
        auto ff = b.dffr(pick(), clk, rstn);
        out = ff.q;
        ffq.push_back(ff.q);
        break;
      }
    }
    pool.push_back(out);
  }
  for (int i = 0; i < 8; ++i) {
    b.output(pool[pool.size() - 1 - static_cast<std::size_t>(i)],
             "o" + std::to_string(i));
  }
  const Netlist nl = b.finish();

  std::vector<NetId> monitored;
  for (const auto& [net, name] : nl.primary_outputs()) monitored.push_back(net);

  EventSimulator event_sim(nl);
  LevelizedSimulator level_sim(nl);
  TestbenchConfig cfg;
  cfg.clk = clk;
  cfg.rstn = rstn;
  cfg.monitored = monitored;
  Testbench tb_event(event_sim, cfg);
  Testbench tb_level(level_sim, cfg);

  // Drive the same random input stimulus on both.
  util::Rng stim(7);
  for (int cyc = 0; cyc < 50; ++cyc) {
    for (const NetId in : ins) {
      const Logic v = netlist::from_bool(stim.chance(0.5));
      tb_event.at(tb_event.sample_time(static_cast<std::uint64_t>(cyc)) - 400,
                  [in, v](Engine& e) { e.set_input(in, v); });
      tb_level.at(tb_level.sample_time(static_cast<std::uint64_t>(cyc)) - 400,
                  [in, v](Engine& e) { e.set_input(in, v); });
    }
  }
  tb_event.reset();
  tb_level.reset();
  tb_event.run_cycles(44);
  tb_level.run_cycles(44);
  EXPECT_EQ(OutputTrace::first_mismatch(tb_event.trace(), tb_level.trace()),
            std::nullopt);
}

TEST(Testbench, SamplesOncePerCycleAndTracksCycles) {
  auto d = make_dff();
  EventSimulator sim(d.netlist);
  TestbenchConfig cfg;
  cfg.clk = d.clk;
  cfg.rstn = d.rstn;
  cfg.monitored = {d.q};
  Testbench tb(sim, cfg);
  tb.reset();
  tb.run_cycles(10);
  EXPECT_EQ(tb.trace().num_cycles(), 14u);  // 4 reset + 10
  EXPECT_EQ(tb.cycles_run(), 14u);
}

TEST(Trace, MismatchDetection) {
  OutputTrace a({NetId{0}});
  OutputTrace b({NetId{0}});
  a.append_cycle({Logic::L0});
  b.append_cycle({Logic::L0});
  EXPECT_EQ(OutputTrace::first_mismatch(a, b), std::nullopt);
  a.append_cycle({Logic::L1});
  b.append_cycle({Logic::L0});
  EXPECT_EQ(OutputTrace::first_mismatch(a, b), 1u);
  EXPECT_EQ(OutputTrace::mismatch_count(a, b), 1u);
  // Length mismatch counts as divergence at the common length.
  b.append_cycle({Logic::L0});
  EXPECT_EQ(OutputTrace::mismatch_count(a, b), 2u);
}

TEST(Vcd, EmitsHeaderAndChanges) {
  auto c = make_inv_chain(1);
  EventSimulator sim(c.netlist);
  std::ostringstream out;
  VcdWriter vcd(out, c.netlist, {c.in, c.out});
  vcd.attach(sim);
  sim.set_input(c.in, Logic::L0);
  sim.advance_to(100);
  sim.set_input(c.in, Logic::L1);
  sim.advance_to(200);
  vcd.finish();
  const std::string text = out.str();
  EXPECT_NE(text.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 ! in $end"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("1!"), std::string::npos);  // rising change on 'in'
}

TEST(Engines, InjectionApisValidateTargets) {
  auto c = make_inv_chain(1);
  EventSimulator sim(c.netlist);
  EXPECT_THROW(sim.deposit_ff(netlist::CellId{0}, Logic::L1), InvalidArgument);
  EXPECT_THROW((void)sim.read_mem_word(netlist::CellId{0}, 0), InvalidArgument);
  auto d = make_mem();
  EventSimulator msim(d.netlist);
  EXPECT_THROW((void)msim.read_mem_word(d.mem, 100), InvalidArgument);
}

}  // namespace
}  // namespace ssresf::sim
