// Property-based suites: randomly generated netlists swept over seeds, with
// invariants checked on each — structural Verilog write/parse must be a
// lossless round trip, both engines must agree cycle-by-cycle, logic depth
// must bound the critical-path estimate, and clustering must be a stable
// partition.
#include <gtest/gtest.h>

#include "cluster/kcluster.h"
#include "netlist/stats.h"
#include "netlist/verilog.h"
#include "sim/event_sim.h"
#include "sim/levelized_sim.h"
#include "sim/testbench.h"
#include "util/rng.h"

#include "random_design.h"

namespace ssresf {
namespace {

using netlist::Logic;
using netlist::Netlist;
using netlist::NetId;
using testing_support::random_design;
using testing_support::RandomDesign;

class RandomNetlist : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetlist, VerilogRoundTripIsLossless) {
  const RandomDesign d = random_design(GetParam(), GetParam() % 2 == 0);
  const std::string text = netlist::write_verilog(d.netlist);
  const Netlist parsed = netlist::parse_verilog(text);
  EXPECT_EQ(parsed.num_cells(), d.netlist.num_cells());
  EXPECT_EQ(parsed.num_nets(), d.netlist.num_nets());
  EXPECT_EQ(parsed.num_sequential_cells(), d.netlist.num_sequential_cells());
  EXPECT_EQ(parsed.primary_inputs().size(), d.netlist.primary_inputs().size());
  EXPECT_EQ(parsed.primary_outputs().size(),
            d.netlist.primary_outputs().size());
  // Every cell path must resolve in the parsed design with the same kind
  // and module class.
  for (const auto id : d.netlist.all_cells()) {
    const auto path = d.netlist.cell_path(id);
    const auto pid = parsed.find_cell(path);
    ASSERT_TRUE(pid.valid()) << path;
    EXPECT_EQ(parsed.cell(pid).kind, d.netlist.cell(id).kind) << path;
    EXPECT_EQ(parsed.cell_class(pid), d.netlist.cell_class(id)) << path;
  }
  // And a second write must be byte-identical (canonical form).
  EXPECT_EQ(netlist::write_verilog(parsed), text);
}

TEST_P(RandomNetlist, EnginesAgreeCycleByCycle) {
  const RandomDesign d = random_design(GetParam(), GetParam() % 2 == 0);
  sim::EventSimulator event_engine(d.netlist);
  sim::LevelizedSimulator level_engine(d.netlist);
  sim::TestbenchConfig cfg;
  cfg.clk = d.clk;
  cfg.rstn = d.rstn;
  cfg.monitored = d.outputs;
  // Inputs toggle a quarter-period before each sample, so the quarter
  // period must itself cover the critical path (otherwise the event engine
  // correctly samples unsettled logic and diverges from the zero-delay
  // levelized engine).
  cfg.clock_period_ps = static_cast<std::uint64_t>(
      netlist::estimate_critical_path_ps(d.netlist) * 5);
  sim::Testbench tb_event(event_engine, cfg);
  sim::Testbench tb_level(level_engine, cfg);

  util::Rng stim(GetParam() ^ 0xABCD);
  for (int cyc = 0; cyc < 30; ++cyc) {
    for (const NetId in : d.inputs) {
      const Logic v = netlist::from_bool(stim.chance(0.5));
      const std::uint64_t t =
          tb_event.sample_time(static_cast<std::uint64_t>(cyc)) -
          cfg.clock_period_ps / 4;
      tb_event.at(t, [in, v](sim::Engine& e) { e.set_input(in, v); });
      tb_level.at(t, [in, v](sim::Engine& e) { e.set_input(in, v); });
    }
  }
  tb_event.reset();
  tb_level.reset();
  tb_event.run_cycles(24);
  tb_level.run_cycles(24);
  EXPECT_EQ(sim::OutputTrace::first_mismatch(tb_event.trace(),
                                             tb_level.trace()),
            std::nullopt)
      << "seed " << GetParam();
}

TEST_P(RandomNetlist, LogicDepthBoundsCriticalPath) {
  const RandomDesign d = random_design(GetParam(), false);
  const auto depths = netlist::compute_logic_depths(d.netlist);
  int max_depth = 0;
  for (const int v : depths) max_depth = std::max(max_depth, v);
  const auto crit = netlist::estimate_critical_path_ps(d.netlist);
  // Every level contributes at least the fastest cell delay and at most the
  // slowest (memory) delay, plus launch/setup margins.
  EXPECT_GE(crit, 8 * max_depth);
  EXPECT_LE(crit, 70 + 60 * (max_depth + 2));
}

TEST_P(RandomNetlist, ClusteringIsStablePartition) {
  const RandomDesign d = random_design(GetParam(), GetParam() % 2 == 0);
  cluster::ClusteringConfig cfg;
  cfg.num_clusters = 4;
  util::Rng rng_a(GetParam());
  util::Rng rng_b(GetParam());
  const auto a = cluster::cluster_cells(d.netlist, cfg, rng_a);
  const auto b = cluster::cluster_cells(d.netlist, cfg, rng_b);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  std::size_t total = 0;
  for (const auto& c : a.clusters) total += c.size();
  EXPECT_EQ(total, d.netlist.num_cells());
  std::uint64_t weight = 0;
  for (const auto w : a.cluster_weight) weight += w;
  EXPECT_GE(weight, d.netlist.num_cells());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlist,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ssresf
