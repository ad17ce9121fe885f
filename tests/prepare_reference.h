// Reference campaign preparation for the checkpoint tests: the two-pass
// prepare_campaign as it stood before the one golden pass, kept verbatim as
// an oracle. It simulates the fault-free SoC twice — SocRunner::run_until_halt
// to learn the run length, then a replay from power-on for the golden trace
// and the checkpoint ladder (auto stride max(8, total/32)) — and clusters and
// samples in between. The library's single pass must resolve the same run
// length, strike window, plan and golden trace, and its records must not
// depend on where its ladder rungs sit.
#pragma once

#include <algorithm>
#include <cstdint>

#include "fi/campaign_exec.h"
#include "util/logging.h"

namespace ssresf::testing_support {

namespace reference_detail {

inline double cell_xsect(const netlist::Netlist& netlist,
                         const radiation::SoftErrorDatabase& db,
                         netlist::CellId id, double let) {
  const netlist::Cell& cell = netlist.cell(id);
  if (cell.kind == netlist::CellKind::kConst0 ||
      cell.kind == netlist::CellKind::kConst1) {
    return 0.0;
  }
  if (cell.kind == netlist::CellKind::kMemory) {
    const auto& mi = netlist.memory(cell.memory_index);
    return db.mem_bit_xsect(mi.tech, let) *
           static_cast<double>(mi.total_bits());
  }
  return db.cell_xsect(cell.kind, let);
}

}  // namespace reference_detail

inline fi::detail::CampaignPrep reference_prepare_campaign(
    const soc::SocModel& model, const fi::CampaignConfig& config,
    const radiation::SoftErrorDatabase& db, bool for_execution) {
  using fi::detail::CampaignPrep;
  using netlist::CellId;
  util::Rng rng(config.seed);
  util::Rng cluster_rng = rng.fork();
  util::Rng sample_rng = rng.fork();

  CampaignPrep prep;
  prep.clock_period_ps = soc::pick_clock_period(model.netlist);
  const sim::EngineKind golden_kind = fi::detail::golden_engine_kind(config);

  // --- golden run -----------------------------------------------------------
  soc::SocRunner golden(model, golden_kind, prep.clock_period_ps);
  golden.reset();
  int run_cycles = config.run_cycles;
  if (run_cycles == 0) {
    golden.run_until_halt(config.max_cycles);
    if (!golden.halted()) {
      SSRESF_WARN << "golden run did not halt within " << config.max_cycles
                  << " cycles";
    }
    run_cycles = static_cast<int>(golden.testbench().cycles_run()) + 8;
  }
  prep.run_cycles = run_cycles;

  // --- clustering + sampling ------------------------------------------------
  prep.clustering =
      cluster::cluster_cells(model.netlist, config.clustering, cluster_rng);
  const double let = config.environment.let;
  prep.cell_xsects.assign(model.netlist.num_cells(), 0.0);
  for (const CellId id : model.netlist.all_cells()) {
    prep.cell_xsects[id.index()] =
        reference_detail::cell_xsect(model.netlist, db, id, let);
  }
  const auto samples =
      cluster::sample_clusters(model.netlist, prep.clustering, config.sampling,
                               sample_rng, prep.cell_xsects);

  // --- injection plan -------------------------------------------------------
  const std::uint64_t period = prep.clock_period_ps;
  prep.window_ps = static_cast<std::uint64_t>(run_cycles) * period;
  prep.t0 = 5 * period;
  prep.t1 = prep.window_ps * 3 / 4;
  for (const cluster::ClusterSample& cs : samples) {
    for (const CellId cell : cs.cells) prep.plan.push_back({cs.cluster, cell});
  }

  prep.tb_config.clk = model.clk;
  prep.tb_config.rstn = model.rstn;
  prep.tb_config.monitored = model.monitored;
  prep.tb_config.clock_period_ps = period;
  prep.total_cycles = prep.tb_config.reset_cycles + run_cycles;

  if (!for_execution) return prep;

  // --- golden replay with the checkpoint ladder -----------------------------
  const int warm_cycles = static_cast<int>(std::min<std::uint64_t>(
      prep.t0 / period, static_cast<std::uint64_t>(prep.total_cycles)));
  const int stride = config.checkpoint_stride_cycles > 0
                         ? config.checkpoint_stride_cycles
                         : std::max(8, prep.total_cycles / 32);
  const auto master = sim::make_engine(golden_kind, model.netlist);
  sim::Testbench golden_tb(*master, prep.tb_config);
  golden_tb.reset();
  int golden_done = prep.tb_config.reset_cycles;
  const bool ladder_usable =
      (config.use_checkpoint || config.masked_exit) &&
      warm_cycles >= prep.tb_config.reset_cycles;
  const auto maybe_snapshot = [&]() {
    const std::uint64_t cycle_start_ps =
        static_cast<std::uint64_t>(golden_done) * period;
    if (ladder_usable && golden_done < prep.total_cycles &&
        (config.masked_exit || cycle_start_ps <= prep.t1)) {
      prep.ladder.push_back({golden_done, master->save_state()});
    }
  };
  if (warm_cycles > golden_done) {
    golden_tb.run_cycles(warm_cycles - golden_done);
    golden_done = warm_cycles;
  }
  maybe_snapshot();
  while (golden_done < prep.total_cycles) {
    const int step = std::min(stride, prep.total_cycles - golden_done);
    golden_tb.run_cycles(step);
    golden_done += step;
    maybe_snapshot();
  }
  prep.golden_trace = golden_tb.trace();
  return prep;
}

}  // namespace ssresf::testing_support
