#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fi/campaign.h"
#include "sim/testbench.h"

/// Internal execution layer of the fault-injection campaign, shared by
/// fi::run_campaign (single process) and the distributed shard runner in
/// fi/shard.h. The split is the backbone of the distribution model:
///
///   prepare_campaign  — everything that must be identical in every
///                       participant: golden run length, clustering,
///                       sampling, the flattened injection plan, and (for
///                       executors) the golden trace + checkpoint ladder,
///                       all from one golden pass. Pure function of
///                       (model, config, database).
///   execute_injections — simulates an arbitrary subset of the plan, keyed
///                       by global injection index. Outcomes depend only on
///                       (seed, index), never on the subset or its order.
///   finalize_campaign — deterministic aggregation of a fully populated
///                       record vector into the CampaignResult.
///
/// Because every phase is deterministic in (model, config, db, index), a
/// campaign executed as N shards in N processes finalizes to a result
/// byte-identical to the single-process run.
namespace ssresf::fi::detail {

/// One entry of the flattened injection plan. The global index i is the
/// entry's position: it names the RNG stream and the record slot, so the
/// outcome of entry i is independent of which worker — thread or process —
/// simulates it and when.
struct PlannedInjection {
  int cluster = 0;
  netlist::CellId cell;
};

/// Engine kind that runs all golden (fault-free) work for `config`: the
/// scalar levelized engine stands in for the bit-parallel engine (identical
/// timing model, 64x smaller snapshots); the other engines are their own
/// golden engine.
[[nodiscard]] inline sim::EngineKind golden_engine_kind(
    const CampaignConfig& config) {
  return config.engine == sim::EngineKind::kBitParallel
             ? sim::EngineKind::kLevelized
             : config.engine;
}

struct CampaignPrep {
  cluster::ClusteringResult clustering;
  std::vector<PlannedInjection> plan;
  std::vector<double> cell_xsects;  // per cell, at the campaign LET
  int run_cycles = 0;               // post-reset workload length
  std::uint64_t clock_period_ps = 0;
  std::uint64_t window_ps = 0;  // run_cycles * period
  std::uint64_t t0 = 0;         // earliest strike time
  std::uint64_t t1 = 0;         // latest strike time
  sim::TestbenchConfig tb_config;
  int total_cycles = 0;  // reset + run_cycles, every faulty timeline's span

  // Execution-only members (empty when prepared with for_execution=false):
  // the golden reference trace and the checkpoint ladder.
  sim::OutputTrace golden_trace;
  struct Rung {
    int cycle = 0;
    std::unique_ptr<sim::EngineState> state;
  };
  std::vector<Rung> ladder;
};

/// One golden pass (halt search, then trace and checkpoint ladder), then
/// clustering, sampling and the plan.
/// `for_execution=false` stops the golden pass at the halt (and skips it
/// when config.run_cycles is fixed): no trace, no ladder — sufficient for
/// planning and for merging shard records, where no injection is simulated.
[[nodiscard]] CampaignPrep prepare_campaign(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database, bool for_execution);

/// Simulates the plan entries whose global indices are listed in `owned`
/// (ascending, no duplicates), writing records[i] for each; other slots are
/// left untouched. Honors config.threads within this process.
void execute_injections(const soc::SocModel& model,
                        const CampaignConfig& config, const CampaignPrep& prep,
                        std::span<const std::size_t> owned,
                        std::vector<InjectionRecord>& records);

/// Aggregates fully populated records (one per plan entry) into the final
/// result. Consumes the prep's clustering/xsect tables.
[[nodiscard]] CampaignResult finalize_campaign(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database, CampaignPrep&& prep,
    std::vector<InjectionRecord>&& records);

/// Order-independent integer counters a record stream folds into — the sole
/// input (besides the prep tables) of the stats kernel below. Integer
/// accumulation commutes, so any arrival order (threads, shards, socket
/// workers) produces the same counters and therefore bit-identical doubles.
struct StatsCounters {
  std::span<const std::size_t> cluster_samples;  // one per cluster
  std::span<const std::size_t> cluster_errors;   // one per cluster
  std::span<const std::size_t> class_samples;    // kModuleClassCount
  std::span<const std::size_t> class_errors;     // kModuleClassCount
};

/// The one stats kernel: reduces counters to per-cluster / per-class /
/// chip-level statistics (Eq. 2, Table I). finalize_campaign and the
/// streaming fi::CampaignAggregator both call this, which is what makes
/// "streaming stats == vector stats" structural rather than coincidental.
/// Fills everything except records/clustering/latency/timing bookkeeping.
[[nodiscard]] CampaignStats compute_campaign_stats(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database,
    const cluster::ClusteringResult& clustering,
    std::span<const double> cell_xsects, std::uint64_t window_ps,
    const StatsCounters& counters);

}  // namespace ssresf::fi::detail
