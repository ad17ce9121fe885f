#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "cluster/sampling.h"
#include "radiation/injector.h"
#include "radiation/soft_error_db.h"
#include "soc/run.h"

namespace ssresf::fi {

/// Configuration of a fault-injection campaign (Sec. III-D of the paper).
struct CampaignConfig {
  /// kEvent / kLevelized simulate one injection per run; kBitParallel packs
  /// up to 63 injections plus a golden slot into each 64-lane word batch
  /// (records stay byte-identical to kLevelized — same timing model).
  sim::EngineKind engine = sim::EngineKind::kEvent;
  radiation::Environment environment;      // flux + LET
  cluster::ClusteringConfig clustering;    // KN, LN
  cluster::SamplingConfig sampling{
      .fraction = 0.05,
      .min_per_cluster = 8,
      .max_per_cluster = 64,
      .weighting = cluster::SampleWeighting::kMixed};
  int run_cycles = 0;     // 0: golden run length = cycles-to-halt + margin
  int max_cycles = 4000;  // bound for the golden run
  std::uint64_t seed = 1;

  // --- execution model --------------------------------------------------------
  // Results are bit-identical across all combinations of these knobs: each
  // injection's randomness derives from (seed, global injection index), the
  // checkpoint replays the exact reset + warm-up prefix, and early exit only
  // truncates runs whose outcome is already decided.
  int threads = 1;             // campaign workers; <= 0 picks hardware threads
  /// Lane width of the packed engine's word batches: 64 (one machine word
  /// per plane) or 256 (four words, AVX2-accelerated where the CPU has it;
  /// one golden lane + up to 255 faulty runs per batch). Ignored by the
  /// scalar engines. Execution-only: records are byte-identical at every
  /// width, so it is excluded from campaign_config_digest like `threads`.
  int lanes = 64;
  bool use_checkpoint = true;  // restore golden checkpoints instead of re-running
  bool early_exit = true;      // stop diverged runs after a confirmation window
  int early_exit_confirm_cycles = 8;
  /// Stop a run once the faulty engine state is semantically identical to
  /// the golden checkpoint of the same cycle: from that point the two
  /// futures provably coincide, so healed SEUs and electrically masked SETs
  /// need not simulate to the end of the workload.
  bool masked_exit = true;
  /// Spacing of the golden checkpoint ladder: the golden pass snapshots the
  /// engine every this many cycles across the injection window, and each
  /// faulty run resumes from the last checkpoint before its strike time.
  /// 0 picks a doubling ladder: stride 8 from the warm cycle; whenever it
  /// passes 64 rungs, every other rung is dropped and the stride doubles.
  /// Ladder layout never changes records.
  int checkpoint_stride_cycles = 0;
  /// Execution-side progress hook: invoked after every completed injection
  /// with (done, total) over the subset this process executes. Like the
  /// other execution knobs it never affects records and is excluded from
  /// campaign_config_digest. May be called concurrently from campaign
  /// worker threads — the callee must be thread-safe.
  std::function<void(std::uint64_t done, std::uint64_t total)> progress;
};

/// One injection and its observed outcome.
struct InjectionRecord {
  radiation::FaultEvent event;
  int cluster = 0;
  netlist::ModuleClass module_class = netlist::ModuleClass::kOther;
  bool soft_error = false;
  std::size_t first_mismatch_cycle = 0;  // valid when soft_error

  [[nodiscard]] bool operator==(const InjectionRecord&) const = default;
};

/// Per-cluster soft-error statistics: the propagation ratio measured by
/// injection, the cluster's total cross-section, and the resulting SER.
struct ClusterStats {
  int cluster = 0;
  std::size_t num_cells = 0;
  std::size_t samples = 0;
  std::size_t errors = 0;
  double propagation_ratio = 0.0;  // errors / samples
  double xsect_cm2 = 0.0;          // sum of member cross-sections at the LET
  double ser_percent = 0.0;        // propagation * P(upset in window) * 100
};

/// Per-module-class aggregation (the Memory / Bus / CPU columns of Table I
/// and the groups of Fig. 7).
struct ClassStats {
  std::size_t samples = 0;
  std::size_t errors = 0;
  double xsect_cm2 = 0.0;
  double ser_percent = 0.0;
};

/// Log2-bucketed histogram of soft-error detection latency (cycles from
/// strike to first architectural mismatch). Bucket b counts records with
/// bit_width(first_mismatch_cycle) == b, saturating in the last bucket —
/// integer counters, so accumulation order never changes the result.
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 16;
  std::array<std::uint64_t, kBuckets> counts{};

  void add(std::uint64_t cycles) {
    std::size_t b = 0;
    while (cycles != 0 && b + 1 < kBuckets) {
      cycles >>= 1;
      ++b;
    }
    ++counts[b];
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : counts) n += c;
    return n;
  }
  [[nodiscard]] bool operator==(const LatencyHistogram&) const = default;
};

/// Campaign statistics without the record vector: everything CampaignResult
/// derives from its records, computed instead by streaming aggregation
/// (fi::CampaignAggregator) so peak memory is bounded by one record batch.
/// The double-precision fields are bit-identical to CampaignResult's — both
/// paths accumulate the same order-independent integer counters and reduce
/// them through the one shared stats kernel.
struct CampaignStats {
  std::vector<ClusterStats> clusters;
  std::array<ClassStats, netlist::kModuleClassCount> per_class{};
  std::array<LatencyHistogram, netlist::kModuleClassCount> latency{};
  double chip_ser_percent = 0.0;
  double set_xsect_cm2 = 0.0;
  double seu_xsect_cm2 = 0.0;
  int golden_cycles = 0;
  std::uint64_t clock_period_ps = 0;
  std::uint64_t num_records = 0;
  std::uint64_t num_soft_errors = 0;
  double simulation_seconds = 0.0;
};

struct CampaignResult {
  cluster::ClusteringResult clustering;
  std::vector<InjectionRecord> records;
  std::vector<ClusterStats> clusters;
  std::array<ClassStats, netlist::kModuleClassCount> per_class;  // indexed by ModuleClass
  double chip_ser_percent = 0.0;        // Eq. 2
  double set_xsect_cm2 = 0.0;           // Table I "SET Xsect"
  double seu_xsect_cm2 = 0.0;           // Table I "SEU Xsect"
  int golden_cycles = 0;
  std::uint64_t clock_period_ps = 0;
  double simulation_seconds = 0.0;      // wall-clock spent simulating
};

class RecordSink;

/// Runs the full flow: golden run, clustering, equal-proportion sampling,
/// one fault injection + re-simulation per sampled cell, golden-vs-faulty
/// trace comparison, and SER aggregation per Eq. 2.
[[nodiscard]] CampaignResult run_campaign(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database);

/// Streaming variant: records flow into `sink` in ascending global-index
/// batches instead of being returned, and the statistics come from the
/// streaming aggregator — byte-identical to run_campaign's (see
/// fi/record_store.h for the sink API and the equivalence contract).
[[nodiscard]] CampaignStats run_campaign(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database, RecordSink& sink);

/// Chip-level SER per Eq. 2: the cell-count-weighted mean of cluster SERs.
[[nodiscard]] double chip_ser_percent(const std::vector<ClusterStats>& clusters);

/// Writes per-injection records as the canonical CSV the CI equivalence
/// jobs byte-diff across every execution route (single-process, shards,
/// socket transport, scenario sessions). One format, one implementation.
void write_records_csv(const std::string& path,
                       const std::vector<InjectionRecord>& records);

}  // namespace ssresf::fi
