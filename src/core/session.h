#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/model_io.h"
#include "core/scenario.h"
#include "core/ssresf.h"

namespace ssresf::core {

/// One progress event from a Session stage. Counted events carry
/// (completed, total); lifecycle events (started / loaded / saved / done)
/// carry a message and leave total at 0.
struct StageProgress {
  std::string stage;  // simulate | build_dataset | tune | train | predict
  std::uint64_t completed = 0;
  std::uint64_t total = 0;  // 0 = indeterminate (lifecycle event)
  std::string message;      // nonempty on lifecycle events
};

struct SessionOptions {
  /// Directory for the stage artifacts (<name>.ssfs / .ssds / .ssmd).
  /// Empty: the session is purely in-memory — nothing is read or written.
  std::string artifact_dir;
  /// Reuse digest-matching artifacts found in artifact_dir instead of
  /// recomputing the stage. An artifact bound to a *different* campaign
  /// digest is rejected loudly (InvalidArgument), never silently recomputed:
  /// stale artifacts must be deleted deliberately.
  bool resume = true;
  /// Simulate-stage workers. 0 (default) inherits the scenario config's
  /// `threads`; < 0 picks hardware threads; > 0 overrides.
  int threads = 0;
  /// Packed-engine lane width for the simulate stage: 64 or 256 overrides,
  /// 0 (default) inherits the scenario config's `lanes`. Execution-only —
  /// records are byte-identical at every width (fi::CampaignConfig::lanes).
  int lanes = 0;
  /// On-disk format of the records artifact (<name>.ssfs): 1 = the flat v1
  /// shard codec, 2 = the chunked columnar v2 store (per-chunk CRC, bounded-
  /// memory read-back). Read side is version-agnostic — resume accepts
  /// either, whatever this is set to. Records are identical in both.
  int record_format = 1;
  /// Progress hook for all five stages. The simulate stage forwards the
  /// campaign's per-injection counter; hooks may be invoked from campaign
  /// worker threads (thread-safe callee required).
  std::function<void(const StageProgress&)> progress;
  /// When nonempty, train() also writes the bundle into this directory as
  /// <scenario>.ssmd (atomically, so a watching serve/ModelRegistry never
  /// sees a torn file) — the "publish into the model registry" hand-off of
  /// `ssresf train --publish DIR`. Applies to freshly trained AND
  /// resume-loaded bundles: re-running train with --publish is the
  /// deliberate way to (re)stage an existing model for serving.
  std::string publish_dir;

  // --- simulate-stage delegation (socket transport) -------------------------
  /// >= 0: simulate() does no local injection work — it serves the scenario's
  /// campaign on this TCP port (0 = ephemeral) and collects records from
  /// `ssresf worker` processes, as `ssresf serve` does. Requires a
  /// scenario-built model (the workers rebuild it from the spec and
  /// digest-check it).
  int serve_port = -1;
  bool serve_loopback_only = true;
  std::uint64_t serve_chunk_injections = 0;  // 0 = plan/64
  /// 0 inherits the scenario's fleet.worker_timeout; > 0 overrides it.
  double worker_timeout_seconds = 0.0;
  /// Coordinator dispatch journal (.ssjl) for crash/failover recovery
  /// ("" = none). See net/journal.h.
  std::string serve_journal;
  /// Invoked with the bound port once the coordinator is listening (spawn or
  /// announce workers from here; simulate() then blocks until completion).
  std::function<void(std::uint16_t port)> on_serving;
  /// Invoked with the fleet health table (net::FleetMonitor::status_table)
  /// when a served campaign finishes — `ssresf serve --fleet-status`.
  std::function<void(const std::string&)> on_fleet_status;
};

/// Whole-netlist classification output of the predict stage.
struct SessionPrediction {
  std::vector<netlist::CellId> cells;  // every injectable cell, id order
  std::vector<int> labels;             // +1 / -1 per cell
  /// Percentage of cells predicted highly sensitive per module class.
  std::array<double, netlist::kModuleClassCount> class_percent{};
  double predict_seconds = 0.0;
};

/// Writes the predict-stage output as a deterministic CSV
/// (cell,path,module_class,prediction) — byte-identical for identical
/// models, which is what the CI scenario-equivalence job diffs.
void write_predictions_csv(const std::string& path, const soc::SocModel& model,
                           const SessionPrediction& prediction);

/// The staged SSRESF pipeline (Pipeline API v2). Replaces the one-shot
/// core::run_pipeline with five explicit, resumable stages
///
///   simulate -> build_dataset -> tune -> train -> predict
///
/// each producing a versioned, digest-bound artifact when artifact_dir is
/// set:
///
///   simulate       -> <name>.ssfs  (campaign records, the 1/1-shard codec)
///   build_dataset  -> <name>.ssds  (labeled raw node features)
///   tune + train   -> <name>.ssmd  (SVM + scaler + feature mask + digest)
///
/// Calling any stage runs its missing prerequisites first, so
/// `session.predict()` alone executes the whole flow. With resume on, a
/// stage whose artifact already exists loads it instead (digest
/// cross-checked against fi::campaign_config_digest of this session's
/// (model, config)) — a fresh process can continue exactly where a previous
/// one stopped, or serve predictions from a model trained on another host.
/// All stages are deterministic in (scenario, database), so two sessions of
/// the same scenario produce bit-identical artifacts and predictions on any
/// host, with any thread count, and through any simulate-stage transport.
class Session {
 public:
  /// Builds the SoC from the scenario's model section.
  Session(ScenarioSpec spec, const radiation::SoftErrorDatabase& database,
          SessionOptions options = {});
  /// Uses a caller-provided model (the run_pipeline compatibility path).
  /// Serve delegation is unavailable: workers could not rebuild this model.
  Session(soc::SocModel model, ScenarioSpec spec,
          const radiation::SoftErrorDatabase& database,
          SessionOptions options = {});

  [[nodiscard]] const ScenarioSpec& scenario() const { return spec_; }
  [[nodiscard]] const soc::SocModel& model() const { return model_; }
  /// fi::campaign_config_digest of this session — the binding every
  /// artifact carries.
  [[nodiscard]] std::uint64_t config_digest() const { return digest_; }

  // --- stages ----------------------------------------------------------------
  const fi::CampaignResult& simulate();
  const ml::Dataset& build_dataset();
  /// Feature selection (optional) + grid search + cross-validation; returns
  /// the chosen hyper-parameters.
  const ml::SvmConfig& tune();
  const ModelBundle& train();
  const SessionPrediction& predict();

  /// All five stages; assembles the classic PipelineResult (cv is empty when
  /// the model stage was resumed from a .ssmd rather than tuned here).
  [[nodiscard]] PipelineResult run_all();

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] bool has_campaign() const { return campaign_.has_value(); }
  [[nodiscard]] bool has_dataset() const { return dataset_.has_value(); }
  [[nodiscard]] bool has_model() const { return bundle_.has_value(); }
  [[nodiscard]] bool has_cv() const { return cv_.has_value(); }
  /// Valid after tune() (not after a train() resumed from disk).
  [[nodiscard]] const ml::CvResult& cv() const;

  /// Installs simulate-stage output produced elsewhere (e.g. `ssresf merge`
  /// over distributed shard files) and persists it as this session's
  /// records artifact. Downstream stage state is reset.
  void adopt_campaign(fi::CampaignResult campaign);

  /// Installs a model trained elsewhere (the `ssresf predict` path). A
  /// bundle bound to a different campaign digest is rejected with
  /// InvalidArgument unless `allow_digest_mismatch` — the deliberate
  /// cross-netlist transfer of the paper's deployment story (train on one
  /// SoC, classify a modified one).
  void adopt_model(ModelBundle bundle, bool allow_digest_mismatch = false);

  // --- artifact paths (empty when artifact_dir is empty) ---------------------
  [[nodiscard]] std::string records_path() const;
  [[nodiscard]] std::string dataset_path() const;
  [[nodiscard]] std::string model_path() const;

 private:
  [[nodiscard]] bool persists() const { return !options_.artifact_dir.empty(); }
  [[nodiscard]] fi::CampaignConfig exec_config() const;
  /// Workers for the ML stages: the campaign thread count, resolved (a
  /// value <= 0 picks hardware threads). ML outputs do not depend on it.
  [[nodiscard]] int ml_threads() const;
  void note(std::string_view stage, std::string message);
  void count(std::string_view stage, std::uint64_t done, std::uint64_t total);
  [[nodiscard]] fi::CampaignResult simulate_served();
  void persist_records();
  void publish_bundle();
  [[nodiscard]] std::vector<double> bundle_row(
      std::span<const double> raw_features) const;
  /// The bundle's label for each cell, in order.
  [[nodiscard]] std::vector<int> classify(
      std::span<const netlist::CellId> cells) const;

  ScenarioSpec spec_;
  const radiation::SoftErrorDatabase& db_;
  SessionOptions options_;
  soc::SocModel model_;
  bool model_from_spec_ = false;
  std::uint64_t digest_ = 0;

  std::optional<fi::CampaignResult> campaign_;
  std::optional<ml::Dataset> dataset_;    // raw labeled features
  std::optional<ml::Dataset> projected_;  // after the selection mask
  std::vector<int> selected_features_;
  std::optional<ml::CvResult> cv_;
  ml::SvmConfig chosen_svm_;
  bool tuned_ = false;
  std::optional<ModelBundle> bundle_;
  std::optional<SessionPrediction> prediction_;
  double train_seconds_ = 0.0;
};

}  // namespace ssresf::core
