#include "core/session.h"

#include <cstdio>
#include <filesystem>
#include <numeric>
#include <utility>

#include "core/features.h"
#include "fi/record_store.h"
#include "fi/shard.h"
#include "ml/feature_selection.h"
#include "net/coordinator.h"
#include "util/csv.h"
#include "util/timer.h"

namespace ssresf::core {

using netlist::CellId;
using netlist::CellKind;

namespace {

[[nodiscard]] bool file_exists(const std::string& path) {
  std::error_code ignored;
  return std::filesystem::exists(path, ignored);
}

[[nodiscard]] std::string artifact_path(const std::string& dir,
                                        const std::string& name,
                                        const char* extension) {
  return (std::filesystem::path(dir) / (name + extension)).string();
}

void ensure_dir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    throw Error("cannot create artifact directory '" + dir +
                "': " + error.message());
  }
}

void check_record_format(int record_format) {
  if (record_format != 1 && record_format != 2) {
    throw InvalidArgument("session: record_format must be 1 or 2, got " +
                          std::to_string(record_format));
  }
}

}  // namespace

void write_predictions_csv(const std::string& path, const soc::SocModel& model,
                           const SessionPrediction& prediction) {
  util::write_csv_file(path, [&](std::FILE* f) {
    std::fputs("cell,path,module_class,prediction\n", f);
    for (std::size_t i = 0; i < prediction.cells.size(); ++i) {
      const CellId id = prediction.cells[i];
      std::fprintf(
          f, "%u,%s,%s,%d\n", id.index(), model.netlist.cell_path(id).c_str(),
          std::string(netlist::module_class_name(model.netlist.cell_class(id)))
              .c_str(),
          prediction.labels[i]);
    }
  });
}

Session::Session(ScenarioSpec spec, const radiation::SoftErrorDatabase& database,
                 SessionOptions options)
    : spec_(std::move(spec)),
      db_(database),
      options_(std::move(options)),
      model_(spec_.build_model()),
      model_from_spec_(true),
      digest_(fi::campaign_config_digest(model_, spec_.campaign.config)) {
  check_record_format(options_.record_format);
  ensure_dir(options_.artifact_dir);
}

Session::Session(soc::SocModel model, ScenarioSpec spec,
                 const radiation::SoftErrorDatabase& database,
                 SessionOptions options)
    : spec_(std::move(spec)),
      db_(database),
      options_(std::move(options)),
      model_(std::move(model)),
      model_from_spec_(false),
      digest_(fi::campaign_config_digest(model_, spec_.campaign.config)) {
  check_record_format(options_.record_format);
  ensure_dir(options_.artifact_dir);
}

std::string Session::records_path() const {
  return persists() ? artifact_path(options_.artifact_dir, spec_.name, ".ssfs")
                    : std::string();
}

std::string Session::dataset_path() const {
  return persists() ? artifact_path(options_.artifact_dir, spec_.name, ".ssds")
                    : std::string();
}

std::string Session::model_path() const {
  return persists() ? artifact_path(options_.artifact_dir, spec_.name, ".ssmd")
                    : std::string();
}

void Session::note(std::string_view stage, std::string message) {
  if (options_.progress) {
    options_.progress(
        StageProgress{std::string(stage), 0, 0, std::move(message)});
  }
}

void Session::count(std::string_view stage, std::uint64_t done,
                    std::uint64_t total) {
  if (options_.progress) {
    options_.progress(StageProgress{std::string(stage), done, total, {}});
  }
}

fi::CampaignConfig Session::exec_config() const {
  fi::CampaignConfig config = spec_.campaign.config;
  if (options_.threads != 0) config.threads = options_.threads;
  if (options_.lanes != 0) config.lanes = options_.lanes;
  if (options_.progress) {
    // Forward the campaign's per-injection counter as simulate-stage
    // progress (the campaign may invoke this from its worker threads).
    auto sink = options_.progress;
    config.progress = [sink](std::uint64_t done, std::uint64_t total) {
      sink(StageProgress{"simulate", done, total, {}});
    };
  }
  return config;
}

fi::CampaignResult Session::simulate_served() {
  if (!model_from_spec_) {
    throw InvalidArgument(
        "session: serve delegation requires a scenario-built model (workers "
        "rebuild the SoC from the scenario spec)");
  }
  net::CoordinatorOptions copts;
  copts.port = static_cast<std::uint16_t>(options_.serve_port);
  copts.loopback_only = options_.serve_loopback_only;
  copts.chunk_injections = options_.serve_chunk_injections;
  // The scenario's fleet section carries the execution knobs; the session
  // option overrides only when set explicitly.
  copts.worker_timeout_seconds = options_.worker_timeout_seconds > 0
                                     ? options_.worker_timeout_seconds
                                     : spec_.fleet.worker_timeout;
  copts.frame_deadline_seconds = spec_.fleet.frame_deadline;
  copts.secret = spec_.fleet.secret;
  copts.journal_path = options_.serve_journal;
  // A session that reports progress also logs the fleet's events (workers
  // ready, chunks reassigned, journal resumed) — what `ssresf serve
  // --progress` shows and the CI chaos jobs grep for.
  copts.verbose = static_cast<bool>(options_.progress);
  net::Coordinator coordinator(spec_.campaign, db_, copts);
  note("simulate", "serving campaign on port " +
                       std::to_string(coordinator.port()));
  if (options_.on_serving) options_.on_serving(coordinator.port());
  fi::CampaignResult result = coordinator.run();
  if (options_.on_fleet_status) {
    options_.on_fleet_status(coordinator.fleet_status());
  }
  return result;
}

const fi::CampaignResult& Session::simulate() {
  if (campaign_) return *campaign_;
  const std::string path = records_path();
  if (persists() && options_.resume && file_exists(path)) {
    // merge_shard_files cross-checks the file's campaign digest and plan
    // coverage: a stale artifact from a different scenario fails loudly here.
    campaign_ = fi::merge_shard_files(model_, spec_.campaign.config, db_, {path});
    note("simulate", "loaded " + std::to_string(campaign_->records.size()) +
                         " campaign records from " + path);
    return *campaign_;
  }
  note("simulate", "started");
  if (options_.serve_port >= 0) {
    campaign_ = simulate_served();
  } else {
    campaign_ = fi::run_campaign(model_, exec_config(), db_);
  }
  persist_records();
  note("simulate", "done: " + std::to_string(campaign_->records.size()) +
                       " injections");
  return *campaign_;
}

void Session::persist_records() {
  if (!persists()) return;
  std::vector<fi::ShardRecord> records;
  records.reserve(campaign_->records.size());
  for (std::size_t i = 0; i < campaign_->records.size(); ++i) {
    records.push_back(fi::ShardRecord{i, campaign_->records[i]});
  }
  fi::ShardFileMeta meta;
  meta.seed = spec_.campaign.config.seed;
  meta.total_injections = records.size();
  meta.config_digest = digest_;
  fi::write_records_file(records_path(), meta, records, options_.record_format);
  note("simulate", "saved campaign records to " + records_path());
}

void Session::adopt_campaign(fi::CampaignResult campaign) {
  campaign_ = std::move(campaign);
  // The simulate stage changed under the downstream stages: drop them.
  dataset_.reset();
  projected_.reset();
  selected_features_.clear();
  cv_.reset();
  tuned_ = false;
  bundle_.reset();
  prediction_.reset();
  persist_records();
  note("simulate", "adopted " + std::to_string(campaign_->records.size()) +
                       " campaign records");
}

const ml::Dataset& Session::build_dataset() {
  if (dataset_) return *dataset_;
  const std::string path = dataset_path();
  if (persists() && options_.resume && file_exists(path)) {
    DatasetArtifact artifact = read_dataset_file(path);
    if (artifact.config_digest != digest_) {
      throw InvalidArgument(
          "'" + path + "': dataset was built from a different campaign "
          "configuration (digest mismatch); delete it or disable resume to "
          "rebuild");
    }
    dataset_ = std::move(artifact.dataset);
    note("build_dataset", "loaded " + std::to_string(dataset_->size()) +
                              " samples from " + path);
    return *dataset_;
  }
  simulate();
  note("build_dataset", "started");
  dataset_ = core::build_dataset(model_, *campaign_);
  if (persists()) {
    write_dataset_file(path, DatasetArtifact{digest_, *dataset_});
    note("build_dataset", "saved dataset to " + path);
  }
  note("build_dataset",
       "done: " + std::to_string(dataset_->size()) + " samples");
  return *dataset_;
}

const ml::SvmConfig& Session::tune() {
  if (tuned_) return chosen_svm_;
  const ml::Dataset& data = build_dataset();
  note("tune", "started");

  util::Rng ml_rng(spec_.ml_seed);
  // Optional Fisher-score feature selection runs first; with it disabled the
  // fork sequence below is exactly run_pipeline's, so the wrapper stays
  // bit-compatible with the pre-Session pipeline.
  selected_features_.clear();
  if (spec_.feature_selection &&
      data.count_label(1) > 0 && data.count_label(-1) > 0) {
    util::Rng selection_rng = ml_rng.fork();
    const ml::FeatureSelectionResult selection =
        ml::select_features(data, spec_.svm, spec_.cv_folds, selection_rng);
    selected_features_.assign(
        selection.ranked.begin(),
        selection.ranked.begin() + selection.best_count);
    note("tune", "feature selection kept " +
                     std::to_string(selected_features_.size()) + " of " +
                     std::to_string(data.num_features()) + " features");
  } else {
    if (spec_.feature_selection) {
      // Single-class campaign (no soft errors observed): Fisher scores are
      // undefined, so degrade to the identity mask — the same graceful path
      // the SVM and CV take for such datasets.
      note("tune", "feature selection skipped: dataset has a single class");
    }
    selected_features_.resize(data.num_features());
    std::iota(selected_features_.begin(), selected_features_.end(), 0);
  }
  projected_ = data.project(selected_features_);

  chosen_svm_ = spec_.svm;
  if (spec_.run_grid_search) {
    util::Rng grid_rng = ml_rng.fork();
    const ml::GridSearchResult grid =
        ml::grid_search(*projected_, spec_.svm, spec_.grid_c, spec_.grid_gamma,
                        spec_.cv_folds, grid_rng);
    chosen_svm_ = grid.best;
    count("tune", static_cast<std::uint64_t>(grid.grid.size()),
          static_cast<std::uint64_t>(grid.grid.size()));
  }
  util::Rng cv_rng = ml_rng.fork();
  cv_ = ml::cross_validate(*projected_, chosen_svm_, spec_.cv_folds, cv_rng);
  tuned_ = true;
  char accuracy[32];
  std::snprintf(accuracy, sizeof(accuracy), "%.2f%%",
                100.0 * cv_->mean_accuracy);
  note("tune", "done: cv accuracy " + std::string(accuracy));
  return chosen_svm_;
}

const ml::CvResult& Session::cv() const {
  if (!cv_) {
    throw InvalidArgument(
        "session: no cross-validation result (the model stage was resumed "
        "from an artifact or adopted)");
  }
  return *cv_;
}

const ModelBundle& Session::train() {
  if (bundle_) return *bundle_;
  const std::string path = model_path();
  if (persists() && options_.resume && file_exists(path)) {
    ModelBundle bundle = read_model_file(path);
    if (bundle.config_digest != digest_) {
      throw InvalidArgument(
          "'" + path + "': model was trained on a different campaign "
          "configuration (digest mismatch); delete it, disable resume, or "
          "use adopt_model for deliberate cross-netlist transfer");
    }
    chosen_svm_ = bundle.chosen_svm;
    selected_features_ = bundle.selected_features;
    tuned_ = true;
    bundle_ = std::move(bundle);
    note("train", "loaded model bundle from " + path);
    publish_bundle();
    return *bundle_;
  }
  tune();
  note("train", "started");
  util::Timer timer;
  ml::Dataset scaled = *projected_;
  ml::MinMaxScaler scaler;
  scaler.fit_transform(scaled);
  ml::SvmClassifier model(chosen_svm_);
  model.train(scaled);
  train_seconds_ = timer.seconds();

  ModelBundle bundle;
  bundle.config_digest = digest_;
  bundle.scenario_name = spec_.name;
  bundle.chosen_svm = chosen_svm_;
  bundle.model = std::move(model);
  bundle.scaler = std::move(scaler);
  bundle.selected_features = selected_features_;
  bundle.feature_names = node_feature_names();
  bundle.cv_mean_accuracy = cv_->mean_accuracy;
  bundle_ = std::move(bundle);
  if (persists()) {
    write_model_file(path, *bundle_);
    note("train", "saved model bundle to " + path);
  }
  publish_bundle();
  note("train", "done: " +
                    std::to_string(bundle_->model.num_support_vectors()) +
                    " support vectors");
  return *bundle_;
}

void Session::publish_bundle() {
  if (options_.publish_dir.empty()) return;
  ensure_dir(options_.publish_dir);
  const std::string path =
      artifact_path(options_.publish_dir, spec_.name, ".ssmd");
  write_model_file(path, *bundle_);
  note("train", "published model bundle to " + path);
}

void Session::adopt_model(ModelBundle bundle, bool allow_digest_mismatch) {
  if (bundle.config_digest != digest_ && !allow_digest_mismatch) {
    throw InvalidArgument(
        "session: model bundle was trained on a different campaign "
        "configuration (digest mismatch); pass allow_digest_mismatch (CLI: "
        "--cross-netlist) for deliberate transfer to a modified netlist");
  }
  chosen_svm_ = bundle.chosen_svm;
  selected_features_ = bundle.selected_features;
  tuned_ = true;
  cv_.reset();
  prediction_.reset();
  bundle_ = std::move(bundle);
  note("train", "adopted model bundle '" + bundle_->scenario_name + "'");
}

std::vector<double> Session::bundle_row(
    std::span<const double> raw_features) const {
  // Delegates to the shared deployment arithmetic so the serve/ daemon and
  // the offline predict stage cannot drift apart.
  return bundle_scaled_row(*bundle_, raw_features);
}

const SessionPrediction& Session::predict() {
  if (prediction_) return *prediction_;
  train();
  note("predict", "started");
  const FeatureExtractor extractor(model_.netlist);
  SessionPrediction prediction;
  util::Timer timer;
  std::array<std::size_t, netlist::kModuleClassCount> high{};
  std::array<std::size_t, netlist::kModuleClassCount> total{};
  for (const CellId id : model_.netlist.all_cells()) {
    const CellKind kind = model_.netlist.cell(id).kind;
    if (kind == CellKind::kConst0 || kind == CellKind::kConst1) continue;
    const auto features = extractor.extract(id);
    const int label = bundle_->model.predict(bundle_row(features));
    prediction.cells.push_back(id);
    prediction.labels.push_back(label);
    const auto cls = static_cast<std::size_t>(model_.netlist.cell_class(id));
    ++total[cls];
    if (label == 1) ++high[cls];
  }
  prediction.predict_seconds = timer.seconds();
  for (std::size_t c = 0; c < netlist::kModuleClassCount; ++c) {
    prediction.class_percent[c] =
        total[c] > 0 ? 100.0 * static_cast<double>(high[c]) /
                           static_cast<double>(total[c])
                     : 0.0;
  }
  prediction_ = std::move(prediction);
  count("predict", prediction_->cells.size(), prediction_->cells.size());
  note("predict", "done: " + std::to_string(prediction_->cells.size()) +
                      " nodes classified");
  return *prediction_;
}

PipelineResult Session::run_all() {
  simulate();
  // Explicit: a train() resumed from a persisted .ssmd skips the dataset
  // stage, but the assembled PipelineResult carries the dataset — so build
  // (or load) it regardless.
  build_dataset();
  predict();  // chains tune -> train when not resumed

  PipelineResult result;
  result.campaign = *campaign_;
  result.dataset = *dataset_;
  if (cv_) result.cv = *cv_;
  result.chosen_svm = chosen_svm_;
  result.model = bundle_->model;
  result.scaler = bundle_->scaler;
  result.train_seconds = train_seconds_;
  result.predict_seconds = prediction_->predict_seconds;

  // The Fig. 7 SVM series: per-class high-sensitivity fraction over the
  // fault-injection-list nodes (the paper's test dataset), directly
  // comparable to the simulation columns.
  const FeatureExtractor extractor(model_.netlist);
  std::array<std::size_t, netlist::kModuleClassCount> high{};
  std::array<std::size_t, netlist::kModuleClassCount> total{};
  for (const fi::InjectionRecord& record : campaign_->records) {
    const auto cls = static_cast<std::size_t>(record.module_class);
    ++total[cls];
    const auto features = extractor.extract(record.event.target.cell);
    if (bundle_->model.predict(bundle_row(features)) == 1) ++high[cls];
  }
  for (std::size_t c = 0; c < netlist::kModuleClassCount; ++c) {
    result.predicted_class_percent[c] =
        total[c] > 0 ? 100.0 * static_cast<double>(high[c]) /
                           static_cast<double>(total[c])
                     : 0.0;
  }
  return result;
}

}  // namespace ssresf::core
