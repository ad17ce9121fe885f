// Tests for the Pipeline API v2: the staged core::Session, the declarative
// ScenarioSpec YAML codec, and the digest-bound .ssds / .ssmd artifacts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/model_io.h"
#include "core/session.h"
#include "util/error.h"

namespace ssresf {
namespace {

/// Unique per-test artifact directory, removed on scope exit.
struct TempDir {
  std::filesystem::path dir;
  explicit TempDir(const std::string& tag) {
    dir = std::filesystem::temp_directory_path() /
          ("ssresf_test_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
  [[nodiscard]] std::string path() const { return dir.string(); }
};

core::ScenarioSpec small_scenario(std::uint64_t seed = 11) {
  core::ScenarioSpec spec;
  spec.name = "session-test";
  spec.campaign.workload = "checksum";
  spec.campaign.isa = "RV32I";
  spec.campaign.mem_kb = 4;
  spec.campaign.config.engine = sim::EngineKind::kLevelized;
  spec.campaign.config.seed = seed;
  spec.campaign.config.max_cycles = 1500;
  spec.campaign.config.clustering.num_clusters = 5;
  spec.campaign.config.sampling.fraction = 0.02;
  spec.campaign.config.sampling.min_per_cluster = 6;
  spec.campaign.config.sampling.max_per_cluster = 24;
  spec.campaign.config.sampling.memory_macro_draws = 12;
  spec.cv_folds = 4;
  spec.run_grid_search = false;
  return spec;
}

core::SessionOptions with_dir(const std::string& dir, bool resume = true) {
  core::SessionOptions options;
  options.artifact_dir = dir;
  options.resume = resume;
  return options;
}

const radiation::SoftErrorDatabase& database() {
  static const auto db = radiation::SoftErrorDatabase::default_database();
  return db;
}

// --- ScenarioSpec YAML codec --------------------------------------------------

TEST(Scenario, EmptyDocumentYieldsDefaults) {
  const auto spec = core::ScenarioSpec::parse("");
  const core::ScenarioSpec defaults;
  EXPECT_EQ(spec.name, defaults.name);
  EXPECT_EQ(spec.campaign.workload, defaults.campaign.workload);
  EXPECT_EQ(spec.campaign.isa, defaults.campaign.isa);
  EXPECT_EQ(spec.campaign.mem_kb, defaults.campaign.mem_kb);
  EXPECT_EQ(spec.svm, defaults.svm);
  EXPECT_EQ(spec.cv_folds, defaults.cv_folds);
  EXPECT_EQ(spec.grid_c, defaults.grid_c);
  EXPECT_EQ(spec.ml_seed, defaults.ml_seed);
}

TEST(Scenario, ParseReadsEverySection) {
  const auto spec = core::ScenarioSpec::parse(
      "scenario: full\n"
      "model:\n"
      "  workload: sort\n"
      "  isa: RV32IM\n"
      "  bus: apb\n"
      "  mem_kb: 8\n"
      "campaign:\n"
      "  engine: bit-parallel\n"
      "  seed: 77\n"
      "  max_cycles: 2222\n"
      "  environment:\n"
      "    flux: 1e9\n"
      "    let: 20.5\n"
      "  clustering:\n"
      "    clusters: 7\n"
      "    layer_depth: 3\n"
      "  sampling:\n"
      "    fraction: 0.125\n"
      "    weighting: xsect\n"
      "ml:\n"
      "  kernel: poly\n"
      "  gamma: 0.25\n"
      "  c: 4\n"
      "  cv_folds: 3\n"
      "  grid_search: true\n"
      "  grid_c: [1, 2]\n"
      "  grid_gamma: [0.5, 2]\n"
      "  feature_selection: true\n"
      "  seed: 99\n");
  EXPECT_EQ(spec.name, "full");
  EXPECT_EQ(spec.campaign.workload, "sort");
  EXPECT_EQ(spec.campaign.bus, "apb");
  EXPECT_EQ(spec.campaign.mem_kb, 8);
  EXPECT_EQ(spec.campaign.config.engine, sim::EngineKind::kBitParallel);
  EXPECT_EQ(spec.campaign.config.seed, 77u);
  EXPECT_EQ(spec.campaign.config.max_cycles, 2222);
  EXPECT_DOUBLE_EQ(spec.campaign.config.environment.flux, 1e9);
  EXPECT_DOUBLE_EQ(spec.campaign.config.environment.let, 20.5);
  EXPECT_EQ(spec.campaign.config.clustering.num_clusters, 7);
  EXPECT_EQ(spec.campaign.config.clustering.layer_depth, 3);
  EXPECT_DOUBLE_EQ(spec.campaign.config.sampling.fraction, 0.125);
  EXPECT_EQ(spec.campaign.config.sampling.weighting,
            cluster::SampleWeighting::kXsectWeighted);
  EXPECT_EQ(spec.svm.kernel.type, ml::KernelType::kPoly);
  EXPECT_DOUBLE_EQ(spec.svm.kernel.gamma, 0.25);
  EXPECT_DOUBLE_EQ(spec.svm.c, 4.0);
  EXPECT_EQ(spec.cv_folds, 3);
  EXPECT_TRUE(spec.run_grid_search);
  EXPECT_EQ(spec.grid_c, (std::vector<double>{1, 2}));
  EXPECT_EQ(spec.grid_gamma, (std::vector<double>{0.5, 2}));
  EXPECT_TRUE(spec.feature_selection);
  EXPECT_EQ(spec.ml_seed, 99u);
}

TEST(Scenario, DumpParseIsAFixedPoint) {
  core::ScenarioSpec spec = small_scenario(123);
  // Values chosen to stress round-trip-exact double formatting.
  spec.campaign.config.environment.flux = 5.00000001e8;
  spec.campaign.config.sampling.fraction = 1.0 / 3.0;
  spec.svm.tolerance = 1e-7;
  spec.grid_gamma = {0.05, 1.0 / 7.0, 4.0};
  spec.run_grid_search = true;
  spec.feature_selection = true;

  const std::string once = spec.dump();
  const auto reparsed = core::ScenarioSpec::parse(once);
  EXPECT_EQ(reparsed.dump(), once);
  EXPECT_EQ(reparsed.campaign.config.sampling.fraction,
            spec.campaign.config.sampling.fraction);
  EXPECT_EQ(reparsed.svm.tolerance, spec.svm.tolerance);
  EXPECT_EQ(reparsed.grid_gamma, spec.grid_gamma);
  EXPECT_EQ(reparsed.campaign.config.environment.flux,
            spec.campaign.config.environment.flux);
}

TEST(Scenario, RoundTripPreservesCampaignDigest) {
  const core::ScenarioSpec spec = small_scenario(31);
  const auto reparsed = core::ScenarioSpec::parse(spec.dump());
  core::Session a(spec, database());
  core::Session b(reparsed, database());
  EXPECT_EQ(a.config_digest(), b.config_digest());
}

TEST(Scenario, UnknownKeysAreRejectedWithTheirPath) {
  try {
    (void)core::ScenarioSpec::parse("campaign:\n  samplig:\n    fraction: 1\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("campaign.samplig"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)core::ScenarioSpec::parse("ml:\n  gamma: 0.5\n  kernal: rbf\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("ml.kernal"), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, BadValuesAreRejectedWithDiagnostics) {
  EXPECT_THROW((void)core::ScenarioSpec::parse("campaign:\n  engine: vcs\n"),
               InvalidArgument);
  EXPECT_THROW(
      (void)core::ScenarioSpec::parse("campaign:\n  seed: banana\n"),
      InvalidArgument);
  EXPECT_THROW((void)core::ScenarioSpec::parse("ml:\n  cv_folds: 1\n"),
               InvalidArgument);
  EXPECT_THROW(
      (void)core::ScenarioSpec::parse("ml:\n  grid_c: [1, two]\n"),
      InvalidArgument);
  EXPECT_THROW((void)core::ScenarioSpec::parse("model:\n  mem_kb: 0\n"),
               InvalidArgument);
  // Malformed YAML surfaces the yaml_lite ParseError (with line info).
  EXPECT_THROW((void)core::ScenarioSpec::parse("model:\n\tworkload: x\n"),
               ParseError);
}

// --- artifact codecs ----------------------------------------------------------

TEST(ModelIo, DatasetRoundTripIsBitExact) {
  TempDir tmp("ssds");
  ml::Dataset dataset(std::vector<std::string>{"alpha", "beta", "gamma"});
  dataset.add({0.1 + 1e-17, -3.5e-9, 1e300}, 1);
  dataset.add({0.0, -0.0, 1.0 / 3.0}, -1);
  dataset.add({5e8, 37.25, -1e-300}, 1);

  const std::string path = tmp.path() + "/roundtrip.ssds";
  core::write_dataset_file(path, core::DatasetArtifact{0xabcdef1234u, dataset});
  const auto loaded = core::read_dataset_file(path);
  EXPECT_EQ(loaded.config_digest, 0xabcdef1234u);
  ASSERT_EQ(loaded.dataset.size(), dataset.size());
  ASSERT_EQ(loaded.dataset.num_features(), dataset.num_features());
  EXPECT_EQ(loaded.dataset.feature_names(), dataset.feature_names());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(loaded.dataset.label(i), dataset.label(i));
    for (std::size_t f = 0; f < dataset.num_features(); ++f) {
      // Bit-exact, including signed zero.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.dataset.row(i)[f]),
                std::bit_cast<std::uint64_t>(dataset.row(i)[f]));
    }
  }
}

TEST(ModelIo, ModelRoundTripPredictsIdentically) {
  TempDir tmp("ssmd");
  core::Session session(small_scenario(21), database(),
                        with_dir(tmp.path()));
  const core::ModelBundle& trained = session.train();
  const core::SessionPrediction& before = session.predict();

  const core::ModelBundle loaded = core::read_model_file(session.model_path());
  EXPECT_EQ(loaded.config_digest, session.config_digest());
  EXPECT_EQ(loaded.scenario_name, "session-test");
  EXPECT_EQ(loaded.chosen_svm, trained.chosen_svm);
  EXPECT_EQ(loaded.selected_features, trained.selected_features);
  EXPECT_EQ(loaded.feature_names, trained.feature_names);
  EXPECT_EQ(loaded.model.num_support_vectors(),
            trained.model.num_support_vectors());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.model.bias()),
            std::bit_cast<std::uint64_t>(trained.model.bias()));

  // A fresh session adopting the reloaded bundle must classify every node
  // identically — the acceptance criterion of the .ssmd artifact.
  core::Session reloaded(small_scenario(21), database());
  reloaded.adopt_model(loaded);
  const core::SessionPrediction& after = reloaded.predict();
  ASSERT_EQ(after.cells.size(), before.cells.size());
  EXPECT_EQ(after.labels, before.labels);
  EXPECT_EQ(after.class_percent, before.class_percent);
}

TEST(ModelIo, CorruptArtifactsAreRejected) {
  TempDir tmp("corrupt");
  core::Session session(small_scenario(41), database(),
                        with_dir(tmp.path()));
  (void)session.train();

  for (const std::string& path :
       {session.model_path(), session.dataset_path()}) {
    // Flip one payload byte: the artifact digest must catch it.
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<long>(file.tellg());
    file.seekp(size - 3);
    char byte = 0;
    file.seekg(size - 3);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(size - 3);
    file.write(&byte, 1);
    file.close();
  }
  EXPECT_THROW((void)core::read_model_file(session.model_path()),
               InvalidArgument);
  EXPECT_THROW((void)core::read_dataset_file(session.dataset_path()),
               InvalidArgument);

  // Wrong magic / cross-loading the other artifact type.
  EXPECT_THROW((void)core::read_model_file(session.dataset_path()),
               InvalidArgument);
  // Truncation.
  const std::string truncated = tmp.path() + "/truncated.ssmd";
  {
    std::ifstream in(session.model_path(), std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(), static_cast<long>(bytes.size()) / 2);
  }
  EXPECT_THROW((void)core::read_model_file(truncated), Error);
}

// --- staged session -----------------------------------------------------------

TEST(Session, StagedRunMatchesInMemoryRun) {
  TempDir tmp("staged");
  core::Session persisted(small_scenario(51), database(),
                          with_dir(tmp.path()));
  core::Session in_memory(small_scenario(51), database());

  // Stage by stage on one, all-at-once on the other.
  (void)persisted.simulate();
  (void)persisted.build_dataset();
  (void)persisted.tune();
  (void)persisted.train();
  const auto& staged = persisted.predict();
  const auto& direct = in_memory.predict();

  EXPECT_EQ(persisted.simulate().records, in_memory.simulate().records);
  EXPECT_EQ(persisted.cv().mean_accuracy, in_memory.cv().mean_accuracy);
  EXPECT_EQ(staged.labels, direct.labels);
}

TEST(Session, RunAllMatchesRunPipelineWrapper) {
  const core::ScenarioSpec spec = small_scenario(61);
  const soc::SocModel model = spec.build_model();

  core::PipelineConfig config;
  config.campaign = spec.campaign.config;
  config.svm = spec.svm;
  config.cv_folds = spec.cv_folds;
  config.run_grid_search = spec.run_grid_search;
  config.ml_seed = spec.ml_seed;
  const core::PipelineResult via_wrapper =
      core::run_pipeline(model, config, database());

  core::Session session(spec, database());
  const core::PipelineResult via_session = session.run_all();

  EXPECT_EQ(via_wrapper.campaign.records, via_session.campaign.records);
  EXPECT_EQ(via_wrapper.cv.mean_accuracy, via_session.cv.mean_accuracy);
  EXPECT_EQ(via_wrapper.predicted_class_percent,
            via_session.predicted_class_percent);
  EXPECT_EQ(via_wrapper.model.num_support_vectors(),
            via_session.model.num_support_vectors());
}

TEST(Session, ResumesFromArtifactsWithoutSimulating) {
  TempDir tmp("resume");
  const core::SessionOptions options = with_dir(tmp.path());
  std::vector<int> labels;
  {
    core::Session first(small_scenario(71), database(), options);
    labels = first.predict().labels;
  }
  core::Session second(small_scenario(71), database(), options);
  const auto& prediction = second.predict();
  EXPECT_EQ(prediction.labels, labels);
  // The model bundle alone satisfied the predict stage: no campaign was
  // re-simulated and no dataset reloaded.
  EXPECT_FALSE(second.has_campaign());
  EXPECT_FALSE(second.has_dataset());
  EXPECT_FALSE(second.has_cv());

  // The dataset artifact alone satisfies the tune stage of a third session
  // asked for cross-validation metrics.
  core::Session third(small_scenario(71), database(),
                      with_dir(tmp.path()));
  std::filesystem::remove(third.model_path());
  (void)third.tune();
  EXPECT_TRUE(third.has_dataset());
  EXPECT_FALSE(third.has_campaign());
}

TEST(Session, RunAllWorksOnResumedArtifacts) {
  TempDir tmp("runall");
  core::PipelineResult first;
  {
    core::Session session(small_scenario(73), database(),
                          with_dir(tmp.path()));
    first = session.run_all();
  }
  // A fresh session resumes every stage from disk: train() short-circuits on
  // the .ssmd, yet run_all() must still deliver the dataset and campaign.
  core::Session resumed(small_scenario(73), database(), with_dir(tmp.path()));
  const core::PipelineResult second = resumed.run_all();
  EXPECT_EQ(second.campaign.records, first.campaign.records);
  EXPECT_EQ(second.dataset.size(), first.dataset.size());
  EXPECT_GT(second.dataset.size(), 0u);
  EXPECT_EQ(second.predicted_class_percent, first.predicted_class_percent);
}

TEST(Session, ZeroThreadsOptionInheritsConfigThreads) {
  // The run_pipeline wrapper path: a caller-provided campaign thread count
  // must survive the Session translation (records stay bit-identical for
  // any thread count, so only equality of results is observable here).
  core::ScenarioSpec spec = small_scenario(74);
  spec.campaign.config.threads = 2;
  core::Session threaded(spec, database());
  core::ScenarioSpec serial = small_scenario(74);
  core::Session baseline(serial, database());
  EXPECT_EQ(threaded.simulate().records, baseline.simulate().records);
}

TEST(Session, StaleArtifactsAreRejectedLoudly) {
  TempDir tmp("stale");
  const core::SessionOptions options = with_dir(tmp.path());
  {
    core::Session first(small_scenario(81), database(), options);
    (void)first.train();
  }
  // Same scenario name, different campaign seed: every stage that would
  // resume from the stale artifact must throw, never silently recompute.
  core::Session changed(small_scenario(82), database(), options);
  EXPECT_THROW((void)changed.train(), InvalidArgument);
  EXPECT_THROW((void)changed.build_dataset(), InvalidArgument);
  EXPECT_THROW((void)changed.simulate(), InvalidArgument);
  // Resume off: recomputes cleanly.
  core::Session fresh(small_scenario(82), database(),
                      with_dir(tmp.path(), false));
  EXPECT_NO_THROW((void)fresh.train());
}

TEST(Session, AdoptModelEnforcesDigestUnlessCrossNetlist) {
  TempDir tmp("adopt");
  core::Session trainer(small_scenario(91), database(),
                        with_dir(tmp.path()));
  (void)trainer.train();
  const core::ModelBundle bundle = core::read_model_file(trainer.model_path());

  // A modified netlist (bigger memory) has a different campaign digest.
  core::ScenarioSpec modified = small_scenario(91);
  modified.campaign.mem_kb = 8;
  core::Session transfer(modified, database());
  ASSERT_NE(transfer.config_digest(), trainer.config_digest());
  EXPECT_THROW(transfer.adopt_model(bundle), InvalidArgument);
  transfer.adopt_model(bundle, /*allow_digest_mismatch=*/true);
  const auto& prediction = transfer.predict();
  EXPECT_EQ(prediction.cells.size(), prediction.labels.size());
  EXPECT_GT(prediction.cells.size(), 0u);
}

TEST(Session, FeatureSelectionMaskIsPersistedAndApplied) {
  TempDir tmp("select");
  core::ScenarioSpec spec = small_scenario(95);
  spec.feature_selection = true;
  core::Session session(spec, database(),
                        with_dir(tmp.path()));
  const core::ModelBundle& bundle = session.train();
  EXPECT_GE(bundle.selected_features.size(), 1u);
  EXPECT_LE(bundle.selected_features.size(), bundle.feature_names.size());
  const auto& before = session.predict();

  core::Session reloaded(spec, database(),
                         with_dir(tmp.path()));
  EXPECT_EQ(reloaded.train().selected_features, bundle.selected_features);
  EXPECT_EQ(reloaded.predict().labels, before.labels);
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Session, MlArtifactsAreIndependentOfThreadCount) {
  // Feature selection, grid search, cross-validation and predict all run on
  // the session's thread count; none of their outputs may depend on it.
  core::ScenarioSpec spec = small_scenario(97);
  spec.feature_selection = true;
  spec.run_grid_search = true;
  spec.grid_c = {0.5, 4};
  spec.grid_gamma = {0.2, 1};
  std::vector<char> ssmd;
  std::vector<int> labels;
  core::PipelineResult first;
  for (const int threads : {1, 4}) {
    TempDir tmp("threads" + std::to_string(threads));
    core::SessionOptions options = with_dir(tmp.path());
    options.threads = threads;
    core::Session session(spec, database(), options);
    const core::PipelineResult result = session.run_all();
    const std::vector<char> bytes = file_bytes(session.model_path());
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      ssmd = bytes;
      labels = session.predict().labels;
      first = result;
      continue;
    }
    EXPECT_EQ(bytes, ssmd) << threads << " threads";
    EXPECT_EQ(session.predict().labels, labels) << threads << " threads";
    EXPECT_EQ(result.predicted_class_percent, first.predicted_class_percent);
    EXPECT_EQ(result.cv.decision_values, first.cv.decision_values);
  }
}

TEST(Session, ProgressReportsEveryStage) {
  struct Collector {
    std::mutex mutex;
    std::vector<core::StageProgress> events;
  };
  auto collector = std::make_shared<Collector>();
  core::SessionOptions options;
  options.threads = 2;
  options.progress = [collector](const core::StageProgress& p) {
    const std::lock_guard<std::mutex> lock(collector->mutex);
    collector->events.push_back(p);
  };
  core::Session session(small_scenario(99), database(), options);
  (void)session.run_all();

  bool saw_counted_simulate = false;
  std::uint64_t max_done = 0;
  std::set<std::string> stages;
  for (const auto& event : collector->events) {
    stages.insert(event.stage);
    if (event.stage == "simulate" && event.total > 0) {
      saw_counted_simulate = true;
      EXPECT_LE(event.completed, event.total);
      max_done = std::max(max_done, event.completed);
    }
  }
  EXPECT_TRUE(saw_counted_simulate);
  EXPECT_EQ(max_done, session.simulate().records.size());
  for (const char* stage :
       {"simulate", "build_dataset", "tune", "train", "predict"}) {
    EXPECT_TRUE(stages.count(stage)) << "missing stage " << stage;
  }
}

}  // namespace
}  // namespace ssresf
