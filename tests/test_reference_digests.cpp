// Reference digests: FNV-1a fingerprints of simulation and ML results that
// no optimization may move. The golden halt-run trace of every shipped
// scenario is pinned on the scalar levelized engine and on the bit-parallel
// engine's golden lane, and the canonical records CSV of both CI campaigns
// is pinned byte for byte. Cross-engine equivalence tests compare engines
// with each other; these compare each engine with a fixed reference, so a
// change that moves every engine the same way still fails here. The ML
// stages are pinned the same way: the .ssds dataset, the .ssmd model bundle
// and the predictions CSV of scenarios that cover plain cross-validation,
// grid search and Fisher feature selection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "core/session.h"
#include "fi/campaign.h"
#include "radiation/soft_error_db.h"
#include "soc/run.h"
#include "util/bytes.h"

namespace ssresf {
namespace {

std::string source_path(const std::string& relative) {
  return std::string(SSRESF_SOURCE_DIR) + "/" + relative;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Cycle count, then every sampled symbol in cycle order.
std::uint64_t trace_digest(const sim::OutputTrace& trace) {
  util::Fnv1a d;
  std::uint64_t cycles = trace.num_cycles();
  for (int i = 0; i < 8; ++i) d.byte(static_cast<std::uint8_t>(cycles >> (8 * i)));
  for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
    for (const netlist::Logic v : trace.cycle(c)) {
      d.byte(static_cast<std::uint8_t>(v));
    }
  }
  return d.h;
}

/// The golden run of prepare_campaign: reset, then run until every core
/// halts (bounded by the scenario's max_cycles).
std::uint64_t golden_trace_digest(const soc::SocModel& model,
                                  sim::EngineKind kind, int max_cycles) {
  soc::SocRunner runner(model, kind);
  runner.reset();
  runner.run_until_halt(max_cycles);
  EXPECT_TRUE(runner.halted());
  return trace_digest(runner.trace());
}

TEST(ReferenceDigests, ShippedScenarioGoldenTraces) {
  // Lane 0 of the bit-parallel engine is the levelized run, so one digest
  // pins both engines.
  const std::pair<const char*, std::uint64_t> references[] = {
      {"benchmark-light", 0xbf3d33f46fa056d4ull},
      {"benchmark", 0x136cd138eb106eadull},
      {"checksum", 0x3decfcec13453086ull},
      {"fibonacci", 0x2058bd2a3c4687a9ull},
      {"sort", 0xd0977da60ca34756ull},
  };
  for (const auto& [scenario, digest] : references) {
    const auto spec = core::ScenarioSpec::load_file(
        source_path(std::string("examples/scenarios/") + scenario + ".yaml"));
    const soc::SocModel model = spec.build_model();
    const int max_cycles = spec.campaign.config.max_cycles;
    for (const sim::EngineKind kind :
         {sim::EngineKind::kLevelized, sim::EngineKind::kBitParallel}) {
      EXPECT_EQ(hex(golden_trace_digest(model, kind, max_cycles)), hex(digest))
          << scenario << " on " << core::engine_name(kind);
    }
  }
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  EXPECT_FALSE(bytes.empty()) << path;
  return util::fnv1a(bytes);
}

std::uint64_t records_csv_digest(const std::vector<fi::InjectionRecord>& records) {
  const std::string path = testing::TempDir() + "/ssresf_reference_records.csv";
  fi::write_records_csv(path, records);
  const std::uint64_t digest = file_digest(path);
  std::remove(path.c_str());
  return digest;
}

TEST(ReferenceDigests, CiCampaignRecords) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  const std::pair<const char*, std::uint64_t> references[] = {
      {"tests/scenarios/ci-campaign.yaml", 0xe4a8ff4935d73186ull},
      {"tests/scenarios/ci-campaign-bp.yaml", 0xe4a8ff4935d73186ull},
  };
  for (const auto& [file, digest] : references) {
    core::Session session(core::ScenarioSpec::load_file(source_path(file)), db);
    const fi::CampaignResult& result = session.simulate();
    EXPECT_EQ(hex(records_csv_digest(result.records)), hex(digest)) << file;
  }
}

TEST(ReferenceDigests, MlArtifactsAndPredictions) {
  // Digests of the dataset artifact, the model bundle and the predictions
  // CSV. ci-campaign{,-bp} run plain cross-validation, fibonacci a
  // (C, gamma) grid search, benchmark-light Fisher feature selection.
  struct Reference {
    const char* file;
    std::uint64_t ssds;
    std::uint64_t ssmd;
    std::uint64_t predictions;
  };
  const Reference references[] = {
      {"tests/scenarios/ci-campaign.yaml", 0x5fb17482c0f37e00ull,
       0xd3fd8a52323073a5ull, 0x28c852b88de5cec5ull},
      {"tests/scenarios/ci-campaign-bp.yaml", 0xab4fe8d971c797d5ull,
       0x65672eae744037cdull, 0x28c852b88de5cec5ull},
      {"examples/scenarios/fibonacci.yaml", 0x48d0b79d6674b65dull,
       0x9c336bb293e9a19full, 0xfd1c341f607b08d2ull},
      {"examples/scenarios/benchmark-light.yaml", 0x65f67a73a0f48b94ull,
       0xf8990088fcc20a4dull, 0xfef8acab5fa9340dull},
  };
  const auto db = radiation::SoftErrorDatabase::default_database();
  const std::string dir = testing::TempDir() + "/ssresf_reference_ml";
  for (const Reference& ref : references) {
    std::filesystem::remove_all(dir);
    core::SessionOptions options;
    options.artifact_dir = dir;
    core::Session session(core::ScenarioSpec::load_file(source_path(ref.file)),
                          db, options);
    const std::string csv = dir + "/predictions.csv";
    core::write_predictions_csv(csv, session.model(), session.predict());
    EXPECT_EQ(hex(file_digest(session.dataset_path())), hex(ref.ssds))
        << ref.file;
    EXPECT_EQ(hex(file_digest(session.model_path())), hex(ref.ssmd))
        << ref.file;
    EXPECT_EQ(hex(file_digest(csv)), hex(ref.predictions)) << ref.file;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ssresf
