// Reference digests: FNV-1a fingerprints of simulation results that no
// engine optimization may move. The golden halt-run trace of every shipped
// scenario is pinned on the scalar levelized engine and on the bit-parallel
// engine's golden lane, and the canonical records CSV of both CI campaigns
// is pinned byte for byte. Cross-engine equivalence tests compare engines
// with each other; these compare each engine with a fixed reference, so a
// change that moves every engine the same way still fails here.
#include <gtest/gtest.h>

#include <cstdio>
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

std::uint64_t records_csv_digest(const std::vector<fi::InjectionRecord>& records) {
  const std::string path = testing::TempDir() + "/ssresf_reference_records.csv";
  fi::write_records_csv(path, records);
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  return util::fnv1a(bytes);
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

}  // namespace
}  // namespace ssresf
