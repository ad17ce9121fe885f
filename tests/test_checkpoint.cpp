// Engine snapshot/restore semantics and the campaign execution model built
// on them: a restored checkpoint must continue bit-identically to an
// uninterrupted run (even after an injected fault perturbed the engine in
// between), and campaign results must not depend on thread count,
// checkpointing, or early exit.
#include <gtest/gtest.h>

#include <numeric>

#include "fi/campaign.h"
#include "fi/campaign_exec.h"
#include "netlist/builder.h"
#include "prepare_reference.h"
#include "sim/event_sim.h"
#include "sim/levelized_sim.h"
#include "sim/testbench.h"
#include "soc/programs.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace ssresf {
namespace {

using netlist::NetlistBuilder;
using sim::Engine;
using sim::EventSimulator;
using sim::LevelizedSimulator;
using sim::Logic;
using sim::NetId;
using sim::OutputTrace;
using sim::Testbench;
using sim::TestbenchConfig;

// A self-stimulating sequential design (twisted-ring counter with some
// combinational logic): needs only clk/rstn, so a testbench can run it from
// any checkpoint without replaying input stimulus.
struct RingDesign {
  netlist::Netlist netlist;
  NetId clk, rstn;
  std::vector<NetId> monitored;
  netlist::CellId ff0;
  NetId stage0;
};

RingDesign make_ring() {
  NetlistBuilder b("ring");
  RingDesign d;
  d.clk = b.input("clk");
  d.rstn = b.input("rstn");
  // 5-stage Johnson counter: the head recaptures the inverted tail, so the
  // state pattern oscillates forever (period 10) after reset.
  const NetId feedback = b.wire("fb");
  std::vector<NetId> qs(5);
  NetId prev = feedback;
  for (int i = 0; i < 5; ++i) {
    const auto ff = b.dffr(prev, d.clk, d.rstn, "s" + std::to_string(i));
    if (i == 0) {
      d.ff0 = ff.cell;
      d.stage0 = ff.q;
    }
    qs[static_cast<std::size_t>(i)] = ff.q;
    prev = ff.q;
  }
  b.drive(feedback, b.inv(qs[4]));
  // Combinational observers over the state: exercise AND/XOR/MUX cones.
  const NetId parity = b.xor2(b.xor2(qs[0], qs[2]), qs[4]);
  const NetId gated = b.and2(qs[1], b.inv(qs[3]));
  const NetId mux = b.mux2(qs[0], qs[4], parity);
  b.output(qs[4], "tail");
  b.output(parity, "parity");
  b.output(gated, "gated");
  b.output(mux, "mux");
  d.netlist = b.finish();
  for (const auto& [net, name] : d.netlist.primary_outputs()) {
    d.monitored.push_back(net);
  }
  return d;
}

TestbenchConfig ring_tb_config(const RingDesign& d) {
  TestbenchConfig cfg;
  cfg.clk = d.clk;
  cfg.rstn = d.rstn;
  cfg.monitored = d.monitored;
  cfg.clock_period_ps = 1000;
  return cfg;
}

// snapshot -> inject faults -> restore -> re-run golden must equal a fresh
// uninterrupted golden run, on either engine.
template <typename Sim>
void check_snapshot_inject_restore() {
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);
  constexpr int kWarm = 10;
  constexpr int kTail = 30;

  // Uninterrupted golden run.
  Sim fresh(d.netlist);
  Testbench fresh_tb(fresh, cfg);
  fresh_tb.reset();
  fresh_tb.run_cycles(kWarm - cfg.reset_cycles + kTail);
  const OutputTrace& golden = fresh_tb.trace();

  // Warm up a second engine to the checkpoint.
  Sim sim(d.netlist);
  Testbench warm_tb(sim, cfg);
  warm_tb.reset();
  warm_tb.run_cycles(kWarm - cfg.reset_cycles);
  const auto snapshot = sim.save_state();
  const OutputTrace prefix = warm_tb.trace();
  ASSERT_EQ(prefix.num_cycles(), static_cast<std::size_t>(kWarm));

  // Perturb the engine thoroughly: SET force, SEU deposit, extra cycles.
  {
    Testbench faulty_tb(sim, cfg);
    faulty_tb.resume_at(kWarm, prefix);
    faulty_tb.at(kWarm * 1000 + 100, [&](Engine& e) {
      e.force_net(d.stage0, Logic::L1);
      e.deposit_ff(d.ff0, Logic::X);
    });
    faulty_tb.run_cycles(7);
  }

  // Restore and re-run the tail cleanly: must match the fresh golden run.
  sim.restore_state(*snapshot);
  Testbench resumed_tb(sim, cfg);
  resumed_tb.resume_at(kWarm, prefix);
  resumed_tb.run_cycles(kTail);
  EXPECT_EQ(OutputTrace::first_mismatch(golden, resumed_tb.trace()),
            std::nullopt);
  EXPECT_EQ(resumed_tb.trace().num_cycles(), golden.num_cycles());
}

TEST(Checkpoint, EventEngineRestoreReproducesGolden) {
  check_snapshot_inject_restore<EventSimulator>();
}

TEST(Checkpoint, LevelizedEngineRestoreReproducesGolden) {
  check_snapshot_inject_restore<LevelizedSimulator>();
}

TEST(Checkpoint, SnapshotRestoresAcrossEngineInstances) {
  // A snapshot from one engine instance seeds a different instance over the
  // same netlist (how campaign workers consume the shared checkpoint).
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);

  EventSimulator a(d.netlist);
  Testbench tb_a(a, cfg);
  tb_a.reset();
  tb_a.run_cycles(6);
  const auto snapshot = a.save_state();

  EventSimulator b(d.netlist);
  b.restore_state(*snapshot);
  Testbench tb_b(b, cfg);
  tb_b.resume_at(tb_a.cycles_run(), tb_a.trace());

  tb_a.run_cycles(20);
  tb_b.run_cycles(20);
  EXPECT_EQ(OutputTrace::first_mismatch(tb_a.trace(), tb_b.trace()),
            std::nullopt);
}

TEST(Checkpoint, RestoreRejectsForeignState) {
  const RingDesign d = make_ring();
  EventSimulator event_sim(d.netlist);
  LevelizedSimulator level_sim(d.netlist);
  const auto event_state = event_sim.save_state();
  const auto level_state = level_sim.save_state();
  EXPECT_THROW(event_sim.restore_state(*level_state), InvalidArgument);
  EXPECT_THROW(level_sim.restore_state(*event_state), InvalidArgument);
}

TEST(Testbench, EarlyExitStopsAfterConfirmationWindow) {
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);

  EventSimulator golden_sim(d.netlist);
  Testbench golden_tb(golden_sim, cfg);
  golden_tb.reset();
  golden_tb.run_cycles(40);

  EventSimulator faulty_sim(d.netlist);
  Testbench faulty_tb(faulty_sim, cfg);
  faulty_tb.compare_against(&golden_tb.trace(), /*confirm_cycles=*/3);
  // A stuck-at on the first stage diverges the ring permanently.
  faulty_tb.at(12'000, [&](Engine& e) { e.force_net(d.stage0, Logic::L1); });
  faulty_tb.reset();
  faulty_tb.run_cycles(40);

  ASSERT_TRUE(faulty_tb.first_divergence().has_value());
  EXPECT_TRUE(faulty_tb.stopped_early());
  const std::size_t diverged = *faulty_tb.first_divergence();
  EXPECT_EQ(faulty_tb.trace().num_cycles(), diverged + 1 + 3);
  // The reported divergence matches a full-trace comparison.
  EXPECT_EQ(OutputTrace::first_mismatch(golden_tb.trace(), faulty_tb.trace()),
            diverged);
}

// --- campaign determinism ----------------------------------------------------

soc::SocModel small_soc() {
  soc::SocConfig cfg;
  cfg.mem_bytes = 16 * 1024;
  cfg.cpu_isa = "RV32I";
  cfg.bus = soc::BusProtocol::kAhb;
  cfg.bus_width_bits = 64;
  const soc::Workload w = soc::checksum_workload(8);
  const soc::Program programs[] = {soc::assemble(w.source)};
  return soc::build_soc(cfg, programs);
}

fi::CampaignConfig small_campaign(std::uint64_t seed = 17) {
  fi::CampaignConfig cfg;
  cfg.clustering.num_clusters = 5;
  cfg.sampling.fraction = 0.01;
  cfg.sampling.min_per_cluster = 4;
  cfg.sampling.max_per_cluster = 10;
  cfg.sampling.memory_macro_draws = 8;
  cfg.seed = seed;
  return cfg;
}

void expect_identical(const fi::CampaignResult& a, const fi::CampaignResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_EQ(ra.event.target.cell, rb.event.target.cell);
    EXPECT_EQ(ra.event.target.kind, rb.event.target.kind);
    EXPECT_EQ(ra.event.target.word, rb.event.target.word);
    EXPECT_EQ(ra.event.target.bit, rb.event.target.bit);
    EXPECT_EQ(ra.event.time_ps, rb.event.time_ps);
    EXPECT_EQ(ra.event.set_width_ps, rb.event.set_width_ps);
    EXPECT_EQ(ra.cluster, rb.cluster);
    EXPECT_EQ(ra.module_class, rb.module_class);
    EXPECT_EQ(ra.soft_error, rb.soft_error);
    EXPECT_EQ(ra.first_mismatch_cycle, rb.first_mismatch_cycle);
  }
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t k = 0; k < a.clusters.size(); ++k) {
    EXPECT_EQ(a.clusters[k].samples, b.clusters[k].samples);
    EXPECT_EQ(a.clusters[k].errors, b.clusters[k].errors);
    EXPECT_DOUBLE_EQ(a.clusters[k].ser_percent, b.clusters[k].ser_percent);
  }
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    EXPECT_EQ(a.per_class[c].samples, b.per_class[c].samples);
    EXPECT_EQ(a.per_class[c].errors, b.per_class[c].errors);
    EXPECT_DOUBLE_EQ(a.per_class[c].ser_percent, b.per_class[c].ser_percent);
  }
  EXPECT_DOUBLE_EQ(a.chip_ser_percent, b.chip_ser_percent);
}

TEST(CampaignDeterminism, OneVsFourThreads) {
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto cfg1 = small_campaign();
  cfg1.threads = 1;
  auto cfg4 = small_campaign();
  cfg4.threads = 4;
  expect_identical(fi::run_campaign(model, cfg1, db),
                   fi::run_campaign(model, cfg4, db));
}

TEST(CampaignDeterminism, CheckpointOnVsOff) {
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto on = small_campaign(23);
  on.use_checkpoint = true;
  auto off = small_campaign(23);
  off.use_checkpoint = false;
  expect_identical(fi::run_campaign(model, on, db),
                   fi::run_campaign(model, off, db));
}

TEST(CampaignDeterminism, EarlyExitOnVsOff) {
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto on = small_campaign(29);
  on.early_exit = true;
  auto off = small_campaign(29);
  off.early_exit = false;
  expect_identical(fi::run_campaign(model, on, db),
                   fi::run_campaign(model, off, db));
}

TEST(CampaignDeterminism, MaskedExitOnVsOff) {
  // Reconvergence detection must be a pure optimisation: stopping a run once
  // its state equals the golden checkpoint cannot change any record.
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto on = small_campaign(37);
  on.masked_exit = true;
  auto off = small_campaign(37);
  off.masked_exit = false;
  expect_identical(fi::run_campaign(model, on, db),
                   fi::run_campaign(model, off, db));
}

TEST(CampaignDeterminism, FullFastPathVsFullSlowPath) {
  // Every optimisation on (threads, checkpoint, early exit, masked exit)
  // against the serial seed execution model.
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto fast = small_campaign(43);
  fast.threads = 4;
  auto slow = small_campaign(43);
  slow.threads = 1;
  slow.use_checkpoint = false;
  slow.early_exit = false;
  slow.masked_exit = false;
  expect_identical(fi::run_campaign(model, fast, db),
                   fi::run_campaign(model, slow, db));
}

// --- one golden pass vs the two-pass reference --------------------------------

soc::SocModel sort_soc() {
  soc::SocConfig cfg;
  cfg.mem_bytes = 4 * 1024;
  cfg.cpu_isa = "RV32I";
  cfg.bus = soc::BusProtocol::kAhb;
  const soc::Program programs[] = {soc::assemble(soc::sort_workload().source)};
  return soc::build_soc(cfg, programs);
}

std::vector<int> rung_cycles(const fi::detail::CampaignPrep& prep) {
  std::vector<int> cycles;
  for (const auto& rung : prep.ladder) cycles.push_back(rung.cycle);
  return cycles;
}

/// Prepares `config` with the library's single pass and with the two-pass
/// reference, and checks everything that reaches a record: run length,
/// strike window, clustering, plan and golden trace equal; every rung a true
/// golden snapshot of its cycle; records byte-identical. Returns both
/// ladders' rung cycles (library first) for layout checks.
std::pair<std::vector<int>, std::vector<int>> expect_one_pass_matches_reference(
    const soc::SocModel& model, const fi::CampaignConfig& config) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::detail::CampaignPrep ref =
      testing_support::reference_prepare_campaign(model, config, db, true);
  const fi::detail::CampaignPrep got =
      fi::detail::prepare_campaign(model, config, db, true);

  EXPECT_EQ(got.run_cycles, ref.run_cycles);
  EXPECT_EQ(got.total_cycles, ref.total_cycles);
  EXPECT_EQ(got.clock_period_ps, ref.clock_period_ps);
  EXPECT_EQ(got.window_ps, ref.window_ps);
  EXPECT_EQ(got.t0, ref.t0);
  EXPECT_EQ(got.t1, ref.t1);
  EXPECT_EQ(got.tb_config.monitored, ref.tb_config.monitored);
  EXPECT_EQ(got.tb_config.reset_cycles, ref.tb_config.reset_cycles);
  EXPECT_EQ(got.clustering.cluster_of, ref.clustering.cluster_of);
  EXPECT_EQ(got.cell_xsects, ref.cell_xsects);
  EXPECT_EQ(got.plan.size(), ref.plan.size());
  for (std::size_t i = 0; i < std::min(got.plan.size(), ref.plan.size()); ++i) {
    EXPECT_EQ(got.plan[i].cluster, ref.plan[i].cluster) << "plan entry " << i;
    EXPECT_EQ(got.plan[i].cell, ref.plan[i].cell) << "plan entry " << i;
  }
  EXPECT_EQ(got.golden_trace.nets(), ref.golden_trace.nets());
  EXPECT_EQ(got.golden_trace.num_cycles(),
            static_cast<std::size_t>(ref.total_cycles));
  EXPECT_EQ(OutputTrace::first_mismatch(got.golden_trace, ref.golden_trace),
            std::nullopt);

  // Rungs ascend inside the timeline, and each holds exactly the state the
  // reference replay engine reaches at that cycle.
  const auto replay = sim::make_engine(fi::detail::golden_engine_kind(config),
                                       model.netlist);
  Testbench replay_tb(*replay, ref.tb_config);
  replay_tb.reset();
  int prev = -1;
  for (const auto& rung : got.ladder) {
    EXPECT_GT(rung.cycle, prev);
    EXPECT_GE(rung.cycle, ref.tb_config.reset_cycles);
    EXPECT_LT(rung.cycle, got.total_cycles);
    if (!config.masked_exit) {
      EXPECT_LE(static_cast<std::uint64_t>(rung.cycle) * got.clock_period_ps,
                got.t1);
    }
    prev = rung.cycle;
    replay_tb.run_cycles(rung.cycle - static_cast<int>(replay_tb.cycles_run()));
    EXPECT_TRUE(replay->state_matches(*rung.state)) << "rung " << rung.cycle;
  }

  std::vector<std::size_t> owned(ref.plan.size());
  std::iota(owned.begin(), owned.end(), std::size_t{0});
  std::vector<fi::InjectionRecord> ref_records(ref.plan.size());
  std::vector<fi::InjectionRecord> got_records(ref.plan.size());
  fi::detail::execute_injections(model, config, ref, owned, ref_records);
  fi::detail::execute_injections(model, config, got, owned, got_records);
  EXPECT_EQ(got_records, ref_records);

  // The planning-only prep (the resume path) stops at the halt: same run
  // length and plan, no trace, no ladder.
  const fi::detail::CampaignPrep plan_only =
      fi::detail::prepare_campaign(model, config, db, false);
  EXPECT_EQ(plan_only.run_cycles, ref.run_cycles);
  EXPECT_EQ(plan_only.t1, ref.t1);
  EXPECT_EQ(plan_only.plan.size(), ref.plan.size());
  EXPECT_EQ(plan_only.golden_trace.num_cycles(), 0u);
  EXPECT_TRUE(plan_only.ladder.empty());
  return {rung_cycles(got), rung_cycles(ref)};
}

class OnePassPrepare : public ::testing::TestWithParam<sim::EngineKind> {
 protected:
  fi::CampaignConfig config(std::uint64_t seed) const {
    fi::CampaignConfig cfg = small_campaign(seed);
    cfg.engine = GetParam();
    // A dozen injections: enough to restore from rungs across the window.
    cfg.sampling.min_per_cluster = 2;
    cfg.sampling.max_per_cluster = 3;
    cfg.sampling.memory_macro_draws = 2;
    return cfg;
  }
};

TEST_P(OnePassPrepare, AutoLengthKeepsShortRunLadder) {
  const auto model = small_soc();
  const auto cfg = config(51);
  const auto [got, ref] = expect_one_pass_matches_reference(model, cfg);
  // Under 288 cycles the auto stride was already 8: the same rungs.
  const auto db = radiation::SoftErrorDatabase::default_database();
  ASSERT_LT(fi::detail::prepare_campaign(model, cfg, db, false).total_cycles,
            288);
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got, ref);
}

TEST_P(OnePassPrepare, FixedRunLengthMatchesReference) {
  const auto model = small_soc();
  auto cfg = config(53);
  cfg.run_cycles = 150;
  expect_one_pass_matches_reference(model, cfg);
}

TEST_P(OnePassPrepare, ExplicitStrideKeepsExactRungs) {
  const auto model = small_soc();
  auto cfg = config(57);
  cfg.checkpoint_stride_cycles = 5;
  const auto [got, ref] = expect_one_pass_matches_reference(model, cfg);
  EXPECT_EQ(got, ref);
  ASSERT_FALSE(got.empty());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], got.front() + static_cast<int>(k) * 5);
  }
}

TEST_P(OnePassPrepare, MaskedExitOffStopsLadderAtT1) {
  const auto model = small_soc();
  auto cfg = config(59);
  cfg.masked_exit = false;
  const auto [got, ref] = expect_one_pass_matches_reference(model, cfg);
  EXPECT_EQ(got, ref);
}

TEST_P(OnePassPrepare, CheckpointAndMaskedExitOffBuildNoLadder) {
  const auto model = small_soc();
  auto cfg = config(61);
  cfg.use_checkpoint = false;
  cfg.masked_exit = false;
  const auto [got, ref] = expect_one_pass_matches_reference(model, cfg);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(ref.empty());
}

TEST_P(OnePassPrepare, NoHaltWithinMaxCycles) {
  const auto model = small_soc();
  auto cfg = config(67);
  cfg.max_cycles = 45;  // not a multiple of the 32-cycle halt check
  const auto db = radiation::SoftErrorDatabase::default_database();
  const auto prep = fi::detail::prepare_campaign(model, cfg, db, false);
  EXPECT_EQ(prep.run_cycles, prep.tb_config.reset_cycles + 45 + 8);
  expect_one_pass_matches_reference(model, cfg);
}

TEST_P(OnePassPrepare, LongRunThinsToDoublingLadder) {
  const auto model = sort_soc();
  auto cfg = config(71);
  cfg.max_cycles = 2500;
  const auto [got, ref] = expect_one_pass_matches_reference(model, cfg);
  // Long enough that the old auto stride max(8, total/32) exceeded 8 ...
  ASSERT_GE(ref.size(), 2u);
  ASSERT_GT(ref[1] - ref[0], 8);
  // ... so the doubling ladder thinned: uniform stride 8 * 2^k, k >= 1, at
  // most 64 rungs, from the warm cycle on to the end of the timeline.
  ASSERT_GE(got.size(), 2u);
  EXPECT_LE(got.size(), 64u);
  EXPECT_EQ(got.front(), ref.front());
  const int stride = got[1] - got[0];
  EXPECT_GT(stride, 8);
  EXPECT_EQ(stride & (stride - 1), 0) << "stride " << stride;
  for (std::size_t k = 1; k < got.size(); ++k) {
    EXPECT_EQ(got[k] - got[k - 1], stride);
  }
  const auto db = radiation::SoftErrorDatabase::default_database();
  const auto prep = fi::detail::prepare_campaign(model, cfg, db, false);
  EXPECT_GE(got.back() + stride, prep.total_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, OnePassPrepare,
    ::testing::Values(sim::EngineKind::kLevelized, sim::EngineKind::kEvent,
                      sim::EngineKind::kBitParallel),
    [](const ::testing::TestParamInfo<sim::EngineKind>& info) {
      switch (info.param) {
        case sim::EngineKind::kLevelized:
          return std::string("Levelized");
        case sim::EngineKind::kEvent:
          return std::string("Event");
        default:
          return std::string("BitParallel");
      }
    });

TEST(ThreadPool, RunsJobsAndPropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);

  auto failing = pool.submit([] { throw ssresf::Error("boom"); });
  EXPECT_THROW(failing.get(), ssresf::Error);
}

TEST(Rng, StreamDerivationIsOrderIndependent) {
  const auto a = util::Rng::from_stream(42, 7).next();
  util::Rng scratch(9001);
  scratch.next();
  const auto b = util::Rng::from_stream(42, 7).next();
  EXPECT_EQ(a, b);
  // Neighbouring streams decorrelate.
  EXPECT_NE(util::Rng::from_stream(42, 7).next(),
            util::Rng::from_stream(42, 8).next());
  EXPECT_NE(util::Rng::from_stream(42, 7).next(),
            util::Rng::from_stream(43, 7).next());
}

}  // namespace
}  // namespace ssresf
