// The workloads. WORKLOADS.md records why each exists and which per-layer
// metric should move which end-to-end metric on it.

#include <algorithm>
#include <functional>
#include <future>
#include <optional>

#include "common.h"
#include "core/session.h"
#include "fi/campaign_exec.h"
#include "fi/shard.h"
#include "util/bytes.h"
#include "util/timer.h"

namespace perfbench {

using namespace ssresf;

namespace {

// --- workload sizing -----------------------------------------------------------
// Set-up repeats until it has run kSetupReps times and for kSetupSeconds
// (setup_s is the median repetition); ops repeat until --seconds have passed
// and at least kMinOps ran.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 1.0;
constexpr int kMinOps = 3;
// campaign-large: packed engine at its widest lane count.
constexpr int kLargeLanes = 256;
// Injections re-run on the 1-thread levelized reference per scenario.
constexpr std::size_t kGateInjections = 24;

struct SessionOp {
  double seconds = 0.0;
  std::string ssmd_path;
  std::string csv_path;
  std::vector<fi::InjectionRecord> records;  // kept on request
};

/// One cold Session from scenario to predictions CSV, every stage under its
/// own span. The artifact dir makes persistence part of the op.
SessionOp session_op(Context& ctx, const core::ScenarioSpec& spec,
                     const std::string& dir, int lanes, bool keep_records) {
  SessionOp out;
  core::SessionOptions options;
  options.artifact_dir = dir;
  options.threads = ctx.threads;
  options.lanes = lanes;
  out.csv_path = join_path(dir, "predictions.csv");
  std::optional<core::Session> session;
  util::Timer timer;
  {
    Tracer& t = ctx.tracer;
    { auto s = t.span("core.session"); session.emplace(spec, ctx.db, options); }
    { auto s = t.span("core.simulate"); (void)session->simulate(); }
    { auto s = t.span("core.build_dataset"); (void)session->build_dataset(); }
    { auto s = t.span("core.tune"); (void)session->tune(); }
    { auto s = t.span("core.train"); (void)session->train(); }
    { auto s = t.span("core.predict"); (void)session->predict(); }
    {
      auto s = t.span("core.write_predictions");
      core::write_predictions_csv(out.csv_path, session->model(),
                                  session->predict());
    }
  }
  out.seconds = timer.seconds();
  out.ssmd_path = session->model_path();
  if (keep_records) out.records = session->simulate().records;
  return out;
}

struct GateResult {
  bool same = false;
  std::size_t checked = 0;
  std::size_t plan = 0;
  double seconds = 0.0;
};

/// Re-runs the op's plan on the scalar levelized engine at one thread (every
/// entry when the plan has at most kGateInjections, else a seed-offset
/// stride of about that many) and compares the encoded record bytes with
/// the op's. Touches no shared state, so several may run concurrently.
GateResult levelized_check(const Context& ctx, const core::ScenarioSpec& spec,
                           const soc::SocModel& model,
                           const std::vector<fi::InjectionRecord>& records) {
  const util::Timer timer;
  fi::CampaignConfig config = spec.campaign.config;
  config.engine = sim::EngineKind::kLevelized;
  config.threads = 1;
  const fi::detail::CampaignPrep prep =
      fi::detail::prepare_campaign(model, config, ctx.db, true);
  GateResult out;
  out.plan = prep.plan.size();
  const std::size_t stride = std::max<std::size_t>(
      1, (out.plan + kGateInjections - 1) / kGateInjections);
  std::vector<std::size_t> owned;
  for (std::size_t i = ctx.options.seed % stride; i < out.plan; i += stride) {
    owned.push_back(i);
  }
  out.checked = owned.size();
  std::vector<fi::InjectionRecord> reference(out.plan);
  fi::detail::execute_injections(model, config, prep, owned, reference);
  out.same = records.size() == out.plan;
  if (out.same) {
    std::vector<fi::ShardRecord> got;
    std::vector<fi::ShardRecord> want;
    for (const std::size_t i : owned) {
      got.push_back({i, records[i]});
      want.push_back({i, reference[i]});
    }
    util::ByteWriter a;
    util::ByteWriter b;
    fi::encode_records(a, got);
    fi::encode_records(b, want);
    out.same = a.data() == b.data();
  }
  out.seconds = timer.seconds();
  return out;
}

void report_gate(Context& ctx, const std::string& name, const GateResult& r) {
  ctx.op(r.same, name + ": " + std::to_string(r.checked) + " of " +
                     std::to_string(r.plan) +
                     " records byte-identical to levelized at 1 thread");
  char line[120];
  std::snprintf(line, sizeof(line), "levelized check %s took %.2f s",
                name.c_str(), r.seconds);
  ctx.note(line);
}

/// Checks every op of a run wrote the same bundle and predictions.
void digests_agree(Context& ctx, const std::string& name,
                   const std::vector<SessionOp>& ops) {
  const std::uint64_t ssmd = file_digest(ops[0].ssmd_path);
  const std::uint64_t csv = file_digest(ops[0].csv_path);
  for (std::size_t i = 1; i < ops.size(); ++i) {
    ctx.op(file_digest(ops[i].ssmd_path) == ssmd &&
               file_digest(ops[i].csv_path) == csv,
           name + ": op " + std::to_string(i) +
               " .ssmd and predictions CSV equal op 0's");
  }
}

/// The set-up: the soft-error database and each scenario's SoC model (the
/// ops build their own, as a cold Session does; the correctness checks and
/// the layer pass use these). Repeated until it has run kSetupReps times and
/// for kSetupSeconds, each repetition timed and traced as its own op.
std::vector<soc::SocModel> setup(Context& ctx,
                                 const std::vector<core::ScenarioSpec>& specs) {
  std::vector<soc::SocModel> models;
  const util::Timer total;
  for (int r = 0; r < kSetupReps || total.seconds() < kSetupSeconds; ++r) {
    ctx.tracer.begin_op();
    const util::Timer timer;
    {
      auto s = ctx.tracer.span("setup.database");
      ctx.db = radiation::SoftErrorDatabase::default_database();
    }
    models.clear();
    for (const auto& spec : specs) {
      auto s = ctx.tracer.span("soc.build");
      models.push_back(spec.build_model());
    }
    ctx.measures.setup_s.push_back(timer.seconds());
  }
  return models;
}

bool keep_going(const util::Timer& timer, const Context& ctx,
                std::size_t done) {
  return done < static_cast<std::size_t>(kMinOps) ||
         timer.seconds() < ctx.options.seconds;
}

void note_plan(Context& ctx, const std::string& name, std::size_t plan) {
  ctx.note("plan " + name + " " + std::to_string(plan) + " injections");
}

}  // namespace

// --- campaign-large -----------------------------------------------------------

void run_campaign_large(Context& ctx) {
  const core::ScenarioSpec spec = load_scenario(ctx, "campaign-large.yaml", 1);
  const std::vector<soc::SocModel> models = setup(ctx, {spec});

  std::vector<SessionOp> ops;
  const util::Timer run;
  while (keep_going(run, ctx, ops.size())) {
    ctx.tracer.begin_op();
    const std::string dir =
        join_path(ctx.options.work_dir, "op-" + std::to_string(ops.size()));
    fresh_dir(dir);
    auto span = ctx.tracer.span("bench.op");
    ops.push_back(session_op(ctx, spec, dir, kLargeLanes, ops.empty()));
    ctx.measures.pipeline_s.push_back(ops.back().seconds);
    ctx.op(true, "campaign-large op");
  }
  note_plan(ctx, spec.name, ops[0].records.size());
  digests_agree(ctx, spec.name, ops);
  report_gate(ctx, spec.name,
              levelized_check(ctx, spec, models[0], ops[0].records));
  if (ctx.options.trace) {
    ctx.tracer.begin_op();
    layer_pass(ctx, spec, models[0], kLargeLanes, ops[0].ssmd_path);
  }
}

// --- sweep-shipped --------------------------------------------------------------

void run_sweep_shipped(Context& ctx) {
  static const char* const kFiles[] = {"benchmark.yaml", "benchmark-light.yaml",
                                       "checksum.yaml", "fibonacci.yaml",
                                       "sort.yaml"};
  std::vector<core::ScenarioSpec> specs;
  for (std::size_t i = 0; i < std::size(kFiles); ++i) {
    specs.push_back(load_scenario(ctx, kFiles[i], 10 + i));
  }
  const std::vector<soc::SocModel> models = setup(ctx, specs);

  std::vector<std::vector<SessionOp>> sweeps;
  const util::Timer run;
  while (keep_going(run, ctx, sweeps.size())) {
    ctx.tracer.begin_op();
    const std::string dir =
        join_path(ctx.options.work_dir, "sweep-" + std::to_string(sweeps.size()));
    std::vector<SessionOp> sweep;
    double total = 0.0;
    {
      auto span = ctx.tracer.span("bench.op");
      for (const auto& spec : specs) {
        const std::string sdir = join_path(dir, spec.name);
        fresh_dir(sdir);
        sweep.push_back(session_op(ctx, spec, sdir, 0, sweeps.empty()));
        total += sweep.back().seconds;
      }
    }
    ctx.measures.pipeline_s.push_back(total);
    ctx.op(true, "sweep-shipped op");
    sweeps.push_back(std::move(sweep));
  }
  // One single-threaded reference per scenario, run side by side.
  std::vector<std::future<GateResult>> gates;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    gates.push_back(std::async(std::launch::async, levelized_check,
                               std::cref(ctx), std::cref(specs[k]),
                               std::cref(models[k]),
                               std::cref(sweeps[0][k].records)));
  }
  for (std::size_t k = 0; k < specs.size(); ++k) {
    std::vector<SessionOp> per_scenario;
    for (const auto& sweep : sweeps) per_scenario.push_back(sweep[k]);
    note_plan(ctx, specs[k].name, sweeps[0][k].records.size());
    digests_agree(ctx, specs[k].name, per_scenario);
    report_gate(ctx, specs[k].name, gates[k].get());
  }
  if (ctx.options.trace) {
    ctx.tracer.begin_op();
    for (std::size_t k = 0; k < specs.size(); ++k) {
      layer_pass(ctx, specs[k], models[k], 0, sweeps[0][k].ssmd_path);
    }
  }
}

}  // namespace perfbench
