// The traced decomposition: each layer's public functions called directly,
// on the same inputs the workload's ops feed through core::Session, each
// under its own span. Session stages are opaque from outside, so this is
// how the traced run splits core.simulate into golden run, clustering,
// sampling, prepare and execute, and core.tune into feature selection and
// cross-validation.

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "cluster/kcluster.h"
#include "cluster/sampling.h"
#include "common.h"
#include "core/features.h"
#include "core/model_io.h"
#include "fi/campaign_exec.h"
#include "fi/shard.h"
#include "ml/feature_selection.h"
#include "net/protocol.h"
#include "serve/http.h"
#include "serve/predict_client.h"
#include "serve/predict_server.h"
#include "serve/registry.h"
#include "soc/run.h"
#include "util/timer.h"

namespace perfbench {

using namespace ssresf;

namespace {

/// Every injectable node's raw feature row, in Session::predict's order.
std::vector<std::vector<double>> netlist_rows(const soc::SocModel& model) {
  const core::FeatureExtractor extractor(model.netlist);
  std::vector<std::vector<double>> rows;
  for (const netlist::CellId id : model.netlist.all_cells()) {
    const netlist::CellKind kind = model.netlist.cell(id).kind;
    if (kind == netlist::CellKind::kConst0 ||
        kind == netlist::CellKind::kConst1) {
      continue;
    }
    rows.push_back(extractor.extract(id));
  }
  return rows;
}

/// Size of the JSON body HttpPredictClient sends for `rows` (the HTTP front
/// parses this; the SSNP front decodes the binary frame instead).
std::uint64_t http_body_bytes(const std::string& alias,
                              const std::vector<std::vector<double>>& rows) {
  std::uint64_t n = std::string("{\"model\":").size() +
                    serve::json_quote(alias).size() +
                    std::string(",\"digest\":\"0x0123456789abcdef\",\"rows\":[]}")
                        .size();
  for (const auto& row : rows) {
    n += 2 + (row.empty() ? 0 : row.size() - 1);  // brackets + commas
    for (const double v : row) n += serve::json_number(v).size();
  }
  return n + (rows.empty() ? 0 : rows.size() - 1);
}

/// Serve-layer probe for one bundle: registry load, a direct handle_batch,
/// request encoding, and SSNP round trips on an in-process server.
void serve_probe(Context& ctx, const std::string& ssmd_path,
                 const soc::SocModel& model) {
  static int probe_count = 0;
  const std::string alias = std::filesystem::path(ssmd_path).stem().string();
  const std::string dir = join_path(
      ctx.options.work_dir, "probe-models-" + std::to_string(probe_count++));
  fresh_dir(dir);
  std::filesystem::copy_file(ssmd_path, join_path(dir, alias + ".ssmd"));

  const std::vector<std::vector<double>> rows = netlist_rows(model);
  std::uint64_t digest = 0;
  {
    auto span = ctx.tracer.span("serve.registry_load");
    serve::ModelRegistry registry(dir);
    registry.refresh();
    const auto served = registry.find(alias);
    ctx.op(served != nullptr, "serve probe: registry serves " + alias);
    if (served == nullptr) return;
    digest = served->bundle->config_digest;
  }

  const auto bundle = serve::ModelRegistry::load_file(ssmd_path);
  std::vector<int> expected;
  expected.reserve(rows.size());
  for (const auto& row : rows) {
    expected.push_back(core::bundle_classify(*bundle, row));
  }

  net::PredictRequestMsg request;
  request.alias = alias;
  request.config_digest = digest;
  request.num_rows = rows.size();
  request.num_features = rows.empty() ? 0 : rows.front().size();
  request.rows = rows;
  {
    auto span = ctx.tracer.span("net.request_encode");
    ctx.layers.request_bytes +=
        static_cast<double>(net::encode_payload(request).size());
  }
  ctx.layers.http_body_bytes += static_cast<double>(http_body_bytes(alias, rows));

  serve::PredictServerOptions options;
  options.models_dir = dir;
  options.http_port = -1;
  options.threads = 2;
  options.reload_interval_seconds = 0.0;
  serve::PredictServer server(options);
  server.start();

  // Warm both paths once, then take the median of three of each. The
  // transport share of a round trip is its time minus the server's own
  // service time for that request (the registry's per-alias counter).
  (void)server.handle_batch(request);
  serve::PredictClient client("127.0.0.1", server.ssnp_port());
  (void)client.predict(alias, digest, rows);
  std::vector<double> classify_ms;
  std::vector<double> transport_ms;
  bool ok = true;
  for (int i = 0; i < 3; ++i) {
    {
      auto span = ctx.tracer.span("serve.classify");
      util::Timer timer;
      ok = server.handle_batch(request).labels == expected && ok;
      classify_ms.push_back(timer.milliseconds());
    }
    const double served_before =
        server.registry().stats(alias).total_seconds;
    util::Timer timer;
    const serve::PredictResult result = client.predict(alias, digest, rows);
    const double round_trip_ms = timer.milliseconds();
    const double service_ms =
        (server.registry().stats(alias).total_seconds - served_before) * 1e3;
    transport_ms.push_back(round_trip_ms - service_ms);
    ok = ok && result.labels == expected && result.alias == alias &&
         result.config_digest == digest;
  }
  ctx.op(ok, "serve probe: direct and SSNP answers equal bundle_classify");
  ctx.layers.classify_ms += median(classify_ms);
  ctx.layers.transport_ms += median(transport_ms);
  server.stop();
}

}  // namespace

void layer_pass(Context& ctx, const core::ScenarioSpec& spec,
                const soc::SocModel& model, int lanes,
                const std::string& expect_ssmd) {
  Tracer& tracer = ctx.tracer;
  LayerCounts& counts = ctx.layers;
  fi::CampaignConfig config = spec.campaign.config;
  config.threads = ctx.threads;
  if (lanes != 0) config.lanes = lanes;
  counts.soc_cells += static_cast<double>(model.netlist.num_cells());

  // --- sim: the golden run to halt (prepare_campaign's first golden pass).
  {
    auto span = tracer.span("sim.golden_halt");
    soc::SocRunner golden(model, fi::detail::golden_engine_kind(config),
                          soc::pick_clock_period(model.netlist));
    golden.reset();
    if (config.run_cycles == 0) {
      counts.golden_cycles += golden.run_until_halt(config.max_cycles);
    } else {
      golden.run(config.run_cycles);
      counts.golden_cycles += config.run_cycles;
    }
  }

  // --- cluster: Algorithm 1, with prepare_campaign's RNG forks.
  util::Rng rng(config.seed);
  util::Rng cluster_rng = rng.fork();
  util::Rng sample_rng = rng.fork();
  cluster::ClusteringResult clustering;
  {
    auto span = tracer.span("cluster.cluster_cells");
    clustering = cluster::cluster_cells(model.netlist, config.clustering,
                                        cluster_rng);
  }

  // --- fi: prepare (both golden passes + clustering + sampling + ladder).
  fi::detail::CampaignPrep prep;
  {
    auto span = tracer.span("fi.prepare");
    prep = fi::detail::prepare_campaign(model, config, ctx.db, true);
  }
  counts.ladder_rungs += static_cast<double>(prep.ladder.size());
  counts.plan_injections += static_cast<double>(prep.plan.size());
  {
    std::vector<cluster::ClusterSample> samples;
    {
      auto span = tracer.span("cluster.sample");
      samples = cluster::sample_clusters(model.netlist, clustering,
                                         config.sampling, sample_rng,
                                         prep.cell_xsects);
    }
    std::vector<netlist::CellId> planned;
    for (const auto& s : samples) {
      planned.insert(planned.end(), s.cells.begin(), s.cells.end());
    }
    bool same = clustering.cluster_of == prep.clustering.cluster_of &&
                planned.size() == prep.plan.size();
    for (std::size_t i = 0; same && i < planned.size(); ++i) {
      same = planned[i] == prep.plan[i].cell;
    }
    ctx.op(same, spec.name + ": direct clustering + sampling equal the plan");
  }

  std::vector<fi::InjectionRecord> records(prep.plan.size());
  std::vector<std::size_t> owned(prep.plan.size());
  std::iota(owned.begin(), owned.end(), std::size_t{0});
  {
    auto span = tracer.span("fi.execute");
    fi::detail::execute_injections(model, config, prep, owned, records);
  }
  for (const auto& r : records) counts.soft_errors += r.soft_error ? 1 : 0;

  // --- fi: the records artifact, written and read back as Session does.
  const std::string records_path =
      join_path(ctx.options.work_dir, "layer-" + spec.name + ".ssfs");
  {
    auto span = tracer.span("fi.persist");
    std::vector<fi::ShardRecord> shard;
    shard.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      shard.push_back(fi::ShardRecord{i, records[i]});
    }
    fi::ShardFileMeta meta;
    meta.seed = spec.campaign.config.seed;
    meta.total_injections = shard.size();
    meta.num_records = shard.size();
    meta.config_digest =
        fi::campaign_config_digest(model, spec.campaign.config);
    fi::write_shard_file(records_path, meta, shard);
  }
  counts.records_bytes += static_cast<double>(file_size(records_path));
  fi::CampaignResult campaign;
  {
    auto span = tracer.span("fi.records_load");
    campaign = fi::merge_shard_files(model, spec.campaign.config, ctx.db,
                                     {records_path});
  }
  ctx.op(campaign.records == records,
         spec.name + ": records read back equal the executed records");

  // --- ml: Session::tune / train, stage by stage, same RNG forks.
  ml::Dataset data;
  {
    auto span = tracer.span("ml.dataset");
    data = core::build_dataset(model, campaign);
  }
  counts.rows += static_cast<double>(data.size());
  if (data.size() == campaign.records.size()) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (data.label(i) != 1) continue;
      (campaign.records[i].soft_error ? counts.labels_own
                                      : counts.labels_inherited) += 1;
    }
  }

  util::Rng ml_rng(spec.ml_seed);
  std::vector<int> selected;
  ml::Dataset projected;
  {
    auto span = tracer.span("ml.feature_selection");
    if (spec.feature_selection && data.count_label(1) > 0 &&
        data.count_label(-1) > 0) {
      util::Rng selection_rng = ml_rng.fork();
      const ml::FeatureSelectionResult selection = ml::select_features(
          data, spec.svm, spec.cv_folds, selection_rng);
      selected.assign(selection.ranked.begin(),
                      selection.ranked.begin() + selection.best_count);
    } else {
      selected.resize(data.num_features());
      std::iota(selected.begin(), selected.end(), 0);
    }
    projected = data.project(selected);
  }
  ml::SvmConfig chosen = spec.svm;
  ml::CvResult cv;
  {
    auto span = tracer.span("ml.cv");
    if (spec.run_grid_search) {
      util::Rng grid_rng = ml_rng.fork();
      chosen = ml::grid_search(projected, spec.svm, spec.grid_c,
                               spec.grid_gamma, spec.cv_folds, grid_rng)
                   .best;
    }
    util::Rng cv_rng = ml_rng.fork();
    cv = ml::cross_validate(projected, chosen, spec.cv_folds, cv_rng);
  }
  core::ModelBundle bundle;
  {
    auto span = tracer.span("ml.svm_train");
    ml::Dataset scaled = projected;
    bundle.scaler.fit_transform(scaled);
    bundle.model = ml::SvmClassifier(chosen);
    bundle.model.train(scaled);
  }
  counts.kernel_evals += static_cast<double>(bundle.model.kernel_evals());
  counts.support_vectors +=
      static_cast<double>(bundle.model.num_support_vectors());
  const double positives = static_cast<double>(data.count_label(1));
  const double n = static_cast<double>(std::max<std::size_t>(data.size(), 1));
  counts.cv_accuracy += cv.mean_accuracy;
  counts.majority_baseline += std::max(positives, n - positives) / n;
  counts.balanced_accuracy +=
      0.5 * (cv.aggregate.tpr() + cv.aggregate.tnr());
  ++counts.fidelity_n;

  bundle.config_digest = fi::campaign_config_digest(model, spec.campaign.config);
  bundle.scenario_name = spec.name;
  bundle.chosen_svm = chosen;
  bundle.selected_features = selected;
  bundle.feature_names = core::node_feature_names();
  bundle.cv_mean_accuracy = cv.mean_accuracy;
  const std::string ssmd =
      join_path(ctx.options.work_dir, "layer-" + spec.name + ".ssmd");
  core::write_model_file(ssmd, bundle);
  ctx.op(file_digest(ssmd) == file_digest(expect_ssmd),
         spec.name + ": layer-by-layer bundle is byte-identical to the "
                     "Session bundle");

  serve_probe(ctx, ssmd, model);
}

}  // namespace perfbench
