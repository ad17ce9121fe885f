// perfbench_driver: runs one workload for one seed and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --scenarios DIR --work-dir DIR [--trace-out FILE]
//
// The last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Lines before it are notes: the host record,
// op times, plan sizes, check timings and (traced) the fidelity view.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.h"
#include "util/bytes.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace ssresf;

Context::Context(Options o)
    : options(std::move(o)),
      tracer(options.trace),
      threads(std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)))) {}

void Context::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  note("FAILED: " + what);
}

void Context::note(std::string line) {
  measures.notes.push_back(std::move(line));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  util::Fnv1a d;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    d.bytes({reinterpret_cast<const std::uint8_t*>(buf),
             static_cast<std::size_t>(in.gcount())});
  }
  return d.h;
}

std::uint64_t file_size(const std::string& path) {
  return std::filesystem::file_size(path);
}

std::string join_path(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

namespace {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

core::ScenarioSpec load_scenario(const Context& ctx, const std::string& file,
                                 std::uint64_t salt) {
  core::ScenarioSpec spec =
      core::ScenarioSpec::load_file(join_path(ctx.options.scenarios_dir, file));
  spec.campaign.config.seed = mix_seed(ctx.options.seed, salt) % 1000000;
  return spec;
}

namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string host_record(const Options& o) {
  __builtin_cpu_init();
  std::ostringstream s;
  s << "host {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
    << ", \"avx512f\": "
    << (__builtin_cpu_supports("avx512f") ? "true" : "false")
    << ", \"avx512bw\": "
    << (__builtin_cpu_supports("avx512bw") ? "true" : "false")
    << ", \"avx512vl\": "
    << (__builtin_cpu_supports("avx512vl") ? "true" : "false")
    << ", \"compiler\": \"" << __VERSION__ << "\""
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
    << ", \"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
    << ", \"seconds\": " << o.seconds << ", \"trace\": " << o.trace << "}";
  return s.str();
}

std::vector<Metric> end_to_end(Context& ctx) {
  const Measures& m = ctx.measures;
  std::string ops = "ops_s";
  for (const double v : m.pipeline_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", v);
    ops += buf;
  }
  ctx.note(ops);
  return {
      {"setup_s", median(m.setup_s), "s"},
      {"pipeline_s", median(m.pipeline_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> per_layer(Context& ctx) {
  const Tracer& tr = ctx.tracer;
  const LayerCounts& c = ctx.layers;
  const auto s = [&](const char* span) { return median(tr.self_per_op(span)); };
  const double n = std::max(1, c.fidelity_n);
  char line[200];
  std::snprintf(line, sizeof(line),
                "fidelity cv_accuracy %.4f majority_baseline %.4f "
                "balanced_accuracy %.4f; +1 labels: %.0f own soft error, %.0f "
                "inherited from the cluster",
                c.cv_accuracy / n, c.majority_baseline / n,
                c.balanced_accuracy / n, c.labels_own, c.labels_inherited);
  ctx.note(line);
  const double execute_s = s("fi.execute");
  return {
      {"core.session_s", s("core.session"), "s"},
      {"core.simulate_s", s("core.simulate"), "s"},
      {"core.build_dataset_s", s("core.build_dataset"), "s"},
      {"core.tune_s", s("core.tune"), "s"},
      {"core.train_s", s("core.train"), "s"},
      {"core.predict_s", s("core.predict"), "s"},
      {"core.write_predictions_s", s("core.write_predictions"), "s"},
      {"bench.traced_pipeline_s", median(ctx.measures.pipeline_s), "s"},
      {"bench.unattributed_s", s("bench.op"), "s"},
      {"soc.build_s", s("soc.build"), "s"},
      {"soc.cells", c.soc_cells, "count"},
      {"sim.golden_halt_s", s("sim.golden_halt"), "s"},
      {"sim.golden_cycles", c.golden_cycles, "count"},
      {"cluster.cluster_cells_s", s("cluster.cluster_cells"), "s"},
      {"cluster.sample_s", s("cluster.sample"), "s"},
      {"fi.prepare_s", s("fi.prepare"), "s"},
      {"fi.ladder_rungs", c.ladder_rungs, "count"},
      {"fi.execute_s", execute_s, "s"},
      {"fi.execute_inj_per_s",
       execute_s > 0 ? c.plan_injections / execute_s : 0.0, "1/s"},
      {"fi.plan_injections", c.plan_injections, "count"},
      {"fi.soft_errors", c.soft_errors, "count"},
      {"fi.persist_s", s("fi.persist"), "s"},
      {"fi.records_bytes", c.records_bytes, "bytes"},
      {"fi.records_load_s", s("fi.records_load"), "s"},
      {"ml.feature_selection_s", s("ml.feature_selection"), "s"},
      {"ml.cv_s", s("ml.cv"), "s"},
      {"ml.svm_train_s", s("ml.svm_train"), "s"},
      {"ml.kernel_evals", c.kernel_evals, "count"},
      {"ml.support_vectors", c.support_vectors, "count"},
      {"ml.rows", c.rows, "count"},
      {"ml.cv_accuracy", c.cv_accuracy / n, "ratio"},
      {"ml.majority_baseline", c.majority_baseline / n, "ratio"},
      {"ml.balanced_accuracy", c.balanced_accuracy / n, "ratio"},
      {"serve.registry_load_s", s("serve.registry_load"), "s"},
      {"serve.classify_ms", c.classify_ms, "ms"},
      {"net.request_encode_ms", s("net.request_encode") * 1e3, "ms"},
      {"net.request_bytes", c.request_bytes, "bytes"},
      {"serve.http_body_bytes", c.http_body_bytes, "bytes"},
      {"serve.transport_ms", c.transport_ms, "ms"},
  };
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --scenarios DIR --work-dir DIR [--trace-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = std::stoi(value) != 0;
      else if (flag == "--scenarios") o.scenarios_dir = value;
      else if (flag == "--work-dir") o.work_dir = value;
      else if (flag == "--trace-out") o.trace_path = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload != "campaign-large" && o.workload != "sweep-shipped") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (o.scenarios_dir.empty() || o.work_dir.empty()) {
    usage("--scenarios and --work-dir are required");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

void print_result(const Context& ctx, const std::vector<Metric>& metrics) {
  for (const std::string& line : ctx.measures.notes) std::cout << line << "\n";
  std::cout << "{\"correct\": " << (ctx.correct ? "true" : "false")
            << ", \"attempted\": " << ctx.attempted
            << ", \"failed\": " << ctx.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << value << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Context ctx(parse(argc, argv));
  const Options& o = ctx.options;
  fresh_dir(o.work_dir);
  int status = 0;
  try {
    ctx.note(host_record(o));
    if (o.workload == "campaign-large") run_campaign_large(ctx);
    else run_sweep_shipped(ctx);
    const std::vector<Metric> metrics =
        o.trace ? per_layer(ctx) : end_to_end(ctx);
    if (o.trace && !o.trace_path.empty()) {
      ctx.tracer.write_chrome_json(o.trace_path);
      ctx.note("trace written to " + o.trace_path);
    }
    print_result(ctx, metrics);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << o.workload << ": " << e.what() << "\n";
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(o.work_dir, ignored);
  return status;
}
