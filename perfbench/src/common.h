#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "radiation/soft_error_db.h"
#include "soc/soc.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scenarios_dir;  // the frozen scenario files
  std::string work_dir;       // scratch for artifacts; removed at exit
  std::string trace_path;     // Chrome trace output of the traced run
};

/// What a workload hands back to main(). Timings are raw samples; the
/// result reports their medians.
struct Measures {
  std::vector<double> setup_s;       // one per set-up repetition
  std::vector<double> pipeline_s;    // one per op
  std::vector<std::string> notes;    // printed before the result line
};

/// Per-layer totals of one traced layer pass (summed over the scenarios the
/// pass covers). Times come from the tracer's spans, not from here.
struct LayerCounts {
  double soc_cells = 0;
  double golden_cycles = 0;
  double ladder_rungs = 0;
  double plan_injections = 0;
  double soft_errors = 0;
  double records_bytes = 0;
  double kernel_evals = 0;
  double support_vectors = 0;
  double rows = 0;
  double request_bytes = 0;
  double http_body_bytes = 0;
  double classify_ms = 0;   // median direct handle_batch
  double transport_ms = 0;  // median round trip minus service time
  // Fidelity view, averaged over scenarios (fidelity_n of them).
  double cv_accuracy = 0;
  double majority_baseline = 0;
  double balanced_accuracy = 0;
  double labels_own = 0;        // +1 labels from the row's own soft error
  double labels_inherited = 0;  // +1 labels from the row's cluster only
  int fidelity_n = 0;
};

/// Shared state of one perfbench_driver run.
struct Context {
  Options options;
  Tracer tracer;
  int threads = 1;  // hardware threads, the campaign worker count
  ssresf::radiation::SoftErrorDatabase db;
  Measures measures;
  LayerCounts layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  explicit Context(Options o);
  /// Counts one op; a false `ok` marks it failed and the run incorrect.
  void op(bool ok, const std::string& what);
  void note(std::string line);
};

// --- helpers shared by the workloads -----------------------------------------

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] std::uint64_t file_digest(const std::string& path);
[[nodiscard]] std::uint64_t file_size(const std::string& path);
[[nodiscard]] std::string join_path(const std::string& dir,
                                    const std::string& name);
/// Fresh empty directory (removed first if present).
void fresh_dir(const std::string& dir);
/// Loads a frozen scenario and derives its campaign seed from the workload
/// seed, so each --seed gives different (but reproducible) inputs.
[[nodiscard]] ssresf::core::ScenarioSpec load_scenario(const Context& ctx,
                                                       const std::string& file,
                                                       std::uint64_t salt);

/// The traced decomposition of one scenario (built as `model`): calls each
/// layer's public functions directly on the scenario's inputs (golden halt,
/// clustering, sampling, prepare, execute, persist, records load, dataset,
/// feature selection, CV, SVM training, serve registry / classify / round
/// trip) under spans, and folds counts into ctx.layers. `lanes` is the packed
/// lane width the workload's ops use (0 = scenario default). Checks that the
/// bundle it trains is byte-identical to `expect_ssmd`, the op's bundle.
void layer_pass(Context& ctx, const ssresf::core::ScenarioSpec& spec,
                const ssresf::soc::SocModel& model, int lanes,
                const std::string& expect_ssmd);

// --- workloads -----------------------------------------------------------------

void run_campaign_large(Context& ctx);
void run_sweep_shipped(Context& ctx);

}  // namespace perfbench
