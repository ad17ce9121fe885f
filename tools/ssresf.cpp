// The unified SSRESF pipeline driver (Pipeline API v2).
//
// One binary, eight commands over the staged core::Session:
//   run          simulate -> build_dataset -> tune -> train -> predict
//   simulate     dynamic-simulation phase only (campaign records artifact)
//   train        everything up to and including the trained model bundle
//   predict      classify every node from a saved model bundle (.ssmd),
//                locally or against a model-serve daemon (--connect)
//   serve        run with the simulate stage served to socket workers
//   worker       connect to a serving coordinator and simulate its chunks
//   merge        merge .ssfs shard files into the scenario's records artifact
//                (the shards come from `simulate --shard K/N`)
//   model-serve  long-lived prediction daemon over a models/ directory of
//                .ssmd bundles (SSNP + HTTP fronts, hot reload)
//
// A scenario YAML fully determines (model, campaign, SVM, grids, seeds), so
// the same file reproduces byte-identical artifacts and predictions on any
// host, through any transport — which is what the CI scenario-equivalence
// job checks. Stages persist digest-bound artifacts into --out-dir and
// resume from them, so `ssresf simulate` on one machine, `ssresf train` on a
// second, and `ssresf predict` on a third compose into one pipeline.
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/features.h"
#include "core/session.h"
#include "fi/record_store.h"
#include "fi/sensitivity.h"
#include "fi/shard.h"
#include "net/worker.h"
#include "serve/predict_client.h"
#include "serve/predict_server.h"
#include "serve/registry.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/subprocess.h"
#include "util/table.h"

using namespace ssresf;

namespace {

struct Options {
  std::string command;
  std::string scenario_file;
  std::string out_dir = ".";
  bool resume = true;
  bool progress = false;
  int threads = 1;
  int lanes = 0;             // packed lane width; 0 = scenario value
  int record_format = 1;     // records artifact codec: 1 = flat, 2 = columnar
  int workers = 0;           // run/simulate/train: spawned socket workers
  int shard_index = 0;       // simulate --shard K/N (count 0 = no shard)
  int shard_count = 0;
  int port = 0;              // serve
  std::uint64_t chunk = 0;   // serve: injections per work item, 0 = plan/64
  std::string connect;       // worker: host:port
  std::string model_file;    // predict: defaults to <out-dir>/<name>.ssmd
  bool cross_netlist = false;
  std::string records_csv;
  std::string stats_csv;
  std::string predictions_csv;
  std::vector<std::string> merge_inputs;
  // --- fleet fault tolerance -------------------------------------------------
  std::string secret;        // overrides the scenario's fleet.secret
  bool secret_set = false;
  double connect_timeout = 0;  // 0 = scenario fleet.connect_timeout
  double worker_timeout = 0;   // 0 = scenario fleet.worker_timeout
  std::string journal;         // serve: coordinator dispatch journal (.ssjl)
  bool fleet_status = false;   // serve: print the fleet health table
  // --- self-healing fleet ----------------------------------------------------
  std::uint64_t worker_id = 0;     // worker: stable identity / election tiebreak
  double election_timeout = -1;    // worker: -1 = scenario fleet.election_timeout
  int peer_port = -1;              // worker: -1 = scenario fleet.peer_port
  std::string promoted_csv;        // worker: final CSV if this worker promotes
  std::string promote_journal;     // worker: a promotion's journal replica
  std::string chaos;               // worker: SEED:COUNT[:FIRST[:SPAN]]
  std::string advertise_addr;      // worker: host peers dial for the listener
  bool advertise_set = false;
  // --- model serving ---------------------------------------------------------
  std::string models_dir;          // model-serve: registry directory
  int http_port = 0;               // model-serve: HTTP front port
  double reload_interval = 1.0;    // model-serve: registry rescan period
  bool stats = false;              // model-serve: print metrics on exit
  bool threads_set = false;        // --threads given explicitly
  std::string model_alias;         // predict --connect: served model alias
  bool use_http = false;           // predict --connect: HTTP front, not SSNP
  std::string publish_dir;         // train/run/serve: registry hand-off dir
};

void usage(std::FILE* out) {
  std::fputs(
      "usage: ssresf <command> --scenario FILE [options]\n"
      "\n"
      "commands:\n"
      "  run        full pipeline: simulate -> build_dataset -> tune ->\n"
      "             train -> predict\n"
      "  simulate   dynamic-simulation phase only (writes <name>.ssfs)\n"
      "  train      through model training (writes <name>.ssmd)\n"
      "  predict    classify every node from a saved model bundle\n"
      "  serve      like run, but the simulate stage is served over TCP to\n"
      "             'ssresf worker' processes (local or remote)\n"
      "  worker     connect to a serving coordinator (--connect HOST:PORT)\n"
      "  merge      merge .ssfs shard files into the records artifact\n"
      "  model-serve\n"
      "             serve a models/ directory of .ssmd bundles as a warm\n"
      "             prediction daemon (SSNP batch + HTTP JSON fronts)\n"
      "\n"
      "common options:\n"
      "  --scenario FILE     scenario YAML (all commands except worker)\n"
      "  --out-dir DIR       artifact directory (default '.')\n"
      "  --no-resume         recompute stages even when artifacts exist\n"
      "  --progress          live stage progress on stderr (serve and\n"
      "                      worker: also the fleet event log)\n"
      "  --threads N         simulation threads per process (default 1)\n"
      "  --lanes N           bit-parallel lane width: 64 or 256 (default:\n"
      "                      scenario value; 256 uses AVX2 when available;\n"
      "                      records are byte-identical at every width)\n"
      "  --record-format v1|v2\n"
      "                      codec of the records artifact (<name>.ssfs):\n"
      "                      v1 flat shard codec (default) or v2 chunked\n"
      "                      columnar store; resume reads either\n"
      "\n"
      "run / simulate / train / serve:\n"
      "  --workers N         delegate simulation to N spawned socket workers\n"
      "run / simulate / train / serve / merge:\n"
      "  --records-csv PATH  write per-injection campaign records as CSV\n"
      "  --stats-csv PATH    write the cluster/class/chip sensitivity CSV\n"
      "simulate:\n"
      "  --shard K/N         run only shard K (0-based) of N and write its\n"
      "                      records to <out-dir>/<name>.shard-K-of-N.ssfs\n"
      "                      in the --record-format codec (see merge)\n"
      "run / train / serve:\n"
      "  --publish DIR       also write the trained bundle into DIR (a\n"
      "                      model-serve registry picks it up on its next\n"
      "                      rescan)\n"
      "run / predict:\n"
      "  --predictions-csv PATH\n"
      "                      write per-node classifications as CSV\n"
      "predict:\n"
      "  --model FILE        model bundle (default <out-dir>/<name>.ssmd)\n"
      "  --cross-netlist     allow a model trained on a different campaign\n"
      "                      digest (the paper's transfer use case)\n"
      "  --connect HOST:PORT classify via a running model-serve daemon\n"
      "                      instead of loading the bundle locally (the CSV\n"
      "                      is byte-identical to the local path)\n"
      "  --http              with --connect: use the daemon's HTTP front\n"
      "                      instead of the SSNP frame protocol\n"
      "  --model-alias NAME  served model alias (default: scenario name)\n"
      "model-serve:\n"
      "  --models DIR        directory of .ssmd bundles to serve (required);\n"
      "                      rescanned for hot reload while serving\n"
      "  --port P            SSNP front port (default 0 = ephemeral, printed)\n"
      "  --http-port P       HTTP front port (default 0 = ephemeral, printed)\n"
      "  --reload-interval S rescan --models every S seconds (0 = never;\n"
      "                      default 1)\n"
      "  --stats             print per-model request metrics on exit\n"
      "  --threads N         request-handler threads (default: hardware)\n"
      "serve:\n"
      "  --port P            listen port (default 0 = ephemeral, printed)\n"
      "  --chunk N           injections per work item (default: plan/64)\n"
      "  --journal PATH      dispatch journal (.ssjl); a restarted serve\n"
      "                      resumes the campaign from it\n"
      "  --fleet-status      print the fleet health table when serving ends\n"
      "worker:\n"
      "  --connect HOST:PORT coordinator address\n"
      "  --scenario FILE     optional: read fleet.secret / fleet timeouts\n"
      "  --worker-id N       stable identity; lowest id wins an election\n"
      "  --election-timeout S\n"
      "                      self-elect a replacement coordinator after the\n"
      "                      current one has been gone S seconds (0 = off;\n"
      "                      default: scenario fleet.election_timeout)\n"
      "  --peer-port P       peer-query listener port (default: scenario\n"
      "                      fleet.peer_port; 0 = ephemeral)\n"
      "  --promoted-csv P    if this worker wins an election, write the\n"
      "                      campaign's final records CSV here\n"
      "  --promote-journal P where a promoted worker persists its journal\n"
      "                      replica (default: temp dir)\n"
      "  --chaos SEED:COUNT[:FIRST[:SPAN]]\n"
      "                      seeded fault schedule at this worker's\n"
      "                      frame-send seam: COUNT faults (drop, garble,\n"
      "                      truncate, delay) at seed-derived op indices in\n"
      "                      [FIRST, FIRST+SPAN) (defaults 1, 64); records\n"
      "                      must still merge byte-identically\n"
      "  --advertise-addr H  host peers should dial to reach this worker's\n"
      "                      peer listener (default: scenario\n"
      "                      fleet.advertise_addr; empty = the address the\n"
      "                      coordinator saw; setting it widens the peer\n"
      "                      listener bind beyond loopback)\n"
      "fleet (serve / worker / run with --workers):\n"
      "  --secret S          handshake secret (overrides fleet.secret)\n"
      "  --connect-timeout S worker connect retry window, seconds (> 0)\n"
      "  --worker-timeout S  coordinator silence reap threshold, seconds (> 0)\n"
      "merge:\n"
      "  positional          .ssfs shard files to merge (any mix of v1/v2)\n",
      out);
}

/// Parses a numeric flag value. The whole string must be a (finite) number:
/// "7x", "" and out-of-range values are errors that name the flag, never a
/// silently truncated prefix.
template <typename T>
[[nodiscard]] T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw InvalidArgument(flag + " expects a number, got '" + text + "'");
  }
  return value;
}

[[nodiscard]] int parse_port(const std::string& flag, const std::string& text,
                             int min = 0) {
  const int port = parse_number<int>(flag, text);
  if (port < min || port > 65535) {
    throw InvalidArgument(flag + " expects a port in [" + std::to_string(min) +
                          ", 65535], got '" + text + "'");
  }
  return port;
}

[[nodiscard]] double parse_seconds(const std::string& flag,
                                   const std::string& text, bool allow_zero) {
  const double seconds = parse_number<double>(flag, text);
  if (seconds < 0 || (seconds == 0 && !allow_zero)) {
    throw InvalidArgument(flag +
                          (allow_zero ? " must be >= 0" : " must be positive") +
                          ", got '" + text + "'");
  }
  return seconds;
}

/// Splits "HOST:PORT" (the last ':' wins, so IPv6-ish hosts still parse).
[[nodiscard]] std::pair<std::string, std::uint16_t> parse_host_port(
    const std::string& addr) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    throw InvalidArgument("--connect expects HOST:PORT, got '" + addr + "'");
  }
  return {addr.substr(0, colon), static_cast<std::uint16_t>(parse_port(
                                     "--connect", addr.substr(colon + 1), 1))};
}

[[nodiscard]] Options parse_options(int argc, char** argv) {
  Options opt;
  if (argc < 2) throw InvalidArgument("missing command (see --help)");
  opt.command = argv[1];
  if (opt.command == "--help" || opt.command == "-h") {
    usage(stdout);
    std::exit(0);
  }
  const bool known_command =
      opt.command == "run" || opt.command == "simulate" ||
      opt.command == "train" || opt.command == "predict" ||
      opt.command == "serve" || opt.command == "worker" ||
      opt.command == "merge" || opt.command == "model-serve";
  if (!known_command) {
    throw InvalidArgument("unknown command '" + opt.command + "'");
  }
  const auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw InvalidArgument(std::string(argv[i]) + " requires a value");
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg == "--scenario") {
      opt.scenario_file = need_value(i);
    } else if (arg == "--out-dir") {
      opt.out_dir = need_value(i);
    } else if (arg == "--no-resume") {
      opt.resume = false;
    } else if (arg == "--progress") {
      opt.progress = true;
    } else if (arg == "--threads") {
      opt.threads = parse_number<int>(arg, need_value(i));
      opt.threads_set = true;
    } else if (arg == "--lanes") {
      opt.lanes = parse_number<int>(arg, need_value(i));
    } else if (arg == "--record-format") {
      const std::string format = need_value(i);
      if (format == "v1") {
        opt.record_format = 1;
      } else if (format == "v2") {
        opt.record_format = 2;
      } else {
        throw InvalidArgument("--record-format expects v1|v2, got '" + format +
                              "'");
      }
    } else if (arg == "--workers") {
      opt.workers = parse_number<int>(arg, need_value(i));
      if (opt.workers < 1) throw InvalidArgument("--workers must be >= 1");
    } else if (arg == "--shard") {
      const std::string spec = need_value(i);
      const std::size_t slash = spec.find('/');
      if (slash == std::string::npos) {
        throw InvalidArgument("--shard expects K/N, got '" + spec + "'");
      }
      opt.shard_index = parse_number<int>(arg, spec.substr(0, slash));
      opt.shard_count = parse_number<int>(arg, spec.substr(slash + 1));
      if (opt.shard_index < 0 || opt.shard_index >= opt.shard_count) {
        throw InvalidArgument("--shard expects K/N with 0 <= K < N, got '" +
                              spec + "'");
      }
    } else if (arg == "--port") {
      opt.port = parse_port(arg, need_value(i));
    } else if (arg == "--chunk") {
      opt.chunk = parse_number<std::uint64_t>(arg, need_value(i));
    } else if (arg == "--connect") {
      opt.connect = need_value(i);
    } else if (arg == "--model") {
      opt.model_file = need_value(i);
    } else if (arg == "--cross-netlist") {
      opt.cross_netlist = true;
    } else if (arg == "--records-csv") {
      opt.records_csv = need_value(i);
    } else if (arg == "--stats-csv") {
      opt.stats_csv = need_value(i);
    } else if (arg == "--predictions-csv") {
      opt.predictions_csv = need_value(i);
    } else if (arg == "--secret") {
      opt.secret = need_value(i);
      opt.secret_set = true;
    } else if (arg == "--connect-timeout") {
      opt.connect_timeout = parse_seconds(arg, need_value(i), false);
    } else if (arg == "--worker-timeout") {
      opt.worker_timeout = parse_seconds(arg, need_value(i), false);
    } else if (arg == "--journal") {
      opt.journal = need_value(i);
    } else if (arg == "--fleet-status") {
      opt.fleet_status = true;
    } else if (arg == "--worker-id") {
      opt.worker_id = parse_number<std::uint64_t>(arg, need_value(i));
      if (opt.worker_id == 0) {
        throw InvalidArgument("--worker-id must be nonzero (0 = auto)");
      }
    } else if (arg == "--election-timeout") {
      opt.election_timeout = parse_seconds(arg, need_value(i), true);
    } else if (arg == "--peer-port") {
      opt.peer_port = parse_port(arg, need_value(i));
    } else if (arg == "--promoted-csv") {
      opt.promoted_csv = need_value(i);
    } else if (arg == "--promote-journal") {
      opt.promote_journal = need_value(i);
    } else if (arg == "--chaos") {
      opt.chaos = need_value(i);
    } else if (arg == "--advertise-addr") {
      opt.advertise_addr = need_value(i);
      opt.advertise_set = true;
    } else if (arg == "--models") {
      opt.models_dir = need_value(i);
    } else if (arg == "--http-port") {
      opt.http_port = parse_port(arg, need_value(i));
    } else if (arg == "--reload-interval") {
      opt.reload_interval = parse_seconds(arg, need_value(i), true);
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (arg == "--model-alias") {
      opt.model_alias = need_value(i);
    } else if (arg == "--http") {
      opt.use_http = true;
    } else if (arg == "--publish") {
      opt.publish_dir = need_value(i);
    } else if (!arg.empty() && arg[0] != '-') {
      opt.merge_inputs.push_back(arg);
    } else {
      throw InvalidArgument("unknown option '" + arg + "'");
    }
  }
  if (opt.command == "worker") {
    if (opt.connect.empty()) {
      throw InvalidArgument("worker requires --connect HOST:PORT");
    }
  } else if (opt.command == "model-serve") {
    if (opt.models_dir.empty()) {
      throw InvalidArgument("model-serve requires --models DIR");
    }
  } else if (opt.scenario_file.empty()) {
    throw InvalidArgument(opt.command + " requires --scenario FILE");
  }
  if (!opt.merge_inputs.empty() && opt.command != "merge") {
    throw InvalidArgument("positional arguments are only valid with merge");
  }
  if (opt.command == "merge" && opt.merge_inputs.empty()) {
    throw InvalidArgument("merge requires shard files");
  }
  if (opt.shard_count > 0) {
    if (opt.command != "simulate") {
      throw InvalidArgument("--shard is only valid with simulate");
    }
    if (opt.workers > 0 || !opt.records_csv.empty() || !opt.stats_csv.empty()) {
      throw InvalidArgument(
          "--shard writes only its shard file; --workers, --records-csv and "
          "--stats-csv need the whole campaign (merge the shards)");
    }
  }
  return opt;
}

/// stderr progress renderer: lifecycle messages one per line, counted
/// progress throttled to whole-percent steps. Thread-safe (the simulate
/// counter arrives from campaign worker threads).
class ProgressPrinter {
 public:
  void operator()(const core::StageProgress& progress) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!progress.message.empty()) {
      if (counting_) {
        std::fputc('\n', stderr);
        counting_ = false;
      }
      std::fprintf(stderr, "[%s] %s\n", progress.stage.c_str(),
                   progress.message.c_str());
      return;
    }
    if (progress.total == 0) return;
    const int percent = static_cast<int>(100 * progress.completed /
                                         progress.total);
    if (percent == last_percent_ && progress.completed != progress.total) {
      return;
    }
    last_percent_ = percent;
    counting_ = true;
    std::fprintf(stderr, "\r[%s] %llu/%llu (%d%%)", progress.stage.c_str(),
                 static_cast<unsigned long long>(progress.completed),
                 static_cast<unsigned long long>(progress.total), percent);
    if (progress.completed == progress.total) {
      std::fputc('\n', stderr);
      counting_ = false;
    }
  }

 private:
  std::mutex mutex_;
  int last_percent_ = -1;
  bool counting_ = false;
};

void print_campaign_summary(std::uint64_t injections,
                            std::uint64_t soft_errors,
                            double chip_ser_percent) {
  std::printf("simulate: %llu injections, %llu soft errors, chip SER %.4f%%\n",
              static_cast<unsigned long long>(injections),
              static_cast<unsigned long long>(soft_errors), chip_ser_percent);
}

/// Writes the --records-csv / --stats-csv outputs of a whole campaign, then
/// prints its one-line summary.
void report_campaign(const Options& opt, const fi::CampaignResult& campaign) {
  if (!opt.records_csv.empty()) {
    fi::write_records_csv(opt.records_csv, campaign.records);
  }
  if (!opt.stats_csv.empty()) {
    fi::write_sensitivity_csv(opt.stats_csv, campaign);
  }
  std::uint64_t errors = 0;
  for (const auto& r : campaign.records) errors += r.soft_error ? 1 : 0;
  print_campaign_summary(campaign.records.size(), errors,
                         campaign.chip_ser_percent);
}

void print_prediction_summary(const soc::SocModel& model,
                              const core::SessionPrediction& prediction) {
  std::size_t high = 0;
  for (const int label : prediction.labels) high += label == 1 ? 1 : 0;
  std::printf("predict: %zu nodes, %zu classified highly sensitive\n",
              prediction.cells.size(), high);
  util::Table table({"module class", "high-sensitivity %"});
  for (std::size_t c = 0; c < netlist::kModuleClassCount; ++c) {
    table.add_row(
        {std::string(
             netlist::module_class_name(static_cast<netlist::ModuleClass>(c))),
         util::format("%.2f%%", prediction.class_percent[c])});
  }
  std::printf("%s", table.render().c_str());
  (void)model;
}

/// Wires --workers: once the coordinator listens, spawn N `ssresf worker`
/// subprocesses against it. The session's simulate() then blocks until the
/// fleet drains the plan.
struct WorkerFleet {
  std::vector<util::Subprocess> children;
  std::string self;
  int count = 0;
  int threads = 1;
  int lanes = 0;  // 0 = worker default (64)
  /// Forwarded fleet flags (--scenario for the secret/timeouts, plus any
  /// explicit --secret/--connect-timeout overrides) — a spawned worker must
  /// pass the same authenticated handshake a remote one would.
  std::vector<std::string> extra_args;

  void spawn(std::uint16_t port) {
    children.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      std::vector<std::string> args{
          self, "worker", "--connect", "127.0.0.1:" + std::to_string(port),
          "--threads", std::to_string(threads)};
      if (lanes != 0) {
        args.insert(args.end(), {"--lanes", std::to_string(lanes)});
      }
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      children.emplace_back(std::move(args));
    }
  }

  void wait() {
    for (std::size_t k = 0; k < children.size(); ++k) {
      const int code = children[k].wait();
      if (code != 0) {
        // The campaign is complete and digest-verified by the time this
        // runs; a late worker failure is informational.
        std::fprintf(stderr, "note: worker %zu exited with code %d\n", k, code);
      }
    }
  }
};

int run_stage_command(const Options& opt, const std::string& self) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  ProgressPrinter printer;
  WorkerFleet fleet{{}, self, opt.workers, opt.threads, opt.lanes, {}};
  fleet.extra_args = {"--scenario", opt.scenario_file};
  if (opt.secret_set) {
    fleet.extra_args.insert(fleet.extra_args.end(), {"--secret", opt.secret});
  }
  if (opt.connect_timeout > 0) {
    fleet.extra_args.insert(
        fleet.extra_args.end(),
        {"--connect-timeout", std::to_string(opt.connect_timeout)});
  }

  // `serve` keeps the requested port and accepts remote workers (with
  // --workers, spawned local workers join them); the other commands use
  // --workers as a private ephemeral loopback fleet.
  int serve_port = -1;
  bool loopback_only = true;
  if (opt.command == "serve") {
    serve_port = opt.port;
    loopback_only = false;
  } else if (opt.workers > 0) {
    serve_port = 0;
  }

  core::ScenarioSpec spec = core::ScenarioSpec::load_file(opt.scenario_file);
  if (opt.secret_set) spec.fleet.secret = opt.secret;
  core::SessionOptions options;
  options.artifact_dir = opt.out_dir;
  options.resume = opt.resume;
  options.threads = opt.threads;
  options.lanes = opt.lanes;
  options.record_format = opt.record_format;
  options.serve_port = serve_port;
  options.serve_loopback_only = loopback_only;
  options.serve_chunk_injections = opt.chunk;
  options.worker_timeout_seconds = opt.worker_timeout;  // 0 = scenario value
  options.serve_journal = opt.journal;
  options.publish_dir = opt.publish_dir;
  if (opt.fleet_status) {
    options.on_fleet_status = [](const std::string& table) {
      std::fprintf(stderr, "fleet status:\n%s", table.c_str());
    };
  }
  if (opt.progress) {
    options.progress = [&printer](const core::StageProgress& p) { printer(p); };
  }
  if (serve_port >= 0) {
    options.on_serving = [&fleet, &opt](std::uint16_t port) {
      if (opt.command == "serve") {
        std::fprintf(stderr, "serving campaign on port %u\n",
                     static_cast<unsigned>(port));
      }
      if (fleet.count > 0) fleet.spawn(port);
    };
  }
  core::Session session(std::move(spec), db, std::move(options));

  if (opt.command == "simulate") {
    const fi::CampaignResult& campaign = session.simulate();
    fleet.wait();
    report_campaign(opt, campaign);
    return 0;
  }
  if (opt.command == "train") {
    if (!opt.records_csv.empty() || !opt.stats_csv.empty()) {
      // Forces the simulate stage even when train() alone would resume
      // straight from a persisted .ssmd.
      report_campaign(opt, session.simulate());
    }
    const core::ModelBundle& bundle = session.train();
    fleet.wait();
    std::printf("train: %zu support vectors, cv accuracy %.2f%%, model %s\n",
                bundle.model.num_support_vectors(),
                100.0 * bundle.cv_mean_accuracy, session.model_path().c_str());
    return 0;
  }
  // run / serve: the full pipeline.
  const fi::CampaignResult& campaign = session.simulate();
  fleet.wait();
  report_campaign(opt, campaign);
  const core::SessionPrediction& prediction = session.predict();
  if (session.has_cv()) {
    std::printf("tune: cv accuracy %.2f%% (C=%.3g gamma=%.3g)\n",
                100.0 * session.cv().mean_accuracy,
                session.train().chosen_svm.c,
                session.train().chosen_svm.kernel.gamma);
  }
  print_prediction_summary(session.model(), prediction);
  if (!opt.predictions_csv.empty()) {
    core::write_predictions_csv(opt.predictions_csv, session.model(),
                                prediction);
    std::printf("predictions written to %s\n", opt.predictions_csv.c_str());
  }
  return 0;
}

/// `simulate --shard K/N`: runs only the injections shard K owns and writes
/// them to <out-dir>/<name>.shard-K-of-N.ssfs for a later `ssresf merge`.
/// The shard file never takes the records artifact's path, so a resume can
/// not mistake part of a campaign for the whole of it.
int run_shard_command(const Options& opt) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  const core::ScenarioSpec spec =
      core::ScenarioSpec::load_file(opt.scenario_file);
  const soc::SocModel model = spec.build_model();
  fi::CampaignConfig config = spec.campaign.config;
  config.threads = opt.threads;
  if (opt.lanes != 0) config.lanes = opt.lanes;
  const fi::ShardSpec shard{opt.shard_index, opt.shard_count};
  const fi::ShardRunResult run =
      fi::run_campaign_shard(model, config, db, shard);

  fi::ShardFileMeta meta;
  meta.seed = config.seed;
  meta.shard_index = static_cast<std::uint32_t>(shard.index);
  meta.shard_count = static_cast<std::uint32_t>(shard.count);
  meta.total_injections = run.total_injections;
  meta.config_digest = fi::campaign_config_digest(model, config);
  std::filesystem::create_directories(opt.out_dir);
  const std::string path =
      (std::filesystem::path(opt.out_dir) /
       util::format("%s.shard-%d-of-%d.ssfs", spec.name.c_str(), shard.index,
                    shard.count))
          .string();
  fi::write_records_file(path, meta, run.records, opt.record_format);
  std::printf("shard %d/%d: %zu records -> %s\n", shard.index, shard.count,
              run.records.size(), path.c_str());
  return 0;
}

int run_predict_command(const Options& opt) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  ProgressPrinter printer;
  core::ScenarioSpec spec = core::ScenarioSpec::load_file(opt.scenario_file);
  core::SessionOptions options;
  options.artifact_dir = opt.out_dir;
  options.resume = opt.resume;
  options.threads = opt.threads;
  options.lanes = opt.lanes;
  options.record_format = opt.record_format;
  if (opt.progress) {
    options.progress = [&printer](const core::StageProgress& p) { printer(p); };
  }
  core::Session session(std::move(spec), db, std::move(options));
  const std::string model_file =
      opt.model_file.empty() ? session.model_path() : opt.model_file;
  // Loading through adopt_model (not resume) so --model can point anywhere
  // and --cross-netlist can authorize transfer to a modified netlist. The
  // registry loader is the same one model-serve uses, so repeated predicts
  // against an unchanged bundle share one decoded copy.
  session.adopt_model(*serve::ModelRegistry::load_file(model_file),
                      opt.cross_netlist);
  const core::SessionPrediction& prediction = session.predict();
  print_prediction_summary(session.model(), prediction);
  if (!opt.predictions_csv.empty()) {
    core::write_predictions_csv(opt.predictions_csv, session.model(),
                                prediction);
    std::printf("predictions written to %s\n", opt.predictions_csv.c_str());
  }
  return 0;
}

/// "SEED:COUNT[:FIRST[:SPAN]]" -> a seeded ChaosSchedule, so CI can run real
/// multi-process campaigns with chaotic workers and byte-diff the merged CSV
/// against a clean run.
[[nodiscard]] net::ChaosSchedule parse_chaos_schedule(const std::string& spec) {
  std::vector<std::uint64_t> fields;
  for (std::size_t pos = 0;;) {
    const std::size_t colon = spec.find(':', pos);
    fields.push_back(
        parse_number<std::uint64_t>("--chaos", spec.substr(pos, colon - pos)));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  if (fields.size() < 2 || fields.size() > 4) {
    throw InvalidArgument("--chaos expects SEED:COUNT[:FIRST[:SPAN]], got '" +
                          spec + "'");
  }
  const std::uint64_t first = fields.size() > 2 ? fields[2] : 1;
  const std::uint64_t span = fields.size() > 3 ? fields[3] : 64;
  return net::ChaosSchedule::from_seed(
      fields[0], static_cast<std::size_t>(fields[1]), first, span);
}

int run_worker_command(const Options& opt) {
  const auto [host, port] = parse_host_port(opt.connect);
  const auto db = radiation::SoftErrorDatabase::default_database();
  net::WorkerOptions wopts;
  wopts.host = host;
  wopts.port = port;
  wopts.threads = opt.threads;
  if (opt.lanes != 0) wopts.lanes = opt.lanes;
  wopts.verbose = opt.progress;
  // Fleet settings: the scenario file (when given) supplies the defaults,
  // explicit flags override.
  if (!opt.scenario_file.empty()) {
    const core::ScenarioSpec spec =
        core::ScenarioSpec::load_file(opt.scenario_file);
    wopts.secret = spec.fleet.secret;
    wopts.connect_timeout_seconds = spec.fleet.connect_timeout;
    wopts.election_timeout_seconds = spec.fleet.election_timeout;
    wopts.peer_port = spec.fleet.peer_port;
    wopts.advertise_host = spec.fleet.advertise_addr;
  }
  if (opt.advertise_set) wopts.advertise_host = opt.advertise_addr;
  if (opt.secret_set) wopts.secret = opt.secret;
  if (opt.connect_timeout > 0) {
    wopts.connect_timeout_seconds = opt.connect_timeout;
  }
  wopts.worker_id = opt.worker_id;
  if (opt.election_timeout >= 0) {
    wopts.election_timeout_seconds = opt.election_timeout;
  }
  if (opt.peer_port >= 0) {
    wopts.peer_port = static_cast<std::uint16_t>(opt.peer_port);
  }
  wopts.promote_journal_path = opt.promote_journal;
  net::ChaosSchedule chaos;
  if (!opt.chaos.empty()) {
    chaos = parse_chaos_schedule(opt.chaos);
    wopts.chaos = &chaos;
  }
  net::Worker worker(db, wopts);
  const std::uint64_t produced = worker.run();
  std::fprintf(stderr, "worker done: %llu records\n",
               static_cast<unsigned long long>(produced));
  if (worker.promoted() && worker.promoted_result().has_value() &&
      !opt.promoted_csv.empty()) {
    fi::write_records_csv(opt.promoted_csv, worker.promoted_result()->records);
    std::fprintf(stderr, "promoted: merged records -> %s\n",
                 opt.promoted_csv.c_str());
  }
  return 0;
}

/// `predict --connect`: classify the scenario's netlist against a running
/// model-serve daemon instead of loading the bundle locally. Features are
/// extracted here, labels come back from the daemon — which runs the same
/// core::bundle_classify arithmetic, so the CSV is byte-identical to the
/// offline path.
int run_remote_predict(const Options& opt) {
  const auto [host, port] = parse_host_port(opt.connect);
  const core::ScenarioSpec spec =
      core::ScenarioSpec::load_file(opt.scenario_file);
  const soc::SocModel model = spec.build_model();
  const std::uint64_t digest =
      fi::campaign_config_digest(model, spec.campaign.config);

  const core::FeatureExtractor extractor(model.netlist);
  std::vector<std::vector<double>> rows;
  core::SessionPrediction prediction;
  for (const netlist::CellId id : model.netlist.all_cells()) {
    const netlist::CellKind kind = model.netlist.cell(id).kind;
    if (kind == netlist::CellKind::kConst0 ||
        kind == netlist::CellKind::kConst1) {
      continue;
    }
    rows.push_back(extractor.extract(id));
    prediction.cells.push_back(id);
  }

  const std::string alias =
      opt.model_alias.empty() ? spec.name : opt.model_alias;
  const std::uint64_t expect_digest = opt.cross_netlist ? 0 : digest;
  const double timeout = opt.connect_timeout > 0 ? opt.connect_timeout : 10.0;
  serve::PredictResult result;
  if (opt.use_http) {
    serve::HttpPredictClient client(host, port, timeout);
    result = client.predict(alias, expect_digest, rows);
  } else {
    serve::PredictClient client(host, port, timeout);
    result = client.predict(alias, expect_digest, rows);
  }
  std::fprintf(stderr,
               "predict: served by '%s' (digest %016llx, generation %llu)\n",
               result.alias.c_str(),
               static_cast<unsigned long long>(result.config_digest),
               static_cast<unsigned long long>(result.generation));

  prediction.labels = std::move(result.labels);
  std::array<std::size_t, netlist::kModuleClassCount> high{};
  std::array<std::size_t, netlist::kModuleClassCount> total{};
  for (std::size_t i = 0; i < prediction.cells.size(); ++i) {
    const auto cls =
        static_cast<std::size_t>(model.netlist.cell_class(prediction.cells[i]));
    ++total[cls];
    if (prediction.labels[i] == 1) ++high[cls];
  }
  for (std::size_t c = 0; c < netlist::kModuleClassCount; ++c) {
    prediction.class_percent[c] =
        total[c] > 0 ? 100.0 * static_cast<double>(high[c]) /
                           static_cast<double>(total[c])
                     : 0.0;
  }
  print_prediction_summary(model, prediction);
  if (!opt.predictions_csv.empty()) {
    core::write_predictions_csv(opt.predictions_csv, model, prediction);
    std::printf("predictions written to %s\n", opt.predictions_csv.c_str());
  }
  return 0;
}

// SIGTERM/SIGINT flip this; the model-serve main loop polls it and drains.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

int run_model_serve(const Options& opt) {
  serve::PredictServerOptions sopts;
  sopts.models_dir = opt.models_dir;
  sopts.ssnp_port = opt.port;
  sopts.http_port = opt.http_port;
  sopts.loopback_only = false;
  sopts.threads = opt.threads_set ? opt.threads : 0;
  sopts.reload_interval_seconds = opt.reload_interval;
  sopts.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  serve::PredictServer server(std::move(sopts));
  server.start();
  std::fprintf(stderr, "model-serve: ssnp port %u, http port %u\n",
               static_cast<unsigned>(server.ssnp_port()),
               static_cast<unsigned>(server.http_port()));
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "model-serve: shutdown requested, draining\n");
  server.stop();
  if (opt.stats) std::fputs(server.stats_table().c_str(), stdout);
  return 0;
}

int run_merge_command(const Options& opt) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  core::ScenarioSpec spec = core::ScenarioSpec::load_file(opt.scenario_file);
  core::SessionOptions options;
  options.artifact_dir = opt.out_dir;
  options.resume = false;
  options.record_format = opt.record_format;
  core::Session session(std::move(spec), db, std::move(options));
  const soc::SocModel& model = session.model();
  const fi::CampaignConfig& config = session.scenario().campaign.config;
  // The merged campaign becomes the scenario's records artifact, so the
  // later stages (train / predict) resume from it.
  if (opt.record_format == 2) {
    // Streams: the K-way merge writes the columnar artifact directly, with
    // one batch per input file resident, and the CSVs come from the
    // artifact and the streamed statistics.
    fi::CampaignStats stats;
    {
      fi::ColumnarFileWriter artifact(session.records_path());
      stats = fi::merge_record_files(model, config, db, opt.merge_inputs,
                                     artifact);
    }
    if (!opt.records_csv.empty()) {
      fi::ColumnarFileSource source(session.records_path());
      fi::write_records_csv(opt.records_csv, source);
    }
    if (!opt.stats_csv.empty()) {
      fi::write_sensitivity_csv(opt.stats_csv, stats);
    }
    print_campaign_summary(stats.num_records, stats.num_soft_errors,
                           stats.chip_ser_percent);
  } else {
    fi::CampaignResult result =
        fi::merge_shard_files(model, config, db, opt.merge_inputs);
    report_campaign(opt, result);
    session.adopt_campaign(std::move(result));
  }
  std::printf("records artifact written to %s\n",
              session.records_path().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    if (opt.command == "worker") return run_worker_command(opt);
    if (opt.command == "merge") return run_merge_command(opt);
    if (opt.command == "model-serve") return run_model_serve(opt);
    if (opt.shard_count > 0) return run_shard_command(opt);
    if (opt.command == "predict") {
      return opt.connect.empty() ? run_predict_command(opt)
                                 : run_remote_predict(opt);
    }
    return run_stage_command(opt, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ssresf: %s\n", e.what());
    return 2;
  }
}
