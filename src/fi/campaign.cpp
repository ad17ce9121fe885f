#include "fi/campaign.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <future>
#include <numeric>
#include <optional>
#include <type_traits>

#include "fi/campaign_exec.h"
#include "fi/record_store.h"
#include "netlist/stats.h"
#include "sim/bit_parallel_sim.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ssresf::fi {

using netlist::CellId;
using netlist::CellKind;
using netlist::Logic;
using netlist::ModuleClass;
using radiation::FaultKind;

void write_records_csv(const std::string& path,
                       const std::vector<InjectionRecord>& records) {
  util::write_csv_file(path, [&](std::FILE* f) {
    std::fputs(
        "index,kind,cell,word,bit,time_ps,set_width_ps,cluster,module_class,"
        "soft_error,first_mismatch_cycle\n",
        f);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const InjectionRecord& r = records[i];
      const auto& e = r.event;
      std::fprintf(
          f, "%zu,%s,%u,%u,%u,%llu,%u,%d,%s,%d,%zu\n", i,
          std::string(radiation::fault_kind_name(e.target.kind)).c_str(),
          e.target.cell.index(), e.target.word, e.target.bit,
          static_cast<unsigned long long>(e.time_ps), e.set_width_ps,
          r.cluster,
          std::string(netlist::module_class_name(r.module_class)).c_str(),
          r.soft_error ? 1 : 0, r.first_mismatch_cycle);
    }
  });
}

double chip_ser_percent(const std::vector<ClusterStats>& clusters) {
  double weighted = 0.0;
  double total_cells = 0.0;
  for (const ClusterStats& c : clusters) {
    weighted += static_cast<double>(c.num_cells) * c.ser_percent;
    total_cells += static_cast<double>(c.num_cells);
  }
  return total_cells > 0 ? weighted / total_cells : 0.0;
}

namespace {

/// Cross-section of one cell at the campaign LET; memory macros contribute
/// their whole array.
double cell_xsect(const netlist::Netlist& netlist,
                  const radiation::SoftErrorDatabase& db, CellId id,
                  double let) {
  const netlist::Cell& cell = netlist.cell(id);
  if (cell.kind == CellKind::kConst0 || cell.kind == CellKind::kConst1) {
    return 0.0;
  }
  if (cell.kind == CellKind::kMemory) {
    const auto& mi = netlist.memory(cell.memory_index);
    return db.mem_bit_xsect(mi.tech, let) *
           static_cast<double>(mi.total_bits());
  }
  return db.cell_xsect(cell.kind, let);
}

/// Fault parameters of plan entry `index`, fully determined by
/// (seed, index). Both execution paths — scalar shards and bit-parallel
/// word batches — derive injections through this one function, which is
/// what keeps their records byte-identical for the same seed.
struct InjectionParams {
  radiation::FaultTarget target;
  radiation::FaultEvent event;
  std::uint64_t fault_end_ps = 0;  // all actions applied strictly before this
};

InjectionParams derive_injection(const radiation::Injector& injector,
                                 CellId cell, std::uint64_t seed,
                                 std::size_t index, std::uint64_t t0,
                                 std::uint64_t t1,
                                 const radiation::Environment& env) {
  util::Rng rng = util::Rng::from_stream(seed, index);
  InjectionParams p;
  p.target = injector.target_for_cell(cell, rng);
  p.event = injector.random_event(p.target, t0, t1, env, rng);
  p.fault_end_ps = p.event.time_ps +
                   (p.target.kind == FaultKind::kSet
                        ? static_cast<std::uint64_t>(p.event.set_width_ps)
                        : 0);
  return p;
}

}  // namespace

namespace detail {

CampaignPrep prepare_campaign(const soc::SocModel& model,
                              const CampaignConfig& config,
                              const radiation::SoftErrorDatabase& db,
                              bool for_execution) {
  util::Rng rng(config.seed);
  util::Rng cluster_rng = rng.fork();
  util::Rng sample_rng = rng.fork();

  CampaignPrep prep;
  prep.clock_period_ps = soc::pick_clock_period(model.netlist);

  // The bit-parallel engine shares the levelized zero-delay timing model, so
  // all golden (fault-free) work — the reference run, the replay, and the
  // checkpoint ladder — runs on the scalar levelized engine: identical
  // trajectory at a fraction of the cost, and scalar snapshots are 64x
  // smaller than packed ones. Word batches broadcast a scalar checkpoint
  // into all lanes via BitParallelSimulator::adopt_golden.
  const sim::EngineKind golden_kind = golden_engine_kind(config);

  // --- golden run -------------------------------------------------------------
  soc::SocRunner golden(model, golden_kind, prep.clock_period_ps);
  golden.reset();
  int run_cycles = config.run_cycles;
  if (run_cycles == 0) {
    golden.run_until_halt(config.max_cycles);
    if (!golden.halted()) {
      SSRESF_WARN << "golden run did not halt within " << config.max_cycles
                  << " cycles";
    }
    // Fixed total length for every faulty run (a fault may delay the halt).
    run_cycles = static_cast<int>(golden.testbench().cycles_run()) + 8;
  }
  prep.run_cycles = run_cycles;

  // --- clustering + sampling -----------------------------------------------------
  prep.clustering =
      cluster::cluster_cells(model.netlist, config.clustering, cluster_rng);
  // Per-cell cross-section at the campaign LET, computed once and reused for
  // strike weighting and the per-cluster / per-class aggregation.
  const double let = config.environment.let;
  prep.cell_xsects.assign(model.netlist.num_cells(), 0.0);
  for (const CellId id : model.netlist.all_cells()) {
    prep.cell_xsects[id.index()] = cell_xsect(model.netlist, db, id, let);
  }
  const auto samples =
      cluster::sample_clusters(model.netlist, prep.clustering, config.sampling,
                               sample_rng, prep.cell_xsects);

  // --- injection plan ---------------------------------------------------------
  const std::uint64_t period = prep.clock_period_ps;
  prep.window_ps = static_cast<std::uint64_t>(run_cycles) * period;
  // Inject after reset has settled and early enough to observe propagation.
  prep.t0 = 5 * period;
  prep.t1 = prep.window_ps * 3 / 4;

  {
    std::size_t total = 0;
    for (const cluster::ClusterSample& cs : samples) total += cs.cells.size();
    prep.plan.reserve(total);
  }
  for (const cluster::ClusterSample& cs : samples) {
    for (const CellId cell : cs.cells) prep.plan.push_back({cs.cluster, cell});
  }

  prep.tb_config.clk = model.clk;
  prep.tb_config.rstn = model.rstn;
  prep.tb_config.monitored = model.monitored;
  prep.tb_config.clock_period_ps = period;
  // Every faulty timeline spans reset + run_cycles, like the golden trace.
  prep.total_cycles = prep.tb_config.reset_cycles + run_cycles;

  if (!for_execution) return prep;

  // Golden replay with a checkpoint ladder: simulate reset + workload once,
  // snapshotting the engine every `stride` cycles across the injection
  // window. A faulty run then resumes from the last checkpoint at or before
  // its strike time instead of re-simulating from power-on — the restored
  // state and the spliced golden trace prefix are exactly what an
  // uninterrupted run would have produced, so results are unchanged.
  // Cycles fully simulated by t0 are fault-free in every run; that is the
  // earliest (and in the single-checkpoint limit, the only) rung.
  const int warm_cycles = static_cast<int>(std::min<std::uint64_t>(
      prep.t0 / period, static_cast<std::uint64_t>(prep.total_cycles)));
  const int stride = config.checkpoint_stride_cycles > 0
                         ? config.checkpoint_stride_cycles
                         : std::max(8, prep.total_cycles / 32);
  const auto master = sim::make_engine(golden_kind, model.netlist);
  sim::Testbench golden_tb(*master, prep.tb_config);
  golden_tb.reset();
  int golden_done = prep.tb_config.reset_cycles;
  const bool ladder_usable =
      (config.use_checkpoint || config.masked_exit) &&
      warm_cycles >= prep.tb_config.reset_cycles;
  // Rungs past t1 are never restore targets (no injection is that late) but
  // still serve masked_exit as reconvergence witnesses.
  const auto maybe_snapshot = [&]() {
    const std::uint64_t cycle_start_ps =
        static_cast<std::uint64_t>(golden_done) * period;
    if (ladder_usable && golden_done < prep.total_cycles &&
        (config.masked_exit || cycle_start_ps <= prep.t1)) {
      prep.ladder.push_back({golden_done, master->save_state()});
    }
  };
  if (warm_cycles > golden_done) {
    golden_tb.run_cycles(warm_cycles - golden_done);
    golden_done = warm_cycles;
  }
  maybe_snapshot();
  while (golden_done < prep.total_cycles) {
    const int step = std::min(stride, prep.total_cycles - golden_done);
    golden_tb.run_cycles(step);
    golden_done += step;
    maybe_snapshot();
  }
  prep.golden_trace = golden_tb.trace();
  return prep;
}

void execute_injections(const soc::SocModel& model,
                        const CampaignConfig& config, const CampaignPrep& prep,
                        std::span<const std::size_t> owned,
                        std::vector<InjectionRecord>& records) {
  if (records.size() != prep.plan.size()) {
    throw InvalidArgument("execute_injections: record vector size mismatch");
  }
  const radiation::Injector injector(model.netlist);
  const std::uint64_t period = prep.clock_period_ps;
  const bool packed_mode = config.engine == sim::EngineKind::kBitParallel;
  const sim::EngineKind golden_kind = golden_engine_kind(config);
  const sim::OutputTrace& golden_trace = prep.golden_trace;
  const auto& ladder = prep.ladder;
  const auto& plan = prep.plan;
  const int total_cycles = prep.total_cycles;
  const sim::TestbenchConfig& tb_config = prep.tb_config;

  if (packed_mode && config.lanes != 64 && config.lanes != 256) {
    throw InvalidArgument("campaign lanes must be 64 or 256");
  }

  // Fan-out: workers claim work items (positions in `owned`, or word batches
  // in bit-parallel mode) from a shared counter; each owns a private engine
  // replica, a reusable testbench, and a private record arena, so no two
  // threads ever touch the same cache line of results. Outcomes depend on
  // the global index alone (RNG stream, checkpoint choice, golden
  // comparison), never on which worker — thread or process — ran them or in
  // what order: that is the determinism guarantee the distributed campaign
  // is built on. Arenas are merged by global index after the join, which is
  // deterministic because every index is produced exactly once.
  using RecordArena = std::vector<std::pair<std::size_t, InjectionRecord>>;
  // The two counters live on separate cache lines: the claim counter is hit
  // on every work item by every worker, and the progress counter next to it
  // turned each claim into a false-sharing round trip.
  struct alignas(64) PaddedCounter {
    std::atomic<std::uint64_t> v{0};
  };
  PaddedCounter next_index;
  PaddedCounter progress_done;
  const auto report_progress = [&](std::uint64_t completed) {
    if (config.progress) {
      config.progress(progress_done.v.fetch_add(completed) + completed,
                      owned.size());
    }
  };
  const auto run_shard = [&](RecordArena& out) {
    const auto engine = sim::make_engine(config.engine, model.netlist);
    // One testbench per worker, restarted per injection: constructing it per
    // run copied the monitored-net list and the golden trace prefix every
    // time, which dominated the per-injection cost at scale.
    sim::Testbench tb(*engine, tb_config);
    for (std::size_t oi; (oi = next_index.v.fetch_add(1)) < owned.size();) {
      const std::size_t i = owned[oi];
      const PlannedInjection& pi = plan[i];
      const InjectionParams inj =
          derive_injection(injector, pi.cell, config.seed, i, prep.t0, prep.t1,
                           config.environment);
      const radiation::FaultEvent& event = inj.event;

      // Latest checkpoint whose cycle starts at or before the strike.
      const CampaignPrep::Rung* checkpoint = nullptr;
      if (config.use_checkpoint) {
        for (const CampaignPrep::Rung& c : ladder) {
          if (static_cast<std::uint64_t>(c.cycle) * period > event.time_ps) {
            break;
          }
          checkpoint = &c;
        }
      }

      if (checkpoint != nullptr) {
        engine->restore_state(*checkpoint->state);
      } else {
        engine->reset_state();
      }
      tb.restart();
      if (checkpoint != nullptr) {
        // Prefix-free resume: the cycles a checkpoint covers are the golden
        // trace verbatim, so there is nothing to copy or re-compare.
        tb.resume_at(static_cast<std::uint64_t>(checkpoint->cycle));
      }
      // Always stream-compare; a negative confirmation window means "track
      // the divergence but simulate to the end" (the full-fidelity mode).
      tb.compare_against(
          &golden_trace,
          config.early_exit ? config.early_exit_confirm_cycles : -1);
      injector.schedule(tb, event);
      if (checkpoint == nullptr) tb.reset();

      const std::uint64_t fault_end_ps = inj.fault_end_ps;
      // Run in rung-sized chunks when hunting for reconvergence, else in one
      // go. At a rung whose state matches the golden snapshot, the remaining
      // simulation would replay the golden run exactly — stop there.
      std::size_t rung = 0;
      while (static_cast<int>(tb.cycles_run()) < total_cycles) {
        int run_to = total_cycles;
        const CampaignPrep::Rung* witness = nullptr;
        if (config.masked_exit) {
          while (rung < ladder.size() &&
                 (ladder[rung].cycle <= static_cast<int>(tb.cycles_run()) ||
                  static_cast<std::uint64_t>(ladder[rung].cycle) * period <=
                      fault_end_ps)) {
            ++rung;
          }
          if (rung < ladder.size()) {
            run_to = ladder[rung].cycle;
            witness = &ladder[rung];
          }
        }
        tb.run_cycles(run_to - static_cast<int>(tb.cycles_run()));
        if (tb.stopped_early()) break;
        if (witness != nullptr && engine->state_matches(*witness->state)) {
          break;
        }
      }
      const std::optional<std::size_t> mismatch = tb.first_divergence();

      InjectionRecord record;
      record.event = event;
      record.cluster = pi.cluster;
      record.module_class = model.netlist.cell_class(pi.cell);
      record.soft_error = mismatch.has_value();
      record.first_mismatch_cycle = mismatch.value_or(0);
      out.emplace_back(i, record);
      report_progress(1);
    }
  };

  // --- bit-parallel word batches ---------------------------------------------
  // The packed engine simulates slot 0 golden + up to 64*W-1 faulty runs per
  // batch (63 at the default 64-lane width, 255 at 256 lanes). Injection
  // parameters depend only on (seed, index), so the owned subset is
  // materialised up front and grouped deterministically into word batches:
  // injections sorted by strike time and chunked one batch-width at a time,
  // so each batch covers a contiguous (overlapping) slice of the injection
  // window. Each batch restores the golden checkpoint of its earliest strike
  // once, applies every slot's fault on its own lane, and retires finished
  // slots (diverged, or reconverged with the golden lane) from a live-slot
  // mask; the batch ends when the mask drains. Records are byte-identical to
  // the scalar levelized engine's — regardless of how the owned subset is
  // batched, and at every lane width — because every packed operator is
  // lane-wise identical to its scalar counterpart and slot trajectories are
  // lane-independent.
  std::vector<InjectionParams> packed;
  struct WordBatch {
    std::size_t rung = 0;  // 1 + ladder index; 0 = run from power-on reset
    std::vector<std::size_t> idx;  // global plan indices, slot s = idx[s-1]
  };
  std::vector<WordBatch> batches;
  if (packed_mode) {
    packed.resize(plan.size());
    for (const std::size_t i : owned) {
      packed[i] = derive_injection(injector, plan[i].cell, config.seed, i,
                                   prep.t0, prep.t1, config.environment);
    }
    std::vector<std::size_t> order(owned.begin(), owned.end());
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return packed[a].event.time_ps < packed[b].event.time_ps;
                     });
    const auto fault_slots = static_cast<std::size_t>(config.lanes - 1);
    for (std::size_t off = 0; off < order.size(); off += fault_slots) {
      const std::size_t end = std::min(off + fault_slots, order.size());
      WordBatch batch;
      batch.idx.assign(order.begin() + static_cast<std::ptrdiff_t>(off),
                       order.begin() + static_cast<std::ptrdiff_t>(end));
      if (config.use_checkpoint) {
        const std::uint64_t first_strike = packed[batch.idx.front()].event.time_ps;
        for (std::size_t r = 0; r < ladder.size(); ++r) {
          if (static_cast<std::uint64_t>(ladder[r].cycle) * period >
              first_strike) {
            break;
          }
          batch.rung = r + 1;
        }
      }
      batches.push_back(std::move(batch));
    }
  }

  PaddedCounter next_batch;
  // Generic over the packed simulator type: SimT is the 64-lane word engine
  // or the 256-lane AVX2 engine depending on config.lanes. Lane masks and
  // plane vectors widen with it; the algorithm is lane-count agnostic.
  const auto run_batches = [&]<typename SimT>(std::type_identity<SimT>,
                                              RecordArena& out) {
    using Mask = typename SimT::Mask;
    constexpr int kWords = SimT::kWords;
    SimT engine(model.netlist);
    // Scratch scalar engine: receives the (levelized) checkpoint snapshot,
    // which adopt_golden then broadcasts into all packed lanes.
    const auto scratch = sim::make_engine(golden_kind, model.netlist);
    // One scheduled per-slot fault action; merged by time below (stable sort
    // keeps a SET's force strictly before its same-time release).
    struct Action {
      std::uint64_t time_ps;
      int slot;
      enum class Kind : std::uint8_t {
        kSeuFlip,
        kSetForce,
        kSetRelease,
        kMemFlip
      } kind;
    };
    std::vector<Action> actions;
    for (std::size_t b; (b = next_batch.v.fetch_add(1)) < batches.size();) {
      const WordBatch& batch = batches[b];
      const int nslots = static_cast<int>(batch.idx.size());
      int cycle = 0;
      if (batch.rung > 0) {
        const CampaignPrep::Rung& c = ladder[batch.rung - 1];
        scratch->restore_state(*c.state);
        engine.adopt_golden(*scratch);
        cycle = c.cycle;
      } else {
        engine.reset_state();
      }
      // Testbench-constructor equivalent (no-ops when resuming mid-run).
      engine.set_input(tb_config.clk, Logic::L0);
      if (tb_config.rstn.valid()) engine.set_input(tb_config.rstn, Logic::L1);

      actions.clear();
      for (int s = 0; s < nslots; ++s) {
        const InjectionParams& pj = packed[batch.idx[static_cast<std::size_t>(s)]];
        const int slot = s + 1;
        switch (pj.target.kind) {
          case FaultKind::kSeu:
            actions.push_back({pj.event.time_ps, slot, Action::Kind::kSeuFlip});
            break;
          case FaultKind::kSet:
            actions.push_back({pj.event.time_ps, slot, Action::Kind::kSetForce});
            actions.push_back(
                {pj.event.time_ps +
                     static_cast<std::uint64_t>(pj.event.set_width_ps),
                 slot, Action::Kind::kSetRelease});
            break;
          case FaultKind::kMemBit:
            actions.push_back({pj.event.time_ps, slot, Action::Kind::kMemFlip});
            break;
        }
      }
      std::stable_sort(actions.begin(), actions.end(),
                       [](const Action& a, const Action& c) {
                         return a.time_ps < c.time_ps;
                       });
      const auto apply = [&](const Action& a) {
        const InjectionParams& pj =
            packed[batch.idx[static_cast<std::size_t>(a.slot - 1)]];
        switch (a.kind) {
          case Action::Kind::kSeuFlip: {
            const Logic flipped = netlist::logic_flip(
                engine.ff_state_slot(pj.target.cell, a.slot));
            engine.deposit_ff_slot(pj.target.cell, a.slot, flipped);
            break;
          }
          case Action::Kind::kSetForce: {
            const netlist::NetId victim =
                model.netlist.cell(pj.target.cell).outputs[0];
            engine.force_net_slot(
                victim, a.slot,
                netlist::logic_flip(engine.value_slot(victim, a.slot)));
            break;
          }
          case Action::Kind::kSetRelease:
            engine.release_net_slot(
                model.netlist.cell(pj.target.cell).outputs[0], a.slot);
            break;
          case Action::Kind::kMemFlip: {
            const std::uint64_t old = engine.read_mem_word_slot(
                pj.target.cell, a.slot, pj.target.word);
            engine.write_mem_word_slot(
                pj.target.cell, a.slot, pj.target.word,
                old ^ (std::uint64_t{1} << pj.target.bit));
            break;
          }
        }
      };

      Mask live = Mask::first_lanes(nslots + 1);
      live.reset(0);  // lane 0 is golden
      Mask diverged;
      std::array<std::size_t, SimT::kSlots> mismatch_cycle{};
      std::size_t ai = 0;
      for (; cycle < total_cycles && live.any(); ++cycle) {
        if (batch.rung == 0 && tb_config.rstn.valid()) {
          if (cycle == 0) engine.set_input(tb_config.rstn, Logic::L0);
          if (cycle == tb_config.reset_cycles) {
            engine.set_input(tb_config.rstn, Logic::L1);
          }
        }
        const std::uint64_t start = static_cast<std::uint64_t>(cycle) * period;
        const std::uint64_t rise = start + period / 2;
        const std::uint64_t cycle_end = start + period;
        while (ai < actions.size() && actions[ai].time_ps < rise) {
          apply(actions[ai++]);
        }
        engine.advance_to(rise);
        // Sample just before the capturing edge and stream-compare every
        // live slot against the golden trace row.
        const auto& gold = golden_trace.cycle(static_cast<std::size_t>(cycle));
        Mask diff;
        for (std::size_t j = 0; j < tb_config.monitored.size(); ++j) {
          const typename SimT::Planes p =
              engine.packed_value(tb_config.monitored[j]);
          const auto g = netlist::wide_splat<kWords>(gold[j]);
          for (int k = 0; k < kWords; ++k) {
            diff.w[k] |= (p.val[k] ^ g.val[k]) | (p.unk[k] ^ g.unk[k]);
          }
        }
        const Mask newly = diff & live & ~diverged;
        diverged |= newly;
        netlist::for_each_set_lane(newly, [&](int lane) {
          mismatch_cycle[static_cast<std::size_t>(lane)] =
              static_cast<std::size_t>(cycle);
        });
        // A diverged slot's outcome is fully decided; early exit retires it
        // immediately (the scalar confirmation window never changes records).
        if (config.early_exit) live &= ~diverged;
        engine.set_input(tb_config.clk, Logic::L1);
        while (ai < actions.size() && actions[ai].time_ps < cycle_end) {
          apply(actions[ai++]);
        }
        engine.advance_to(cycle_end);
        engine.set_input(tb_config.clk, Logic::L0);
        if (config.masked_exit && live.any()) {
          // Slots whose fault has ended and whose lane state provably equals
          // the golden lane have reconverged: their futures coincide with the
          // golden run, so they retire (healed SEUs, masked SETs).
          Mask cand;
          netlist::for_each_set_lane(live, [&](int s) {
            if (cycle_end >
                packed[batch.idx[static_cast<std::size_t>(s - 1)]].fault_end_ps) {
              cand.set(s);
            }
          });
          if (cand.any()) live &= ~(cand & ~engine.state_diff_from_golden());
        }
      }

      for (int s = 0; s < nslots; ++s) {
        const std::size_t i = batch.idx[static_cast<std::size_t>(s)];
        const int lane = s + 1;
        InjectionRecord record;
        record.event = packed[i].event;
        record.cluster = plan[i].cluster;
        record.module_class = model.netlist.cell_class(plan[i].cell);
        record.soft_error = diverged.test(lane);
        record.first_mismatch_cycle =
            record.soft_error ? mismatch_cycle[static_cast<std::size_t>(lane)]
                              : 0;
        out.emplace_back(i, record);
      }
      report_progress(static_cast<std::uint64_t>(nslots));
    }
  };

  const auto run_worker = [&](RecordArena& out) {
    if (!packed_mode) {
      run_shard(out);
    } else if (config.lanes == 256) {
      run_batches(std::type_identity<sim::BitParallelSimulator256>{}, out);
    } else {
      run_batches(std::type_identity<sim::BitParallelSimulator>{}, out);
    }
  };

  const std::size_t work_items = packed_mode ? batches.size() : owned.size();
  const int requested_threads = config.threads > 0
                                    ? config.threads
                                    : util::ThreadPool::hardware_threads();
  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(requested_threads),
      std::max<std::size_t>(work_items, 1)));
  std::vector<RecordArena> arenas(static_cast<std::size_t>(workers));
  for (RecordArena& a : arenas) {
    a.reserve(owned.size() / static_cast<std::size_t>(workers) + 1);
  }
  if (workers <= 1) {
    run_worker(arenas[0]);
  } else {
    util::ThreadPool pool(workers);
    std::vector<std::future<void>> shards;
    shards.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      RecordArena& arena = arenas[static_cast<std::size_t>(w)];
      shards.push_back(pool.submit([&run_worker, &arena] { run_worker(arena); }));
    }
    for (auto& shard : shards) shard.get();
  }
  // Deterministic merge: each global index was produced by exactly one
  // worker, so scattering the arenas into the shared vector here yields the
  // same bytes as any single-threaded run — and no worker ever wrote to the
  // shared vector while others were running.
  for (const RecordArena& arena : arenas) {
    for (const auto& [i, record] : arena) records[i] = record;
  }
}

CampaignStats compute_campaign_stats(const soc::SocModel& model,
                                     const CampaignConfig& config,
                                     const radiation::SoftErrorDatabase& db,
                                     const cluster::ClusteringResult& clustering,
                                     std::span<const double> cell_xsects,
                                     std::uint64_t window_ps,
                                     const StatsCounters& counters) {
  CampaignStats stats;

  const double let = config.environment.let;
  const auto total = db.netlist_xsect(model.netlist, let);
  stats.set_xsect_cm2 = total.set_cm2;
  stats.seu_xsect_cm2 = total.seu_cm2;

  for (std::size_t k = 0; k < clustering.clusters.size(); ++k) {
    ClusterStats cs;
    cs.cluster = static_cast<int>(k);
    // Weighted count (memory macros expand to words): the CellN of Eq. 2.
    cs.num_cells = static_cast<std::size_t>(clustering.cluster_weight[k]);
    cs.samples = counters.cluster_samples[k];
    cs.errors = counters.cluster_errors[k];
    cs.propagation_ratio =
        cs.samples > 0
            ? static_cast<double>(cs.errors) / static_cast<double>(cs.samples)
            : 0.0;
    for (const CellId id : clustering.clusters[k]) {
      cs.xsect_cm2 += cell_xsects[id.index()];
    }
    cs.ser_percent =
        cs.propagation_ratio *
        config.environment.upset_probability(cs.xsect_cm2, window_ps) * 100.0;
    stats.clusters.push_back(cs);
  }
  stats.chip_ser_percent = chip_ser_percent(stats.clusters);

  // Per-module-class aggregation for Table I / Fig. 7.
  std::array<double, netlist::kModuleClassCount> class_xsect{};
  for (const CellId id : model.netlist.all_cells()) {
    class_xsect[static_cast<std::size_t>(model.netlist.cell_class(id))] +=
        cell_xsects[id.index()];
  }
  for (std::size_t c = 0; c < stats.per_class.size(); ++c) {
    auto& cls = stats.per_class[c];
    cls.samples = counters.class_samples[c];
    cls.errors = counters.class_errors[c];
    cls.xsect_cm2 = class_xsect[c];
    const double ratio =
        cls.samples > 0
            ? static_cast<double>(cls.errors) / static_cast<double>(cls.samples)
            : 0.0;
    cls.ser_percent =
        ratio * config.environment.upset_probability(cls.xsect_cm2, window_ps) *
        100.0;
  }
  return stats;
}

CampaignResult finalize_campaign(const soc::SocModel& model,
                                 const CampaignConfig& config,
                                 const radiation::SoftErrorDatabase& db,
                                 CampaignPrep&& prep,
                                 std::vector<InjectionRecord>&& records) {
  CampaignResult result;
  result.clock_period_ps = prep.clock_period_ps;
  result.golden_cycles = prep.run_cycles;
  result.clustering = std::move(prep.clustering);
  result.records = std::move(records);

  // Fold the records into order-independent counters; the shared kernel
  // below does every floating-point reduction, so this path and the
  // streaming CampaignAggregator produce bit-identical statistics.
  std::vector<std::size_t> cluster_samples(result.clustering.clusters.size(), 0);
  std::vector<std::size_t> cluster_errors(result.clustering.clusters.size(), 0);
  std::array<std::size_t, netlist::kModuleClassCount> class_samples{};
  std::array<std::size_t, netlist::kModuleClassCount> class_errors{};
  for (const InjectionRecord& r : result.records) {
    ++cluster_samples[static_cast<std::size_t>(r.cluster)];
    ++class_samples[static_cast<std::size_t>(r.module_class)];
    if (r.soft_error) {
      ++cluster_errors[static_cast<std::size_t>(r.cluster)];
      ++class_errors[static_cast<std::size_t>(r.module_class)];
    }
  }

  CampaignStats stats = compute_campaign_stats(
      model, config, db, result.clustering, prep.cell_xsects, prep.window_ps,
      StatsCounters{cluster_samples, cluster_errors, class_samples,
                    class_errors});
  result.clusters = std::move(stats.clusters);
  result.per_class = stats.per_class;
  result.chip_ser_percent = stats.chip_ser_percent;
  result.set_xsect_cm2 = stats.set_xsect_cm2;
  result.seu_xsect_cm2 = stats.seu_xsect_cm2;
  return result;
}

}  // namespace detail

CampaignResult run_campaign(const soc::SocModel& model,
                            const CampaignConfig& config,
                            const radiation::SoftErrorDatabase& db) {
  util::Timer sim_timer;
  detail::CampaignPrep prep =
      detail::prepare_campaign(model, config, db, /*for_execution=*/true);
  std::vector<std::size_t> owned(prep.plan.size());
  std::iota(owned.begin(), owned.end(), std::size_t{0});
  std::vector<InjectionRecord> records(prep.plan.size());
  detail::execute_injections(model, config, prep, owned, records);
  const double seconds = sim_timer.seconds();
  CampaignResult result = detail::finalize_campaign(
      model, config, db, std::move(prep), std::move(records));
  result.simulation_seconds = seconds;
  return result;
}

CampaignStats run_campaign(const soc::SocModel& model,
                           const CampaignConfig& config,
                           const radiation::SoftErrorDatabase& db,
                           RecordSink& sink) {
  util::Timer sim_timer;
  detail::CampaignPrep prep =
      detail::prepare_campaign(model, config, db, /*for_execution=*/true);
  std::vector<std::size_t> owned(prep.plan.size());
  std::iota(owned.begin(), owned.end(), std::size_t{0});
  std::vector<InjectionRecord> records(prep.plan.size());
  detail::execute_injections(model, config, prep, owned, records);
  const double seconds = sim_timer.seconds();

  ShardFileMeta meta;
  meta.seed = config.seed;
  meta.shard_index = 0;
  meta.shard_count = 1;
  meta.total_injections = prep.plan.size();
  meta.config_digest = campaign_config_digest(model, config);
  meta.num_records = prep.plan.size();
  sink.begin(meta);

  CampaignAggregator aggregator(model, config, db, prep);
  RecordBatch batch;
  for (std::size_t i = 0; i < records.size();) {
    const std::size_t n = std::min(ColumnarFileWriter::kDefaultChunkRows,
                                   records.size() - i);
    batch.clear();
    batch.reserve(n);
    for (std::size_t j = 0; j < n; ++j, ++i) batch.push_back(i, records[i]);
    aggregator.append(batch);
    sink.append(batch);
  }
  sink.flush();
  CampaignStats stats = aggregator.finalize();
  stats.simulation_seconds = seconds;
  return stats;
}

}  // namespace ssresf::fi
