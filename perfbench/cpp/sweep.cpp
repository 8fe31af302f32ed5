// paper_sweep: the paper's Fig. 12 evaluation through experiment::SweepRunner
// — a 200x200 mesh, k = 10..200 uniform faults, strategies S1-S4 under the
// faulty-block and MCC models, segment 5, 21 random pivots, source at the
// centre, quadrant-I destinations — at a fixed worker count.
//
// Untraced: whole sweeps back to back (each with its own seed derived from
// the benchmark seed) for the run's duration; every cell's wall time and its
// make_trial share are recorded with two timestamps per cell. Traced: one
// untraced and one traced sweep of the same seed; the traced functor wraps
// a span around each call into a layer and then replays the from-scratch
// builders (block closure, MCC, safety levels) on the trial's fault set.
//
// Correctness: a strategy answering "minimal" where the ground-truth
// reachability oracle finds no minimal path is a violation, and so is any
// point whose strategy rate exceeds its existence rate.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "cond/strategies.hpp"
#include "experiment/sweep.hpp"
#include "experiment/trial.hpp"
#include "experiment/workspace.hpp"
#include "fault/block_model.hpp"
#include "fault/mcc_model.hpp"
#include "info/pivots.hpp"
#include "info/safety_level.hpp"
#include "route/query.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace meshroute;
using cond::Decision;
using cond::StrategyId;

const std::vector<std::string> kColumns = {
    "existence",   "strat4_subm_fb", "strat4a_subm_mcc", "strat1_fb",   "strat2_fb",
    "strat3_fb",   "strat4_fb",      "strat1a_mcc",      "strat2a_mcc", "strat3a_mcc",
    "strat4a_mcc"};
enum : std::size_t { kExist, kSubFb, kSubMcc, kFb0 };

struct CellTimes {
  double trial_us = 0, make_us = 0, reach_us = 0, pivots_us = 0, strategy_us = 0;
  double block_us = 0, mcc_us = 0, safety_us = 0;
  int violations = 0;
};

/// Sweep worker threads: two, so a 4-core machine keeps cores for the
/// sweep's own process launches and the rest of the system; never more
/// than the machine has.
int worker_count() {
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::min(2, cores);
}

experiment::SweepConfig sweep_config(const Options& opt, std::uint64_t seed) {
  experiment::SweepConfig cfg;
  cfg.seed = seed;
  cfg.threads = worker_count();
  cfg.batch = 0;  // auto, as the figure benches run
  if (opt.tiny) {
    cfg.n = 48;
    cfg.trials = 4;
    cfg.dests = 5;
    cfg.fault_counts = {10, 20};
  }
  return cfg;
}

template <class F>
double span_us(F&& f) {
  const double t0 = now_us();
  f();
  return now_us() - t0;
}

/// One Fig. 12 sweep. `traced` adds the layer spans; `first_done` (optional)
/// receives the monotonic time at which the first cell finished.
struct SweepRun {
  experiment::SweepConfig cfg;
  std::vector<CellTimes> cells;
  double wall_us = 0;
  std::string digest;
  int rate_violations = 0;

  SweepRun(const experiment::SweepConfig& config, std::vector<experiment::SweepPoint> points,
           bool traced, std::atomic<double>* first_done)
      : cfg(config) {
    const cond::StrategyConfig strategy_cfg{.segment_size = 5};
    const StrategyId ids[] = {StrategyId::S1, StrategyId::S2, StrategyId::S3, StrategyId::S4};
    const auto trials = static_cast<std::size_t>(cfg.trials);
    cells.assign(points.size() * trials, CellTimes{});
    experiment::SweepRunner runner(cfg, kColumns);
    const double t0 = now_us();
    const auto result = runner.run(points, [&](const experiment::SweepCell& cell, Rng& rng,
                                               experiment::TrialWorkspace& ws,
                                               experiment::TrialCounters& out) {
      CellTimes& ct = cells[cell.point_index * trials + static_cast<std::size_t>(cell.trial)];
      const double c0 = now_us();
      const experiment::Trial& trial =
          experiment::make_trial({.n = cell.n(), .faults = cell.faults()}, rng, ws);
      const double c1 = now_us();
      std::vector<Coord> pivots;
      if (traced) {
        ct.reach_us = span_us([&] { trial.reachability(ws.reach); });
        ct.pivots_us = span_us([&] {
          pivots = info::generate_pivots(trial.quadrant1_area(), 3, info::PivotPlacement::Random,
                                         &rng);
        });
      } else {
        trial.reachability(ws.reach);
        pivots = info::generate_pivots(trial.quadrant1_area(), 3, info::PivotPlacement::Random,
                                       &rng);
      }
      const route::QueryView view = trial.query_view();
      for (int s = 0; s < cfg.dests; ++s) {
        const Coord d = experiment::sample_quadrant1_dest(trial, rng);
        const bool exists = ws.reach[d];
        out.count(kExist, exists);
        Decision df[4];
        Decision dm[4];
        const auto decide_all = [&] {
          for (std::size_t i = 0; i < 4; ++i) {
            df[i] = route::decide_strategy(view, trial.source, d, route::QueryModel::FaultyBlock,
                                           ids[i], pivots, strategy_cfg);
            dm[i] = route::decide_strategy(view, trial.source, d, route::QueryModel::Mcc, ids[i],
                                           pivots, strategy_cfg);
          }
        };
        if (traced) {
          ct.strategy_us += span_us(decide_all);
        } else {
          decide_all();
        }
        for (std::size_t i = 0; i < 4; ++i) {
          out.count(kFb0 + i, df[i] == Decision::Minimal);
          out.count(kFb0 + 4 + i, dm[i] == Decision::Minimal);
          if (!exists && (df[i] == Decision::Minimal || dm[i] == Decision::Minimal)) {
            ++ct.violations;
          }
        }
        out.count(kSubFb, df[3] != Decision::Unknown);
        out.count(kSubMcc, dm[3] != Decision::Unknown);
      }
      const double c2 = now_us();
      ct.trial_us = c2 - c0;
      ct.make_us = c1 - c0;
      if (first_done != nullptr) {
        double none = 0;
        first_done->compare_exchange_strong(none, c2);
      }
      if (traced) {
        // From-scratch builder replicas on this trial's fault set, outside
        // the trial span (make_trial ran the same builders inside it).
        thread_local fault::BlockScratch block_scratch;
        thread_local fault::MccScratch mcc_scratch;
        thread_local fault::BlockSet blocks;
        thread_local fault::MccSet mcc;
        thread_local info::SafetyGrid fb_safety, mcc_safety;
        ct.block_us = span_us(
            [&] { fault::build_faulty_blocks(trial.mesh, trial.faults, blocks, block_scratch); });
        ct.mcc_us = span_us([&] {
          fault::build_mcc(trial.mesh, trial.faults, fault::MccKind::TypeOne, mcc, mcc_scratch);
        });
        ct.safety_us = span_us([&] {
          info::compute_safety_levels(trial.mesh, block_scratch.bad_plane, fb_safety);
          info::compute_safety_levels(trial.mesh, mcc_scratch.labeled_plane, mcc_safety);
        });
      }
    });
    wall_us = now_us() - t0;

    Digest dg;
    char buf[64];
    for (std::size_t p = 0; p < result.points().size(); ++p) {
      const double exist = result.mean(p, "existence");
      for (const auto& col : kColumns) {
        const double v = result.mean(p, col);
        std::snprintf(buf, sizeof buf, "%zu:%s=%.9g", p, col.c_str(), v);
        dg.add(buf);
        const bool minimal_rate =
            col.rfind("strat", 0) == 0 && col.find("subm") == std::string::npos;
        if (minimal_rate && v > exist + 1e-12) ++rate_violations;
      }
    }
    digest = dg.hex();
  }
};

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

/// Launch `perfbench first-trial` and return launch-to-first-finished-trial
/// in microseconds (negative on failure).
double launch_first_trial(const Options& opt) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const std::string exe = self_exe();
  std::vector<std::string> args = {exe, "first-trial", "--seed", std::to_string(opt.seed)};
  if (opt.tiny) args.push_back("--tiny");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  pid_t pid = -1;
  const double t0 = now_us();
  const int rc = posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  std::string text;
  char buf[256];
  for (ssize_t n; rc == 0 && (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  if (rc != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1;
  }
  return std::strtod(text.c_str(), nullptr) - t0;
}

std::vector<experiment::SweepPoint> grid(const experiment::SweepConfig& cfg) {
  return experiment::fault_count_points(cfg.fault_counts);
}

}  // namespace

int sweep_first_trial(const Options& opt) {
  experiment::SweepConfig cfg = sweep_config(opt, stream_seed(opt.seed, 999));
  cfg.trials = cfg.threads;  // one cell per worker of the first point
  std::atomic<double> first{0};
  const SweepRun run(cfg, {grid(cfg).front()}, false, &first);
  std::printf("%.3f\n", first.load());
  return run.rate_violations == 0 ? 0 : 1;
}

void paper_sweep(const Options& opt, Report& rep) {
  const double start = now_us();
  const int workers = worker_count();
  rep.info["workers"] = std::to_string(workers);
  rep.info["batch"] = std::to_string(sweep_config(opt, 0).resolved_batch());

  const auto account = [&](const SweepRun& run) {
    rep.attempted += run.cells.size();
    for (const CellTimes& c : run.cells) {
      if (c.violations > 0) rep.fail("strategy answered minimal without a minimal path");
    }
    for (int i = 0; i < run.rate_violations; ++i) rep.fail("strategy rate above existence rate");
  };

  if (opt.trace) {
    const experiment::SweepConfig cfg = sweep_config(opt, stream_seed(opt.seed, 1000));
    const SweepRun plain(cfg, grid(cfg), false, nullptr);
    const SweepRun traced(cfg, grid(cfg), true, nullptr);
    account(traced);
    double trial = 0, make = 0, reach = 0, pivots = 0, strategy = 0, block = 0, mcc = 0,
           safety = 0, busy = 0;
    for (const CellTimes& c : traced.cells) {
      trial += c.trial_us;
      make += c.make_us;
      reach += c.reach_us;
      pivots += c.pivots_us;
      strategy += c.strategy_us;
      block += c.block_us;
      mcc += c.mcc_us;
      safety += c.safety_us;
    }
    for (const CellTimes& c : plain.cells) busy += c.trial_us;
    const double n = static_cast<double>(traced.cells.size());
    rep.set("experiment.trial_us", trial / n, "us");
    rep.set("experiment.make_trial_us", make / n, "us");
    rep.set("experiment.self_us", (trial - make - reach - pivots - strategy) / n, "us");
    rep.set("fault.block_build_us", block / n, "us");
    rep.set("fault.mcc_build_us", mcc / n, "us");
    rep.set("info.safety_build_us", safety / n, "us");
    rep.set("cond.reach_us", reach / n, "us");
    rep.set("cond.strategy_us", strategy / n, "us");
    rep.set("info.pivots_us", pivots / n, "us");
    rep.set("experiment.worker_busy_ratio", busy / (workers * plain.wall_us), "ratio");
    rep.set("trace.overhead_ratio", traced.wall_us / plain.wall_us, "ratio");
    rep.set("trace.unattributed_ratio", (trial - make - reach - pivots - strategy) / trial,
            "ratio");
    // The same nesting rule as the serve replays: self time may dip below
    // zero by at most 2 us or 10% of the parent.
    const double self = (trial - make - reach - pivots - strategy) / n;
    rep.set("trace.nesting_violations", self < -std::max(2.0, 0.1 * trial / n) ? 1 : 0,
            "count");
    rep.info["digest"] = traced.digest;
    return;
  }

  // setup_s: launch of a sweep process until its first finished trial.
  std::vector<double> setups;
  const int launches = opt.tiny ? 2 : 5;
  for (int i = 0; i < launches; ++i) {
    const double s = launch_first_trial(opt);
    if (s < 0) {
      rep.fail("sweep first-trial child failed");
      ++rep.attempted;
      continue;
    }
    setups.push_back(s);
  }

  // Each sweep is one window: its cell-time percentiles and its trials/s,
  // summarised over the run's sweeps by the quiet quartile (util.hpp).
  std::vector<double> trial_p50, trial_p90, trial_p99, make_p50, make_p90, make_p99, rate;
  std::size_t samples = 0;
  std::string digest;
  for (std::uint64_t r = 0; r == 0 || now_us() - start < 0.9 * opt.seconds * 1e6; ++r) {
    const experiment::SweepConfig cfg = sweep_config(opt, stream_seed(opt.seed, 1000 + r));
    const SweepRun run(cfg, grid(cfg), false, nullptr);
    account(run);
    if (r == 0) digest = run.digest;
    std::vector<double> trial_us, make_us;
    for (const CellTimes& c : run.cells) {
      trial_us.push_back(c.trial_us);
      make_us.push_back(c.make_us);
    }
    trial_p50.push_back(percentile(trial_us, 0.50));
    trial_p90.push_back(percentile(trial_us, 0.90));
    trial_p99.push_back(percentile(trial_us, 0.99));
    make_p50.push_back(percentile(make_us, 0.50));
    make_p90.push_back(percentile(make_us, 0.90));
    make_p99.push_back(percentile(make_us, 0.99));
    rate.push_back(static_cast<double>(run.cells.size()) / (run.wall_us * 1e-6));
    samples += run.cells.size();
  }
  rep.set("trial_p50_us", quiet_quartile(trial_p50, false), "us");
  rep.set("trial_p90_us", quiet_quartile(trial_p90, false), "us");
  rep.set("trial_p99_us", quiet_quartile(trial_p99, false), "us");
  rep.set("make_trial_p50_us", quiet_quartile(make_p50, false), "us");
  rep.set("make_trial_p90_us", quiet_quartile(make_p90, false), "us");
  rep.set("make_trial_p99_us", quiet_quartile(make_p99, false), "us");
  rep.set("sweep_trials_per_s", quiet_quartile(rate, true), "1/s");
  rep.set("setup_s", median(setups) * 1e-6, "s");
  rep.set("peak_rss_mb", vm_hwm_mib(0), "MiB");
  rep.info["trial_samples"] =
      std::to_string(samples) + " in " + std::to_string(rate.size()) + " sweeps";
  rep.info["setup_samples"] = std::to_string(setups.size());
  rep.info["digest"] = digest;
}

}  // namespace perfbench
