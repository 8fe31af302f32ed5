#include "experiment/trial.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cond/wang.hpp"
#include "experiment/workspace.hpp"
#include "obs/metrics.hpp"

namespace meshroute::experiment {

void Trial::reachability(core::BitGrid& out) const {
  cond::monotone_reachability(mesh, faults.mask(), source, out);
}

Trial make_trial(const TrialConfig& config, Rng& rng) {
  TrialWorkspace workspace;
  return std::move(make_trial(config, rng, workspace));
}

Trial& make_trial(const TrialConfig& config, Rng& rng, TrialWorkspace& workspace) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto charge_build_time = [&] {
    workspace.build_us +=
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
  };
  // Cold vs warm workspace builds distinguish per-thread setup cost from
  // steady-state reuse in --metrics output.
  static obs::Counter& cold_ctr =
      obs::Registry::global().counter("experiment.trials.workspace_cold");
  static obs::Counter& trials_ctr = obs::Registry::global().counter("experiment.trials.built");

  const Mesh2D mesh = Mesh2D::square(config.n);
  const Coord source = config.source.value_or(mesh.center());
  if (!mesh.in_bounds(source)) throw std::invalid_argument("make_trial: source outside mesh");

  trials_ctr.add(1);
  if (!workspace.trial) {
    cold_ctr.add(1);
    workspace.trial.emplace(Trial{mesh, source, fault::FaultSet{}, fault::BlockSet{},
                                  fault::MccSet{}, info::SafetyGrid{}, info::SafetyGrid{}});
  }
  Trial& trial = *workspace.trial;
  trial.mesh = mesh;
  trial.source = source;

  constexpr int kMaxRerolls = 1000;
  for (int attempt = 0; attempt < kMaxRerolls; ++attempt) {
    // The source itself is never faulty; block membership is re-checked
    // after model construction since blocks can engulf healthy nodes. The
    // single-excluded-node overload draws the same sequence as the old
    // predicate form but costs O(k), not O(nodes).
    fault::uniform_random_faults(mesh, config.faults, rng, source, trial.faults,
                                 workspace.sample);
    fault::build_faulty_blocks(mesh, trial.faults, trial.blocks, workspace.block);
    if (trial.blocks.is_block_node(source)) continue;
    fault::build_mcc(mesh, trial.faults, fault::MccKind::TypeOne, trial.mcc1, workspace.mcc);
    if (trial.mcc1.is_mcc_node(source)) continue;

    // The builders leave their final obstacle planes in the scratch
    // (bad_plane = union of block rects, labeled_plane = MCC status != 0);
    // each safety grid is a copy of one plus its transpose.
    info::compute_safety_levels(mesh, workspace.block.bad_plane, trial.fb_safety);
    info::compute_safety_levels(mesh, workspace.mcc.labeled_plane, trial.mcc_safety);
    charge_build_time();
    return trial;
  }
  throw std::runtime_error("make_trial: could not place source outside all blocks");
}

Coord sample_quadrant1_dest(const Trial& trial, Rng& rng) {
  const Rect area = trial.quadrant1_area();
  if (!area.valid()) throw std::invalid_argument("sample_quadrant1_dest: empty quadrant");
  constexpr int kMaxRerolls = 100000;
  for (int attempt = 0; attempt < kMaxRerolls; ++attempt) {
    const Coord d{static_cast<Dist>(rng.uniform(area.xmin, area.xmax)),
                  static_cast<Dist>(rng.uniform(area.ymin, area.ymax))};
    if (!trial.fb_safety.blocked(d) && !trial.mcc_safety.blocked(d)) return d;
  }
  throw std::runtime_error("sample_quadrant1_dest: no block-free destination found");
}

}  // namespace meshroute::experiment
