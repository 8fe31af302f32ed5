// Per-thread reusable buffers for the trial hot path. A SweepRunner worker
// owns one TrialWorkspace for its whole lifetime and hands it to every
// trial functor invocation; make_trial then rebuilds the workspace-owned
// Trial in place instead of heap-allocating its whole-mesh grids per trial.
//
// Ownership rules:
//   - The Trial returned by make_trial(config, rng, workspace) lives inside
//     the workspace and is valid until the next make_trial call on it.
//   - The scratch members are implementation detail of the builders; callers
//     only construct the workspace and pass it around.
//   - `reach` is a caller-usable output buffer, intended for
//     Trial::reachability / cond::monotone_reachability so the per-trial
//     oracle pass also allocates nothing.
//
// Results are bit-identical to the allocating make_trial: the in-place
// builders draw the same RNG sequence and compute the same fixed points
// (the allocating entry points delegate to them).
#pragma once

#include "experiment/trial.hpp"

namespace meshroute::experiment {

struct TrialWorkspace {
  std::optional<Trial> trial;      ///< rebuilt in place by make_trial
  fault::SampleScratch sample;
  fault::BlockScratch block;
  fault::MccScratch mcc;
  core::BitGrid reach;             ///< reachability-oracle output plane
  /// Microseconds make_trial spent building this workspace's Trial since the
  /// caller last reset it. The sweep worker zeroes it before each trial
  /// functor call and splits the functor's wall time into
  /// sweep.build_us / sweep.route_us from it.
  double build_us = 0.0;
};

/// Workspace overload of make_trial: rebuilds workspace.trial in place and
/// returns a reference to it (invalidated by the next call). Zero
/// allocations in steady state; bit-identical to the allocating overload.
Trial& make_trial(const TrialConfig& config, Rng& rng, TrialWorkspace& workspace);

}  // namespace meshroute::experiment
