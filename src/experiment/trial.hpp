// One simulation trial, exactly as Section 5 sets it up: an n x n mesh,
// k uniformly random faults, the source at the center (the origin of the
// paper's coordinate system), faulty blocks and MCCs constructed, fault
// information distributed, and destinations sampled from the first-quadrant
// submesh with source and destination outside every block. Each fault
// model's obstacle set is its safety grid (SafetyGrid::blocked); the
// ground-truth oracle reads the fault set's plane, faults.mask().
#pragma once

#include <cstdint>
#include <optional>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/rng.hpp"
#include "cond/conditions.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/safety_level.hpp"
#include "mesh/mesh2d.hpp"
#include "route/query.hpp"

namespace meshroute::experiment {

struct TrialConfig {
  Dist n = 200;             ///< mesh side
  std::size_t faults = 0;   ///< k
  std::optional<Coord> source = std::nullopt;  ///< defaults to the mesh center
};

/// All per-configuration state shared by destination samples.
struct Trial {
  Mesh2D mesh;
  Coord source;
  fault::FaultSet faults;
  fault::BlockSet blocks;
  fault::MccSet mcc1;           ///< type-one labeling (quadrant-I destinations)
  info::SafetyGrid fb_safety;   ///< faulty-block nodes and their levels
  info::SafetyGrid mcc_safety;  ///< type-one MCC nodes and their levels

  /// Condition-checking problems under each fault model.
  [[nodiscard]] cond::RoutingProblem fb_problem(Coord dest) const {
    return {&mesh, &fb_safety, source, dest};
  }
  [[nodiscard]] cond::RoutingProblem mcc_problem(Coord dest) const {
    return {&mesh, &mcc_safety, source, dest};
  }

  /// The consolidated read-side bundle (route/query.hpp) over this trial's
  /// planes. Only type-one MCC planes are built (the paper's quadrant-I
  /// destinations), so Mcc-model queries into quadrants II/IV throw; no
  /// boundary deposits means routing sees global information.
  [[nodiscard]] route::QueryView query_view() const {
    route::QueryView v;
    v.mesh = &mesh;
    v.blocks = &blocks;
    v.faulty_mask = &faults.mask();
    v.fb_safety = &fb_safety;
    v.mcc1_safety = &mcc_safety;
    return v;
  }

  /// First-quadrant submesh: from one hop past the source to the mesh
  /// corner (destinations with xd, yd >= 1, as the paper requires).
  [[nodiscard]] Rect quadrant1_area() const {
    return Rect{source.x + 1, mesh.width() - 1, source.y + 1, mesh.height() - 1};
  }

  /// Ground-truth reachability of every node from the source avoiding the
  /// truly faulty nodes, in one word-parallel pass over the fault set's
  /// plane (cond::monotone_reachability): out[d] answers "does a minimal
  /// s-d path exist?" for all d at once. Writes into a caller-owned plane
  /// (e.g. a TrialWorkspace's reach buffer), allocating nothing in steady
  /// state.
  void reachability(core::BitGrid& out) const;
};

/// Build a trial; re-rolls the fault placement until the source lies outside
/// every faulty block and MCC (the paper's simplifying assumption).
[[nodiscard]] Trial make_trial(const TrialConfig& config, Rng& rng);

/// A destination uniform in the first-quadrant submesh, outside every block
/// and MCC (re-sampled until valid). Throws if no valid destination exists.
[[nodiscard]] Coord sample_quadrant1_dest(const Trial& trial, Rng& rng);

}  // namespace meshroute::experiment
