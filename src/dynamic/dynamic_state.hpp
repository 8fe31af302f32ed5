// Incremental fault-information maintenance — Section 1's scalability claim
// made executable: "When a disturbance occurs, only those affected nodes
// update their information to keep it consistent."
//
// DynamicMeshState keeps the faulty-block set and the extended-safety-level
// grid up to date across single-fault injections, touching only:
//   * the nodes relabeled by the (monotone) disable rule around the fault,
//   * the blocks absorbed into the grown block, and
//   * the obstacle bits of the changed cells in the safety grid (its levels
//     are read off those bits, so nothing is re-swept; UpdateStats still
//     counts the rows/columns whose levels moved).
// The safety grid is the one copy of the block-node set: the disable rule
// and the rectangle fill read and set its bits (SafetyGrid::blocked /
// add_obstacle) as they go.
// Consistency with a from-scratch rebuild is asserted by the test-suite
// after every injection; UpdateStats quantifies how little work each
// disturbance costs (the figure behind the "converges quickly" argument).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/grid.hpp"
#include "common/rect.hpp"
#include "fault/fault_set.hpp"
#include "info/safety_level.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::dynamic {

/// Work performed by one incremental update.
struct UpdateStats {
  std::int64_t relabeled_nodes = 0;   ///< nodes newly added to blocks
  std::int64_t absorbed_blocks = 0;   ///< pre-existing blocks merged away
  std::int64_t rows_resweeped = 0;    ///< distinct rows of the delta (levels changed)
  std::int64_t cols_resweeped = 0;    ///< distinct columns of the delta (levels changed)
};

/// Mutable mesh fault state with incremental derived-information updates.
/// Owns a copy of the mesh descriptor (it is two integers), so temporaries
/// are safe to pass.
class DynamicMeshState {
 public:
  explicit DynamicMeshState(Mesh2D mesh);

  /// Inject one fault and update blocks + safety levels incrementally.
  /// Injecting an already-faulty or block-interior node is a cheap no-op
  /// for the block structure (the node was already disabled).
  UpdateStats inject_fault(Coord c);

  [[nodiscard]] const Mesh2D& mesh() const noexcept { return mesh_; }
  [[nodiscard]] const fault::FaultSet& faults() const noexcept { return faults_; }

  /// Current disjoint faulty blocks (unordered).
  [[nodiscard]] const std::vector<Rect>& blocks() const noexcept { return blocks_; }

  /// Extended safety levels, maintained incrementally; blocked() is the
  /// block-node set (faulty + disabled).
  [[nodiscard]] const info::SafetyGrid& safety() const noexcept { return safety_; }

  /// The exact set of nodes the last inject_fault flipped from good to bad
  /// (faulty, relabeled, and rectangle-filled cells alike; empty for no-op
  /// injections). This is the injection's epoch delta — consumers that
  /// mirror per-node becomes-bad state (e.g. chaos::ChaosEngine's bad-since
  /// stamps) update from it in O(|delta|) instead of re-scanning the mesh.
  [[nodiscard]] const std::vector<Coord>& last_changed() const noexcept { return changed_; }

 private:
  /// Re-run the disable rule from a seed neighborhood; returns newly-bad
  /// nodes (monotone, so the incremental fixed point equals the global one).
  std::vector<Coord> propagate_from(const std::vector<Coord>& seeds);

  /// Close the block containing the changed cells to a rectangle, absorbing
  /// overlapped blocks, until stable. Appends every cell that became bad to
  /// `changed`.
  void rebuild_block_around(std::vector<Coord>& changed, UpdateStats& stats);

  /// Count the distinct rows/columns the changed cells lie on (their
  /// obstacle bits are already set).
  void count_lines(const std::vector<Coord>& changed, UpdateStats& stats);

  Mesh2D mesh_;
  fault::FaultSet faults_;
  std::vector<Rect> blocks_;
  info::SafetyGrid safety_;
  std::vector<Coord> changed_;               ///< last injection's epoch delta
  core::BitGrid seen_;                       ///< rebuild_block_around marks; clear between calls
  std::vector<Coord> component_;             ///< rebuild_block_around search list
  std::vector<std::uint64_t> row_dirty_;     ///< count_lines line-count bitsets
  std::vector<std::uint64_t> col_dirty_;
};

}  // namespace meshroute::dynamic
