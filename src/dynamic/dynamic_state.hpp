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
// Both MCC labelings (Definition 2) are kept the same way: per kind, a
// useless and a can't-reach plane plus a safety grid whose obstacles are the
// faults and both labels. Wang's rules are monotone in the fault set, so each
// injection runs the labels' worklist rule (fault::propagate_mcc_label)
// seeded at the new fault only, and adds every node it labels to the grid.
// Consistency with a from-scratch rebuild is asserted by the test-suite
// after every injection; UpdateStats quantifies how little work each
// disturbance costs (the figure behind the "converges quickly" argument).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/grid.hpp"
#include "common/rect.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
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

  /// Inject one fault and update blocks, MCC labels and all three safety
  /// grids incrementally. Injecting an already-faulty node is a no-op; a
  /// block-interior node leaves the block structure unchanged (it was
  /// already disabled) but can still add MCC labels.
  UpdateStats inject_fault(Coord c);

  [[nodiscard]] const Mesh2D& mesh() const noexcept { return mesh_; }
  [[nodiscard]] const fault::FaultSet& faults() const noexcept { return faults_; }

  /// Current disjoint faulty blocks (unordered).
  [[nodiscard]] const std::vector<Rect>& blocks() const noexcept { return blocks_; }

  /// Extended safety levels, maintained incrementally; blocked() is the
  /// block-node set (faulty + disabled).
  [[nodiscard]] const info::SafetyGrid& safety() const noexcept { return safety_; }

  /// Extended safety levels under MCC labeling `kind`, maintained
  /// incrementally; blocked() is that kind's MCC node set (faulty, useless
  /// or can't-reach).
  [[nodiscard]] const info::SafetyGrid& mcc_safety(fault::MccKind kind) const noexcept {
    return mcc_[static_cast<std::size_t>(kind)].safety;
  }

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

  /// Bring both MCC labelings to their fixed point after fault `c`.
  void update_mcc(Coord c);

  /// Count the distinct rows/columns the changed cells lie on (their
  /// obstacle bits are already set).
  void count_lines(const std::vector<Coord>& changed, UpdateStats& stats);

  Mesh2D mesh_;
  fault::FaultSet faults_;
  std::vector<Rect> blocks_;
  info::SafetyGrid safety_;
  std::vector<Coord> changed_;               ///< last injection's epoch delta

  /// One MCC labeling at its fixed point; the labels never hold a fault.
  struct MccLabels {
    core::BitGrid useless;
    core::BitGrid cant_reach;
    info::SafetyGrid safety;  ///< obstacles: faults, useless and can't-reach
  };
  std::array<MccLabels, 2> mcc_;             ///< indexed by fault::MccKind
  std::vector<Coord> mcc_work_;              ///< propagate_mcc_label worklist
  core::BitGrid seen_;                       ///< rebuild_block_around marks; clear between calls
  std::vector<Coord> component_;             ///< rebuild_block_around search list
  std::vector<std::uint64_t> row_dirty_;     ///< count_lines line-count bitsets
  std::vector<std::uint64_t> col_dirty_;
};

}  // namespace meshroute::dynamic
