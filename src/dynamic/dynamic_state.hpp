// Incremental fault-information maintenance — Section 1's scalability claim
// made executable: "When a disturbance occurs, only those affected nodes
// update their information to keep it consistent."
//
// DynamicMeshState keeps the faulty-block list, its boundary runs and the
// extended-safety-level grid up to date across single-fault injections,
// touching only:
//   * the nodes relabeled by the (monotone) disable rule around the fault,
//   * the blocks absorbed into the grown block,
//   * the obstacle bits of the changed cells in the safety grid (its levels
//     are read off those bits, so nothing is re-swept; UpdateStats still
//     counts the rows/columns whose levels moved), and
//   * the boundary runs of the grown block and of the block sides whose
//     trails it cuts (info::BoundaryInfoMap::updated: only the lines those
//     runs lie on are rewritten, the others copied as they are, into a new
//     map that replaces the old one).
// The safety grid is the one copy of the block-node set: the disable rule
// and the rectangle fill read and set its bits (SafetyGrid::blocked /
// add_obstacle) as they go, and the boundary update walks its row-major
// and column-major planes. The block list stays sorted by (ymin, xmin), the
// order build_faulty_blocks produces, and counted: a grown block's faults
// are the new one plus the absorbed blocks', and a fault on a disabled
// block node moves that block's two counts by one and changes no rect and
// no run.
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
#include <memory>
#include <span>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/grid.hpp"
#include "common/rect.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/boundary.hpp"
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

  /// A state with `faults` injected in order, as by inject_fault, except
  /// that the boundary runs are built once, from scratch, after the last
  /// one: the same map, for one walk of the blocks instead of an update per
  /// injection. last_changed() is the last injection's delta.
  DynamicMeshState(Mesh2D mesh, std::span<const Coord> faults);

  /// Inject one fault and update blocks, boundary runs, MCC labels and all
  /// three safety grids incrementally. Injecting an already-faulty node is
  /// a no-op; a block-interior node leaves the block structure unchanged
  /// (it was already disabled) but can still add MCC labels.
  UpdateStats inject_fault(Coord c);

  [[nodiscard]] const Mesh2D& mesh() const noexcept { return mesh_; }
  [[nodiscard]] const fault::FaultSet& faults() const noexcept { return faults_; }

  /// Current disjoint faulty blocks, sorted by (ymin, xmin) and counted:
  /// the list build_faulty_blocks makes for faults().
  [[nodiscard]] const std::vector<fault::FaultyBlock>& blocks() const noexcept { return blocks_; }

  /// Boundary runs of blocks(), equal to a from-scratch
  /// info::BoundaryInfoMap over the same blocks. The map is never changed
  /// in place: an injection that grows a block replaces it, so a snapshot
  /// can share it (boundary_ptr()).
  [[nodiscard]] const info::BoundaryInfoMap& boundary() const noexcept { return *boundary_; }
  [[nodiscard]] const std::shared_ptr<const info::BoundaryInfoMap>& boundary_ptr()
      const noexcept {
    return boundary_;
  }

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
  /// Re-run the disable rule from the neighborhood of changed[first..];
  /// appends the newly-bad nodes to `changed` (monotone, so the incremental
  /// fixed point equals the global one).
  void propagate_from(std::vector<Coord>& changed, std::size_t first);

  /// inject_fault, updating the boundary runs only when `update_runs`.
  UpdateStats inject(Coord c, bool update_runs);

  /// Close the block containing the changed cells to a rectangle, absorbing
  /// overlapped blocks (their rects go to absorbed_), until stable, and put
  /// it in its sorted place; returns its rect. Appends every cell that
  /// became bad to `changed`.
  Rect rebuild_block_around(std::vector<Coord>& changed, UpdateStats& stats);

  /// Bring both MCC labelings to their fixed point after fault `c`.
  void update_mcc(Coord c);

  /// Count the distinct rows/columns the changed cells lie on (their
  /// obstacle bits are already set).
  void count_lines(const std::vector<Coord>& changed, UpdateStats& stats);

  Mesh2D mesh_;
  fault::FaultSet faults_;
  std::vector<fault::FaultyBlock> blocks_;   ///< sorted by (ymin, xmin)
  info::SafetyGrid safety_;
  std::shared_ptr<const info::BoundaryInfoMap> boundary_;
  std::vector<Coord> changed_;               ///< last injection's epoch delta

  /// One MCC labeling at its fixed point; the labels never hold a fault.
  struct MccLabels {
    core::BitGrid useless;
    core::BitGrid cant_reach;
    info::SafetyGrid safety;  ///< obstacles: faults, useless and can't-reach
  };
  std::array<MccLabels, 2> mcc_;             ///< indexed by fault::MccKind
  std::vector<Coord> mcc_work_;              ///< propagate_mcc_label worklist
  std::vector<Coord> disable_work_;          ///< propagate_from worklist
  core::BitGrid seen_;                       ///< rebuild_block_around marks; clear between calls
  std::vector<Coord> component_;             ///< rebuild_block_around search list
  std::vector<Rect> absorbed_;               ///< rebuild_block_around: old rects merged away
  std::vector<std::uint64_t> row_dirty_;     ///< count_lines line-count bitsets
  std::vector<std::uint64_t> col_dirty_;
};

}  // namespace meshroute::dynamic
