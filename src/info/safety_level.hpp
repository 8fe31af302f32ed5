// Extended safety levels (Section 2): the 4-tuple (E, S, W, N) at each node,
// giving the hop distance to the nearest faulty-block (or MCC) node in each
// direction along the node's row/column. This is the paper's coded
// limited-global fault information.
//
// Semantics: E = number of consecutive obstacle-free nodes immediately east
// of the node, so that "xd <= E" is exactly "section [0, xd] of the axis is
// clear". kInfiniteDistance when the row/column is clear to the mesh edge
// (the paper's default (inf, inf, inf, inf)).
#pragma once

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/grid.hpp"
#include "fault/block_model.hpp"
#include "fault/mcc_model.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::info {

/// The (E, S, W, N) tuple of one node.
struct ExtendedSafetyLevel {
  Dist e = kInfiniteDistance;
  Dist s = kInfiniteDistance;
  Dist w = kInfiniteDistance;
  Dist n = kInfiniteDistance;

  [[nodiscard]] constexpr Dist get(Direction d) const noexcept {
    switch (d) {
      case Direction::East: return e;
      case Direction::South: return s;
      case Direction::West: return w;
      case Direction::North: return n;
    }
    return 0;  // unreachable
  }

  constexpr void set(Direction d, Dist v) noexcept {
    switch (d) {
      case Direction::East: e = v; break;
      case Direction::South: s = v; break;
      case Direction::West: w = v; break;
      case Direction::North: n = v; break;
    }
  }

  friend constexpr bool operator==(const ExtendedSafetyLevel&,
                                   const ExtendedSafetyLevel&) = default;
};

using SafetyGrid = Grid<ExtendedSafetyLevel>;

/// Obstacle mask of a fault model: true at every node belonging to a block.
/// The in-place overloads write into a caller-owned grid (resized only on
/// dimension mismatch) — the workspace path; the allocating ones delegate.
[[nodiscard]] Grid<bool> obstacle_mask(const Mesh2D& mesh, const fault::BlockSet& blocks);
[[nodiscard]] Grid<bool> obstacle_mask(const Mesh2D& mesh, const fault::MccSet& mcc);
void obstacle_mask(const Mesh2D& mesh, const fault::BlockSet& blocks, Grid<bool>& out);
void obstacle_mask(const Mesh2D& mesh, const fault::MccSet& mcc, Grid<bool>& out);

/// Centralized reference computation of all safety levels by directional
/// sweeps: O(nodes). The distributed formation protocol in simsub/ converges
/// to exactly this grid (asserted by integration tests).
///
/// All four sweeps walk rows of contiguous memory (the N/S recurrences read
/// the adjacent row rather than marching down a column), so the kernel
/// streams the AoS plane once per direction instead of striding it. The
/// in-place overload writes into a caller-owned grid, allocating nothing in
/// steady state; every field of every cell is overwritten.
[[nodiscard]] SafetyGrid compute_safety_levels(const Mesh2D& mesh, const Grid<bool>& obstacles);
void compute_safety_levels(const Mesh2D& mesh, const Grid<bool>& obstacles, SafetyGrid& out);

/// Bit-plane overload: reads the obstacle set straight from a BitGrid (the
/// plane the fault builders leave in their scratch), skipping the byte-mask
/// round trip. E/W come from per-row obstacle-position segment fills; N/S
/// from per-column last-obstacle counters streamed row-major (see DESIGN
/// §10 for why no transposed plane is involved). Output is identical to the
/// Grid<bool> overload on the unpacked plane.
void compute_safety_levels(const Mesh2D& mesh, const core::BitGrid& obstacles, SafetyGrid& out);

/// The scalar reference sweeps — the oracle the bit-plane kernel is tested
/// against.
void compute_safety_levels_scalar(const Mesh2D& mesh, const Grid<bool>& obstacles,
                                  SafetyGrid& out);

}  // namespace meshroute::info
