// Extended safety levels (Section 2): the 4-tuple (E, S, W, N) at each node,
// giving the hop distance to the nearest faulty-block (or MCC) node in each
// direction along the node's row/column. This is the paper's coded
// limited-global fault information.
//
// Semantics: E = number of consecutive obstacle-free nodes immediately east
// of the node, so that "xd <= E" is exactly "section [0, xd] of the axis is
// clear". kInfiniteDistance when the row/column is clear to the mesh edge
// (the paper's default (inf, inf, inf, inf)).
//
// Representation: a level is the gap to the next obstacle bit along the
// node's row or column, so SafetyGrid stores no tuple per node. It holds the
// obstacle plane (one bit per node, row-major), its transpose (column x is
// row x of the transpose), and each row's and column's first and last
// obstacle index. A build is one plane copy, one transpose and one pass over
// the lines. A lookup get(c, d) answers infinity from the line's extent when
// no obstacle lies beyond the node; otherwise it is a word scan of row c.y
// (E/W) or column c.x (N/S) from the node outward that stops at the
// obstacle: one word unless the gap crosses a 64-node boundary.
#pragma once

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

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

/// The extended safety levels of every node of one mesh, held as the
/// obstacle plane, its transpose and the lines' obstacle extents (see the
/// file comment). The grid is the production copy of its fault model's
/// obstacle set: blocked() reads a node's membership off the row plane.
/// Levels are read by value; the only writers are compute_safety_levels (a
/// whole plane) and add_obstacle (one node, the incremental path).
class SafetyGrid {
 public:
  SafetyGrid() = default;
  /// An obstacle-free width x height grid: every level infinite.
  SafetyGrid(Dist width, Dist height) {
    if (width <= 0 || height <= 0) {
      throw std::invalid_argument("SafetyGrid dimensions must be positive");
    }
    rows_.resize(width, height);
    cols_.resize(height, width);
    row_extent_.assign(static_cast<std::size_t>(height), Extent{});
    col_extent_.assign(static_cast<std::size_t>(width), Extent{});
  }

  [[nodiscard]] Dist width() const noexcept { return rows_.width(); }
  [[nodiscard]] Dist height() const noexcept { return rows_.height(); }

  /// The level of `c` in direction `d` (asserted in bounds in debug builds).
  [[nodiscard]] Dist get(Coord c, Direction d) const noexcept {
    switch (d) {
      case Direction::East:
        return c.x >= extent(row_extent_, c.y).last
                   ? kInfiniteDistance
                   : gap_after(rows_.row(c.y), rows_.words_per_row(), c.x);
      case Direction::South:
        return c.y <= extent(col_extent_, c.x).first ? kInfiniteDistance
                                                     : gap_before(cols_.row(c.x), c.y);
      case Direction::West:
        return c.x <= extent(row_extent_, c.y).first ? kInfiniteDistance
                                                     : gap_before(rows_.row(c.y), c.x);
      case Direction::North:
        return c.y >= extent(col_extent_, c.x).last
                   ? kInfiniteDistance
                   : gap_after(cols_.row(c.x), cols_.words_per_row(), c.y);
    }
    return 0;  // unreachable
  }

  /// The whole (E, S, W, N) tuple of `c`: four lookups. Readers that need
  /// one direction call get().
  [[nodiscard]] ExtendedSafetyLevel operator[](Coord c) const noexcept {
    return {get(c, Direction::East), get(c, Direction::South), get(c, Direction::West),
            get(c, Direction::North)};
  }

  /// Is `c` an obstacle node (a block or MCC node of the grid's fault
  /// model)? One bit test on the row plane; `c` must be in bounds.
  [[nodiscard]] bool blocked(Coord c) const noexcept { return rows_.test(c); }

  /// The obstacle plane, row-major (bit x of row y is node (x, y)).
  [[nodiscard]] const core::BitGrid& row_plane() const noexcept { return rows_; }
  /// Its transpose, column-major (bit y of row x is node (x, y)).
  [[nodiscard]] const core::BitGrid& col_plane() const noexcept { return cols_; }

  /// Mark `c` as an obstacle: the levels along its row and column change,
  /// nothing is re-swept.
  void add_obstacle(Coord c) noexcept {
    rows_.set(c);
    cols_.set(Coord{c.y, c.x});
    row_extent_[static_cast<std::size_t>(c.y)].add(c.x);
    col_extent_[static_cast<std::size_t>(c.x)].add(c.y);
  }

  friend bool operator==(const SafetyGrid&, const SafetyGrid&) = default;

 private:
  friend void compute_safety_levels(const Mesh2D&, const core::BitGrid&, SafetyGrid&);

  /// First and last obstacle index on one row or column
  /// ({kInfiniteDistance, -1} when the line is clear). A node past `last` (before `first`) sees no
  /// obstacle ahead (behind), so its level that way is infinite without a
  /// scan; most lookups on a sparsely faulted mesh end here.
  struct Extent {
    Dist first = kInfiniteDistance;
    Dist last = -1;

    void add(Dist i) noexcept {
      first = std::min(first, i);
      last = std::max(last, i);
    }
    friend bool operator==(const Extent&, const Extent&) = default;
  };

  /// Recompute every line's extent from `plane` (one line per row).
  static void line_extents(const core::BitGrid& plane, std::vector<Extent>& out);

  [[nodiscard]] static const Extent& extent(const std::vector<Extent>& v, Dist line) noexcept {
    assert(line >= 0 && static_cast<std::size_t>(line) < v.size());
    return v[static_cast<std::size_t>(line)];
  }

  /// Nodes strictly between `i` and the next set bit above it in a line of
  /// `nw` words; infinite when there is none.
  [[nodiscard]] static Dist gap_after(const std::uint64_t* line, std::size_t nw, Dist i) noexcept {
    const Dist next = core::row_next_set(line, nw, i + 1);
    return next < 0 ? kInfiniteDistance : next - i - 1;
  }
  /// Nodes strictly between the last set bit below `i` and `i`.
  [[nodiscard]] static Dist gap_before(const std::uint64_t* line, Dist i) noexcept {
    const Dist prev = core::row_prev_set(line, i - 1);
    return prev < 0 ? kInfiniteDistance : i - prev - 1;
  }

  core::BitGrid rows_;  ///< obstacle plane: bit x of row y is node (x, y)
  core::BitGrid cols_;  ///< its transpose: bit y of row x is node (x, y)
  std::vector<Extent> row_extent_;  ///< per row y: obstacle x range
  std::vector<Extent> col_extent_;  ///< per column x: obstacle y range
};

/// Obstacle mask of a fault model: true at every node belonging to a block.
/// An unpacked copy of the set's plane; the in-place overloads write into a
/// caller-owned grid (resized only on dimension mismatch).
[[nodiscard]] Grid<bool> obstacle_mask(const Mesh2D& mesh, const fault::BlockSet& blocks);
[[nodiscard]] Grid<bool> obstacle_mask(const Mesh2D& mesh, const fault::MccSet& mcc);
void obstacle_mask(const Mesh2D& mesh, const fault::BlockSet& blocks, Grid<bool>& out);
void obstacle_mask(const Mesh2D& mesh, const fault::MccSet& mcc, Grid<bool>& out);

/// Build the safety levels of an obstacle set: O(nodes / 64) words copied
/// and transposed. The distributed formation protocol in simsub/ converges
/// to exactly these levels (asserted by integration tests). The in-place
/// overloads reuse `out`'s planes, allocating nothing in steady state.
/// Every overload throws std::invalid_argument when the obstacle set's
/// dimensions are not the mesh's.
[[nodiscard]] SafetyGrid compute_safety_levels(const Mesh2D& mesh, const Grid<bool>& obstacles);
void compute_safety_levels(const Mesh2D& mesh, const Grid<bool>& obstacles, SafetyGrid& out);

/// Bit-plane overload: adopts the obstacle set straight from a BitGrid (the
/// plane the fault builders leave in their scratch), skipping the byte-mask
/// pack. Output is identical to the Grid<bool> overload on the unpacked
/// plane.
void compute_safety_levels(const Mesh2D& mesh, const core::BitGrid& obstacles, SafetyGrid& out);

/// The scalar reference: four directional chain sweeps into one tuple per
/// node. It is the oracle SafetyGrid is tested against, and the form the
/// distributed protocol's per-node states take.
void compute_safety_levels_scalar(const Mesh2D& mesh, const Grid<bool>& obstacles,
                                  Grid<ExtendedSafetyLevel>& out);

}  // namespace meshroute::info
