// Faulty-block-information distribution (Section 2, Figures 3 and 6).
//
// Each block's corner coordinates are deposited on:
//   * its perimeter ring (the nodes adjacent to the block — they can sense
//     the block directly), and
//   * the four boundary lines L1..L4 extending outward from the SW and NE
//     corners (and, for full four-quadrant generality, from the SE and NW
//     corners as well — the paper describes the quadrant-I subset).
// When a boundary line runs into another block it turns and joins the
// corresponding line of that block ("turn-and-join", Figure 3 (b)); the walk
// below realizes that rule by sliding along the encountered block's adjacent
// line until the primary direction clears, which reproduces the staircase
// trails of the paper.
//
// Routing then needs *only* the block information stored at the node a packet
// currently occupies (see route/router.hpp).
//
// Layout: a run index. A block's deposits are a few straight runs — each
// side of its ring, joined with the first clear run of the two trails that
// leave that side's corners, then each trail's later runs, where a
// turn-and-join slide node starts the run on its new line — so the map
// stores the runs, not the nodes: horizontal runs `{lo, hi, id}` (an x
// range) bucketed by row, vertical runs (a y range) bucketed by column, each
// as a small CSR (one start per line, the runs back to back). A walk reads
// a row-major and a column-major block-node plane and walks each trail a
// clear run at a time: countr_zero/countl_zero on the plane's words find
// where the run meets a block (or the mesh edge), and the slide is tested
// against the same plane. Nothing is stored per node. known_blocks(c) scans
// c's row bucket and column bucket and merges the two. The per-node counts
// (deposited_entries, covered_nodes) are computed on demand from the runs.
//
// Two ways to fill it, one walk:
//   * from scratch — the constructor reads the block set's row-major plane,
//     paints the rects into a column-major one and walks every block;
//   * by update — dynamic::DynamicMeshState calls updated() after an
//     injection grows one block, with the two planes its safety grid
//     already keeps. The new map drops the runs of the absorbed blocks,
//     walks the grown block, re-walks each surviving block that has a run
//     crossing the grown block's rect, and renumbers the rest to their new
//     ids; the old map is left as it is, so a snapshot can share it.
//     This is exact because block nodes are only ever added: a block's
//     walk reads the plane only at its own run nodes, which were clear, and
//     at the node just past each run (or the mesh edge), which was blocked
//     and stays blocked. A survivor's run holds no old block node, so it
//     crosses the grown rect only where a node became blocked; a survivor
//     with no such run walks exactly as before. updated() returns a map
//     equal, run for run, to the one the constructor builds over the new
//     blocks (operator==; tests/test_dynamic.cpp checks it after every
//     injection).
//
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "fault/block_model.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::info {

/// Which blocks are known at each node (ids into BlockSet), as runs.
class BoundaryInfoMap {
 public:
  /// Build the full (all-quadrant) distribution for `blocks`.
  BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks);

  /// The map after one injection grew the block set (see the file
  /// comment); this map is left as it is, so snapshots may share it.
  /// `blocks` is the new list, in id order; block `added` is the grown one
  /// and holds every node that became a block node. `absorbed` holds the
  /// old ids, ascending, of the blocks it swallowed; the other old blocks
  /// keep their relative order. `rows` and `cols` are the new block-node
  /// plane, row-major and column-major.
  [[nodiscard]] BoundaryInfoMap updated(std::span<const fault::FaultyBlock> blocks,
                                        std::int32_t added,
                                        std::span<const std::int32_t> absorbed,
                                        const core::BitGrid& rows,
                                        const core::BitGrid& cols) const;

  /// Overwrite `out` with the ids of the blocks whose information is stored
  /// at `c` (unique, ascending).
  void known_blocks(Coord c, std::vector<std::int32_t>& out) const;

  [[nodiscard]] bool knows(Coord c, std::int32_t block) const noexcept;

  /// Total (node, block) pairs deposited — the memory cost of the per-node
  /// model. Computed from the runs on each call.
  [[nodiscard]] std::size_t deposited_entries() const;

  /// Number of nodes storing at least one entry. Computed on each call.
  [[nodiscard]] std::size_t covered_nodes() const;

  /// Runs stored, both axes.
  [[nodiscard]] std::size_t run_count() const noexcept {
    return rows_.runs.size() + cols_.runs.size();
  }

  /// Same mesh, and the same runs in the same order on every line.
  friend bool operator==(const BoundaryInfoMap&, const BoundaryInfoMap&) = default;

 private:
  /// A stretch of a line where block `id` is deposited: positions lo..hi
  /// along the line (x for a row, y for a column).
  struct Run {
    Dist lo;
    Dist hi;
    std::int32_t id;

    friend bool operator==(const Run&, const Run&) = default;
  };

  /// Runs bucketed by line: line `v` owns runs[start[v] .. start[v+1]), in
  /// block id order.
  struct Lines {
    std::vector<std::uint32_t> start;
    std::vector<Run> runs;

    [[nodiscard]] std::span<const Run> line(Dist v) const noexcept {
      const auto i = static_cast<std::size_t>(v);
      return {runs.data() + start[i], start[i + 1] - start[i]};
    }

    friend bool operator==(const Lines&, const Lines&) = default;
  };

  /// A run and the line it lies on, as a walk emits it.
  struct Pending {
    Dist line;
    Run run;
  };
  /// Per-axis walk output: [0] rows, [1] columns.
  using PendingRuns = std::vector<Pending>[2];

  /// Walk the blocks `ids` (ascending) of `blocks` over the block-node
  /// planes, appending each run to `out` in walk order (so by id).
  static void walk_blocks(std::span<const fault::FaultyBlock> blocks,
                          std::span<const std::int32_t> ids, const core::BitGrid& row_plane,
                          const core::BitGrid& col_plane, PendingRuns& out);

  /// Counting sort of `in` by line into `out`; stable, so each line keeps
  /// its runs in id order.
  static void bucket(const std::vector<Pending>& in, Dist lines, Lines& out);

  /// `lines` renumbered through `new_id` into `out`, without the runs it
  /// maps to kNoBlock and with the runs of `fresh` merged in, each line in
  /// id order (a block's runs all come from one side).
  static void splice(const Lines& lines, const std::int32_t* new_id, const Lines& fresh,
                     Lines& out);

  /// An empty width x height map, filled by updated().
  BoundaryInfoMap(Dist width, Dist height) : width_(width), height_(height) {}

  struct Totals {
    std::size_t entries = 0;
    std::size_t covered = 0;
  };
  [[nodiscard]] Totals totals() const;

  Dist width_;
  Dist height_;
  Lines rows_;  ///< horizontal runs, one line per row (x ranges)
  Lines cols_;  ///< vertical runs, one line per column (y ranges)
};

/// The rects of the blocks known at `c`, in ascending id order (the believed
/// set of Wu's protocol at `c`). Overwrites `out`; reuses a per-thread id
/// buffer, so a call allocates nothing once `out` and the buffer are warm.
void believed_rects(const BoundaryInfoMap& map, const fault::BlockSet& blocks, Coord c,
                    std::vector<Rect>& out);

}  // namespace meshroute::info
