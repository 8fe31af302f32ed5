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
// as a small CSR (one start per line, the runs back to back). The
// constructor reads the block set's row-major plane, paints the rects into
// a column-major one, and walks each trail a clear run at a time:
// countr_zero/countl_zero on the plane's words find where the run meets a
// block (or the mesh edge), and the slide is tested against the same plane.
// One walk fills both tables; nothing is stored per node. known_blocks(c)
// scans c's row bucket and column bucket and merges the two. The per-node
// counts (deposited_entries, covered_nodes) are computed on demand from the
// runs.
//
// Order contract: known_blocks(c) is unique and in ascending block id order
// (blocks are walked in id order, so each bucket holds its runs in id order,
// and the row and column halves are merged without repeats). Believed-block
// sets, routes and serve replies depend on it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/coord.hpp"
#include "fault/block_model.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::info {

/// Which blocks are known at each node (ids into BlockSet), as runs.
class BoundaryInfoMap {
 public:
  /// Build the full (all-quadrant) distribution for `blocks`.
  BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks);

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

 private:
  /// A stretch of a line where block `id` is deposited: positions lo..hi
  /// along the line (x for a row, y for a column).
  struct Run {
    Dist lo;
    Dist hi;
    std::int32_t id;
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
  };

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
