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
// stores the runs, not the nodes: horizontal runs `{lo, hi, tag, far}` (an
// x range) bucketed by row, vertical runs (a y range) bucketed by column,
// each as a small CSR (one start per line, the runs back to back). A walk
// reads a row-major and a column-major block-node plane and walks each trail
// a clear run at a time: countr_zero/countl_zero on the plane's words find
// where the run meets a block (or the mesh edge), and the slide is tested
// against the same plane. Nothing is stored per node, and nothing per
// block: the runs are the map's only index of blocks. A query scans c's row
// bucket and column bucket and merges the two: known_rects(c) (the routers'
// believed set) builds each rect from the run itself. The per-node counts
// (deposited_entries, covered_nodes) are computed on demand from the runs.
//
// A run names its block by a key: the block's SW corner packed as
// (ymin << column bits) | xmin. Blocks are disjoint, so the key is unique;
// it sorts like the block list's (ymin, xmin) order, so every line holds its
// runs in block order; and a block's rect, hence its key, never changes
// while the block lives, so a block inserted ahead of it moves none of its
// runs. A run's tag is its block's key times 4 plus the side (south, north,
// west, east) whose walk deposited it, and its `far` is the block's NE
// corner, so a run names its block's rect.
//
// Two ways to fill it, one walk:
//   * from scratch — the constructor reads the block set's row-major plane,
//     paints the rects into a column-major one and walks every side of
//     every block, in tag order;
//   * by update — dynamic::DynamicMeshState calls updated() after an
//     injection grows one block, with the two planes its safety grid
//     already keeps. The new map drops the runs of the absorbed blocks,
//     walks the grown block, and re-walks each side of a surviving block
//     that has a run crossing the grown block's rect (its rect comes from
//     that run). A side's runs lie on consecutive lines from its ring line
//     outward (the ring run, then one line per slide), so a dropped side's
//     lines are found from the runs: from the ring line outward while a
//     line holds a run with the side's tag. Only those lines, and the lines
//     holding a fresh run, are rewritten (merged by tag); every other line
//     is copied as it is, in contiguous stretches. The old map is left as
//     it is, so a snapshot can share it.
//     This is exact because block nodes are only ever added: a side's walk
//     reads the plane only at its own run nodes, which were clear, and at
//     the node just past each run (or the mesh edge), which was blocked and
//     stays blocked. A survivor's run holds no old block node, so it
//     crosses the grown rect only where a node became blocked; a side with
//     no such run walks exactly as before, so its runs carry over.
//     updated() returns a map equal, run for run, to the one the
//     constructor builds over the new blocks (operator==;
//     tests/test_dynamic.cpp checks it after every injection).
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

/// Which blocks are known at each node (their rects), as runs.
class BoundaryInfoMap {
 public:
  /// Build the full (all-quadrant) distribution for `blocks`, which must be
  /// sorted by (ymin, xmin), as every fault model and
  /// dynamic::DynamicMeshState produce them, over a plane of the mesh's
  /// size (an empty list reads no plane). Throws std::invalid_argument for
  /// another order or another plane size, and when the mesh is too large
  /// for a run: a side longer than 65,536 nodes (a run's ends are 16-bit
  /// positions), or a tag over 31 bits (29 bits hold the height times the
  /// width rounded up to a power of two).
  BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks);

  /// The map after one injection grew a block to `grown` (see the file
  /// comment); this map is left as it is, so snapshots may share it.
  /// `grown` holds every node that became a block node; `absorbed` holds
  /// the rects of the old blocks it swallowed, in any order; every other
  /// old block keeps its rect. `rows` and `cols` are the new block-node
  /// plane, row-major and column-major.
  [[nodiscard]] BoundaryInfoMap updated(const Rect& grown, std::span<const Rect> absorbed,
                                        const core::BitGrid& rows,
                                        const core::BitGrid& cols) const;

  /// Overwrite `out` with the rects of the blocks known at `c` (the
  /// believed set of Wu's protocol at `c`), in the block list's (ymin,
  /// xmin) order, each once. Reuses a per-thread buffer, so a call
  /// allocates nothing once `out` and the buffer are warm.
  void known_rects(Coord c, std::vector<Rect>& out) const;

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
  /// A block's SW corner packed as (ymin << col_bits_) | xmin; a run's tag
  /// is its block's key times 4 plus the side that deposited it.
  using Key = std::int32_t;

  /// A stretch of a line where side `tag & 3` of the block keyed `tag >> 2`
  /// is deposited: positions lo..hi along the line (x for a row, y for a
  /// column), 16 bits each. `far` is the block's NE corner packed as
  /// (xmax << 16) | ymax, so the run names the block's whole rect (a live
  /// block's rect never changes).
  struct Run {
    std::uint16_t lo;
    std::uint16_t hi;
    Key tag;
    std::uint32_t far;

    Run() noexcept {}  // left unset: splice() sizes its output before writing it
    Run(Dist l, Dist h, Key t, std::uint32_t f) noexcept
        : lo(static_cast<std::uint16_t>(l)), hi(static_cast<std::uint16_t>(h)), tag(t), far(f) {}

    friend bool operator==(const Run&, const Run&) = default;
  };

  /// Runs bucketed by line: line `v` owns runs[start[v] .. start[v+1]), in
  /// tag order.
  struct Lines {
    std::vector<std::uint32_t> start;
    std::vector<Run> runs;

    [[nodiscard]] std::span<const Run> line(Dist v) const noexcept {
      const auto i = static_cast<std::size_t>(v);
      return {runs.data() + start[i], start[i + 1] - start[i]};
    }

    friend bool operator==(const Lines&, const Lines&) = default;
  };

  /// One side of a block to walk: its tag and the block's rect.
  struct Side {
    Key tag;
    Rect rect;
  };

  /// A run and the line it lies on, as a walk emits it.
  struct Pending {
    Dist line;
    Run run;
  };
  /// Per-axis walk output: [0] rows, [1] columns.
  using PendingRuns = std::vector<Pending>[2];

  [[nodiscard]] Key key_of(const Rect& r) const noexcept { return (r.ymin << col_bits_) | r.xmin; }

  /// The rect of the block keyed `key` whose NE corner is `far`.
  [[nodiscard]] Rect rect_of(Key key, std::uint32_t far) const noexcept {
    return {key & ((Key{1} << col_bits_) - 1), static_cast<Dist>(far >> 16), key >> col_bits_,
            static_cast<Dist>(far & 0xffff)};
  }

  /// Walk the `sides` (in tag order) over the block-node planes, appending
  /// each run to `out` in walk order (so by tag).
  static void walk_blocks(std::span<const Side> sides, const core::BitGrid& row_plane,
                          const core::BitGrid& col_plane, PendingRuns& out);

  /// Counting sort of `in` by line into `out`; stable, so each line keeps
  /// its runs in tag order.
  static void bucket(const std::vector<Pending>& in, Dist lines, Lines& out);

  /// A side whose old runs an update drops, from lines lo..hi.
  struct Dropped {
    Key tag;
    Dist lo;
    Dist hi;
  };

  /// Side `side.tag` of `side.rect` and the lines its runs lie on in this
  /// map (lo > hi when it has none).
  [[nodiscard]] Dropped lines_of(const Side& side) const;

  /// `lines` without the runs of the `dropped` sides (ascending) and with
  /// the runs of `fresh` merged in by tag, into `out`. Only the lines
  /// flagged in `touched` can change (each dropped side's lines and each
  /// fresh run's are); the others are copied as they are.
  static void splice(const Lines& lines, std::span<const Dropped> dropped,
                     std::span<const std::uint8_t> touched, const Lines& fresh, Lines& out);

  /// An empty map over the same mesh, filled by updated().
  BoundaryInfoMap(Dist width, Dist height, int col_bits)
      : width_(width), height_(height), col_bits_(col_bits) {}

  struct Totals {
    std::size_t entries = 0;
    std::size_t covered = 0;
  };
  [[nodiscard]] Totals totals() const;

  Dist width_;
  Dist height_;
  int col_bits_;  ///< bits of a key that hold xmin
  Lines rows_;    ///< horizontal runs, one line per row (x ranges)
  Lines cols_;    ///< vertical runs, one line per column (y ranges)
};

}  // namespace meshroute::info
