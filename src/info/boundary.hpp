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
// against the same plane. Nothing is stored per node. A query scans c's row
// bucket and column bucket and merges the two: known_rects(c) (the
// routers' believed set) builds each rect from the run itself, known_blocks
// maps each block to its id. The per-node counts (deposited_entries,
// covered_nodes) are computed on demand from the runs.
//
// A run names its block by a key, not by its id: the block's SW corner
// packed as (ymin << column bits) | xmin. Blocks are disjoint, so the key is
// unique; it sorts like the block list's (ymin, xmin) order, so every line
// holds its runs in id order; and a block's rect, hence its key, never
// changes while the block lives, so a block inserted ahead of it moves its
// id but not its runs. A run's tag is its block's key times 4 plus the side
// (south, north, west, east) whose walk deposited it, and its `far` is the
// block's NE corner, so a run names its block's rect. The map keeps the
// keys in id order and, per row, the first id whose block starts on or
// after it, so a key maps to its id with one load and a scan of the blocks
// starting on its row. Per block it also keeps each side's span: the first
// and last line holding a run of that side (rows for the south and north
// sides, columns for the west and east ones).
//
// Two ways to fill it, one walk:
//   * from scratch — the constructor reads the block set's row-major plane,
//     paints the rects into a column-major one and walks every side of
//     every block;
//   * by update — dynamic::DynamicMeshState calls updated() after an
//     injection grows one block, with the two planes its safety grid
//     already keeps. The new map drops the runs of the absorbed blocks,
//     walks the grown block, and re-walks each side of a surviving block
//     that has a run crossing the grown block's rect. Only the lines in a
//     dropped side's old span, or holding a fresh run, are rewritten
//     (merged by tag); every other line is copied as it is, in contiguous
//     stretches. The keys and spans drop the absorbed blocks and take the
//     grown one at its id, and each row's start moves by the blocks that
//     joined or left on the rows before it. The old map is left as it is,
//     so a snapshot can share it.
//     This is exact because block nodes are only ever added: a side's walk
//     reads the plane only at its own run nodes, which were clear, and at
//     the node just past each run (or the mesh edge), which was blocked and
//     stays blocked. A survivor's run holds no old block node, so it
//     crosses the grown rect only where a node became blocked; a side with
//     no such run walks exactly as before, so its runs and its span carry
//     over. updated() returns a map equal, run for run, to the one the
//     constructor builds over the new blocks (operator==;
//     tests/test_dynamic.cpp checks it after every injection).
//
#pragma once

#include <array>
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
  /// Build the full (all-quadrant) distribution for `blocks`. Throws
  /// std::invalid_argument when the mesh is too large for a run: a side
  /// longer than 65,536 nodes (a run's ends are 16-bit positions), or a tag
  /// over 31 bits (29 bits hold the height times the width rounded up to a
  /// power of two).
  BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks);

  /// The map after one injection grew the block set (see the file
  /// comment); this map is left as it is, so snapshots may share it.
  /// `blocks` is the new list, sorted by (ymin, xmin) as
  /// dynamic::DynamicMeshState keeps it (so is this map's); block `added`
  /// is the grown one and holds every node that became a block node.
  /// `absorbed` holds the old ids, ascending, of the blocks it swallowed;
  /// the other old blocks keep their rects and their relative order.
  /// `rows` and `cols` are the new block-node plane, row-major and
  /// column-major.
  [[nodiscard]] BoundaryInfoMap updated(std::span<const fault::FaultyBlock> blocks,
                                        std::int32_t added,
                                        std::span<const std::int32_t> absorbed,
                                        const core::BitGrid& rows,
                                        const core::BitGrid& cols) const;

  /// Overwrite `out` with the ids of the blocks whose information is stored
  /// at `c` (unique, ascending).
  void known_blocks(Coord c, std::vector<std::int32_t>& out) const;

  [[nodiscard]] bool knows(Coord c, std::int32_t block) const noexcept;

  /// Overwrite `out` with the rects of the blocks known at `c`, in
  /// ascending id order. The rects come from the runs, so no id is looked
  /// up when the block list is sorted by (ymin, xmin).
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

  /// Same mesh and blocks, and the same runs in the same order on every
  /// line.
  friend bool operator==(const BoundaryInfoMap&, const BoundaryInfoMap&) = default;

 private:
  /// A block's SW corner packed as (ymin << col_bits_) | xmin; a run's tag
  /// is its block's key times 4 plus the side that deposited it.
  using Key = std::int32_t;

  /// A stretch of a line where side `tag & 3` of the block keyed `tag >> 2`
  /// is deposited: positions lo..hi along the line (x for a row, y for a
  /// column), 16 bits each. `far` is the block's NE corner packed as
  /// (xmax << 16) | ymax, so the run names the block's whole rect without
  /// its id (a live block's rect never changes).
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

  /// The lines lo..hi that one side's runs lie on (rows for sides 0 and 1,
  /// columns for 2 and 3; lo > hi when it has none).
  struct Span {
    Dist lo;
    Dist hi;

    friend bool operator==(const Span&, const Span&) = default;
  };
  /// A block's four spans, by side.
  using Extent = std::array<Span, 4>;

  /// One side of a block to walk: its tag and the block's id.
  struct Side {
    Key tag;
    std::int32_t id;
  };

  /// A run and the line it lies on, as a walk emits it.
  struct Pending {
    Dist line;
    Run run;
  };
  /// Per-axis walk output: [0] rows, [1] columns.
  using PendingRuns = std::vector<Pending>[2];

  [[nodiscard]] Key key_of(const Rect& r) const noexcept { return (r.ymin << col_bits_) | r.xmin; }

  /// Call `emit((key << 32) | far)` for each block known at `c`, in
  /// ascending key order, once per block.
  template <typename Emit>
  void for_each_known(Coord c, Emit&& emit) const;

  /// Id of the block keyed `key`, which must be one of keys_: a scan from
  /// the first block starting on the key's row.
  [[nodiscard]] std::int32_t id_of(Key key) const noexcept {
    auto at = static_cast<std::size_t>(row_first_[static_cast<std::size_t>(key >> col_bits_)]);
    if (by_key_.empty()) {
      while (keys_[at] != key) ++at;
      return static_cast<std::int32_t>(at);
    }
    while (keys_[static_cast<std::size_t>(by_key_[at])] != key) ++at;
    return by_key_[at];
  }

  /// Fill by_key_ and row_first_ from keys_.
  void index_rows();

  /// Walk the `sides` (in tag order) of `blocks` over the block-node
  /// planes, appending each run to `out` in walk order (so by tag) and each
  /// side's span to `spans`.
  static void walk_blocks(std::span<const fault::FaultyBlock> blocks, std::span<const Side> sides,
                          const core::BitGrid& row_plane, const core::BitGrid& col_plane,
                          PendingRuns& out, std::vector<Span>& spans);

  /// Counting sort of `in` by line into `out`; stable, so each line keeps
  /// its runs in tag order.
  static void bucket(const std::vector<Pending>& in, Dist lines, Lines& out);

  /// A side whose old runs an update drops, from lines lo..hi (its span).
  struct Dropped {
    Key tag;
    Dist lo;
    Dist hi;
  };

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
  std::vector<Key> keys_;         ///< each block's key, in id order
  std::vector<Extent> extents_;   ///< each block's spans, in id order
  /// The ids in key order; empty when that is id order, as for a block list
  /// sorted by (ymin, xmin) — every list the fault models and
  /// dynamic::DynamicMeshState produce.
  std::vector<std::int32_t> by_key_;
  /// Per row, the first position in key order whose block starts on or
  /// after it (and one entry more, the block count).
  std::vector<std::int32_t> row_first_;
};

/// The rects of the blocks known at `c`, in ascending id order (the believed
/// set of Wu's protocol at `c`): map.known_rects(c, out). `blocks` is the
/// list `map` was built over; the rects come from the map's runs. Overwrites
/// `out`; reuses per-thread buffers, so a call allocates nothing once `out`
/// and the buffers are warm.
void believed_rects(const BoundaryInfoMap& map, const fault::BlockSet& blocks, Coord c,
                    std::vector<Rect>& out);

}  // namespace meshroute::info
