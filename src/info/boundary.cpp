#include "info/boundary.hpp"

#include <algorithm>
#include <bit>

#include "common/bitgrid.hpp"

namespace meshroute::info {

namespace {

/// Position of the first set bit of `row` after `u`, or `len` when there is
/// none (bits at `len` and beyond are zero by the BitGrid tail invariant).
Dist first_set_after(const std::uint64_t* row, Dist u, Dist len) noexcept {
  const Dist p = u + 1;
  if (p >= len) return len;
  const std::size_t nw = (static_cast<std::size_t>(len) + 63) >> 6;
  std::size_t j = static_cast<std::size_t>(p) >> 6;
  std::uint64_t w = row[j] & (~std::uint64_t{0} << (p & 63));
  while (w == 0) {
    if (++j == nw) return len;
    w = row[j];
  }
  return static_cast<Dist>(j * 64 + static_cast<std::size_t>(std::countr_zero(w)));
}

/// Position of the last set bit of `row` before `u`, or -1 when there is none.
Dist last_set_before(const std::uint64_t* row, Dist u) noexcept {
  if (u <= 0) return -1;
  const Dist p = u - 1;
  std::size_t j = static_cast<std::size_t>(p) >> 6;
  std::uint64_t w = row[j] & (~std::uint64_t{0} >> (63 - (p & 63)));
  while (w == 0) {
    if (j == 0) return -1;
    w = row[--j];
  }
  return static_cast<Dist>(j * 64 + 63 - static_cast<std::size_t>(std::countl_zero(w)));
}

/// One family of trails: they run along the word rows of `plane` (position u
/// within a row, row index v). The horizontal family walks the row-major
/// obstacle plane (u = x, v = y), the vertical one the column-major plane
/// (u = y, v = x).
struct TrailAxis {
  const core::BitGrid& plane;
  bool horizontal;
};

/// The far end of the clear run ahead of position u on row v in direction
/// `du`: the last position before the next block node or the mesh edge (u
/// itself when the next position is a block node or off the mesh). The
/// direction is a template argument: the walk is about a quarter faster
/// with each direction compiled on its own.
template <int du>
Dist clear_run_end(const TrailAxis& ax, Dist u, Dist v) noexcept {
  const std::uint64_t* row = ax.plane.row(v);
  if constexpr (du > 0) {
    return first_set_after(row, u, ax.plane.width()) - 1;
  } else {
    return last_set_before(row, u) + 1;
  }
}

/// Walk on a boundary trail whose clear run on row v ends at u: `du` is the
/// primary step along the row, `dv` the slide step across rows
/// (turn-and-join). Visits exactly the nodes the one-hop-per-step rule
/// does — move ahead while the node ahead is clear; when it is a block node,
/// slide one row and retry; stop at the mesh edge or when the slide is
/// blocked too — as `visit(horizontal, v, lo, hi)` runs. A slide node starts
/// the run on its new row, so a run after a blocked step may be that one node.
template <int du, typename Visit>
void walk_on(const TrailAxis& ax, Dist u, Dist v, int dv, Visit& visit) {
  const Dist ulen = ax.plane.width();
  const Dist vlen = ax.plane.height();
  // Until the run reaches the mesh edge a block lies ahead: slide one row.
  // At the disable-rule fixed point a slide step is never itself blocked;
  // guard anyway.
  while (u + du >= 0 && u + du < ulen) {
    v += dv;
    if (v < 0 || v >= vlen || ax.plane.test({u, v})) return;
    const Dist last = clear_run_end<du>(ax, u, v);
    visit(ax.horizontal, v, std::min(u, last), std::max(u, last));
    u = last;
  }
}

/// One side of a block's perimeter ring, corner `ulo` to corner `uhi` of
/// line v (clipped to the mesh), and the two boundary trails that leave its
/// corners outward along the line, sliding by `dv` (away from the block) at
/// each turn-and-join. The side and each trail's first clear run are
/// contiguous, so they go out as one run. A corner off the mesh starts no
/// trail. The column sides include their corners, which the row sides also
/// hold.
template <typename Visit>
void ring_side(const TrailAxis& ax, Dist v, Dist ulo, Dist uhi, int dv, Visit& visit) {
  const Dist ulen = ax.plane.width();
  if (v < 0 || v >= ax.plane.height()) return;
  const Dist lo = ulo >= 0 ? clear_run_end<-1>(ax, ulo, v) : 0;
  const Dist hi = uhi < ulen ? clear_run_end<+1>(ax, uhi, v) : ulen - 1;
  visit(ax.horizontal, v, lo, hi);
  if (ulo >= 0) walk_on<-1>(ax, lo, v, dv, visit);
  if (uhi < ulen) walk_on<+1>(ax, hi, v, dv, visit);
}

/// The union of the block rects, row-major (bit x of row y: the block set's
/// own plane) and column-major (bit y of row x, painted here), so a trail in
/// any direction scans one row.
struct ObstaclePlanes {
  const core::BitGrid& rows;
  core::BitGrid cols;

  explicit ObstaclePlanes(const fault::BlockSet& blocks)
      : rows(blocks.plane()), cols(rows.height(), rows.width()) {
    for (const fault::FaultyBlock& b : blocks.blocks()) {
      const Rect& r = b.rect;
      for (Dist x = r.xmin; x <= r.xmax; ++x) core::row_range_set(cols.row(x), r.ymin, r.ymax);
    }
  }
};

/// Call `visit(horizontal, line, lo, hi, id)` for runs covering every
/// deposit of every block, blocks in id order. A node may be visited more
/// than once for the same block (ring corners, and trails that cross or
/// overlap); never for an earlier block after a later.
template <typename Visit>
void for_each_deposit_run(const fault::BlockSet& blocks, const ObstaclePlanes& planes,
                          Visit&& visit) {
  const TrailAxis horizontal{planes.rows, true};
  const TrailAxis vertical{planes.cols, false};
  const auto& blk = blocks.blocks();
  for (std::size_t b = 0; b < blk.size(); ++b) {
    const auto id = static_cast<std::int32_t>(b);
    const auto deposit = [&](bool is_row, Dist line, Dist lo, Dist hi) {
      visit(is_row, line, lo, hi, id);
    };
    // The perimeter ring is the nodes adjacent to the block, including the
    // four diagonal corner nodes (the "corners" of Definition 1's adjacency
    // discussion). Each side's line propagates both ways, so routing toward
    // any quadrant is served:
    //   L1, the south row: west from SW and east from SE, sliding south;
    //   L2, the north row: west from NW and east from NE, sliding north;
    //   L3, the west column: south from SW and north from NW, sliding west;
    //   L4, the east column: south from SE and north from NE, sliding east.
    const Rect ring = blk[b].rect.expanded(1);
    ring_side(horizontal, ring.ymin, ring.xmin, ring.xmax, -1, deposit);
    ring_side(horizontal, ring.ymax, ring.xmin, ring.xmax, +1, deposit);
    ring_side(vertical, ring.xmin, ring.ymin, ring.ymax, -1, deposit);
    ring_side(vertical, ring.xmax, ring.ymin, ring.ymax, +1, deposit);
  }
}

}  // namespace

BoundaryInfoMap::BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks)
    : width_(mesh.width()), height_(mesh.height()) {
  const ObstaclePlanes planes(blocks);
  struct Pending {
    Dist line;
    Run run;
  };
  std::vector<Pending> pending[2];  // rows, columns
  // Random worlds hold about four to six runs per block and axis.
  for (std::vector<Pending>& p : pending) p.reserve(blocks.blocks().size() * 8);
  for_each_deposit_run(blocks, planes,
                       [&](bool is_row, Dist line, Dist lo, Dist hi, std::int32_t id) {
                         pending[is_row ? 0 : 1].push_back({line, {lo, hi, id}});
                       });

  // Counting sort by line. It is stable, so each line keeps its runs in
  // block id order.
  const auto bucket = [](const std::vector<Pending>& in, Dist lines, Lines& out) {
    std::vector<std::uint32_t>& start = out.start;
    start.assign(static_cast<std::size_t>(lines) + 1, 0);
    for (const Pending& p : in) ++start[static_cast<std::size_t>(p.line) + 1];
    for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
    out.runs.resize(in.size());
    // Place each run at its line's cursor; the cursors end one line ahead.
    for (const Pending& p : in) out.runs[start[static_cast<std::size_t>(p.line)]++] = p.run;
    std::copy_backward(start.begin(), start.end() - 1, start.end());
    start[0] = 0;
  };
  bucket(pending[0], height_, rows_);
  bucket(pending[1], width_, cols_);
}

void BoundaryInfoMap::known_blocks(Coord c, std::vector<std::int32_t>& out) const {
  const std::span<const Run> row = rows_.line(c.y);
  const std::span<const Run> col = cols_.line(c.x);
  // Each half goes to a per-thread buffer: every run's id is written and
  // only a run covering the position advances the cursor (no branch on the
  // range test). A line's runs are in id order, and a block's runs on one
  // line never overlap (a trail never comes back to a line, and the two
  // trails leaving a side's corners run away from each other), so each half
  // comes out strictly ascending.
  thread_local std::vector<std::int32_t> halves;
  if (halves.size() < row.size() + col.size()) halves.resize(row.size() + col.size());
  const auto collect = [](std::span<const Run> line, Dist p, std::int32_t* ids) {
    std::size_t n = 0;
    for (const Run& r : line) {
      ids[n] = r.id;
      n += static_cast<std::size_t>(r.lo <= p) & static_cast<std::size_t>(p <= r.hi);
    }
    return ids + n;
  };
  const std::int32_t* a = halves.data();
  const std::int32_t* const a_end = collect(row, c.x, halves.data());
  const std::int32_t* b = halves.data() + row.size();
  const std::int32_t* const b_end = collect(col, c.y, halves.data() + row.size());
  // Merge, keeping one copy of an id both halves hold (a ring corner lies
  // on a row side and a column side of its block; a block's row and column
  // trails can cross). The ids are few and their order is data: a merge
  // step that advances with conditional moves, not branches, costs less
  // than the mispredictions.
  out.clear();
  while (a != a_end && b != b_end) {
    const std::int32_t x = *a;
    const std::int32_t y = *b;
    a += x <= y ? 1 : 0;
    b += y <= x ? 1 : 0;
    out.push_back(std::min(x, y));
  }
  out.insert(out.end(), a, a_end);
  out.insert(out.end(), b, b_end);
}

bool BoundaryInfoMap::knows(Coord c, std::int32_t block) const noexcept {
  const auto holds = [block](std::span<const Run> line, Dist p) {
    return std::any_of(line.begin(), line.end(),
                       [&](const Run& r) { return r.id == block && r.lo <= p && p <= r.hi; });
  };
  return holds(rows_.line(c.y), c.x) || holds(cols_.line(c.x), c.y);
}

BoundaryInfoMap::Totals BoundaryInfoMap::totals() const {
  // Walk the runs block by block: a node counts once per block, so the
  // newest id stamped at it is the whole duplicate test.
  struct Stretch {
    std::int32_t id;
    std::size_t first;   // Grid index of the run's lo end
    std::size_t stride;  // 1 along a row, the width along a column
    Dist count;
  };
  const auto W = static_cast<std::size_t>(width_);
  std::vector<Stretch> all;
  all.reserve(run_count());
  for (Dist y = 0; y < height_; ++y) {
    for (const Run& r : rows_.line(y)) {
      all.push_back({r.id, static_cast<std::size_t>(y) * W + static_cast<std::size_t>(r.lo), 1,
                     r.hi - r.lo + 1});
    }
  }
  for (Dist x = 0; x < width_; ++x) {
    for (const Run& r : cols_.line(x)) {
      all.push_back({r.id, static_cast<std::size_t>(r.lo) * W + static_cast<std::size_t>(x), W,
                     r.hi - r.lo + 1});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Stretch& a, const Stretch& b) { return a.id < b.id; });
  std::vector<std::int32_t> stamp(W * static_cast<std::size_t>(height_), fault::kNoBlock);
  Totals t;
  for (const Stretch& s : all) {
    std::size_t i = s.first;
    for (Dist n = 0; n < s.count; ++n, i += s.stride) {
      if (stamp[i] == s.id) continue;
      t.covered += stamp[i] == fault::kNoBlock ? 1 : 0;
      stamp[i] = s.id;
      ++t.entries;
    }
  }
  return t;
}

std::size_t BoundaryInfoMap::deposited_entries() const { return totals().entries; }

std::size_t BoundaryInfoMap::covered_nodes() const { return totals().covered; }

void believed_rects(const BoundaryInfoMap& map, const fault::BlockSet& blocks, Coord c,
                    std::vector<Rect>& out) {
  thread_local std::vector<std::int32_t> ids;
  map.known_blocks(c, ids);
  out.clear();
  for (const std::int32_t id : ids) {
    out.push_back(blocks.blocks()[static_cast<std::size_t>(id)].rect);
  }
}

}  // namespace meshroute::info
