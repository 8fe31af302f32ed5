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
/// (u = y, v = x); node (u, v) is Grid index u * ustride + v * vstride.
struct TrailAxis {
  const core::BitGrid& plane;
  std::size_t ustride;
  std::size_t vstride;

  [[nodiscard]] std::size_t index(Dist u, Dist v) const noexcept {
    return static_cast<std::size_t>(u) * ustride + static_cast<std::size_t>(v) * vstride;
  }
};

/// Walk a boundary trail from (u, v) a clear run at a time: `du` is the
/// primary step along the row, `dv` the slide step across rows
/// (turn-and-join). Visits exactly the nodes the one-hop-per-step rule
/// does — move ahead while the node ahead is clear; when it is a block node,
/// slide one row and retry; stop at the mesh edge or when the slide is
/// blocked too — as `visit(first, stride, count)` runs, ascending.
template <typename Visit>
void walk_clear_runs(const TrailAxis& ax, Dist u, Dist v, int du, int dv, Visit& visit) {
  const Dist ulen = ax.plane.width();
  const Dist vlen = ax.plane.height();
  if (u < 0 || u >= ulen || v < 0 || v >= vlen) return;
  // The start corner is already deposited by the perimeter ring; walk on.
  while (true) {
    const std::uint64_t* row = ax.plane.row(v);
    const Dist stop = du > 0 ? first_set_after(row, u, ulen) : last_set_before(row, u);
    const Dist last = stop - du;  // the clear run is u+du .. last
    if (last != u) {
      visit(ax.index(std::min(u + du, last), v), ax.ustride,
            static_cast<std::size_t>(du > 0 ? last - u : u - last));
    }
    if (stop == ulen || stop < 0) return;  // the run reached the mesh edge
    u = last;
    // A block lies ahead: slide one row. At the disable-rule fixed point a
    // slide step is never itself blocked; guard anyway.
    v += dv;
    if (v < 0 || v >= vlen || ax.plane.test({u, v})) return;
    visit(ax.index(u, v), ax.ustride, std::size_t{1});
  }
}

/// The union of the block rects, row-major (bit x of row y) and
/// column-major (bit y of row x), so a trail in any direction scans one row.
struct ObstaclePlanes {
  core::BitGrid rows;
  core::BitGrid cols;

  ObstaclePlanes(const fault::BlockSet& blocks, Dist w, Dist h) : rows(w, h), cols(h, w) {
    for (const fault::FaultyBlock& b : blocks.blocks()) {
      const Rect& r = b.rect;
      for (Dist y = r.ymin; y <= r.ymax; ++y) core::row_range_set(rows.row(y), r.xmin, r.xmax);
      for (Dist x = r.xmin; x <= r.xmax; ++x) core::row_range_set(cols.row(x), r.ymin, r.ymax);
    }
  }
};

/// Call `visit(first, stride, count, id)` for runs covering every deposit of
/// every block, blocks in id order. A node may be visited more than once for
/// the same block (ring corners start trails, trails can cross); never for an
/// earlier block after a later.
template <typename Visit>
void for_each_deposit_run(const fault::BlockSet& blocks, const ObstaclePlanes& planes,
                          Visit&& visit) {
  const Dist w = planes.rows.width();
  const Dist h = planes.rows.height();
  const auto W = static_cast<std::size_t>(w);
  const TrailAxis horizontal{planes.rows, 1, W};
  const TrailAxis vertical{planes.cols, W, 1};

  const auto& blk = blocks.blocks();
  for (std::size_t b = 0; b < blk.size(); ++b) {
    const auto id = static_cast<std::int32_t>(b);
    const auto deposit = [&](std::size_t first, std::size_t stride, std::size_t count) {
      visit(first, stride, count, id);
    };
    const Rect r = blk[b].rect;
    const Rect ring = r.expanded(1);

    // Perimeter ring: nodes adjacent to the block (including the four
    // diagonal corner nodes, which are the "corners" of Definition 1's
    // adjacency discussion), clipped to the mesh.
    const Dist x0 = std::max(ring.xmin, 0);
    const auto row_len = static_cast<std::size_t>(std::min(ring.xmax, w - 1) - x0 + 1);
    const Dist y0 = std::max(ring.ymin + 1, 0);
    const auto col_len = static_cast<std::size_t>(std::min(ring.ymax - 1, h - 1) - y0 + 1);
    for (const Dist y : {ring.ymin, ring.ymax}) {
      if (y >= 0 && y < h) deposit(horizontal.index(x0, y), 1, row_len);
    }
    for (const Dist x : {ring.xmin, ring.xmax}) {
      if (x >= 0 && x < w) deposit(vertical.index(y0, x), W, col_len);
    }

    // Outward trails. Each adjacent line propagates in both directions so
    // that routing toward any quadrant is served; the slide direction points
    // away from the owning block, per the turn-and-join rule.
    const Dist xw = r.xmin - 1;
    const Dist xe = r.xmax + 1;
    const Dist ys = r.ymin - 1;
    const Dist yn = r.ymax + 1;
    // L1 (south row, y = ymin-1): west from SW, east from SE; slide south.
    walk_clear_runs(horizontal, xw, ys, -1, -1, deposit);
    walk_clear_runs(horizontal, xe, ys, +1, -1, deposit);
    // L2 (north row, y = ymax+1): east from NE, west from NW; slide north.
    walk_clear_runs(horizontal, xe, yn, +1, +1, deposit);
    walk_clear_runs(horizontal, xw, yn, -1, +1, deposit);
    // L3 (west column, x = xmin-1): south from SW, north from NW; slide west.
    walk_clear_runs(vertical, ys, xw, -1, -1, deposit);
    walk_clear_runs(vertical, yn, xw, +1, -1, deposit);
    // L4 (east column, x = xmax+1): north from NE, south from SE; slide east.
    walk_clear_runs(vertical, yn, xe, +1, +1, deposit);
    walk_clear_runs(vertical, ys, xe, -1, +1, deposit);
  }
}

}  // namespace

BoundaryInfoMap::BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks)
    : width_(mesh.width()), offsets_(mesh.node_count() + 1, 0) {
  const std::size_t area = mesh.node_count();

  // Per-node walk state, kept side by side so a deposit touches one cache
  // line: `stamp` is the newest block id deposited at the node, and `n` its
  // unique-deposit count in pass 1 and its fill cursor into ids_ in pass 2.
  struct Cell {
    std::int32_t stamp;
    std::uint32_t n;
  };
  std::vector<Cell> cell(area, Cell{fault::kNoBlock, 0});
  const ObstaclePlanes planes(blocks, mesh.width(), mesh.height());

  // Pass 1: count unique deposits per node. A block's deposits are
  // contiguous, so the stamp is the whole duplicate test.
  for_each_deposit_run(blocks, planes, [&](std::size_t first, std::size_t stride,
                                           std::size_t count, std::int32_t id) {
    for (std::size_t i = first; count-- > 0; i += stride) {
      Cell& c = cell[i];
      if (c.stamp == id) continue;
      c.stamp = id;
      ++c.n;
    }
  });
  std::uint32_t total = 0;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < area; ++i) {
    const std::uint32_t n = cell[i].n;
    covered += n != 0 ? 1 : 0;
    cell[i].n = total;
    total += n;
    offsets_[i + 1] = total;
  }
  covered_ = covered;

  // Pass 2: fill, advancing each node's cursor. The stamp now marks block
  // `id` as -2 - id, which no pass-1 value (an id or kNoBlock) equals.
  ids_.resize(total);
  for_each_deposit_run(blocks, planes, [&](std::size_t first, std::size_t stride,
                                           std::size_t count, std::int32_t id) {
    const std::int32_t mark = -2 - id;
    for (std::size_t i = first; count-- > 0; i += stride) {
      Cell& c = cell[i];
      if (c.stamp == mark) continue;
      c.stamp = mark;
      ids_[c.n++] = id;
    }
  });
}

bool BoundaryInfoMap::knows(Coord c, std::int32_t block) const noexcept {
  const auto v = known_blocks(c);
  return std::binary_search(v.begin(), v.end(), block);
}

}  // namespace meshroute::info
