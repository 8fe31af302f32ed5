#include "info/boundary.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

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

/// The union of the block rects, column-major (bit y of row x); the block
/// set's own plane is the row-major one. A trail in any direction then scans
/// one row of one of the two.
core::BitGrid column_plane(const fault::BlockSet& blocks) {
  const core::BitGrid& rows = blocks.plane();
  core::BitGrid cols(rows.height(), rows.width());
  for (const fault::FaultyBlock& b : blocks.blocks()) {
    const Rect& r = b.rect;
    for (Dist x = r.xmin; x <= r.xmax; ++x) core::row_range_set(cols.row(x), r.ymin, r.ymax);
  }
  return cols;
}

/// Call `visit(horizontal, line, lo, hi)` for runs covering every deposit of
/// the block `rect`. A node may be visited more than once (ring corners, and
/// trails that cross or overlap).
template <typename Visit>
void walk_block(const TrailAxis& horizontal, const TrailAxis& vertical, const Rect& rect,
                Visit& visit) {
  // The perimeter ring is the nodes adjacent to the block, including the
  // four diagonal corner nodes (the "corners" of Definition 1's adjacency
  // discussion). Each side's line propagates both ways, so routing toward
  // any quadrant is served:
  //   L1, the south row: west from SW and east from SE, sliding south;
  //   L2, the north row: west from NW and east from NE, sliding north;
  //   L3, the west column: south from SW and north from NW, sliding west;
  //   L4, the east column: south from SE and north from NE, sliding east.
  const Rect ring = rect.expanded(1);
  ring_side(horizontal, ring.ymin, ring.xmin, ring.xmax, -1, visit);
  ring_side(horizontal, ring.ymax, ring.xmin, ring.xmax, +1, visit);
  ring_side(vertical, ring.xmin, ring.ymin, ring.ymax, -1, visit);
  ring_side(vertical, ring.xmax, ring.ymin, ring.ymax, +1, visit);
}

}  // namespace

void BoundaryInfoMap::walk_blocks(std::span<const fault::FaultyBlock> blocks,
                                  std::span<const std::int32_t> ids,
                                  const core::BitGrid& row_plane, const core::BitGrid& col_plane,
                                  PendingRuns& out) {
  const TrailAxis horizontal{row_plane, true};
  const TrailAxis vertical{col_plane, false};
  for (std::vector<Pending>& p : out) {
    p.clear();
    // Random worlds hold about four to six runs per block and axis.
    p.reserve(ids.size() * 8);
  }
  for (const std::int32_t id : ids) {
    const auto deposit = [&](bool is_row, Dist line, Dist lo, Dist hi) {
      out[is_row ? 0 : 1].push_back({line, {lo, hi, id}});
    };
    walk_block(horizontal, vertical, blocks[static_cast<std::size_t>(id)].rect, deposit);
  }
}

void BoundaryInfoMap::bucket(const std::vector<Pending>& in, Dist lines, Lines& out) {
  std::vector<std::uint32_t>& start = out.start;
  start.assign(static_cast<std::size_t>(lines) + 1, 0);
  for (const Pending& p : in) ++start[static_cast<std::size_t>(p.line) + 1];
  for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  out.runs.resize(in.size());
  // Place each run at its line's cursor; the cursors end one line ahead.
  for (const Pending& p : in) out.runs[start[static_cast<std::size_t>(p.line)]++] = p.run;
  std::copy_backward(start.begin(), start.end() - 1, start.end());
  start[0] = 0;
}

BoundaryInfoMap::BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks)
    : width_(mesh.width()), height_(mesh.height()) {
  std::vector<std::int32_t> all(blocks.block_count());
  std::iota(all.begin(), all.end(), 0);
  PendingRuns pending;
  walk_blocks(blocks.blocks(), all, blocks.plane(), column_plane(blocks), pending);
  bucket(pending[0], height_, rows_);
  bucket(pending[1], width_, cols_);
}

void BoundaryInfoMap::splice(const Lines& lines, const std::int32_t* new_id, const Lines& fresh,
                             Lines& out) {
  // Sized for every run; the dropped ones are trimmed off the end.
  const std::size_t line_count = lines.start.size() - 1;
  out.start.resize(line_count + 1);
  out.runs.resize(lines.runs.size() + fresh.runs.size());
  Run* const first = out.runs.data();
  Run* o = first;
  const Run* r = lines.runs.data();
  const Run* f = fresh.runs.data();
  for (std::size_t v = 0; v < line_count; ++v) {
    out.start[v] = static_cast<std::uint32_t>(o - first);
    const Run* const r_end = lines.runs.data() + lines.start[v + 1];
    const Run* const f_end = fresh.runs.data() + fresh.start[v + 1];
    for (; r != r_end; ++r) {
      const Run kept{r->lo, r->hi, new_id[static_cast<std::size_t>(r->id)]};
      if (kept.id == fault::kNoBlock) continue;
      for (; f != f_end && f->id < kept.id; ++f) *o++ = *f;
      *o++ = kept;
    }
    o = std::copy(f, f_end, o);
    f = f_end;
  }
  out.start[line_count] = static_cast<std::uint32_t>(o - first);
  out.runs.resize(static_cast<std::size_t>(o - first));
}

BoundaryInfoMap BoundaryInfoMap::updated(std::span<const fault::FaultyBlock> blocks,
                                         std::int32_t added,
                                         std::span<const std::int32_t> absorbed,
                                         const core::BitGrid& rows,
                                         const core::BitGrid& cols) const {
  thread_local std::vector<std::int32_t> new_id_tls;
  thread_local std::vector<std::int32_t> walk_tls;
  thread_local PendingRuns fresh_tls;
  thread_local Lines fresh_lines_tls;
  std::vector<std::int32_t>& walk = walk_tls;
  PendingRuns& fresh = fresh_tls;
  Lines& fresh_lines = fresh_lines_tls;

  const Rect grown = blocks[static_cast<std::size_t>(added)].rect;
  const std::size_t old_count = blocks.size() - 1 + absorbed.size();
  // Each old block's new id: the survivors keep their order around the
  // grown block's slot.
  new_id_tls.resize(old_count);
  std::int32_t* const new_id = new_id_tls.data();
  std::int32_t next = 0;
  for (std::size_t i = 0, a = 0; i < old_count; ++i) {
    if (a < absorbed.size() && static_cast<std::size_t>(absorbed[a]) == i) {
      new_id[i] = fault::kNoBlock;
      ++a;
      continue;
    }
    next += next == added ? 1 : 0;
    new_id[i] = next++;
  }
  // A survivor with a run crossing the grown rect is walked again; so is
  // the grown block. Their old runs are dropped with the absorbed blocks'.
  walk.assign(1, added);
  const auto mark_crossing = [&](const Lines& lines, Dist vlo, Dist vhi, Dist ulo, Dist uhi) {
    for (Dist v = vlo; v <= vhi; ++v) {
      for (const Run& r : lines.line(v)) {
        std::int32_t& id = new_id[static_cast<std::size_t>(r.id)];
        if (id == fault::kNoBlock || r.hi < ulo || uhi < r.lo) continue;
        walk.push_back(id);
        id = fault::kNoBlock;
      }
    }
  };
  mark_crossing(rows_, grown.ymin, grown.ymax, grown.xmin, grown.xmax);
  mark_crossing(cols_, grown.xmin, grown.xmax, grown.ymin, grown.ymax);
  std::sort(walk.begin(), walk.end());
  walk_blocks(blocks, walk, rows, cols, fresh);

  BoundaryInfoMap next_map(width_, height_);
  bucket(fresh[0], height_, fresh_lines);
  splice(rows_, new_id, fresh_lines, next_map.rows_);
  bucket(fresh[1], width_, fresh_lines);
  splice(cols_, new_id, fresh_lines, next_map.cols_);
  return next_map;
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
