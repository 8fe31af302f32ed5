#include "info/boundary.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

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

/// Call `visit(horizontal, line, lo, hi)` for runs covering the deposits of
/// side `side` of the block `rect` (0 south, 1 north, 2 west, 3 east: the
/// order the sides are walked in). A node may be visited more than once
/// (ring corners, and trails that cross or overlap).
template <typename Visit>
void walk_side(const TrailAxis& horizontal, const TrailAxis& vertical, const Rect& rect,
               int side, Visit& visit) {
  // The perimeter ring is the nodes adjacent to the block, including the
  // four diagonal corner nodes (the "corners" of Definition 1's adjacency
  // discussion). Each side's line propagates both ways, so routing toward
  // any quadrant is served:
  //   L1, the south row: west from SW and east from SE, sliding south;
  //   L2, the north row: west from NW and east from NE, sliding north;
  //   L3, the west column: south from SW and north from NW, sliding west;
  //   L4, the east column: south from SE and north from NE, sliding east.
  // A row side's runs all lie on rows at or below (L1) or at or above (L2)
  // its ring row, so a block's runs on one line come from one side.
  const Rect ring = rect.expanded(1);
  switch (side) {
    case 0: ring_side(horizontal, ring.ymin, ring.xmin, ring.xmax, -1, visit); break;
    case 1: ring_side(horizontal, ring.ymax, ring.xmin, ring.xmax, +1, visit); break;
    case 2: ring_side(vertical, ring.xmin, ring.ymin, ring.ymax, -1, visit); break;
    default: ring_side(vertical, ring.xmax, ring.ymin, ring.ymax, +1, visit); break;
  }
}

/// Above every run tag.
constexpr std::int32_t kNoTag = std::numeric_limits<std::int32_t>::max();

/// Bits of a block key that hold xmin on a width x height mesh: the width
/// rounded up to a power of two. Throws when a run's tag (the packed corner
/// and two bits of side) does not fit 31 bits, or a position along a line
/// does not fit a run's 16-bit ends.
int key_col_bits(Dist width, Dist height) {
  const int bits = std::bit_width(static_cast<std::uint32_t>(std::max<Dist>(width, 1) - 1));
  if ((static_cast<std::uint64_t>(height) << bits) > (std::uint64_t{1} << 29) ||
      std::max(width, height) > Dist{1} << 16) {
    throw std::invalid_argument(
        "BoundaryInfoMap: mesh too large for 16-bit run ends and 31-bit tags");
  }
  return bits;
}

}  // namespace

void BoundaryInfoMap::walk_blocks(std::span<const Side> sides, const core::BitGrid& row_plane,
                                  const core::BitGrid& col_plane, PendingRuns& out) {
  const TrailAxis horizontal{row_plane, true};
  const TrailAxis vertical{col_plane, false};
  for (std::vector<Pending>& p : out) {
    p.clear();
    // Random worlds hold about four to six runs per block and axis, so
    // about two per side.
    p.reserve(sides.size() * 2);
  }
  for (const Side& side : sides) {
    const Rect& rect = side.rect;
    const auto far =
        (static_cast<std::uint32_t>(rect.xmax) << 16) | static_cast<std::uint32_t>(rect.ymax);
    const auto deposit = [&](bool is_row, Dist line, Dist lo, Dist hi) {
      out[is_row ? 0 : 1].push_back({line, {lo, hi, side.tag, far}});
    };
    walk_side(horizontal, vertical, rect, side.tag & 3, deposit);
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
    : width_(mesh.width()),
      height_(mesh.height()),
      col_bits_(key_col_bits(mesh.width(), mesh.height())) {
  // The walk reads the block set's plane, and its runs are bucketed by the
  // mesh's lines. An empty list reads no plane.
  const std::span<const fault::FaultyBlock> list = blocks.blocks();
  if (!list.empty() && (blocks.plane().width() != width_ || blocks.plane().height() != height_)) {
    throw std::invalid_argument("BoundaryInfoMap: block set and mesh differ in size");
  }
  // Walk every side of every block in tag order, which is list order.
  std::vector<Side> sides;
  sides.reserve(list.size() * 4);
  for (const fault::FaultyBlock& b : list) {
    const Key key = key_of(b.rect);
    if (!sides.empty() && key <= sides.back().tag >> 2) {
      throw std::invalid_argument("BoundaryInfoMap: blocks not sorted by (ymin, xmin)");
    }
    for (Key side = 0; side < 4; ++side) sides.push_back({key * 4 + side, b.rect});
  }
  PendingRuns pending;
  walk_blocks(sides, blocks.plane(), column_plane(blocks), pending);
  bucket(pending[0], height_, rows_);
  bucket(pending[1], width_, cols_);
}

void BoundaryInfoMap::splice(const Lines& lines, std::span<const Dropped> dropped,
                             std::span<const std::uint8_t> touched, const Lines& fresh,
                             Lines& out) {
  // Sized for every run (a Run is left unset until written); the dropped
  // ones are trimmed off the end.
  const std::size_t line_count = touched.size();
  out.start.resize(line_count + 1);
  out.runs.resize(lines.runs.size() + fresh.runs.size());
  thread_local std::vector<Key> here_tls;
  here_tls.resize(dropped.size());
  Key* const here = here_tls.data();
  Run* const first = out.runs.data();
  Run* o = first;
  for (std::size_t v = 0; v < line_count;) {
    if (touched[v] == 0) {
      // A stretch of untouched lines: its runs go over as they are, its
      // starts move by one offset (modulo 2^32, so it may be negative).
      std::size_t end = v + 1;
      while (end < line_count && touched[end] == 0) ++end;
      const std::uint32_t shift = static_cast<std::uint32_t>(o - first) - lines.start[v];
      for (std::size_t u = v; u < end; ++u) out.start[u] = lines.start[u] + shift;
      o = std::copy(lines.runs.data() + lines.start[v], lines.runs.data() + lines.start[end], o);
      v = end;
      continue;
    }
    // A touched line: the dropped tags whose lines hold it (ascending),
    // then the old runs merged with the fresh ones by tag. A run tagged
    // below the next fresh or dropped tag goes straight over; only the few
    // others take the slow path. A side's runs on a line are all old or
    // all fresh, so each side's runs keep their walk order.
    out.start[v] = static_cast<std::uint32_t>(o - first);
    std::size_t n_here = 0;
    for (const Dropped& d : dropped) {
      here[n_here] = d.tag;
      n_here += static_cast<std::size_t>(d.lo <= static_cast<Dist>(v)) &
                static_cast<std::size_t>(static_cast<Dist>(v) <= d.hi);
    }
    const Key* h = here;
    const Key* const h_end = here + n_here;
    const Run* f = fresh.runs.data() + fresh.start[v];
    const Run* const f_end = fresh.runs.data() + fresh.start[v + 1];
    const auto next_event = [&] {
      return std::min(f != f_end ? f->tag : kNoTag, h != h_end ? *h : kNoTag);
    };
    Key event = next_event();
    const Run* const r_end = lines.runs.data() + lines.start[v + 1];
    for (const Run* r = lines.runs.data() + lines.start[v]; r != r_end; ++r) {
      if (r->tag >= event) {
        for (; f != f_end && f->tag < r->tag; ++f) *o++ = *f;
        while (h != h_end && *h < r->tag) ++h;
        if (h != h_end && *h == r->tag) {
          event = r->tag;  // the side's next run here is dropped too
          continue;
        }
        event = next_event();
      }
      *o++ = *r;
    }
    o = std::copy(f, f_end, o);
    ++v;
  }
  out.start[line_count] = static_cast<std::uint32_t>(o - first);
  out.runs.resize(static_cast<std::size_t>(o - first));
}

BoundaryInfoMap::Dropped BoundaryInfoMap::lines_of(const Side& side) const {
  // The side's runs lie on consecutive lines from its ring line outward:
  // the ring run, then one line per slide (walk_side, walk_on). A ring line
  // off the mesh holds none.
  const int s = side.tag & 3;
  const Lines& lines = s < 2 ? rows_ : cols_;
  const Dist count = s < 2 ? height_ : width_;
  const Rect ring = side.rect.expanded(1);
  const Dist from = s == 0 ? ring.ymin : s == 1 ? ring.ymax : s == 2 ? ring.xmin : ring.xmax;
  const Dist step = (s & 1) != 0 ? 1 : -1;
  const auto holds = [&](Dist v) {
    const std::span<const Run> line = lines.line(v);
    const auto it = std::partition_point(line.begin(), line.end(),
                                         [&](const Run& r) { return r.tag < side.tag; });
    return it != line.end() && it->tag == side.tag;
  };
  Dist v = from;
  while (v >= 0 && v < count && holds(v)) v += step;
  if (v == from) return {side.tag, 0, -1};
  return {side.tag, std::min(from, v - step), std::max(from, v - step)};
}

BoundaryInfoMap BoundaryInfoMap::updated(const Rect& grown, std::span<const Rect> absorbed,
                                         const core::BitGrid& rows,
                                         const core::BitGrid& cols) const {
  BoundaryInfoMap next(width_, height_, col_bits_);
  thread_local std::vector<Side> walk_tls;
  thread_local PendingRuns fresh_tls;
  thread_local Lines fresh_lines_tls;
  thread_local std::vector<Dropped> dropped_tls[2];
  thread_local std::vector<std::uint8_t> touched_tls[2];
  std::vector<Side>& walk = walk_tls;

  // Every side of the grown block is walked, and so is each side of a
  // survivor with a run crossing its rect, whose rect the run names. A
  // run's block was absorbed exactly when its SW corner (its key) lies in
  // the grown rect.
  walk.clear();
  for (Key side = 0; side < 4; ++side) walk.push_back({key_of(grown) * 4 + side, grown});
  const auto mark_crossing = [&](const Lines& lines, Dist vlo, Dist vhi, Dist ulo, Dist uhi) {
    for (Dist v = vlo; v <= vhi; ++v) {
      for (const Run& r : lines.line(v)) {
        const Rect rect = rect_of(r.tag >> 2, r.far);
        if (r.hi < ulo || uhi < r.lo || grown.contains(Coord{rect.xmin, rect.ymin}) ||
            std::any_of(walk.begin(), walk.end(), [&](const Side& w) { return w.tag == r.tag; })) {
          continue;
        }
        walk.push_back({r.tag, rect});
      }
    }
  };
  mark_crossing(rows_, grown.ymin, grown.ymax, grown.xmin, grown.xmax);
  mark_crossing(cols_, grown.xmin, grown.xmax, grown.ymin, grown.ymax);

  // The old runs of the absorbed blocks' sides and the re-walked survivor
  // sides are dropped, each from the lines it held; only those lines and
  // the fresh runs' can change.
  std::vector<Dropped>& drop_rows = dropped_tls[0];
  std::vector<Dropped>& drop_cols = dropped_tls[1];
  std::vector<std::uint8_t>& touched_rows = touched_tls[0];
  std::vector<std::uint8_t>& touched_cols = touched_tls[1];
  drop_rows.clear();
  drop_cols.clear();
  touched_rows.assign(static_cast<std::size_t>(height_), 0);
  touched_cols.assign(static_cast<std::size_t>(width_), 0);
  const auto drop = [&](const Side& side) {
    const Dropped d = lines_of(side);
    if (d.lo > d.hi) return;
    const bool is_row = (d.tag & 3) < 2;
    (is_row ? drop_rows : drop_cols).push_back(d);
    std::vector<std::uint8_t>& touched = is_row ? touched_rows : touched_cols;
    std::fill(touched.begin() + d.lo, touched.begin() + d.hi + 1, std::uint8_t{1});
  };
  for (const Rect& rect : absorbed) {
    for (Key side = 0; side < 4; ++side) drop({key_of(rect) * 4 + side, rect});
  }
  std::for_each(walk.begin() + 4, walk.end(), drop);
  const auto by_tag = [](const auto& a, const auto& b) { return a.tag < b.tag; };
  std::sort(drop_rows.begin(), drop_rows.end(), by_tag);
  std::sort(drop_cols.begin(), drop_cols.end(), by_tag);

  std::sort(walk.begin(), walk.end(), by_tag);
  walk_blocks(walk, rows, cols, fresh_tls);
  for (const Pending& p : fresh_tls[0]) touched_rows[static_cast<std::size_t>(p.line)] = 1;
  for (const Pending& p : fresh_tls[1]) touched_cols[static_cast<std::size_t>(p.line)] = 1;
  bucket(fresh_tls[0], height_, fresh_lines_tls);
  splice(rows_, drop_rows, touched_rows, fresh_lines_tls, next.rows_);
  bucket(fresh_tls[1], width_, fresh_lines_tls);
  splice(cols_, drop_cols, touched_cols, fresh_lines_tls, next.cols_);
  return next;
}

void BoundaryInfoMap::known_rects(Coord c, std::vector<Rect>& out) const {
  const std::span<const Run> row = rows_.line(c.y);
  const std::span<const Run> col = cols_.line(c.x);
  // Each half goes to a per-thread buffer as (key << 32) | far: every run's
  // block is written and only a run covering the position advances the
  // cursor (no branch on the range test). A line's runs are in key order,
  // and a block's runs on one line never overlap (a trail never comes back
  // to a line, and the two trails leaving a side's corners run away from
  // each other), so each half comes out strictly ascending.
  thread_local std::vector<std::uint64_t> halves;
  if (halves.size() < row.size() + col.size()) halves.resize(row.size() + col.size());
  const auto collect = [](std::span<const Run> line, Dist p, std::uint64_t* blocks) {
    std::size_t n = 0;
    for (const Run& r : line) {
      blocks[n] = (static_cast<std::uint64_t>(r.tag >> 2) << 32) | r.far;
      n += static_cast<std::size_t>(r.lo <= p) & static_cast<std::size_t>(p <= r.hi);
    }
    return blocks + n;
  };
  const std::uint64_t* a = halves.data();
  const std::uint64_t* const a_end = collect(row, c.x, halves.data());
  const std::uint64_t* b = halves.data() + row.size();
  const std::uint64_t* const b_end = collect(col, c.y, halves.data() + row.size());
  const auto emit = [&](std::uint64_t block) {
    out.push_back(rect_of(static_cast<Key>(block >> 32), static_cast<std::uint32_t>(block)));
  };
  out.clear();
  // Merge, keeping one copy of a block both halves hold (a ring corner lies
  // on a row side and a column side of its block; a block's row and column
  // trails can cross). The blocks are few and their order is data: a merge
  // step that advances with conditional moves, not branches, costs less
  // than the mispredictions.
  while (a != a_end && b != b_end) {
    const std::uint64_t x = *a;
    const std::uint64_t y = *b;
    a += x <= y ? 1 : 0;
    b += y <= x ? 1 : 0;
    emit(std::min(x, y));
  }
  for (; a != a_end; ++a) emit(*a);
  for (; b != b_end; ++b) emit(*b);
}

BoundaryInfoMap::Totals BoundaryInfoMap::totals() const {
  // Walk the runs block by block: a node counts once per block, so the
  // newest key stamped at it is the whole duplicate test.
  struct Stretch {
    Key key;
    std::size_t first;   // Grid index of the run's lo end
    std::size_t stride;  // 1 along a row, the width along a column
    Dist count;
  };
  const auto W = static_cast<std::size_t>(width_);
  std::vector<Stretch> all;
  all.reserve(run_count());
  for (Dist y = 0; y < height_; ++y) {
    for (const Run& r : rows_.line(y)) {
      all.push_back({r.tag >> 2, static_cast<std::size_t>(y) * W + static_cast<std::size_t>(r.lo), 1,
                     r.hi - r.lo + 1});
    }
  }
  for (Dist x = 0; x < width_; ++x) {
    for (const Run& r : cols_.line(x)) {
      all.push_back({r.tag >> 2, static_cast<std::size_t>(r.lo) * W + static_cast<std::size_t>(x), W,
                     r.hi - r.lo + 1});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Stretch& a, const Stretch& b) { return a.key < b.key; });
  std::vector<std::int32_t> stamp(W * static_cast<std::size_t>(height_), fault::kNoBlock);
  Totals t;
  for (const Stretch& s : all) {
    std::size_t i = s.first;
    for (Dist n = 0; n < s.count; ++n, i += s.stride) {
      if (stamp[i] == s.key) continue;
      t.covered += stamp[i] == fault::kNoBlock ? 1 : 0;
      stamp[i] = s.key;
      ++t.entries;
    }
  }
  return t;
}

std::size_t BoundaryInfoMap::deposited_entries() const { return totals().entries; }

std::size_t BoundaryInfoMap::covered_nodes() const { return totals().covered; }

}  // namespace meshroute::info
