#include "info/boundary.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>
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

/// `old` without the entries at `absorbed` (ascending) and with `grown` at
/// index `added` of the result, copied in contiguous stretches into `out`.
template <typename T>
void regroup(const std::vector<T>& old, std::span<const std::int32_t> absorbed,
             std::int32_t added, const T& grown, std::vector<T>& out) {
  out.resize(old.size() - absorbed.size() + 1);
  auto o = out.begin();
  const auto at = out.begin() + added;
  // Copy old[first, last) to o, putting `grown` in when o passes `at`.
  const auto put = [&](auto first, auto last) {
    if (o <= at && at - o <= last - first) {
      const auto split = first + (at - o);
      o = std::copy(first, split, o);
      *o++ = grown;
      first = split;
    }
    o = std::copy(first, last, o);
  };
  auto from = old.begin();
  for (const std::int32_t a : absorbed) {
    put(from, old.begin() + a);
    from = old.begin() + a + 1;
  }
  put(from, old.end());
}

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

void BoundaryInfoMap::index_rows() {
  by_key_.clear();
  if (!std::is_sorted(keys_.begin(), keys_.end())) {
    // Another order than (ymin, xmin), as a hand-built list may have.
    by_key_.resize(keys_.size());
    std::iota(by_key_.begin(), by_key_.end(), 0);
    std::sort(by_key_.begin(), by_key_.end(), [&](std::int32_t a, std::int32_t b) {
      return keys_[static_cast<std::size_t>(a)] < keys_[static_cast<std::size_t>(b)];
    });
  }
  // The first position in key order of row y is the number of blocks
  // starting on a row below it: count the blocks per row, then sum. (A scan
  // that moves a cursor row by row branches on each block's row gap, and
  // mispredicts about once per block.)
  const int col_bits = col_bits_;
  row_first_.assign(static_cast<std::size_t>(height_) + 1, 0);
  std::int32_t* const first = row_first_.data();
  for (const Key key : keys_) ++first[static_cast<std::size_t>(key >> col_bits) + 1];
  std::partial_sum(row_first_.begin(), row_first_.end(), row_first_.begin());
}

void BoundaryInfoMap::walk_blocks(std::span<const fault::FaultyBlock> blocks,
                                  std::span<const Side> sides, const core::BitGrid& row_plane,
                                  const core::BitGrid& col_plane, PendingRuns& out,
                                  std::vector<Span>& spans) {
  const TrailAxis horizontal{row_plane, true};
  const TrailAxis vertical{col_plane, false};
  for (std::vector<Pending>& p : out) {
    p.clear();
    // Random worlds hold about four to six runs per block and axis, so
    // about two per side.
    p.reserve(sides.size() * 2);
  }
  spans.clear();
  for (const Side& side : sides) {
    const Rect& rect = blocks[static_cast<std::size_t>(side.id)].rect;
    const auto far =
        (static_cast<std::uint32_t>(rect.xmax) << 16) | static_cast<std::uint32_t>(rect.ymax);
    Span span{std::numeric_limits<Dist>::max(), -1};
    const auto deposit = [&](bool is_row, Dist line, Dist lo, Dist hi) {
      span.lo = std::min(span.lo, line);
      span.hi = std::max(span.hi, line);
      out[is_row ? 0 : 1].push_back({line, {lo, hi, side.tag, far}});
    };
    walk_side(horizontal, vertical, rect, side.tag & 3, deposit);
    spans.push_back(span);
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
  keys_.resize(blocks.block_count());
  for (std::size_t i = 0; i < keys_.size(); ++i) keys_[i] = key_of(blocks.blocks()[i].rect);
  index_rows();
  // Walk every side of every block in tag order.
  std::vector<Side> sides;
  sides.reserve(keys_.size() * 4);
  for (std::size_t at = 0; at < keys_.size(); ++at) {
    const auto id = by_key_.empty() ? static_cast<std::int32_t>(at) : by_key_[at];
    for (Key side = 0; side < 4; ++side) {
      sides.push_back({keys_[static_cast<std::size_t>(id)] * 4 + side, id});
    }
  }
  PendingRuns pending;
  std::vector<Span> spans;
  walk_blocks(blocks.blocks(), sides, blocks.plane(), column_plane(blocks), pending, spans);
  extents_.resize(keys_.size());
  for (std::size_t i = 0; i < sides.size(); ++i) {
    extents_[static_cast<std::size_t>(sides[i].id)][static_cast<std::size_t>(sides[i].tag & 3)] =
        spans[i];
  }
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

BoundaryInfoMap BoundaryInfoMap::updated(std::span<const fault::FaultyBlock> blocks,
                                         std::int32_t added,
                                         std::span<const std::int32_t> absorbed,
                                         const core::BitGrid& rows,
                                         const core::BitGrid& cols) const {
  BoundaryInfoMap next(width_, height_, col_bits_);
  thread_local std::vector<Key> rewalk_tls;
  thread_local std::vector<Side> walk_tls;
  thread_local PendingRuns fresh_tls;
  thread_local std::vector<Span> fresh_spans_tls;
  thread_local Lines fresh_lines_tls;
  thread_local std::vector<Dropped> dropped_tls[2];
  thread_local std::vector<std::uint8_t> touched_tls[2];
  std::vector<Key>& rewalk = rewalk_tls;
  std::vector<Side>& walk = walk_tls;
  std::vector<Span>& fresh_spans = fresh_spans_tls;

  // The new block list is the old one without the absorbed blocks and
  // with the grown one at `added`: so are its keys and extents (the grown
  // block's spans come from its walk).
  const Rect grown = blocks[static_cast<std::size_t>(added)].rect;
  regroup(keys_, absorbed, added, key_of(grown), next.keys_);
  regroup(extents_, absorbed, added, Extent{}, next.extents_);
  assert(by_key_.empty() && std::is_sorted(next.keys_.begin(), next.keys_.end()) &&
         "updated() takes a block list sorted by (ymin, xmin)");
  // Each row's start moves by the blocks that joined or left on the rows
  // before it.
  next.row_first_ = row_first_;
  const auto shift_after = [&](Key key, std::int32_t by) {
    const auto first = next.row_first_.begin() + (key >> col_bits_) + 1;
    std::for_each(first, next.row_first_.end(), [by](std::int32_t& v) { v += by; });
  };
  shift_after(key_of(grown), 1);
  for (const std::int32_t id : absorbed) shift_after(keys_[static_cast<std::size_t>(id)], -1);

  // Every side of the grown block is walked, and so is each side of a
  // survivor with a run crossing its rect. A run's block was absorbed
  // exactly when its SW corner (its key) lies in the grown rect.
  rewalk.clear();  // tags
  const Key x_mask = (Key{1} << col_bits_) - 1;
  const auto mark_crossing = [&](const Lines& lines, Dist vlo, Dist vhi, Dist ulo, Dist uhi) {
    for (Dist v = vlo; v <= vhi; ++v) {
      for (const Run& r : lines.line(v)) {
        const Key key = r.tag >> 2;
        if (r.hi < ulo || uhi < r.lo || grown.contains(Coord{key & x_mask, key >> col_bits_}) ||
            std::find(rewalk.begin(), rewalk.end(), r.tag) != rewalk.end()) {
          continue;
        }
        rewalk.push_back(r.tag);
      }
    }
  };
  mark_crossing(rows_, grown.ymin, grown.ymax, grown.xmin, grown.xmax);
  mark_crossing(cols_, grown.xmin, grown.xmax, grown.ymin, grown.ymax);
  walk.clear();
  for (Key side = 0; side < 4; ++side) walk.push_back({key_of(grown) * 4 + side, added});
  for (const Key tag : rewalk) walk.push_back({tag, next.id_of(tag >> 2)});
  std::sort(walk.begin(), walk.end(), [](const Side& a, const Side& b) { return a.tag < b.tag; });
  walk_blocks(blocks, walk, rows, cols, fresh_tls, fresh_spans);

  // The old runs of the absorbed blocks' sides and the re-walked sides are
  // dropped, each from the lines it held; only those lines and the fresh
  // runs' can change.
  std::vector<Dropped>& drop_rows = dropped_tls[0];
  std::vector<Dropped>& drop_cols = dropped_tls[1];
  std::vector<std::uint8_t>& touched_rows = touched_tls[0];
  std::vector<std::uint8_t>& touched_cols = touched_tls[1];
  drop_rows.clear();
  drop_cols.clear();
  touched_rows.assign(static_cast<std::size_t>(height_), 0);
  touched_cols.assign(static_cast<std::size_t>(width_), 0);
  const auto touch = [&](Key tag, const Span& span) {
    std::vector<std::uint8_t>& touched = (tag & 3) < 2 ? touched_rows : touched_cols;
    for (Dist v = span.lo; v <= span.hi; ++v) touched[static_cast<std::size_t>(v)] = 1;
  };
  const auto drop = [&](Key tag, const Span& span) {
    ((tag & 3) < 2 ? drop_rows : drop_cols).push_back({tag, span.lo, span.hi});
    touch(tag, span);
  };
  for (const std::int32_t id : absorbed) {
    for (Key side = 0; side < 4; ++side) {
      drop(keys_[static_cast<std::size_t>(id)] * 4 + side,
           extents_[static_cast<std::size_t>(id)][static_cast<std::size_t>(side)]);
    }
  }
  for (const Key tag : rewalk) {
    const auto id = static_cast<std::size_t>(id_of(tag >> 2));
    drop(tag, extents_[id][static_cast<std::size_t>(tag & 3)]);
  }
  for (std::size_t w = 0; w < walk.size(); ++w) {
    touch(walk[w].tag, fresh_spans[w]);
    next.extents_[static_cast<std::size_t>(walk[w].id)][static_cast<std::size_t>(walk[w].tag & 3)] =
        fresh_spans[w];
  }
  const auto by_tag = [](const Dropped& a, const Dropped& b) { return a.tag < b.tag; };
  std::sort(drop_rows.begin(), drop_rows.end(), by_tag);
  std::sort(drop_cols.begin(), drop_cols.end(), by_tag);

  bucket(fresh_tls[0], height_, fresh_lines_tls);
  splice(rows_, drop_rows, touched_rows, fresh_lines_tls, next.rows_);
  bucket(fresh_tls[1], width_, fresh_lines_tls);
  splice(cols_, drop_cols, touched_cols, fresh_lines_tls, next.cols_);
  return next;
}

template <typename Emit>
void BoundaryInfoMap::for_each_known(Coord c, Emit&& emit) const {
  const std::span<const Run> row = rows_.line(c.y);
  const std::span<const Run> col = cols_.line(c.x);
  // Each half goes to a per-thread buffer: every run's block is written and
  // only a run covering the position advances the cursor (no branch on the
  // range test). A line's runs are in key order, and a block's runs on one
  // line never overlap (a trail never comes back to a line, and the two
  // trails leaving a side's corners run away from each other), so each half
  // comes out strictly ascending.
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

void BoundaryInfoMap::known_blocks(Coord c, std::vector<std::int32_t>& out) const {
  out.clear();
  for_each_known(c, [&](std::uint64_t block) {
    out.push_back(id_of(static_cast<Key>(block >> 32)));
  });
  if (!by_key_.empty()) std::sort(out.begin(), out.end());
}

void BoundaryInfoMap::known_rects(Coord c, std::vector<Rect>& out) const {
  const Key x_mask = (Key{1} << col_bits_) - 1;
  const auto rect_of = [&](std::uint64_t block) {
    const auto key = static_cast<Key>(block >> 32);
    const auto far = static_cast<std::uint32_t>(block);
    return Rect{key & x_mask, static_cast<Dist>(far >> 16), key >> col_bits_,
                static_cast<Dist>(far & 0xffff)};
  };
  out.clear();
  if (by_key_.empty()) {
    for_each_known(c, [&](std::uint64_t block) { out.push_back(rect_of(block)); });
    return;
  }
  // Key order is not id order: sort by id.
  thread_local std::vector<std::pair<std::int32_t, Rect>> by_id;
  by_id.clear();
  for_each_known(c, [&](std::uint64_t block) {
    by_id.emplace_back(id_of(static_cast<Key>(block >> 32)), rect_of(block));
  });
  std::sort(by_id.begin(), by_id.end());
  for (const auto& [id, rect] : by_id) out.push_back(rect);
}

bool BoundaryInfoMap::knows(Coord c, std::int32_t block) const noexcept {
  const Key key = keys_[static_cast<std::size_t>(block)];
  const auto holds = [key](std::span<const Run> line, Dist p) {
    return std::any_of(line.begin(), line.end(),
                       [&](const Run& r) { return (r.tag >> 2) == key && r.lo <= p && p <= r.hi; });
  };
  return holds(rows_.line(c.y), c.x) || holds(cols_.line(c.x), c.y);
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

void believed_rects(const BoundaryInfoMap& map, const fault::BlockSet& /*blocks*/, Coord c,
                    std::vector<Rect>& out) {
  map.known_rects(c, out);
}

}  // namespace meshroute::info
