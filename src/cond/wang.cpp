#include "cond/wang.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/simd.hpp"
#include "mesh/frame.hpp"

namespace meshroute::cond {
namespace {

/// Transform a mesh-coordinate rect into frame coordinates (reflections may
/// swap which corner is min/max).
Rect to_frame_rect(const QuadrantFrame& frame, const Rect& r) {
  const Coord a = frame.to_frame({r.xmin, r.ymin});
  const Coord b = frame.to_frame({r.xmax, r.ymax});
  return Rect{std::min(a.x, b.x), std::max(a.x, b.x), std::min(a.y, b.y), std::max(a.y, b.y)};
}

/// Does a covering sequence on y exist for canonical s=(0,0), d=(dx,dy)?
/// Rects are frame-relative. The x-coverage test calls this with axes
/// swapped.
bool covered_on_y(const std::vector<Rect>& rects, Dist dx, Dist dy) {
  const auto n = rects.size();
  // covers(b, a): b continues the barrier above a.
  const auto covers = [&](std::size_t b, std::size_t a) {
    return rects[b].ymin > rects[a].ymax && rects[b].xmin <= rects[a].xmax + 1;
  };
  std::vector<char> reachable(n, 0);
  std::deque<std::size_t> work;
  for (std::size_t i = 0; i < n; ++i) {
    // (b) the barrier starts on a block spanning the source column, strictly
    // north of the source row.
    if (rects[i].xmin <= 0 && rects[i].xmax >= 0 && rects[i].ymin > 0) {
      reachable[i] = 1;
      work.push_back(i);
    }
  }
  while (!work.empty()) {
    const std::size_t a = work.front();
    work.pop_front();
    // (c) the barrier is complete once a chain block spans the destination
    // column strictly south of the destination row.
    if (rects[a].xmin <= dx && rects[a].xmax >= dx && rects[a].ymax < dy) return true;
    for (std::size_t b = 0; b < n; ++b) {
      if (!reachable[b] && covers(b, a)) {
        reachable[b] = 1;
        work.push_back(b);
      }
    }
  }
  return false;
}

Rect swap_axes(const Rect& r) { return Rect{r.ymin, r.ymax, r.xmin, r.xmax}; }

}  // namespace

void monotone_reachability(const Mesh2D& mesh, const core::BitGrid& blocked, Coord source,
                           core::BitGrid& out) {
  // Side masks restrict each quadrant fill to travel away from the source
  // column; the whole four-quadrant sweep lives in the row-kernel layer
  // (common/simd.hpp) — an out-of-bounds or blocked source yields the empty
  // plane, matching the scalar oracle.
  (void)mesh;  // dimensions ride on the bit plane
  thread_local core::simd::SweepScratch scratch;
  core::simd::reach_fill(blocked, source, out, scratch);
}

void monotone_reachability_scalar(const Mesh2D& mesh, const Grid<bool>& blocked, Coord source,
                                  Grid<bool>& out) {
  if (out.width() != mesh.width() || out.height() != mesh.height()) {
    out = Grid<bool>(mesh.width(), mesh.height(), false);
  } else {
    out.fill(false);
  }
  if (!mesh.in_bounds(source) || blocked[source]) return;

  const auto w = static_cast<std::size_t>(mesh.width());
  const auto h = static_cast<std::size_t>(mesh.height());
  const auto sx = static_cast<std::size_t>(source.x);
  const auto sy = static_cast<std::size_t>(source.y);
  const std::uint8_t* blk = blocked.data().data();
  std::uint8_t* reach = out.data().data();

  // One row of a quadrant pass: the cell above the source column continues
  // straight, cells east (west) of it fold in the same row's westward
  // (eastward) neighbor. `prev` is the adjacent row one step toward the
  // source; nullptr marks the source row itself, whose center cell was
  // seeded before the sweep.
  const auto sweep_row = [&](std::uint8_t* r, const std::uint8_t* b, const std::uint8_t* prev) {
    if (prev != nullptr) r[sx] = !b[sx] && prev[sx];
    for (std::size_t x = sx + 1; x < w; ++x) {
      r[x] = !b[x] && (r[x - 1] || (prev != nullptr && prev[x]));
    }
    for (std::size_t x = sx; x-- > 0;) {
      r[x] = !b[x] && (r[x + 1] || (prev != nullptr && prev[x]));
    }
  };

  reach[sy * w + sx] = 1;
  sweep_row(reach + sy * w, blk + sy * w, nullptr);
  for (std::size_t y = sy + 1; y < h; ++y) {
    sweep_row(reach + y * w, blk + y * w, reach + (y - 1) * w);
  }
  for (std::size_t y = sy; y-- > 0;) {
    sweep_row(reach + y * w, blk + y * w, reach + (y + 1) * w);
  }
}

bool monotone_path_exists(const Mesh2D& mesh, const Grid<bool>& blocked, Coord s, Coord d) {
  if (!mesh.in_bounds(s) || !mesh.in_bounds(d)) return false;
  if (blocked[s] || blocked[d]) return false;
  const QuadrantFrame frame(s, d);
  const Coord rd = frame.to_frame(d);
  Grid<bool> reach(rd.x + 1, rd.y + 1, false);
  for (Dist y = 0; y <= rd.y; ++y) {
    for (Dist x = 0; x <= rd.x; ++x) {
      const Coord rel{x, y};
      if (blocked[frame.to_mesh(rel)]) continue;
      if (x == 0 && y == 0) {
        reach[rel] = true;
      } else {
        reach[rel] = (x > 0 && reach[{x - 1, y}]) || (y > 0 && reach[{x, y - 1}]);
      }
    }
  }
  return reach[rd];
}

bool monotone_path_exists(const Mesh2D& mesh, const core::BitGrid& blocked, Coord s, Coord d) {
  if (!mesh.in_bounds(s) || !mesh.in_bounds(d)) return false;
  if (blocked.test(s) || blocked.test(d)) return false;
  // Row by row from s's row toward d's, each row's reach is a fill toward
  // d's column seeded by the previous row's reach (s itself on the first
  // row), over the words of the s-d column span. Bits the fill carries past
  // d's column never flow back toward it, so they need no mask.
  const auto j0 = static_cast<std::size_t>(std::min(s.x, d.x)) >> 6;
  const std::size_t nw = (static_cast<std::size_t>(std::max(s.x, d.x)) >> 6) - j0 + 1;
  thread_local std::vector<std::uint64_t> reach;
  thread_local std::vector<std::uint64_t> allowed;
  reach.assign(nw, 0);
  allowed.resize(nw);
  reach[static_cast<std::size_t>(s.x >> 6) - j0] = std::uint64_t{1} << (s.x & 63);
  const bool east = d.x >= s.x;
  const Dist step = d.y >= s.y ? 1 : -1;
  for (Dist y = s.y;; y += step) {
    const std::uint64_t* b = blocked.row(y) + j0;
    std::uint64_t any = 0;
    for (std::size_t j = 0; j < nw; ++j) {
      allowed[j] = ~b[j];
      any |= reach[j] &= allowed[j];
    }
    if (any == 0) return false;
    if (east) {
      core::fill_east_row(reach.data(), allowed.data(), reach.data(), nw);
    } else {
      core::fill_west_row(reach.data(), allowed.data(), reach.data(), nw);
    }
    if (y == d.y) break;
  }
  return (reach[static_cast<std::size_t>(d.x >> 6) - j0] >> (d.x & 63)) & 1;
}

std::uint64_t count_minimal_paths(const Mesh2D& mesh, const Grid<bool>& blocked, Coord s,
                                  Coord d) {
  if (!mesh.in_bounds(s) || !mesh.in_bounds(d)) return 0;
  if (blocked[s] || blocked[d]) return 0;
  const QuadrantFrame frame(s, d);
  const Coord rd = frame.to_frame(d);
  Grid<std::uint64_t> count(rd.x + 1, rd.y + 1, 0);
  const auto saturating_add = [](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t sum = a + b;
    return sum >= kMaxPathCount || sum < a ? kMaxPathCount : sum;
  };
  for (Dist y = 0; y <= rd.y; ++y) {
    for (Dist x = 0; x <= rd.x; ++x) {
      const Coord rel{x, y};
      if (blocked[frame.to_mesh(rel)]) continue;
      if (x == 0 && y == 0) {
        count[rel] = 1;
      } else {
        const std::uint64_t from_w = x > 0 ? count[{x - 1, y}] : 0;
        const std::uint64_t from_s = y > 0 ? count[{x, y - 1}] : 0;
        count[rel] = saturating_add(from_w, from_s);
      }
    }
  }
  return count[rd];
}

bool monotone_path_exists_rects(std::span<const Rect> obstacles, Coord s, Coord d) {
  const QuadrantFrame frame(s, d);
  const Coord rd = frame.to_frame(d);
  const auto w = static_cast<std::size_t>(rd.x) + 1;
  const auto h = static_cast<std::size_t>(rd.y) + 1;

  // Rasterize the retained rects once instead of scanning every rect per DP
  // cell: kBlocked paints the clipped rect areas, then the DP promotes
  // kReachable through the same buffer. O(area + clipped rect area) total,
  // and the thread-local buffer makes the router's per-move calls
  // allocation-free in steady state.
  constexpr char kBlocked = 1;
  constexpr char kReachable = 2;
  static thread_local std::vector<char> cells;
  cells.assign(w * h, 0);

  bool any = false;
  for (const Rect& r : obstacles) {
    const Rect fr = to_frame_rect(frame, r);
    const auto x0 = static_cast<std::size_t>(std::max<Dist>(fr.xmin, 0));
    const auto y0 = static_cast<std::size_t>(std::max<Dist>(fr.ymin, 0));
    if (fr.xmax < 0 || fr.ymax < 0 || x0 > static_cast<std::size_t>(rd.x) ||
        y0 > static_cast<std::size_t>(rd.y)) {
      continue;
    }
    const auto x1 = static_cast<std::size_t>(std::min(fr.xmax, rd.x));
    const auto y1 = static_cast<std::size_t>(std::min(fr.ymax, rd.y));
    for (std::size_t y = y0; y <= y1; ++y) {
      std::fill(cells.begin() + static_cast<std::ptrdiff_t>(y * w + x0),
                cells.begin() + static_cast<std::ptrdiff_t>(y * w + x1 + 1), kBlocked);
    }
    any = true;
  }
  if (cells.front() == kBlocked || cells.back() == kBlocked) return false;
  if (!any) return true;

  cells.front() = kReachable;
  for (std::size_t y = 0; y < h; ++y) {
    char* row = cells.data() + y * w;
    const char* below = y > 0 ? row - w : nullptr;
    for (std::size_t x = 0; x < w; ++x) {
      if (row[x] != 0) continue;  // blocked, or the seeded origin
      if ((x > 0 && row[x - 1] == kReachable) || (below != nullptr && below[x] == kReachable)) {
        row[x] = kReachable;
      }
    }
  }
  return cells.back() == kReachable;
}

bool wang_minimal_path_exists(std::span<const Rect> blocks, Coord s, Coord d) {
  const QuadrantFrame frame(s, d);
  const Coord rd = frame.to_frame(d);

  std::vector<Rect> rects;
  rects.reserve(blocks.size());
  for (const Rect& b : blocks) rects.push_back(to_frame_rect(frame, b));

  if (covered_on_y(rects, rd.x, rd.y)) return false;

  std::vector<Rect> swapped;
  swapped.reserve(rects.size());
  for (const Rect& r : rects) swapped.push_back(swap_axes(r));
  if (covered_on_y(swapped, rd.y, rd.x)) return false;

  return true;
}

bool wang_minimal_path_exists(const fault::BlockSet& blocks, Coord s, Coord d) {
  std::vector<Rect> rects;
  rects.reserve(blocks.block_count());
  for (const auto& b : blocks.blocks()) rects.push_back(b.rect);
  return wang_minimal_path_exists(rects, s, d);
}

}  // namespace meshroute::cond
