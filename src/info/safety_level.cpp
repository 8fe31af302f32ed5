#include "info/safety_level.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace meshroute::info {
namespace {

/// Distance chaining: one hop further from a neighbor's value.
Dist chain(bool neighbor_is_obstacle, Dist neighbor_value) {
  if (neighbor_is_obstacle) return 0;
  return is_infinite(neighbor_value) ? kInfiniteDistance : neighbor_value + 1;
}

/// Shared entry bookkeeping (one recompute per safety build regardless of
/// which overload the caller reached).
void note_recompute(const Mesh2D& mesh) {
  static obs::Counter& recompute_ctr =
      obs::Registry::global().counter("info.safety.recomputes");
  recompute_ctr.add(1);
  MESHROUTE_TRACE_EVENT(obs::EventKind::SafetyRecompute, 0, 0,
                        (Coord{mesh.width(), mesh.height()}),
                        static_cast<std::int64_t>(mesh.width()) * mesh.height(), 0);
}

}  // namespace

Grid<bool> obstacle_mask(const Mesh2D& mesh, const fault::BlockSet& blocks) {
  Grid<bool> mask(mesh.width(), mesh.height(), false);
  obstacle_mask(mesh, blocks, mask);
  return mask;
}

Grid<bool> obstacle_mask(const Mesh2D& mesh, const fault::MccSet& mcc) {
  Grid<bool> mask(mesh.width(), mesh.height(), false);
  obstacle_mask(mesh, mcc, mask);
  return mask;
}

void obstacle_mask(const Mesh2D& mesh, const fault::BlockSet& blocks, Grid<bool>& out) {
  if (out.width() != mesh.width() || out.height() != mesh.height()) {
    out = Grid<bool>(mesh.width(), mesh.height(), false);
  } else {
    out.fill(false);
  }
  // Blocks tile the block-node set with disjoint rectangles, so painting
  // them is equivalent to testing is_block_node per node — without touching
  // the O(area) id grid.
  const auto w = static_cast<std::size_t>(mesh.width());
  std::uint8_t* cells = out.data().data();
  for (const fault::FaultyBlock& b : blocks.blocks()) {
    for (Dist y = b.rect.ymin; y <= b.rect.ymax; ++y) {
      std::uint8_t* row = cells + static_cast<std::size_t>(y) * w;
      for (Dist x = b.rect.xmin; x <= b.rect.xmax; ++x) row[static_cast<std::size_t>(x)] = 1;
    }
  }
}

void obstacle_mask(const Mesh2D& mesh, const fault::MccSet& mcc, Grid<bool>& out) {
  if (out.width() != mesh.width() || out.height() != mesh.height()) {
    out = Grid<bool>(mesh.width(), mesh.height(), false);
  }
  const std::vector<std::uint8_t>& status = mcc.status_grid().data();
  std::uint8_t* cells = out.data().data();
  for (std::size_t i = 0; i < status.size(); ++i) cells[i] = status[i] != 0;
}

SafetyGrid compute_safety_levels(const Mesh2D& mesh, const Grid<bool>& obstacles) {
  SafetyGrid grid(mesh.width(), mesh.height());
  compute_safety_levels(mesh, obstacles, grid);
  return grid;
}

void compute_safety_levels(const Mesh2D& mesh, const Grid<bool>& obstacles, SafetyGrid& out) {
  // Pack into a per-thread plane and run the bit kernel; packing is one
  // byte-compare pass and the kernel then touches only obstacle positions.
  thread_local core::BitGrid plane;
  plane.assign(obstacles);
  compute_safety_levels(mesh, plane, out);
}

void compute_safety_levels_scalar(const Mesh2D& mesh, const Grid<bool>& obstacles,
                                  SafetyGrid& out) {
  note_recompute(mesh);
  if (out.width() != mesh.width() || out.height() != mesh.height()) {
    out = SafetyGrid(mesh.width(), mesh.height());
  }
  const auto w = static_cast<std::size_t>(mesh.width());
  const auto h = static_cast<std::size_t>(mesh.height());
  const std::uint8_t* obs = obstacles.data().data();
  ExtendedSafetyLevel* grid = out.data().data();

  // East and West: sweep each row inward from its edges.
  for (std::size_t y = 0; y < h; ++y) {
    ExtendedSafetyLevel* row = grid + y * w;
    const std::uint8_t* orow = obs + y * w;
    row[w - 1].e = kInfiniteDistance;
    for (std::size_t x = w - 1; x-- > 0;) {
      row[x].e = chain(orow[x + 1] != 0, row[x + 1].e);
    }
    row[0].w = kInfiniteDistance;
    for (std::size_t x = 1; x < w; ++x) {
      row[x].w = chain(orow[x - 1] != 0, row[x - 1].w);
    }
  }
  // North: each row chains off the row above it (row-major, unlike the
  // textbook per-column sweep, so the pass streams adjacent rows).
  {
    ExtendedSafetyLevel* top = grid + (h - 1) * w;
    for (std::size_t x = 0; x < w; ++x) top[x].n = kInfiniteDistance;
  }
  for (std::size_t y = h - 1; y-- > 0;) {
    ExtendedSafetyLevel* row = grid + y * w;
    const ExtendedSafetyLevel* above = row + w;
    const std::uint8_t* oabove = obs + (y + 1) * w;
    for (std::size_t x = 0; x < w; ++x) {
      row[x].n = chain(oabove[x] != 0, above[x].n);
    }
  }
  // South: each row chains off the row below it.
  for (std::size_t x = 0; x < w; ++x) grid[x].s = kInfiniteDistance;
  for (std::size_t y = 1; y < h; ++y) {
    ExtendedSafetyLevel* row = grid + y * w;
    const ExtendedSafetyLevel* below = row - w;
    const std::uint8_t* obelow = obs + (y - 1) * w;
    for (std::size_t x = 0; x < w; ++x) {
      row[x].s = chain(obelow[x] != 0, below[x].s);
    }
  }
}

void compute_safety_levels(const Mesh2D& mesh, const core::BitGrid& obstacles, SafetyGrid& out) {
  note_recompute(mesh);
  if (out.width() != mesh.width() || out.height() != mesh.height()) {
    out = SafetyGrid(mesh.width(), mesh.height());
  }
  // The whole fill (E/W obstacle-segment ramps, N/S column recurrences)
  // lives in the row-kernel layer, which writes straight into the AoS grid
  // as groups of 4 int32 per cell in E, S, W, N field order.
  static_assert(sizeof(ExtendedSafetyLevel) == 4 * sizeof(std::int32_t));
  static_assert(offsetof(ExtendedSafetyLevel, e) == 0 * sizeof(std::int32_t));
  static_assert(offsetof(ExtendedSafetyLevel, s) == 1 * sizeof(std::int32_t));
  static_assert(offsetof(ExtendedSafetyLevel, w) == 2 * sizeof(std::int32_t));
  static_assert(offsetof(ExtendedSafetyLevel, n) == 3 * sizeof(std::int32_t));
  thread_local core::simd::SweepScratch scratch;
  core::simd::safety_fill(obstacles, reinterpret_cast<std::int32_t*>(out.data().data()), scratch);
}

}  // namespace meshroute::info
