#include "info/safety_level.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

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

/// Every builder sizes its output from the mesh and walks the obstacle set,
/// so the two must agree.
void check_dimensions(const Mesh2D& mesh, Dist width, Dist height) {
  if (width != mesh.width() || height != mesh.height()) {
    throw std::invalid_argument("compute_safety_levels: obstacle set is " +
                                std::to_string(width) + "x" + std::to_string(height) +
                                ", mesh is " + std::to_string(mesh.width()) + "x" +
                                std::to_string(mesh.height()));
  }
}

}  // namespace

void SafetyGrid::line_extents(const core::BitGrid& plane, std::vector<Extent>& out) {
  out.assign(static_cast<std::size_t>(plane.height()), Extent{});
  for (Dist line = 0; line < plane.height(); ++line) {
    const std::uint64_t* r = plane.row(line);
    const Dist first = core::row_next_set(r, plane.words_per_row(), 0);
    if (first >= 0) {
      out[static_cast<std::size_t>(line)] = {first, core::row_prev_set(r, plane.width() - 1)};
    }
  }
}

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
  // Painting the disjoint rects touches only block nodes; unpacking the
  // block plane would spread every word of the mesh.
  const auto w = static_cast<std::size_t>(mesh.width());
  std::uint8_t* cells = out.data().data();
  for (const fault::FaultyBlock& b : blocks.blocks()) {
    for (Dist y = b.rect.ymin; y <= b.rect.ymax; ++y) {
      std::uint8_t* row = cells + static_cast<std::size_t>(y) * w;
      for (Dist x = b.rect.xmin; x <= b.rect.xmax; ++x) row[static_cast<std::size_t>(x)] = 1;
    }
  }
}

// The labelled plane covers the mesh the set was built on.
void obstacle_mask(const Mesh2D& /*mesh*/, const fault::MccSet& mcc, Grid<bool>& out) {
  mcc.plane().unpack(out);
}

SafetyGrid compute_safety_levels(const Mesh2D& mesh, const Grid<bool>& obstacles) {
  SafetyGrid grid;
  compute_safety_levels(mesh, obstacles, grid);
  return grid;
}

void compute_safety_levels(const Mesh2D& mesh, const Grid<bool>& obstacles, SafetyGrid& out) {
  // Pack into a per-thread plane (one byte-compare pass) and adopt it.
  thread_local core::BitGrid plane;
  plane.assign(obstacles);
  compute_safety_levels(mesh, plane, out);
}

void compute_safety_levels(const Mesh2D& mesh, const core::BitGrid& obstacles, SafetyGrid& out) {
  check_dimensions(mesh, obstacles.width(), obstacles.height());
  note_recompute(mesh);
  out.rows_ = obstacles;  // same-size copy reuses the capacity
  obstacles.transpose_into(out.cols_);
  SafetyGrid::line_extents(out.rows_, out.row_extent_);
  SafetyGrid::line_extents(out.cols_, out.col_extent_);
}

void compute_safety_levels_scalar(const Mesh2D& mesh, const Grid<bool>& obstacles,
                                  Grid<ExtendedSafetyLevel>& out) {
  check_dimensions(mesh, obstacles.width(), obstacles.height());
  note_recompute(mesh);
  if (out.width() != mesh.width() || out.height() != mesh.height()) {
    out = Grid<ExtendedSafetyLevel>(mesh.width(), mesh.height());
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

}  // namespace meshroute::info
