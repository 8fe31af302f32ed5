#include "info/regions.hpp"

#include <algorithm>
#include <stdexcept>

namespace meshroute::info {
namespace {

/// The clear run from `source` in `dir` (the nodes clear_run lists), read
/// off the source's level that way: the clear nodes up to the next obstacle,
/// or up to the mesh edge when the level is infinite.
struct ClearRun {
  const SafetyGrid& safety;
  Coord source;
  Coord unit;
  std::size_t size;

  ClearRun(const Mesh2D& mesh, const SafetyGrid& levels, Coord from, Direction dir)
      : safety(levels), source(from), unit(step(dir)) {
    if (!mesh.in_bounds(from)) {
      throw std::invalid_argument("segment representatives: source outside the mesh");
    }
    const Dist to_edge = unit.x > 0   ? mesh.width() - 1 - from.x
                         : unit.x < 0 ? from.x
                         : unit.y > 0 ? mesh.height() - 1 - from.y
                                      : from.y;
    size = static_cast<std::size_t>(std::min(safety.get(from, dir), to_edge));
  }

  /// Run index i is i + 1 hops out.
  [[nodiscard]] Coord node(std::size_t i) const noexcept {
    const Dist hops = static_cast<Dist>(i) + 1;
    return {source.x + unit.x * hops, source.y + unit.y * hops};
  }

  /// The index in [begin, end) whose level in `d` is maximal. Ties
  /// (typically several infinite levels) resolve to the farthest node: the
  /// representative is a property of the region, selected before any
  /// destination is known, and Section 5's observation that a whole-region
  /// representative usually lies outside [0:xd, 0:yd] presumes exactly this
  /// destination-oblivious choice.
  [[nodiscard]] std::size_t best(std::size_t begin, std::size_t end, Direction d) const {
    std::size_t pick = begin;
    Dist pick_level = safety.get(node(begin), d);
    for (std::size_t i = begin + 1; i < end; ++i) {
      const Dist level = safety.get(node(i), d);
      if (level >= pick_level) {
        pick = i;
        pick_level = level;
      }
    }
    return pick;
  }
};

/// Segments start at run indices below this: one starting at index i is
/// i + 1 hops out, so a segment starting past max_hops holds only nodes
/// past it.
std::size_t segments_end(std::size_t run_size, Dist max_hops) {
  return std::min(run_size, static_cast<std::size_t>(std::max<Dist>(max_hops, 0)));
}

}  // namespace

std::vector<Dist> affected_rows(const Mesh2D& mesh, const Grid<bool>& obstacles) {
  std::vector<Dist> rows;
  for (Dist y = 0; y < mesh.height(); ++y) {
    for (Dist x = 0; x < mesh.width(); ++x) {
      if (obstacles[{x, y}]) {
        rows.push_back(y);
        break;
      }
    }
  }
  return rows;
}

std::vector<Dist> affected_columns(const Mesh2D& mesh, const Grid<bool>& obstacles) {
  std::vector<Dist> cols;
  for (Dist x = 0; x < mesh.width(); ++x) {
    for (Dist y = 0; y < mesh.height(); ++y) {
      if (obstacles[{x, y}]) {
        cols.push_back(x);
        break;
      }
    }
  }
  return cols;
}

std::vector<Coord> clear_run(const Mesh2D& mesh, const Grid<bool>& obstacles, Coord from,
                             Direction dir) {
  std::vector<Coord> run;
  Coord c = neighbor(from, dir);
  while (mesh.in_bounds(c) && !obstacles[c]) {
    run.push_back(c);
    c = neighbor(c, dir);
  }
  return run;
}

std::vector<AxisCandidate> segment_representatives(const Mesh2D& mesh,
                                                   const SafetyGrid& safety, Coord source,
                                                   Direction dir, Direction perpendicular,
                                                   Dist segment_size, Dist max_hops) {
  if (segment_size < 0) throw std::invalid_argument("segment_representatives: negative size");
  const ClearRun run(mesh, safety, source, dir);
  const std::size_t seg =
      segment_size == kWholeRegionSegment ? run.size : static_cast<std::size_t>(segment_size);
  std::vector<AxisCandidate> reps;
  for (std::size_t begin = 0; begin < segments_end(run.size, max_hops); begin += seg) {
    const std::size_t best = run.best(begin, std::min(begin + seg, run.size), perpendicular);
    reps.push_back(AxisCandidate{run.node(best), static_cast<Dist>(best + 1)});
  }
  return reps;
}

std::vector<AxisCandidate> segment_representatives_multi(const Mesh2D& mesh,
                                                         const SafetyGrid& safety, Coord source,
                                                         Direction dir, Dist segment_size,
                                                         Dist max_hops) {
  if (segment_size < 0) {
    throw std::invalid_argument("segment_representatives_multi: negative size");
  }
  const ClearRun run(mesh, safety, source, dir);
  const std::size_t seg =
      segment_size == kWholeRegionSegment ? run.size : static_cast<std::size_t>(segment_size);
  std::vector<AxisCandidate> reps;
  for (std::size_t begin = 0; begin < segments_end(run.size, max_hops); begin += seg) {
    const std::size_t end = std::min(begin + seg, run.size);
    std::size_t picks[4];
    for (std::size_t di = 0; di < 4; ++di) picks[di] = run.best(begin, end, kAllDirections[di]);
    // Collapse duplicates, keep hop order within the segment.
    std::sort(std::begin(picks), std::end(picks));
    std::size_t prev = static_cast<std::size_t>(-1);
    for (const std::size_t i : picks) {
      if (i == prev) continue;
      prev = i;
      reps.push_back(AxisCandidate{run.node(i), static_cast<Dist>(i + 1)});
    }
  }
  return reps;
}

}  // namespace meshroute::info
