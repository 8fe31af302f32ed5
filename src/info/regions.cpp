#include "info/regions.hpp"

#include <algorithm>
#include <stdexcept>

namespace meshroute::info {
namespace {

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
                                                   const Grid<bool>& obstacles,
                                                   const SafetyGrid& safety, Coord source,
                                                   Direction dir, Direction perpendicular,
                                                   Dist segment_size, Dist max_hops) {
  if (segment_size < 0) throw std::invalid_argument("segment_representatives: negative size");
  const std::vector<Coord> run = clear_run(mesh, obstacles, source, dir);
  std::vector<AxisCandidate> reps;
  if (run.empty()) return reps;

  const std::size_t seg =
      segment_size == kWholeRegionSegment ? run.size() : static_cast<std::size_t>(segment_size);
  const std::size_t stop = segments_end(run.size(), max_hops);
  for (std::size_t begin = 0; begin < stop; begin += seg) {
    const std::size_t end = std::min(begin + seg, run.size());
    // Ties (typically several infinite levels) resolve to the farthest
    // node: the representative is a property of the region, selected before
    // any destination is known, and Section 5's observation that a
    // whole-region representative usually lies outside [0:xd, 0:yd]
    // presumes exactly this destination-oblivious choice.
    std::size_t best = begin;
    Dist best_level = safety.get(run[begin], perpendicular);
    for (std::size_t i = begin + 1; i < end; ++i) {
      const Dist level = safety.get(run[i], perpendicular);
      if (level >= best_level) {
        best = i;
        best_level = level;
      }
    }
    reps.push_back(AxisCandidate{run[best], static_cast<Dist>(best + 1)});
  }
  return reps;
}

std::vector<AxisCandidate> segment_representatives_multi(const Mesh2D& mesh,
                                                         const Grid<bool>& obstacles,
                                                         const SafetyGrid& safety, Coord source,
                                                         Direction dir, Dist segment_size,
                                                         Dist max_hops) {
  if (segment_size < 0) {
    throw std::invalid_argument("segment_representatives_multi: negative size");
  }
  const std::vector<Coord> run = clear_run(mesh, obstacles, source, dir);
  std::vector<AxisCandidate> reps;
  if (run.empty()) return reps;

  const std::size_t seg =
      segment_size == kWholeRegionSegment ? run.size() : static_cast<std::size_t>(segment_size);
  const std::size_t stop = segments_end(run.size(), max_hops);
  for (std::size_t begin = 0; begin < stop; begin += seg) {
    const std::size_t end = std::min(begin + seg, run.size());
    std::size_t picks[4];
    for (std::size_t di = 0; di < 4; ++di) {
      const Direction d = kAllDirections[di];
      std::size_t best = begin;
      Dist best_level = safety.get(run[begin], d);
      for (std::size_t i = begin + 1; i < end; ++i) {
        const Dist level = safety.get(run[i], d);
        if (level >= best_level) {
          best = i;
          best_level = level;
        }
      }
      picks[di] = best;
    }
    // Collapse duplicates, keep hop order within the segment.
    std::sort(std::begin(picks), std::end(picks));
    std::size_t prev = static_cast<std::size_t>(-1);
    for (const std::size_t i : picks) {
      if (i == prev) continue;
      prev = i;
      reps.push_back(AxisCandidate{run[i], static_cast<Dist>(i + 1)});
    }
  }
  return reps;
}

}  // namespace meshroute::info
