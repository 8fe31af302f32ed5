#include "cond/conditions.hpp"

#include <stdexcept>

#include "mesh/frame.hpp"

namespace meshroute::cond {
namespace {

void check_problem(const RoutingProblem& p) {
  if (p.mesh == nullptr || p.safety == nullptr) {
    throw std::invalid_argument("RoutingProblem: null field");
  }
}

/// A node a path can start or end at: in the mesh and outside every block.
bool usable(const RoutingProblem& p, Coord c) {
  return p.mesh->in_bounds(c) && !p.safety->blocked(c);
}

}  // namespace

bool safe_with_respect_to(const RoutingProblem& p, Coord node, Coord target) {
  check_problem(p);
  if (!usable(p, node) || !usable(p, target)) return false;
  const QuadrantFrame frame(node, target);
  const Coord rel = frame.to_frame(target);
  const info::SafetyGrid& safety = *p.safety;
  return rel.x <= safety.get(node, frame.to_mesh_dir(Direction::East)) &&
         rel.y <= safety.get(node, frame.to_mesh_dir(Direction::North));
}

bool source_safe(const RoutingProblem& p) {
  return safe_with_respect_to(p, p.source, p.dest);
}

Decision extension1(const RoutingProblem& p, Coord* via) {
  check_problem(p);
  // An unusable source has no path to certify, although one of its
  // neighbors may well be safe with respect to the destination.
  if (!usable(p, p.source)) return Decision::Unknown;
  if (source_safe(p)) {
    if (via != nullptr) *via = p.source;
    return Decision::Minimal;
  }
  const QuadrantFrame frame(p.source, p.dest);
  const Coord rel = frame.to_frame(p.dest);

  // Preferred directions reduce the distance to the destination; with a
  // degenerate axis (rel.x == 0 or rel.y == 0) that axis contributes none.
  bool preferred_mesh[4] = {false, false, false, false};
  if (rel.x >= 1) preferred_mesh[static_cast<int>(frame.to_mesh_dir(Direction::East))] = true;
  if (rel.y >= 1) preferred_mesh[static_cast<int>(frame.to_mesh_dir(Direction::North))] = true;

  for (const Direction d : kAllDirections) {
    if (!preferred_mesh[static_cast<int>(d)]) continue;
    const Coord v = neighbor(p.source, d);
    if (safe_with_respect_to(p, v, p.dest)) {
      if (via != nullptr) *via = v;
      return Decision::Minimal;
    }
  }
  for (const Direction d : kAllDirections) {
    if (preferred_mesh[static_cast<int>(d)]) continue;
    const Coord v = neighbor(p.source, d);
    if (safe_with_respect_to(p, v, p.dest)) {
      if (via != nullptr) *via = v;
      return Decision::SubMinimal;
    }
  }
  return Decision::Unknown;
}

Decision extension2(const RoutingProblem& p, Dist segment_size, Coord* via, Ext2Reps reps) {
  check_problem(p);
  if (!usable(p, p.source)) return Decision::Unknown;  // see extension1
  if (source_safe(p)) {
    if (via != nullptr) *via = p.source;
    return Decision::Minimal;
  }
  const QuadrantFrame frame(p.source, p.dest);
  const Coord rel = frame.to_frame(p.dest);

  // Try factoring through a representative on the source's row (phase one
  // eastward in the frame), then on its column (phase one northward).
  struct Axis {
    Direction run;   // frame direction of phase one
    Direction perp;  // safety level the representative is selected by
    Dist limit;      // representatives beyond the destination offset are useless
  };
  const Axis axes[] = {{Direction::East, Direction::North, rel.x},
                       {Direction::North, Direction::East, rel.y}};
  for (const Axis& axis : axes) {
    if (axis.limit < 1) continue;
    // Segments past the destination offset cannot yield a usable
    // representative, so they are not built.
    const auto candidates =
        reps == Ext2Reps::SinglePerpendicular
            ? info::segment_representatives(*p.mesh, *p.safety, p.source,
                                            frame.to_mesh_dir(axis.run),
                                            frame.to_mesh_dir(axis.perp), segment_size,
                                            axis.limit)
            : info::segment_representatives_multi(*p.mesh, *p.safety, p.source,
                                                  frame.to_mesh_dir(axis.run), segment_size,
                                                  axis.limit);
    for (const info::AxisCandidate& rep : candidates) {
      if (rep.hops > axis.limit) break;  // reps come in increasing hop order
      if (safe_with_respect_to(p, rep.node, p.dest)) {
        if (via != nullptr) *via = rep.node;
        return Decision::Minimal;
      }
    }
  }
  return Decision::Unknown;
}

Decision extension3(const RoutingProblem& p, std::span<const Coord> pivots, Coord* via) {
  check_problem(p);
  if (!usable(p, p.source)) return Decision::Unknown;  // see extension1
  if (source_safe(p)) {
    if (via != nullptr) *via = p.source;
    return Decision::Minimal;
  }
  const QuadrantFrame frame(p.source, p.dest);
  const Coord rel = frame.to_frame(p.dest);
  // safe_with_respect_to(source, pivot) for a pivot in the rectangle reads
  // the source's levels in this frame's east and north (a pivot on the
  // source's row or column needs 0 on that axis, which every level meets),
  // so they are read once, at the first such pivot.
  Dist east = -1;
  Dist north = -1;
  for (const Coord pivot : pivots) {
    const Coord rp = frame.to_frame(pivot);
    if (rp.x < 0 || rp.x > rel.x || rp.y < 0 || rp.y > rel.y) continue;
    if (!usable(p, pivot)) continue;
    if (east < 0) {
      east = p.safety->get(p.source, frame.to_mesh_dir(Direction::East));
      north = p.safety->get(p.source, frame.to_mesh_dir(Direction::North));
    }
    if (rp.x <= east && rp.y <= north && safe_with_respect_to(p, pivot, p.dest)) {
      if (via != nullptr) *via = pivot;
      return Decision::Minimal;
    }
  }
  return Decision::Unknown;
}

}  // namespace meshroute::cond
