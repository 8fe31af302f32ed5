#include "route/router.hpp"

#include <utility>
#include <vector>

namespace meshroute::route {

const char* to_string(RouteStatus status) noexcept {
  switch (status) {
    case RouteStatus::Delivered: return "delivered";
    case RouteStatus::Stuck: return "stuck";
    case RouteStatus::SourceBlocked: return "source_blocked";
    case RouteStatus::EnteredNewFault: return "entered_new_fault";
    case RouteStatus::InfoStale: return "info_stale";
    case RouteStatus::TtlExceeded: return "ttl_exceeded";
  }
  return "unknown";
}

RouteResult route_shortest_bfs(const Mesh2D& mesh, const Grid<bool>& blocked, Coord s,
                               Coord d) {
  RouteResult result;
  if (!mesh.in_bounds(s) || !mesh.in_bounds(d) || blocked[s] || blocked[d]) {
    result.status = RouteStatus::SourceBlocked;
    return result;
  }
  // Standard BFS with parent pointers encoded as the direction taken INTO
  // each node (kNoParent = unvisited, source marked specially).
  constexpr std::int8_t kNoParent = -1;
  constexpr std::int8_t kSource = 4;
  Grid<std::int8_t> parent(mesh.width(), mesh.height(), kNoParent);
  parent[s] = kSource;
  std::vector<Coord> frontier{s};
  bool found = s == d;
  while (!frontier.empty() && !found) {
    std::vector<Coord> next;
    for (const Coord c : frontier) {
      for (const Direction dir : kAllDirections) {
        const Coord v = neighbor(c, dir);
        if (!mesh.in_bounds(v) || blocked[v] || parent[v] != kNoParent) continue;
        parent[v] = static_cast<std::int8_t>(dir);
        if (v == d) {
          found = true;
          break;
        }
        next.push_back(v);
      }
      if (found) break;
    }
    frontier = std::move(next);
  }
  if (!found) {
    result.status = RouteStatus::Stuck;
    return result;
  }
  // Walk back from the destination.
  std::vector<Coord> reversed{d};
  Coord cur = d;
  while (cur != s) {
    cur = neighbor(cur, opposite(static_cast<Direction>(parent[cur])));
    reversed.push_back(cur);
  }
  result.path.hops.assign(reversed.rbegin(), reversed.rend());
  result.status = RouteStatus::Delivered;
  return result;
}

RouteResult route_dimension_order(const Mesh2D& mesh, const Grid<bool>& blocked, Coord s,
                                  Coord d) {
  RouteResult result;
  if (!mesh.in_bounds(s) || !mesh.in_bounds(d) || blocked[s] || blocked[d]) {
    result.status = RouteStatus::SourceBlocked;
    return result;
  }
  result.path.hops.push_back(s);
  Coord cur = s;
  while (cur != d) {
    Coord next = cur;
    if (cur.x != d.x) {
      next.x += cur.x < d.x ? 1 : -1;
    } else {
      next.y += cur.y < d.y ? 1 : -1;
    }
    if (blocked[next]) {
      result.status = RouteStatus::Stuck;
      return result;
    }
    result.path.hops.push_back(next);
    cur = next;
  }
  result.status = RouteStatus::Delivered;
  return result;
}

}  // namespace meshroute::route
