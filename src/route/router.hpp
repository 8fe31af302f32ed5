// Routing outcomes and the fault-intolerant / non-minimal baselines that
// Wu's protocol is compared against. The protocol itself is rung 0 of the
// degradation ladder (route/ladder.hpp); route::route (route/query.hpp) is
// its entry point.
#pragma once

#include <cstdint>

#include "common/coord.hpp"
#include "common/grid.hpp"
#include "mesh/mesh2d.hpp"
#include "route/path.hpp"

namespace meshroute::route {

/// Why a routing attempt ended. The first three cover frozen worlds; the
/// rest are produced by the degradation ladder (route/ladder.hpp) when the
/// fault picture changes mid-flight, replacing what would otherwise be a
/// silent Stuck with the actual failure reason.
enum class RouteStatus : std::uint8_t {
  Delivered = 0,
  Stuck = 1,            ///< no preferred move is admissible at some node
  SourceBlocked = 2,    ///< source or destination inside a block
  EnteredNewFault = 3,  ///< a scheduled fault swallowed the packet's node (or the destination)
  InfoStale = 4,        ///< gave up at a node whose fault info lagged the truth
  TtlExceeded = 5,      ///< the bounded-misroute rung ran out of hop budget
};

/// Stable lower-case name ("delivered", "stuck", ...) for logs and JSON.
[[nodiscard]] const char* to_string(RouteStatus status) noexcept;

struct RouteResult {
  RouteStatus status = RouteStatus::Stuck;
  Path path;  ///< hops walked so far (complete path when Delivered)

  [[nodiscard]] bool delivered() const noexcept { return status == RouteStatus::Delivered; }
};

/// Classic dimension-order (XY) routing: all x hops first, then all y hops,
/// no adaptivity. Gets stuck at the first block in the way — the standard
/// fault-intolerant baseline the faulty-block literature improves on.
[[nodiscard]] RouteResult route_dimension_order(const Mesh2D& mesh, const Grid<bool>& blocked,
                                                Coord s, Coord d);

/// Non-minimal baseline: true shortest path around the obstacle mask (BFS,
/// global information). Delivers whenever source and destination are in the
/// same connected component; the path length quantifies the unavoidable
/// stretch when no minimal path survives the faults — the regime beyond the
/// paper's sub-minimal (one-detour) routing.
[[nodiscard]] RouteResult route_shortest_bfs(const Mesh2D& mesh, const Grid<bool>& blocked,
                                             Coord s, Coord d);

}  // namespace meshroute::route
