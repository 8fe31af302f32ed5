#include "route/ladder.hpp"

#include <algorithm>
#include <optional>

#include "cond/wang.hpp"
#include "common/grid.hpp"
#include "mesh/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace meshroute::route {
namespace {

/// BoundedMisroute abandons a walk that enters any node more than
/// 1 + kMaxRevisits times (loop/livelock detection).
constexpr int kMaxRevisits = 2;

/// Pick between two admissible preferred moves: random when rng given,
/// otherwise along the dimension with more remaining distance (balances the
/// remaining rectangle, a common adaptive heuristic). The draw sequence is
/// pinned by the LadderDifferential digests.
bool pick_first(Coord rel_after_first, Coord rel_after_second, Rng* rng) {
  if (rng != nullptr) return rng->chance(0.5);
  const Dist slack_first = std::max(rel_after_first.x, rel_after_first.y);
  const Dist slack_second = std::max(rel_after_second.x, rel_after_second.y);
  return slack_first <= slack_second;
}

}  // namespace

const char* to_string(Rung rung) noexcept {
  switch (rung) {
    case Rung::Minimal: return "minimal";
    case Rung::SpareDetour: return "spare_detour";
    case Rung::BoundedMisroute: return "bounded_misroute";
  }
  return "unknown";
}

LadderResult route_degradation_ladder(const Mesh2D& mesh, const FaultView& view, Coord s,
                                      Coord d, const LadderOptions& opts, Rng* rng) {
  // Registry lookups are a map walk under a mutex; resolve once per process,
  // then flush per walk (not per hop) so the hot loop only touches locals.
  static obs::Counter& walks_ctr = obs::Registry::global().counter("route.ladder.walks");
  static obs::Counter& delivered_ctr =
      obs::Registry::global().counter("route.ladder.delivered");
  static obs::Counter& hops_ctr = obs::Registry::global().counter("route.ladder.hops");
  static obs::Counter& detours_ctr = obs::Registry::global().counter("route.ladder.detours");
  static obs::Counter& escalations_ctr =
      obs::Registry::global().counter("route.ladder.escalations");

  LadderResult result;
  std::int64_t t = opts.start_time;
  result.end_time = t;

  const auto finish = [&]() -> LadderResult& {
    result.stats.hops = static_cast<int>(result.path.hops.size()) -
                        (result.path.hops.empty() ? 0 : 1);
    result.stats.detours = result.detours;
    result.stats.escalations = static_cast<int>(result.escalations.size());
    walks_ctr.add(1);
    if (result.delivered()) delivered_ctr.add(1);
    hops_ctr.add(result.stats.hops);
    detours_ctr.add(result.stats.detours);
    escalations_ctr.add(result.stats.escalations);
    return result;
  };

  if (!mesh.in_bounds(s) || !mesh.in_bounds(d) || view.truly_bad(s, t) ||
      view.truly_bad(d, t)) {
    result.status = RouteStatus::SourceBlocked;
    return finish();
  }

  const int ttl = opts.ttl > 0 ? opts.ttl : 4 * (manhattan(s, d) + 8);
  Grid<std::int16_t> visits(mesh.width(), mesh.height(), 0);
  std::vector<Rect> believed;
  result.path.hops.push_back(s);

  Coord cur = s;
  Coord prev = s;  // == cur means "no previous hop yet"
  int hops = 0;
  int detour_budget = 1;  // rung 1 permits exactly one spare-neighbor detour
  bool misroute_engaged = false;
  ++visits[cur];

  const auto fail = [&](RouteStatus reason) {
    result.status = reason;
    result.end_time = t;
  };
  const auto take = [&](Coord v) {
    if (manhattan(v, d) >= manhattan(cur, d)) ++result.detours;
    result.path.hops.push_back(v);
    ++hops;
    ++t;
    prev = cur;
    cur = v;
    ++visits[v];
    MESHROUTE_TRACE_EVENT(obs::EventKind::RouteHop, opts.trace_track, t, v, hops,
                          static_cast<int>(result.rung));
  };

  while (cur != d) {
    // The world moves under the packet: a fault firing on the occupied node
    // destroys it; one firing on the destination makes delivery impossible.
    if (view.truly_bad(cur, t) || view.truly_bad(d, t)) {
      fail(RouteStatus::EnteredNewFault);
      return finish();
    }
    if (hops >= ttl) {
      fail(RouteStatus::TtlExceeded);
      return finish();
    }
    view.believed_blocks(cur, t, believed);

    const QuadrantFrame frame(cur, d);
    const Coord rel = frame.to_frame(d);
    const auto usable = [&](Coord v) { return mesh.in_bounds(v) && !view.truly_bad(v, t); };
    const auto completes = [&](Coord v) {
      return cond::monotone_path_exists_rects(believed, v, d);
    };

    // Rung 0 step — Wu's protocol.
    std::optional<Coord> move_x;
    std::optional<Coord> move_y;
    if (rel.x >= 1) {
      const Coord v = neighbor(cur, frame.to_mesh_dir(Direction::East));
      if (usable(v) && completes(v)) move_x = v;
    }
    if (rel.y >= 1) {
      const Coord v = neighbor(cur, frame.to_mesh_dir(Direction::North));
      if (usable(v) && completes(v)) move_y = v;
    }
    if (move_x && move_y) {
      take(pick_first({rel.x - 1, rel.y}, {rel.x, rel.y - 1}, rng) ? *move_x : *move_y);
      continue;
    }
    if (move_x || move_y) {
      take(move_x ? *move_x : *move_y);
      continue;
    }

    // This rung is stuck here. Name the reason before climbing.
    const RouteStatus reason =
        view.is_stale(cur, t) ? RouteStatus::InfoStale : RouteStatus::Stuck;

    // Rung 1 — one spare-neighbor detour (Extension 1): a sub-minimal hop to
    // any usable neighbor that restores a believed monotone completion.
    // Deterministic choice: closest-to-destination, then (E, S, W, N) order.
    if (opts.max_rung >= Rung::SpareDetour && detour_budget > 0) {
      std::optional<Coord> spare;
      for (const Direction dir : kAllDirections) {
        const Coord v = neighbor(cur, dir);
        if (!usable(v) || v == prev || !completes(v)) continue;
        if (!spare || manhattan(v, d) < manhattan(*spare, d)) spare = v;
      }
      if (spare) {
        result.escalations.push_back(Escalation{result.rung, reason, cur, t});
        MESHROUTE_TRACE_EVENT(obs::EventKind::RungEscalation, opts.trace_track, t, cur,
                              static_cast<int>(result.rung), static_cast<int>(reason));
        result.rung = std::max(result.rung, Rung::SpareDetour);
        --detour_budget;
        take(*spare);
        continue;
      }
    }

    // Rung 2 — bounded misroute: any usable neighbor, believed-safe moves
    // first, then distance-reducing, avoiding immediate backtracks and
    // nodes already revisited kMaxRevisits times (loop/livelock detection).
    if (opts.max_rung >= Rung::BoundedMisroute) {
      if (!misroute_engaged) {
        result.escalations.push_back(Escalation{result.rung, reason, cur, t});
        MESHROUTE_TRACE_EVENT(obs::EventKind::RungEscalation, opts.trace_track, t, cur,
                              static_cast<int>(result.rung), static_cast<int>(reason));
        result.rung = Rung::BoundedMisroute;
        misroute_engaged = true;
      }
      std::optional<Coord> best;
      const auto score = [&](Coord v) {
        return std::make_pair(completes(v) ? 0 : 1, manhattan(v, d));
      };
      for (const bool allow_backtrack : {false, true}) {
        for (const Direction dir : kAllDirections) {
          const Coord v = neighbor(cur, dir);
          if (!usable(v) || visits[v] > kMaxRevisits) continue;
          if (!allow_backtrack && v == prev && prev != cur) continue;
          if (!best || score(v) < score(*best)) best = v;
        }
        if (best) break;
      }
      if (best) {
        take(*best);
        continue;
      }
    }

    fail(reason);
    return finish();
  }

  result.status = RouteStatus::Delivered;
  result.end_time = t;
  return finish();
}

}  // namespace meshroute::route
