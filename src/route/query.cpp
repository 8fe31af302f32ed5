#include "route/query.hpp"

#include <stdexcept>

#include "cond/wang.hpp"
#include "fault/mcc_model.hpp"

namespace meshroute::route {

const char* to_string(QueryModel model) noexcept {
  switch (model) {
    case QueryModel::FaultyBlock: return "faulty-block";
    case QueryModel::Mcc: return "mcc";
  }
  return "?";
}

namespace {

[[noreturn]] void missing_plane(const char* what) {
  throw std::invalid_argument(std::string("QueryView: ") + what +
                              " plane is not populated for this query");
}

}  // namespace

const info::SafetyGrid& QueryView::safety(QueryModel model, Quadrant q) const {
  if (model == QueryModel::FaultyBlock) {
    if (fb_safety == nullptr) missing_plane("faulty-block safety");
    return *fb_safety;
  }
  if (fault::mcc_kind_for(q) == fault::MccKind::TypeOne) {
    if (mcc1_safety == nullptr) missing_plane("type-one MCC safety");
    return *mcc1_safety;
  }
  if (mcc2_safety == nullptr) missing_plane("type-two MCC safety");
  return *mcc2_safety;
}

cond::RoutingProblem QueryView::problem(Coord s, Coord d, QueryModel model) const {
  if (mesh == nullptr) missing_plane("mesh");
  const Quadrant q = quadrant_of(s, d);
  return {mesh, &safety(model, q), s, d};
}

StaticFaultView QueryView::fault_view() const {
  if (mesh == nullptr) missing_plane("mesh");
  if (blocks == nullptr) missing_plane("block");
  return StaticFaultView(*blocks, boundary);
}

cond::Decision decide_strategy(const QueryView& view, Coord s, Coord d, QueryModel model,
                               cond::StrategyId id, std::span<const Coord> pivots,
                               const cond::StrategyConfig& cfg) {
  return cond::run_strategy(view.problem(s, d, model), id, cfg, pivots);
}

void decide_batch(const QueryView& view, std::span<const QuerySpec> specs, QueryModel model,
                  cond::StrategyId id, std::span<const Coord> pivots,
                  const cond::StrategyConfig& cfg, std::vector<cond::Decision>& out) {
  out.clear();
  out.reserve(specs.size());
  for (const QuerySpec& q : specs) {
    out.push_back(decide_strategy(view, q.src, q.dst, model, id, pivots, cfg));
  }
}

bool minimal_path_exists(const QueryView& view, Coord s, Coord d) {
  if (view.mesh == nullptr || view.faulty_mask == nullptr) {
    throw std::invalid_argument("QueryView: faulty-mask plane is not populated");
  }
  return cond::monotone_path_exists(*view.mesh, *view.faulty_mask, s, d);
}

void minimal_reachability(const QueryView& view, Coord s, core::BitGrid& out) {
  if (view.mesh == nullptr || view.faulty_mask == nullptr) {
    throw std::invalid_argument("QueryView: faulty-mask plane is not populated");
  }
  cond::monotone_reachability(*view.mesh, *view.faulty_mask, s, out);
}

LadderResult route(const QueryView& view, Coord s, Coord d, Rng* rng) {
  return route_ladder(view, s, d, LadderOptions{.max_rung = Rung::Minimal}, rng);
}

LadderResult route_via(const QueryView& view, Coord s, Coord via, Coord d, Rng* rng) {
  LadderResult walk = route(view, s, via, rng);
  if (!walk.delivered()) return walk;
  const LadderOptions second_phase{.max_rung = Rung::Minimal, .start_time = walk.end_time};
  const LadderResult rest = route_ladder(view, via, d, second_phase, rng);
  if (rest.status == RouteStatus::SourceBlocked) return rest;  // d itself is unusable
  // Rung 0 never detours or escalates: only the path and hop count add up.
  walk.path.hops.insert(walk.path.hops.end(), rest.path.hops.begin() + 1, rest.path.hops.end());
  walk.status = rest.status;
  walk.end_time = rest.end_time;
  walk.stats.hops += rest.stats.hops;
  return walk;
}

LadderResult route_ladder(const QueryView& view, Coord s, Coord d, const LadderOptions& opts,
                          Rng* rng) {
  const StaticFaultView fv = view.fault_view();
  return route_degradation_ladder(*view.mesh, fv, s, d, opts, rng);
}

void route_batch(const QueryView& view, std::span<const QuerySpec> specs,
                 const LadderOptions& opts, std::vector<RouteAnswer>& out) {
  const StaticFaultView fv = view.fault_view();
  route_batch(*view.mesh, fv, specs, opts, out);
}

void route_batch(const Mesh2D& mesh, const FaultView& view, std::span<const QuerySpec> specs,
                 const LadderOptions& opts, std::vector<RouteAnswer>& out) {
  out.clear();
  out.reserve(specs.size());
  for (const QuerySpec& q : specs) {
    const LadderResult r = route_degradation_ladder(mesh, view, q.src, q.dst, opts,
                                                    /*rng=*/nullptr);
    const RouteStatus attr = r.escalations.empty() ? r.status : r.escalations.front().reason;
    out.push_back(RouteAnswer{r.status, r.rung, r.stats, attr});
  }
}

}  // namespace meshroute::route
