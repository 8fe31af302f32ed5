#include "core/fault_tolerant_mesh.hpp"

#include "cond/wang.hpp"
#include "mesh/frame.hpp"

namespace meshroute {

/// Everything derivable from the fault set, rebuilt atomically.
struct FaultTolerantMesh::Derived {
  fault::BlockSet blocks;
  fault::MccModel mcc;
  info::BoundaryInfoMap boundary;
  Grid<bool> faulty_mask;
  Grid<bool> fb_mask;
  Grid<bool> mcc1_mask;
  Grid<bool> mcc2_mask;
  info::SafetyGrid fb_safety;
  info::SafetyGrid mcc1_safety;
  info::SafetyGrid mcc2_safety;

  Derived(const Mesh2D& mesh, const fault::FaultSet& faults)
      : blocks(fault::build_faulty_blocks(mesh, faults)),
        mcc(fault::build_mcc_model(mesh, faults)),
        boundary(mesh, blocks),
        faulty_mask(faults.mask()),
        fb_mask(info::obstacle_mask(mesh, blocks)),
        mcc1_mask(info::obstacle_mask(mesh, mcc.type_one)),
        mcc2_mask(info::obstacle_mask(mesh, mcc.type_two)) {
    info::compute_safety_levels(mesh, fb_mask, fb_safety);
    info::compute_safety_levels(mesh, mcc1_mask, mcc1_safety);
    info::compute_safety_levels(mesh, mcc2_mask, mcc2_safety);
  }
};

FaultTolerantMesh::FaultTolerantMesh(Dist width, Dist height)
    : mesh_(width, height), faults_(mesh_) {}

void FaultTolerantMesh::inject_fault(Coord c) {
  faults_.add(c);
  derived_.reset();
}

void FaultTolerantMesh::inject_faults(std::span<const Coord> cs) {
  for (const Coord c : cs) faults_.add(c);
  derived_.reset();
}

void FaultTolerantMesh::clear_faults() {
  faults_ = fault::FaultSet(mesh_);
  derived_.reset();
}

const FaultTolerantMesh::Derived& FaultTolerantMesh::derived() const {
  if (!derived_) derived_ = std::make_shared<const Derived>(mesh_, faults_);
  return *derived_;
}

const fault::BlockSet& FaultTolerantMesh::blocks() const { return derived().blocks; }
const fault::MccModel& FaultTolerantMesh::mcc() const { return derived().mcc; }
const info::BoundaryInfoMap& FaultTolerantMesh::boundary() const { return derived().boundary; }

const info::SafetyGrid& FaultTolerantMesh::safety(FaultModel model, Quadrant q) const {
  const Derived& d = derived();
  if (model == FaultModel::FaultyBlock) return d.fb_safety;
  return fault::mcc_kind_for(q) == fault::MccKind::TypeOne ? d.mcc1_safety : d.mcc2_safety;
}

const Grid<bool>& FaultTolerantMesh::obstacles(FaultModel model, Quadrant q) const {
  const Derived& d = derived();
  if (model == FaultModel::FaultyBlock) return d.fb_mask;
  return fault::mcc_kind_for(q) == fault::MccKind::TypeOne ? d.mcc1_mask : d.mcc2_mask;
}

cond::RoutingProblem FaultTolerantMesh::problem(Coord s, Coord d, FaultModel model) const {
  const Quadrant q = quadrant_of(s, d);
  return {&mesh_, &obstacles(model, q), &safety(model, q), s, d};
}

route::QueryView FaultTolerantMesh::query_view() const {
  const Derived& der = derived();
  route::QueryView v;
  v.mesh = &mesh_;
  v.blocks = &der.blocks;
  v.boundary = &der.boundary;
  v.faulty_mask = &der.faulty_mask;
  v.fb_mask = &der.fb_mask;
  v.fb_safety = &der.fb_safety;
  v.mcc1_mask = &der.mcc1_mask;
  v.mcc1_safety = &der.mcc1_safety;
  v.mcc2_mask = &der.mcc2_mask;
  v.mcc2_safety = &der.mcc2_safety;
  return v;
}

const char* to_string(Method m) noexcept {
  switch (m) {
    case Method::None: return "none";
    case Method::BaseSafe: return "safe source (Definition 3)";
    case Method::Ext1Preferred: return "extension 1 (preferred neighbor)";
    case Method::Ext1Spare: return "extension 1 (spare neighbor, sub-minimal)";
    case Method::Ext2Axis: return "extension 2 (axis representative)";
    case Method::Ext3Pivot: return "extension 3 (pivot)";
  }
  return "?";
}

Certificate FaultTolerantMesh::explain(Coord s, Coord d, FaultModel model,
                                       const DecideOptions& opts) const {
  const cond::RoutingProblem p = problem(s, d, model);
  Certificate cert;
  if (cond::source_safe(p)) {
    return Certificate{cond::Decision::Minimal, Method::BaseSafe, s};
  }
  if (opts.use_extension1) {
    Coord via{};
    const cond::Decision dec = cond::extension1(p, &via);
    if (dec == cond::Decision::Minimal) {
      return Certificate{dec, Method::Ext1Preferred, via};
    }
    if (dec == cond::Decision::SubMinimal) {
      cert = Certificate{dec, Method::Ext1Spare, via};  // keep as fallback
    }
  }
  if (opts.use_extension2) {
    Coord via{};
    if (cond::extension2(p, opts.segment_size, &via) == cond::Decision::Minimal) {
      return Certificate{cond::Decision::Minimal, Method::Ext2Axis, via};
    }
  }
  if (!opts.pivots.empty()) {
    Coord via{};
    if (cond::extension3(p, opts.pivots, &via) == cond::Decision::Minimal) {
      return Certificate{cond::Decision::Minimal, Method::Ext3Pivot, via};
    }
  }
  return cert;
}

route::RouteResult FaultTolerantMesh::route_certified(Coord s, Coord d,
                                                      const Certificate& cert,
                                                      route::InfoPolicy policy,
                                                      Rng* rng) const {
  if (cert.method == Method::None) {
    route::RouteResult failed;
    failed.status = route::RouteStatus::Stuck;
    return failed;
  }
  if (cert.method == Method::BaseSafe || cert.via == s) return route(s, d, policy, rng);
  return route_via(s, cert.via, d, policy, rng);
}

cond::Decision FaultTolerantMesh::decide(Coord s, Coord d, FaultModel model,
                                         const DecideOptions& opts) const {
  const cond::RoutingProblem p = problem(s, d, model);
  cond::Decision best = cond::Decision::Unknown;
  if (cond::source_safe(p)) return cond::Decision::Minimal;
  if (opts.use_extension1) {
    const cond::Decision dec = cond::extension1(p);
    if (dec == cond::Decision::Minimal) return dec;
    if (dec == cond::Decision::SubMinimal) best = dec;
  }
  if (opts.use_extension2 &&
      cond::extension2(p, opts.segment_size) == cond::Decision::Minimal) {
    return cond::Decision::Minimal;
  }
  if (!opts.pivots.empty() && cond::extension3(p, opts.pivots) == cond::Decision::Minimal) {
    return cond::Decision::Minimal;
  }
  return best;
}

cond::Decision FaultTolerantMesh::decide_strategy(Coord s, Coord d, FaultModel model,
                                                  cond::StrategyId id,
                                                  std::span<const Coord> pivots,
                                                  const cond::StrategyConfig& cfg) const {
  return cond::run_strategy(problem(s, d, model), id, cfg, pivots);
}

cond::Decision FaultTolerantMesh::decide_strategy(Coord s, Coord d, FaultModel model,
                                                  cond::StrategyId id,
                                                  const DecideOptions& opts) const {
  const cond::StrategyConfig cfg{.segment_size = opts.segment_size};
  return cond::run_strategy(problem(s, d, model), id, cfg, opts.pivots);
}

route::RouteResult FaultTolerantMesh::route(Coord s, Coord d, route::InfoPolicy policy,
                                            Rng* rng) const {
  const Derived& der = derived();
  const route::MinimalRouter router(mesh_, der.blocks, &der.boundary, policy);
  return router.route(s, d, rng);
}

route::RouteResult FaultTolerantMesh::route_via(Coord s, Coord via, Coord d,
                                                route::InfoPolicy policy, Rng* rng) const {
  const Derived& der = derived();
  const route::MinimalRouter router(mesh_, der.blocks, &der.boundary, policy);
  return router.route_via(s, via, d, rng);
}

bool FaultTolerantMesh::minimal_path_exists(Coord s, Coord d) const {
  return cond::monotone_path_exists(mesh_, derived().faulty_mask, s, d);
}

Grid<bool> FaultTolerantMesh::minimal_reachability(Coord s) const {
  return cond::monotone_reachability(mesh_, derived().faulty_mask, s);
}

}  // namespace meshroute
