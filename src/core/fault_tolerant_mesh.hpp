// The library facade: one object that owns a mesh, its fault set and a
// serve::RoutingSnapshot of it (both fault models and all derived
// limited-global information), rebuilt lazily after fault injection. The
// MCC components, which no query reads, are built from the fault set on
// first use of mcc() and cached beside the snapshot. It owns state only;
// every read — decisions, routing, ground truth — goes through its
// route::QueryView (route/query.hpp).
//
//   FaultTolerantMesh ftm(200, 200);
//   ftm.inject_fault({57, 80});
//   const route::QueryView view = ftm.query_view();
//   const auto cert = cond::explain_strategy(view.problem(src, dst, FaultModel::FaultyBlock),
//                                            cond::StrategyId::S1, {}, {});
//   const auto walk = route::route_via(view, src, cert.via, dst);
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>

#include "common/coord.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/boundary.hpp"
#include "mesh/mesh2d.hpp"
#include "route/query.hpp"

namespace meshroute::serve {
class RoutingSnapshot;
}  // namespace meshroute::serve

namespace meshroute {

/// Which fault model a query runs under. Alias of the query surface's model
/// enum (route/query.hpp), kept under the historical name.
using FaultModel = route::QueryModel;  // to_string comes with it via ADL

/// Owns a mesh, its fault set and everything derived from it.
class FaultTolerantMesh {
 public:
  FaultTolerantMesh(Dist width, Dist height);

  /// Mark a node faulty. Derived state (blocks, MCCs, safety levels,
  /// boundary information) is invalidated and rebuilt on next access.
  void inject_fault(Coord c);
  void inject_faults(std::span<const Coord> cs);

  /// Remove every fault, returning the mesh to its fault-free state.
  /// Derived state is invalidated exactly like inject_fault().
  void clear_faults();

  [[nodiscard]] const Mesh2D& mesh() const noexcept { return mesh_; }
  [[nodiscard]] const fault::FaultSet& faults() const noexcept { return faults_; }

  [[nodiscard]] const fault::BlockSet& blocks() const;
  [[nodiscard]] const fault::MccSet& mcc(fault::MccKind kind) const;
  [[nodiscard]] const info::BoundaryInfoMap& boundary() const;

  /// The read-side bundle over this mesh's current derived state. It
  /// borrows the lazily-built state: it stays valid until the next
  /// inject_fault(s) / clear_faults().
  [[nodiscard]] route::QueryView query_view() const;

 private:
  /// Drop every derived structure; each is rebuilt on next access.
  void invalidate();
  [[nodiscard]] const serve::RoutingSnapshot& derived() const;

  Mesh2D mesh_;
  fault::FaultSet faults_;
  mutable std::shared_ptr<const serve::RoutingSnapshot> derived_;
  mutable std::array<std::optional<fault::MccSet>, 2> mcc_;  ///< by fault::MccKind
};

}  // namespace meshroute
