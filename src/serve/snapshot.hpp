// RoutingSnapshot: one immutable, epoch-stamped view of the whole fault
// world — faulty blocks (the rect list and one block-node bit plane),
// boundary runs, three safety grids (faulty blocks and both MCC labelings;
// each grid is also its fault model's obstacle set), and the fault set with
// its ground-truth mask — built once and then shared by any number of reader
// threads with no synchronization at all. Nothing in it is wider than a bit
// per node except the fault set's mask, and it keeps no MCC components: the
// facade builds those on demand (core/fault_tolerant_mesh.hpp). This is the unit
// the routing-as-a-service layer publishes: queries are pure functions of a
// snapshot, so millions of decide/route calls can run against one while
// fault churn rebuilds the next off to the side (store.hpp).
//
// Two construction paths, identical results (tests/test_serve.cpp asserts
// the equivalence):
//   * from scratch — the PR-5 bit-plane builders (build_faulty_blocks /
//     build_mcc word-parallel kernels) against a FaultSet, via the same
//     scratch-buffer idiom as experiment::TrialWorkspace. Producers: the
//     builder's watchdog rebuild and core::FaultTolerantMesh, whose lazily
//     derived state is one such snapshot at epoch 0;
//   * from the incremental maintainer — SnapshotBuilder (builder.hpp) feeds
//     dynamic::DynamicMeshState's per-injection-maintained block list (sorted
//     and counted), boundary runs and three safety grids straight in, so no
//     fault-model fixpoint, sort or boundary walk runs: the build copies the
//     list, the block-node plane, the safety grids' planes and the fault set,
//     and shares the state's boundary map, which is immutable (an injection
//     that grows a block makes a new one).
//
// RoutingSnapshot implements route::FaultView (the frozen-world reading:
// truth = its block set, belief = its boundary deposits, never stale), so
// the degradation ladder walks a snapshot directly, and exposes a
// route::QueryView so every entry point of the consolidated query API
// (route/query.hpp) runs against it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/coord.hpp"
#include "common/rect.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/boundary.hpp"
#include "info/safety_level.hpp"
#include "mesh/mesh2d.hpp"
#include "route/ladder.hpp"
#include "route/query.hpp"

namespace meshroute::dynamic {
class DynamicMeshState;
}  // namespace meshroute::dynamic

namespace meshroute::serve {

/// Reusable build buffers (one per builder/thread): the fault-model scratch
/// planes the bit-plane kernels sweep. Snapshots never reference scratch
/// memory — everything a snapshot holds it owns, or co-owns immutably (the
/// boundary map of a delta-fed snapshot).
struct SnapshotScratch {
  fault::BlockScratch block;
  fault::MccScratch mcc1;
  fault::MccScratch mcc2;
};

class RoutingSnapshot final : public route::FaultView {
 public:
  /// From-scratch build against a fault set (bit-plane kernels throughout).
  RoutingSnapshot(const Mesh2D& mesh, const fault::FaultSet& faults, std::uint64_t epoch,
                  SnapshotScratch& scratch);

  /// Delta-fed build: adopts the incrementally-maintained faulty blocks
  /// and three safety grids of `state` by copy and shares its immutable
  /// boundary map (nothing is re-run or re-walked, and `scratch` is not
  /// used).
  RoutingSnapshot(const dynamic::DynamicMeshState& state, std::uint64_t epoch,
                  SnapshotScratch& scratch);

  RoutingSnapshot(const RoutingSnapshot&) = delete;
  RoutingSnapshot& operator=(const RoutingSnapshot&) = delete;

  /// Monotone publication stamp: epoch 0 is the initial world, +1 per
  /// published rebuild.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  [[nodiscard]] const Mesh2D& mesh() const noexcept { return mesh_; }
  [[nodiscard]] const fault::FaultSet& faults() const noexcept { return faults_; }
  [[nodiscard]] const fault::BlockSet& blocks() const noexcept { return blocks_; }
  [[nodiscard]] const info::BoundaryInfoMap& boundary() const noexcept { return *boundary_; }

  /// The consolidated query surface over this snapshot. The view borrows
  /// the snapshot's planes: keep the snapshot alive (it is handed out as
  /// shared_ptr / SnapshotRef precisely for this).
  [[nodiscard]] route::QueryView query_view() const noexcept;

  // route::FaultView — the frozen-world reading; routing a ladder over a
  // snapshot at rung 0 is Wu's protocol on its block world, hop for hop the
  // walk route::route takes over query_view().
  [[nodiscard]] bool truly_bad(Coord c, std::int64_t time) const override;
  void believed_blocks(Coord at, std::int64_t time, std::vector<Rect>& out) const override;
  [[nodiscard]] bool is_stale(Coord at, std::int64_t time) const override;

 private:
  std::uint64_t epoch_;
  Mesh2D mesh_;
  fault::FaultSet faults_;
  fault::BlockSet blocks_;
  /// Immutable; a delta-fed snapshot shares it with the state it came from.
  std::shared_ptr<const info::BoundaryInfoMap> boundary_;
  info::SafetyGrid fb_safety_;
  info::SafetyGrid mcc1_safety_;
  info::SafetyGrid mcc2_safety_;
};

}  // namespace meshroute::serve
