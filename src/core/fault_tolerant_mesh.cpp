#include "core/fault_tolerant_mesh.hpp"

#include "serve/snapshot.hpp"

namespace meshroute {

FaultTolerantMesh::FaultTolerantMesh(Dist width, Dist height)
    : mesh_(width, height), faults_(mesh_) {}

void FaultTolerantMesh::inject_fault(Coord c) {
  faults_.add(c);
  invalidate();
}

void FaultTolerantMesh::inject_faults(std::span<const Coord> cs) {
  // Reset first: a throwing add() leaves the faults before it in place.
  invalidate();
  for (const Coord c : cs) faults_.add(c);
}

void FaultTolerantMesh::clear_faults() {
  faults_ = fault::FaultSet(mesh_);
  invalidate();
}

void FaultTolerantMesh::invalidate() {
  derived_.reset();
  for (std::optional<fault::MccSet>& m : mcc_) m.reset();
}

const serve::RoutingSnapshot& FaultTolerantMesh::derived() const {
  if (!derived_) {
    serve::SnapshotScratch scratch;
    derived_ =
        std::make_shared<const serve::RoutingSnapshot>(mesh_, faults_, /*epoch=*/0, scratch);
  }
  return *derived_;
}

const fault::BlockSet& FaultTolerantMesh::blocks() const { return derived().blocks(); }
const fault::MccSet& FaultTolerantMesh::mcc(fault::MccKind kind) const {
  std::optional<fault::MccSet>& m = mcc_[static_cast<std::size_t>(kind)];
  if (!m) m = fault::build_mcc(mesh_, faults_, kind);
  return *m;
}
const info::BoundaryInfoMap& FaultTolerantMesh::boundary() const { return derived().boundary(); }
route::QueryView FaultTolerantMesh::query_view() const { return derived().query_view(); }

}  // namespace meshroute
