#include "core/fault_tolerant_mesh.hpp"

#include "serve/snapshot.hpp"

namespace meshroute {

FaultTolerantMesh::FaultTolerantMesh(Dist width, Dist height)
    : mesh_(width, height), faults_(mesh_) {}

void FaultTolerantMesh::inject_fault(Coord c) {
  faults_.add(c);
  derived_.reset();
}

void FaultTolerantMesh::inject_faults(std::span<const Coord> cs) {
  // Reset first: a throwing add() leaves the faults before it in place.
  derived_.reset();
  for (const Coord c : cs) faults_.add(c);
}

void FaultTolerantMesh::clear_faults() {
  faults_ = fault::FaultSet(mesh_);
  derived_.reset();
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
  return derived().mcc(kind);
}
const info::BoundaryInfoMap& FaultTolerantMesh::boundary() const { return derived().boundary(); }
route::QueryView FaultTolerantMesh::query_view() const { return derived().query_view(); }

}  // namespace meshroute
