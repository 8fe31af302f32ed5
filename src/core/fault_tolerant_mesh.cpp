#include "core/fault_tolerant_mesh.hpp"

#include "common/grid.hpp"
#include "info/safety_level.hpp"

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

}  // namespace meshroute
