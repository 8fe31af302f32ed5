#include "serve/snapshot.hpp"

#include "dynamic/dynamic_state.hpp"
#include "info/safety_level.hpp"

namespace meshroute::serve {

namespace {

fault::BlockSet build_blocks_scratch(const Mesh2D& mesh, const fault::FaultSet& faults,
                                     fault::BlockScratch& scratch) {
  fault::BlockSet out;
  fault::build_faulty_blocks(mesh, faults, out, scratch);
  return out;
}

}  // namespace

RoutingSnapshot::RoutingSnapshot(const Mesh2D& mesh, const fault::FaultSet& faults,
                                 std::uint64_t epoch, SnapshotScratch& scratch)
    : epoch_(epoch),
      mesh_(mesh),
      faults_(faults),
      blocks_(build_blocks_scratch(mesh_, faults_, scratch.block)),
      boundary_(std::make_shared<const info::BoundaryInfoMap>(mesh_, blocks_)) {
  // Each builder leaves its final obstacle plane in its scratch (the union of
  // the block rects; every MCC node of one kind); the safety grids adopt them
  // directly. Only those planes are kept, not the MCC components.
  info::compute_safety_levels(mesh_, scratch.block.bad_plane, fb_safety_);
  fault::MccSet labels;
  fault::build_mcc(mesh_, faults_, fault::MccKind::TypeOne, labels, scratch.mcc1);
  info::compute_safety_levels(mesh_, scratch.mcc1.labeled_plane, mcc1_safety_);
  fault::build_mcc(mesh_, faults_, fault::MccKind::TypeTwo, labels, scratch.mcc2);
  info::compute_safety_levels(mesh_, scratch.mcc2.labeled_plane, mcc2_safety_);
}

// The block list, its boundary runs and the MCC fixpoints arrive
// pre-maintained per injection; adopting them is a copy of the list, the
// block-node plane and each safety grid's two bit planes, and a share of the
// immutable boundary map.
RoutingSnapshot::RoutingSnapshot(const dynamic::DynamicMeshState& state, std::uint64_t epoch,
                                 SnapshotScratch& /*scratch*/)
    : epoch_(epoch),
      mesh_(state.mesh()),
      faults_(state.faults()),
      blocks_(state.blocks(), state.safety().row_plane()),
      boundary_(state.boundary_ptr()),
      fb_safety_(state.safety()),
      mcc1_safety_(state.mcc_safety(fault::MccKind::TypeOne)),
      mcc2_safety_(state.mcc_safety(fault::MccKind::TypeTwo)) {}

route::QueryView RoutingSnapshot::query_view() const noexcept {
  route::QueryView v;
  v.mesh = &mesh_;
  v.blocks = &blocks_;
  v.boundary = boundary_.get();
  v.faulty_mask = &faults_.mask();
  v.fb_safety = &fb_safety_;
  v.mcc1_safety = &mcc1_safety_;
  v.mcc2_safety = &mcc2_safety_;
  return v;
}

bool RoutingSnapshot::truly_bad(Coord c, std::int64_t /*time*/) const {
  return blocks_.is_block_node(c);
}

void RoutingSnapshot::believed_blocks(Coord at, std::int64_t /*time*/,
                                      std::vector<Rect>& out) const {
  boundary_->known_rects(at, out);
}

bool RoutingSnapshot::is_stale(Coord /*at*/, std::int64_t /*time*/) const { return false; }

}  // namespace meshroute::serve
