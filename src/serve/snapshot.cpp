#include "serve/snapshot.hpp"

#include <algorithm>

#include "dynamic/dynamic_state.hpp"
#include "info/safety_level.hpp"

namespace meshroute::serve {

namespace {

/// Package the incremental maintainer's rectangle list as a BlockSet (the
/// form the boundary walks and the ladder consume). Rectangles are sorted
/// (ymin, xmin) so snapshot content is a pure function of the fault set,
/// never of injection order.
fault::BlockSet block_set_from_state(const dynamic::DynamicMeshState& state) {
  std::vector<Rect> rects = state.blocks();
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    return a.ymin != b.ymin ? a.ymin < b.ymin : a.xmin < b.xmin;
  });
  std::vector<fault::FaultyBlock> blocks;
  blocks.reserve(rects.size());
  for (const Rect& r : rects) {
    fault::FaultyBlock b{r, 0, 0};
    for (Dist y = r.ymin; y <= r.ymax; ++y) {
      for (Dist x = r.xmin; x <= r.xmax; ++x) b.faulty_count += state.faults().contains({x, y});
    }
    b.disabled_count = static_cast<std::int32_t>(r.area()) - b.faulty_count;
    blocks.push_back(b);
  }
  return fault::BlockSet(state.mesh(), std::move(blocks));
}

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
      boundary_(mesh_, blocks_) {
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

// The faulty-block and MCC fixpoints arrive pre-maintained in O(|delta|) per
// injection; adopting them is a copy of each safety grid's two bit planes.
RoutingSnapshot::RoutingSnapshot(const dynamic::DynamicMeshState& state, std::uint64_t epoch,
                                 SnapshotScratch& /*scratch*/)
    : epoch_(epoch),
      mesh_(state.mesh()),
      faults_(state.faults()),
      blocks_(block_set_from_state(state)),
      boundary_(mesh_, blocks_),
      fb_safety_(state.safety()),
      mcc1_safety_(state.mcc_safety(fault::MccKind::TypeOne)),
      mcc2_safety_(state.mcc_safety(fault::MccKind::TypeTwo)) {}

route::QueryView RoutingSnapshot::query_view() const noexcept {
  route::QueryView v;
  v.mesh = &mesh_;
  v.blocks = &blocks_;
  v.boundary = &boundary_;
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
  info::believed_rects(boundary_, blocks_, at, out);
}

bool RoutingSnapshot::is_stale(Coord /*at*/, std::int64_t /*time*/) const { return false; }

}  // namespace meshroute::serve
