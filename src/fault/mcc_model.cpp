#include "fault/mcc_model.hpp"

#include <array>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace meshroute::fault {
namespace {

using mcc_status::kCantReach;
using mcc_status::kFaulty;
using mcc_status::kUseless;

/// "No component" in the scalar oracle's component id grid.
constexpr std::int32_t kNoMcc = -1;

/// The tail of the bit-plane builder: assumes scratch's useless/cant-reach
/// planes hold the label fixed points of the faults in `fp`; assembles the
/// labeled plane, the components, and `out`.
void finish_mcc_from_planes(const Mesh2D& mesh, const core::BitGrid& fp, MccKind kind,
                            MccSet& out, MccScratch& scratch) {
  const Dist h = mesh.height();
  const core::BitGrid& up = scratch.useless_plane;
  const core::BitGrid& cp = scratch.cant_reach_plane;
  const std::size_t nw = fp.words_per_row();

  core::BitGrid& labeled = scratch.labeled_plane;
  labeled.resize(mesh.width(), h);
  for (Dist y = 0; y < h; ++y) {
    const std::uint64_t* fr = fp.row(y);
    const std::uint64_t* ur = up.row(y);
    const std::uint64_t* cr = cp.row(y);
    std::uint64_t* lr = labeled.row(y);
    for (std::size_t j = 0; j < nw; ++j) lr[j] = fr[j] | ur[j] | cr[j];
  }

  // Components of the labeled plane; run-union numbering matches the
  // scalar DFS's row-major discovery order.
  scratch.cc.build(labeled);
  std::vector<MccComponent>& components = scratch.components;
  components.clear();
  components.resize(scratch.cc.count);
  for (std::size_t i = 0; i < scratch.cc.count; ++i) {
    components[i].bbox = scratch.cc.box[static_cast<std::size_t>(scratch.cc.order[i])];
  }
  for (const detail::RunCC::Run& run : scratch.cc.runs) {
    MccComponent& comp = components[static_cast<std::size_t>(scratch.cc.final_id_of(run.comp))];
    comp.size += run.x1 - run.x0 + 1;
    comp.faulty_count +=
        static_cast<std::int32_t>(core::row_range_popcount(fp.row(run.y), run.x0, run.x1));
    comp.useless_count +=
        static_cast<std::int32_t>(core::row_range_popcount(up.row(run.y), run.x0, run.x1));
    comp.cant_reach_count +=
        static_cast<std::int32_t>(core::row_range_popcount(cp.row(run.y), run.x0, run.x1));
  }

  out.assign(kind, labeled, up, cp, components);
}

}  // namespace

std::array<Direction, 2> mcc_trigger_dirs(MccKind kind, std::uint8_t flag) noexcept {
  if (flag == kUseless) {
    return kind == MccKind::TypeOne ? std::array{Direction::North, Direction::East}
                                    : std::array{Direction::North, Direction::West};
  }
  // can't-reach uses the opposite corner pair.
  return kind == MccKind::TypeOne ? std::array{Direction::South, Direction::West}
                                  : std::array{Direction::South, Direction::East};
}

std::int64_t MccSet::total_disabled() const noexcept {
  return std::accumulate(components_.begin(), components_.end(), std::int64_t{0},
                         [](std::int64_t acc, const MccComponent& c) {
                           return acc + c.disabled_count();
                         });
}

MccSet build_mcc(const Mesh2D& mesh, const FaultSet& faults, MccKind kind) {
  MccSet out;
  MccScratch scratch;
  build_mcc(mesh, faults, kind, out, scratch);
  return out;
}

void build_mcc(const Mesh2D& mesh, const FaultSet& faults, MccKind kind, MccSet& out,
               MccScratch& scratch) {
  build_mcc_bitplane(mesh, faults, kind, out, scratch);
}

void build_mcc_scalar(const Mesh2D& mesh, const FaultSet& faults, MccKind kind, MccSet& out,
                      MccScratch& scratch) {
  Grid<std::uint8_t>& status = scratch.status;
  if (status.width() != mesh.width() || status.height() != mesh.height()) {
    status = Grid<std::uint8_t>(mesh.width(), mesh.height(), mcc_status::kFaultFree);
  } else {
    status.fill(mcc_status::kFaultFree);
  }
  for (const Coord f : faults.faults()) status[f] = kFaulty;

  // The two labels reference disjoint predicates ("faulty or useless" vs
  // "faulty or can't-reach"), so their fixed points are independent. An
  // initially-qualifying node has both trigger neighbors faulty, so seeding
  // from the faults finds them all without an O(area) scan.
  for (const std::uint8_t flag : {kUseless, kCantReach}) {
    const auto member = [&](Coord c) { return (status[c] & (kFaulty | flag)) != 0; };
    const auto label = [&](Coord c) { status[c] |= flag; };
    propagate_mcc_label(mesh, mcc_trigger_dirs(kind, flag), faults.faults(), scratch.work,
                        member, label);
  }

  // Connected components of labeled nodes (4-adjacency), discovered in
  // row-major order of their first node (fixes component ids). The frontier
  // is a vector stack; per-component tallies are order-independent.
  Grid<std::int32_t>& comp_id = scratch.comp_id;
  if (comp_id.width() != mesh.width() || comp_id.height() != mesh.height()) {
    comp_id = Grid<std::int32_t>(mesh.width(), mesh.height(), kNoMcc);
  } else {
    comp_id.fill(kNoMcc);
  }
  std::vector<MccComponent>& components = scratch.components;
  components.clear();
  std::vector<Coord>& frontier = scratch.work;
  mesh.for_each_node([&](Coord start) {
    if (status[start] == 0 || comp_id[start] != kNoMcc) return;
    const auto id = static_cast<std::int32_t>(components.size());
    MccComponent comp;
    comp.bbox = rect_at(start);
    frontier.clear();
    frontier.push_back(start);
    comp_id[start] = id;
    while (!frontier.empty()) {
      const Coord c = frontier.back();
      frontier.pop_back();
      comp.bbox = comp.bbox.united(c);
      ++comp.size;
      if (status[c] & kFaulty) ++comp.faulty_count;
      if (status[c] & kUseless) ++comp.useless_count;
      if (status[c] & kCantReach) ++comp.cant_reach_count;
      for (const Direction d : kAllDirections) {
        const Coord v = neighbor(c, d);
        if (mesh.in_bounds(v) && status[v] != 0 && comp_id[v] == kNoMcc) {
          comp_id[v] = id;
          frontier.push_back(v);
        }
      }
    }
    components.push_back(comp);
  });

  // Pack the byte grid into the planes the bit-plane builder hands `out`.
  for (core::BitGrid* p :
       {&scratch.useless_plane, &scratch.cant_reach_plane, &scratch.labeled_plane}) {
    p->resize(mesh.width(), mesh.height());
  }
  for (Dist y = 0; y < mesh.height(); ++y) {
    for (Dist x = 0; x < mesh.width(); ++x) {
      const std::uint8_t s = status[{x, y}];
      if (s == 0) continue;
      scratch.labeled_plane.set({x, y});
      if (s & kUseless) scratch.useless_plane.set({x, y});
      if (s & kCantReach) scratch.cant_reach_plane.set({x, y});
    }
  }
  out.assign(kind, scratch.labeled_plane, scratch.useless_plane, scratch.cant_reach_plane,
             components);
}

void build_mcc_bitplane(const Mesh2D& mesh, const FaultSet& faults, MccKind kind, MccSet& out,
                        MccScratch& scratch) {
  if (faults.width() != mesh.width() || faults.height() != mesh.height()) {
    throw std::invalid_argument("build_mcc: fault set and mesh differ in size");
  }
  const core::BitGrid& fp = faults.mask();
  core::BitGrid& up = scratch.useless_plane;
  core::BitGrid& cp = scratch.cant_reach_plane;
  up.resize(mesh.width(), mesh.height());
  cp.resize(mesh.width(), mesh.height());

  // Both labels are directed monotone closures: "useless" depends only on
  // the row above and on the east (TypeOne) within-row neighbor, so one
  // sweep of descending rows with a west-directed fill per row reaches the
  // fixed point; "can't-reach" mirrors it (row below, fill the other way).
  // TypeTwo swaps the within-row direction. An off-mesh neighbor never
  // triggers, which the row/edge masking gives for free: the top row gets no
  // useless labels and a fill never crosses the mesh edge. The sweeps live
  // in the row-kernel layer (common/simd.hpp).
  const bool type_one = kind == MccKind::TypeOne;
  core::simd::mcc_sweeps(fp, up, cp, type_one, scratch.simd);
  finish_mcc_from_planes(mesh, fp, kind, out, scratch);
}

MccModel build_mcc_model(const Mesh2D& mesh, const FaultSet& faults) {
  return MccModel{build_mcc(mesh, faults, MccKind::TypeOne),
                  build_mcc(mesh, faults, MccKind::TypeTwo)};
}

}  // namespace meshroute::fault
