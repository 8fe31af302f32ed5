// Wang's minimal-connected-component (MCC) fault model (Definition 2):
// a refinement of faulty blocks that only disables nodes whose use provably
// makes a minimal route impossible for the routing quadrant at hand.
//
// Type-one MCCs serve quadrant I/III routing:
//   useless     := fault-free node whose North and East neighbors are both
//                  faulty-or-useless (entering it forces a W/S move);
//   can't-reach := fault-free node whose South and West neighbors are both
//                  faulty-or-can't-reach (entering it requires a W/S move).
// Type-two MCCs (quadrant II/IV) swap East and West in the two rules.
// Connected faulty/useless/can't-reach nodes form an MCC.
//
// Mesh edges: a missing (off-mesh) neighbor never triggers a label — the
// conservative reading of Definition 2 (labels only provably-unusable nodes;
// soundness of every condition built on top is unaffected).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/grid.hpp"
#include "common/rect.hpp"
#include "common/simd.hpp"
#include "fault/bitplane_cc.hpp"
#include "fault/fault_set.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::fault {

/// Which pair of quadrants an MCC labeling serves.
enum class MccKind : std::uint8_t { TypeOne = 0, TypeTwo = 1 };

/// The labeling that applies to routes headed into quadrant `q`.
[[nodiscard]] constexpr MccKind mcc_kind_for(Quadrant q) noexcept {
  return (q == Quadrant::I || q == Quadrant::III) ? MccKind::TypeOne : MccKind::TypeTwo;
}

/// Per-node status bits; a node may be simultaneously useless and can't-reach.
namespace mcc_status {
inline constexpr std::uint8_t kFaultFree = 0;
inline constexpr std::uint8_t kFaulty = 1;
inline constexpr std::uint8_t kUseless = 2;
inline constexpr std::uint8_t kCantReach = 4;
}  // namespace mcc_status

/// The two neighbor directions whose nodes trigger label `flag`
/// (mcc_status::kUseless or kCantReach) under `kind`.
[[nodiscard]] std::array<Direction, 2> mcc_trigger_dirs(MccKind kind, std::uint8_t flag) noexcept;

/// Definition 2's worklist rule for one label, run to its fixed point. A node
/// gains the label when it is not yet a `member` (faulty or labeled) and both
/// its `dirs` neighbors exist and are members. Only the dependents of
/// `seeds` (their neighbors opposite `dirs`) are examined first: the rule is
/// monotone, so seeding at every node whose membership grew reaches the
/// global fixed point. `label(c)` must make `member(c)` true. The worklist is
/// a vector stack (the fixed point is order-independent).
template <class Member, class Label>
void propagate_mcc_label(const Mesh2D& mesh, std::array<Direction, 2> dirs,
                         std::span<const Coord> seeds, std::vector<Coord>& work,
                         const Member& member, const Label& label) {
  const auto qualifies = [&](Coord c) {
    if (member(c)) return false;
    for (const Direction d : dirs) {
      const Coord v = neighbor(c, d);
      if (!mesh.in_bounds(v) || !member(v)) return false;
    }
    return true;
  };
  // Newly labeled c can only enable nodes that look at c through a trigger
  // direction, i.e. c's neighbors in the opposite directions.
  const auto push_dependents = [&](Coord c) {
    for (const Direction d : dirs) {
      const Coord v = neighbor(c, opposite(d));
      if (mesh.in_bounds(v) && qualifies(v)) work.push_back(v);
    }
  };
  work.clear();
  for (const Coord s : seeds) push_dependents(s);
  while (!work.empty()) {
    const Coord c = work.back();
    work.pop_back();
    if (!qualifies(c)) continue;
    label(c);
    push_dependents(c);
  }
}

/// One connected MCC region (rectilinear-monotone polygon).
struct MccComponent {
  Rect bbox;                       ///< bounding box (not the exact shape)
  std::int32_t faulty_count = 0;
  std::int32_t useless_count = 0;
  std::int32_t cant_reach_count = 0;
  std::int32_t size = 0;           ///< total member nodes

  /// Healthy nodes the model sacrifices in this component.
  [[nodiscard]] std::int32_t disabled_count() const noexcept { return size - faulty_count; }

  friend bool operator==(const MccComponent&, const MccComponent&) = default;
};

/// The MCC labeling of a mesh for one kind: its components plus three bit
/// planes (every labeled node, the useless ones, the can't-reach ones).
class MccSet {
 public:
  /// Empty labeling over an empty mesh; assign() before use.
  MccSet() = default;

  /// Rebuild in place from caller-owned inputs; copy-assignments reuse the
  /// existing plane/vector capacity (zero allocations in steady state).
  /// `labeled` must be the faults ORed with `useless` and `cant_reach`, and
  /// the two labels must be disjoint from the faults.
  void assign(MccKind kind, const core::BitGrid& labeled, const core::BitGrid& useless,
              const core::BitGrid& cant_reach, const std::vector<MccComponent>& components) {
    kind_ = kind;
    labeled_ = labeled;
    useless_ = useless;
    cant_reach_ = cant_reach;
    components_ = components;
  }

  [[nodiscard]] MccKind kind() const noexcept { return kind_; }

  /// Bitmask of mcc_status flags at `c`. A labeled node that is neither
  /// useless nor can't-reach is faulty (the labels never hold a fault).
  [[nodiscard]] std::uint8_t status(Coord c) const noexcept {
    if (!labeled_.test(c)) return mcc_status::kFaultFree;
    const auto flags = static_cast<std::uint8_t>((useless_.test(c) ? mcc_status::kUseless : 0) |
                                                 (cant_reach_.test(c) ? mcc_status::kCantReach : 0));
    return flags != 0 ? flags : mcc_status::kFaulty;
  }

  /// True when `c` belongs to an MCC (faulty, useless, or can't-reach).
  [[nodiscard]] bool is_mcc_node(Coord c) const noexcept { return labeled_.test(c); }

  /// Every MCC node, row-major.
  [[nodiscard]] const core::BitGrid& plane() const noexcept { return labeled_; }

  [[nodiscard]] const std::vector<MccComponent>& components() const noexcept {
    return components_;
  }

  /// Total healthy nodes disabled across all components.
  [[nodiscard]] std::int64_t total_disabled() const noexcept;

  friend bool operator==(const MccSet&, const MccSet&) = default;

 private:
  MccKind kind_ = MccKind::TypeOne;
  core::BitGrid labeled_;
  core::BitGrid useless_;
  core::BitGrid cant_reach_;
  std::vector<MccComponent> components_;
};

/// Reusable buffers for the in-place builders (one per worker thread).
struct MccScratch {
  // Scalar-path buffers (the oracle's byte grids, packed into the planes
  // below at the end).
  Grid<std::uint8_t> status;
  Grid<std::int32_t> comp_id;
  std::vector<MccComponent> components;
  std::vector<Coord> work;
  // Bit-plane-path buffers. After build_mcc_bitplane returns,
  // `labeled_plane` holds the obstacle plane (every faulty/useless/
  // can't-reach node) — make_trial feeds it straight into the safety sweeps.
  core::BitGrid useless_plane;
  core::BitGrid cant_reach_plane;
  core::BitGrid labeled_plane;
  core::simd::SweepScratch simd;
  detail::RunCC cc;
};

/// Run Definition 2 to its fixed point for one labeling kind.
[[nodiscard]] MccSet build_mcc(const Mesh2D& mesh, const FaultSet& faults, MccKind kind);

/// In-place overload: rebuilds `out` reusing its storage and `scratch`'s
/// buffers. The allocating overload delegates here, so the two produce
/// identical MccSets. Runs the bit-plane kernel.
void build_mcc(const Mesh2D& mesh, const FaultSet& faults, MccKind kind, MccSet& out,
               MccScratch& scratch);

/// The scalar reference implementation (worklist label propagation + DFS
/// components) — the oracle the bit-plane kernel is tested against.
void build_mcc_scalar(const Mesh2D& mesh, const FaultSet& faults, MccKind kind, MccSet& out,
                      MccScratch& scratch);

/// The word-parallel implementation: both labels are single directed row
/// sweeps (the monotone closure's dependencies point strictly north+east or
/// south+west, so one occluded fill per row reaches the fixed point), then
/// run-union components. Identical output to the scalar builder.
void build_mcc_bitplane(const Mesh2D& mesh, const FaultSet& faults, MccKind kind, MccSet& out,
                        MccScratch& scratch);

/// Both labelings; every node carries the paper's dual status
/// (status1 for quadrant I/III, status2 for quadrant II/IV).
struct MccModel {
  MccSet type_one;
  MccSet type_two;

  [[nodiscard]] const MccSet& for_quadrant(Quadrant q) const noexcept {
    return mcc_kind_for(q) == MccKind::TypeOne ? type_one : type_two;
  }
};

[[nodiscard]] MccModel build_mcc_model(const Mesh2D& mesh, const FaultSet& faults);

}  // namespace meshroute::fault
