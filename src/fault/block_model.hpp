// The faulty-block fault model (Definition 1 of the paper):
//
//   "A non-faulty node is initially labeled enabled; its status is changed to
//    disabled if there are two or more disabled or faulty neighbors in
//    different dimensions. Connected disabled and faulty nodes form a faulty
//    block."
//
// The labeling fixed point groups all faults into connected regions, and
// those regions are disjoint rectangles: a clear node with bad neighbors in
// both dimensions would still be disabled, so no region has a concave corner
// or touches another, even diagonally. The bit-plane builder reads the blocks
// straight off the fixed point and checks that shape as it reads; the scalar
// oracle keeps a rectangular closure (bounding boxes, re-labeling, merging
// overlaps until stable), a no-op that the test-suite asserts.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/grid.hpp"
#include "common/rect.hpp"
#include "common/simd.hpp"
#include "fault/fault_set.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::fault {

/// Per-node status under the faulty-block model (the test-only
/// disable_labeling_fixed_point reports it; a BlockSet holds no labels).
enum class NodeLabel : std::uint8_t { Enabled = 0, Disabled = 1, Faulty = 2 };

/// One disjoint rectangular faulty block [xmin:xmax, ymin:ymax].
struct FaultyBlock {
  Rect rect;
  std::int32_t faulty_count = 0;    ///< truly faulty nodes inside
  std::int32_t disabled_count = 0;  ///< healthy-but-disabled nodes inside

  friend bool operator==(const FaultyBlock&, const FaultyBlock&) = default;
};

/// block_id() of a node outside every block.
inline constexpr std::int32_t kNoBlock = -1;

/// The set of disjoint faulty blocks of a mesh plus a bit plane of their
/// nodes. Whether a block node is faulty or disabled is the fault set's to
/// say (FaultSet::contains); the set keeps nothing per node wider than a bit.
class BlockSet {
 public:
  /// Empty set over an empty mesh; assign() before use.
  BlockSet() = default;

  /// Throws std::invalid_argument when a rect leaves the mesh or two rects
  /// overlap.
  BlockSet(const Mesh2D& mesh, std::vector<FaultyBlock> blocks);

  /// Adopt a block list and its block-node plane as given: nothing is
  /// checked or painted. For a maintainer that already keeps both
  /// (dynamic::DynamicMeshState); `plane` must be the union of the rects.
  BlockSet(std::vector<FaultyBlock> blocks, core::BitGrid plane)
      : blocks_(std::move(blocks)), plane_(std::move(plane)) {}

  /// Rebuild in place; reuses the list's and the plane's capacity, so
  /// steady-state rebuilds allocate nothing. Same checks as the constructor.
  void assign(const Mesh2D& mesh, const std::vector<FaultyBlock>& blocks);

  [[nodiscard]] const std::vector<FaultyBlock>& blocks() const noexcept { return blocks_; }
  [[nodiscard]] std::size_t block_count() const noexcept { return blocks_.size(); }

  /// Index of the block holding `c`, or kNoBlock (a scan of the rects).
  [[nodiscard]] std::int32_t block_id(Coord c) const noexcept;

  /// True when `c` lies inside some faulty block (faulty or disabled node).
  [[nodiscard]] bool is_block_node(Coord c) const noexcept { return plane_.test(c); }

  /// The block nodes, row-major (the union of the rects).
  [[nodiscard]] const core::BitGrid& plane() const noexcept { return plane_; }

  /// Total healthy nodes sacrificed to blocks.
  [[nodiscard]] std::int64_t total_disabled() const noexcept;
  [[nodiscard]] std::int64_t total_faulty() const noexcept;

  friend bool operator==(const BlockSet&, const BlockSet&) = default;

 private:
  /// Check the rects against the mesh and paint them into plane_.
  void paint(const Mesh2D& mesh);

  std::vector<FaultyBlock> blocks_;
  core::BitGrid plane_;
};

/// Reusable buffers for the in-place builders (one per worker thread).
struct BlockScratch {
  // Scalar-path buffers.
  Grid<bool> bad;
  Grid<bool> seen;
  std::vector<Coord> work;
  std::vector<Coord> frontier;
  std::vector<Coord> grown;
  std::vector<Rect> boxes;
  std::vector<FaultyBlock> blocks;
  // Bit-plane-path buffers. After build_faulty_blocks_bitplane returns,
  // `bad_plane` holds the final obstacle plane (the union of the block
  // rects) — make_trial feeds it straight into the safety sweeps.
  core::BitGrid bad_plane;
  core::simd::SweepScratch simd;
};

namespace detail {
/// The bit-plane builder's block reader: one row-major scan of a plane at
/// Definition 1's fixed point into its blocks, in row-major order of their
/// first node, with faulty counts from `faults`. Throws std::logic_error
/// when a component of `bad` is not a rectangle with a clear ring around it
/// (corners included), which the fixed point rules out.
void read_fixpoint_blocks(const core::BitGrid& bad, const core::BitGrid& faults,
                          std::vector<FaultyBlock>& out);
}  // namespace detail

/// Run Definition 1 to its fixed point and package the resulting disjoint
/// rectangular blocks.
[[nodiscard]] BlockSet build_faulty_blocks(const Mesh2D& mesh, const FaultSet& faults);

/// In-place overload: rebuilds `out` reusing its storage and `scratch`'s
/// buffers; zero allocations in steady state. The allocating overload
/// delegates here, so the two produce identical BlockSets. Runs the
/// bit-plane kernel.
void build_faulty_blocks(const Mesh2D& mesh, const FaultSet& faults, BlockSet& out,
                         BlockScratch& scratch);

/// The scalar reference implementation (worklist propagation + DFS
/// components). Kept callable unconditionally: it is the oracle the
/// bit-plane kernel is equivalence-tested against.
void build_faulty_blocks_scalar(const Mesh2D& mesh, const FaultSet& faults, BlockSet& out,
                                BlockScratch& scratch);

/// The word-parallel implementation: Gauss-Seidel disable sweeps over bit
/// rows, then read_fixpoint_blocks. Produces a BlockSet identical to the
/// scalar builder's.
void build_faulty_blocks_bitplane(const Mesh2D& mesh, const FaultSet& faults, BlockSet& out,
                                  BlockScratch& scratch);

/// Just the disable-labeling fixed point (no rectangular closure); exposed
/// separately so tests can assert the classic "components are rectangles"
/// theorem and measure disabled-node counts before closure.
[[nodiscard]] Grid<NodeLabel> disable_labeling_fixed_point(const Mesh2D& mesh,
                                                           const FaultSet& faults);

}  // namespace meshroute::fault
