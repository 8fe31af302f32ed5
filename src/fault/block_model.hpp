// The faulty-block fault model (Definition 1 of the paper):
//
//   "A non-faulty node is initially labeled enabled; its status is changed to
//    disabled if there are two or more disabled or faulty neighbors in
//    different dimensions. Connected disabled and faulty nodes form a faulty
//    block."
//
// The labeling fixed point groups all faults into connected regions; for
// uniformly scattered faults those regions are exactly rectangles. For
// robustness against degenerate inputs the builder additionally applies a
// rectangular closure (bounding box of each component, re-labeling and
// merging overlapping boxes until stable), which is a no-op whenever the
// classic rectangle theorem holds — a property the test-suite asserts.
#pragma once

#include <cstdint>
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

/// Per-node status under the faulty-block model.
enum class NodeLabel : std::uint8_t { Enabled = 0, Disabled = 1, Faulty = 2 };

/// One disjoint rectangular faulty block [xmin:xmax, ymin:ymax].
struct FaultyBlock {
  Rect rect;
  std::int32_t faulty_count = 0;    ///< truly faulty nodes inside
  std::int32_t disabled_count = 0;  ///< healthy-but-disabled nodes inside
};

/// Identifier of "no block" in the id grid.
inline constexpr std::int32_t kNoBlock = -1;

/// The set of disjoint faulty blocks of a mesh plus an O(1) node -> block map.
class BlockSet {
 public:
  /// Empty set over an empty mesh; assign() before use.
  BlockSet() = default;

  BlockSet(const Mesh2D& mesh, std::vector<FaultyBlock> blocks, Grid<NodeLabel> labels);

  /// Rebuild in place from caller-owned inputs. Copy-assignments reuse the
  /// existing grid/vector capacity, so steady-state rebuilds allocate
  /// nothing; semantics are identical to constructing a fresh BlockSet.
  void assign(const Mesh2D& mesh, const std::vector<FaultyBlock>& blocks,
              const Grid<NodeLabel>& labels);

  [[nodiscard]] const std::vector<FaultyBlock>& blocks() const noexcept { return blocks_; }
  [[nodiscard]] std::size_t block_count() const noexcept { return blocks_.size(); }

  /// Block id at `c`, or kNoBlock.
  [[nodiscard]] std::int32_t block_id(Coord c) const noexcept { return id_[c]; }

  /// True when `c` lies inside some faulty block (faulty or disabled node).
  [[nodiscard]] bool is_block_node(Coord c) const noexcept { return id_[c] != kNoBlock; }

  /// Label of `c` under Definition 1.
  [[nodiscard]] NodeLabel label(Coord c) const noexcept { return labels_[c]; }

  [[nodiscard]] const Grid<NodeLabel>& labels() const noexcept { return labels_; }

  /// Total healthy nodes sacrificed to blocks.
  [[nodiscard]] std::int64_t total_disabled() const noexcept;
  [[nodiscard]] std::int64_t total_faulty() const noexcept;

 private:
  /// Repaint the id grid from blocks_ (shared by ctor and assign()).
  void paint_ids(const Mesh2D& mesh);

  std::vector<FaultyBlock> blocks_;
  Grid<NodeLabel> labels_;
  Grid<std::int32_t> id_;
};

/// Reusable buffers for the in-place builders (one per worker thread).
struct BlockScratch {
  // Scalar-path buffers.
  Grid<bool> bad;
  Grid<bool> seen;
  Grid<NodeLabel> labels;
  std::vector<Coord> work;
  std::vector<Coord> frontier;
  std::vector<Coord> grown;
  std::vector<Rect> boxes;
  std::vector<FaultyBlock> blocks;
  // Bit-plane-path buffers. After build_faulty_blocks_bitplane returns,
  // `bad_plane` holds the final obstacle plane (the union of the block
  // rects) — make_trial feeds it straight into the safety sweeps.
  core::BitGrid bad_plane;
  core::BitGrid fault_plane;
  core::simd::SweepScratch simd;
  detail::RunCC cc;
};

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
/// rows, run-union components, word-filled rectangular closure. Produces a
/// BlockSet identical (blocks, labels, ids) to the scalar builder.
void build_faulty_blocks_bitplane(const Mesh2D& mesh, const FaultSet& faults, BlockSet& out,
                                  BlockScratch& scratch);

/// Just the disable-labeling fixed point (no rectangular closure); exposed
/// separately so tests can assert the classic "components are rectangles"
/// theorem and measure disabled-node counts before closure.
[[nodiscard]] Grid<NodeLabel> disable_labeling_fixed_point(const Mesh2D& mesh,
                                                           const FaultSet& faults);

}  // namespace meshroute::fault
