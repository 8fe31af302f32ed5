// Faulty-block-information distribution (Section 2, Figures 3 and 6).
//
// Each block's corner coordinates are deposited on:
//   * its perimeter ring (the nodes adjacent to the block — they can sense
//     the block directly), and
//   * the four boundary lines L1..L4 extending outward from the SW and NE
//     corners (and, for full four-quadrant generality, from the SE and NW
//     corners as well — the paper describes the quadrant-I subset).
// When a boundary line runs into another block it turns and joins the
// corresponding line of that block ("turn-and-join", Figure 3 (b)); the walk
// below realizes that rule by sliding along the encountered block's adjacent
// line until the primary direction clears, which reproduces the staircase
// trails of the paper.
//
// Routing then needs *only* the block information stored at the node a packet
// currently occupies (see route/router.hpp).
//
// Layout: one flat CSR table. Node i (row-major, as Grid::index) owns
// ids_[offsets_[i] .. offsets_[i+1]); `offsets_` has area+1 entries and `ids_`
// holds every deposit back to back, so the map is two allocations, however
// many nodes it covers. The constructor paints the block rects into a
// row-major and a column-major obstacle bit plane and walks each trail a
// clear run at a time: countr_zero/countl_zero on the plane's words find
// where the run meets a block (or the mesh edge), the run's nodes are
// deposited in one tight loop, and the one slide step (turn-and-join) is
// tested against the same plane. The rings and trails are walked twice —
// once to count each node's unique deposits, once to fill them.
//
// Order contract: each node's list is unique and in ascending block id
// order (blocks are walked in id order and a block's deposits are
// contiguous). Believed-block sets, routes and serve replies depend on it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/coord.hpp"
#include "fault/block_model.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::info {

/// Per-node store of which blocks are known there (ids into BlockSet).
class BoundaryInfoMap {
 public:
  /// Build the full (all-quadrant) distribution for `blocks`.
  BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks);

  /// Ids of blocks whose information is stored at `c` (unique, ascending).
  [[nodiscard]] std::span<const std::int32_t> known_blocks(Coord c) const noexcept {
    const std::size_t i = index(c);
    return {ids_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  [[nodiscard]] bool knows(Coord c, std::int32_t block) const noexcept;

  /// Total (node, block) pairs deposited — the memory cost of the model.
  [[nodiscard]] std::size_t deposited_entries() const noexcept { return ids_.size(); }

  /// Number of nodes storing at least one entry.
  [[nodiscard]] std::size_t covered_nodes() const noexcept { return covered_; }

 private:
  [[nodiscard]] std::size_t index(Coord c) const noexcept {
    return static_cast<std::size_t>(c.y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(c.x);
  }

  Dist width_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::int32_t> ids_;
  std::size_t covered_ = 0;
};

}  // namespace meshroute::info
