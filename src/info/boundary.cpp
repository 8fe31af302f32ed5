#include "info/boundary.hpp"

#include <algorithm>

namespace meshroute::info {

namespace {

/// Walk a boundary trail from `start` with primary direction `primary`,
/// sliding in `slide` around blocks (turn-and-join), visiting every node.
template <typename Visit>
void walk_trail(const Mesh2D& mesh, const fault::BlockSet& blocks, Coord start,
                Direction primary, Direction slide, Visit& visit) {
  if (!mesh.in_bounds(start)) return;
  Coord cur = start;
  // The start corner is already deposited by the perimeter ring; walk on.
  while (true) {
    const Coord ahead = neighbor(cur, primary);
    if (!mesh.in_bounds(ahead)) return;
    if (!blocks.is_block_node(ahead)) {
      cur = ahead;
    } else {
      // Turn toward the encountered block's own line: slide until the
      // primary direction clears (or the mesh ends). At the disable-rule
      // fixed point a slide step is never itself blocked; guard anyway.
      const Coord aside = neighbor(cur, slide);
      if (!mesh.in_bounds(aside) || blocks.is_block_node(aside)) return;
      cur = aside;
    }
    visit(cur);
  }
}

/// Call `visit(c, id)` for every deposit of every block, blocks in id order.
/// A node may be visited more than once for the same block (ring corners
/// start trails, trails can cross); never for an earlier block after a later.
template <typename Visit>
void for_each_deposit(const Mesh2D& mesh, const fault::BlockSet& blocks, Visit&& visit) {
  const auto& blk = blocks.blocks();
  for (std::size_t b = 0; b < blk.size(); ++b) {
    const auto id = static_cast<std::int32_t>(b);
    const auto deposit = [&](Coord c) { visit(c, id); };
    const Rect r = blk[b].rect;
    const Rect ring = r.expanded(1);

    // Perimeter ring: nodes adjacent to the block (including the four
    // diagonal corner nodes, which are the "corners" of Definition 1's
    // adjacency discussion).
    for (Dist x = ring.xmin; x <= ring.xmax; ++x) {
      for (const Dist y : {ring.ymin, ring.ymax}) {
        if (mesh.in_bounds({x, y})) deposit({x, y});
      }
    }
    for (Dist y = ring.ymin + 1; y <= ring.ymax - 1; ++y) {
      for (const Dist x : {ring.xmin, ring.xmax}) {
        if (mesh.in_bounds({x, y})) deposit({x, y});
      }
    }

    // Outward trails. Each adjacent line propagates in both directions so
    // that routing toward any quadrant is served; the slide direction points
    // away from the owning block, per the turn-and-join rule.
    const Coord sw{r.xmin - 1, r.ymin - 1};
    const Coord se{r.xmax + 1, r.ymin - 1};
    const Coord nw{r.xmin - 1, r.ymax + 1};
    const Coord ne{r.xmax + 1, r.ymax + 1};
    // L1 (south row, y = ymin-1): west from SW, east from SE; slide south.
    walk_trail(mesh, blocks, sw, Direction::West, Direction::South, deposit);
    walk_trail(mesh, blocks, se, Direction::East, Direction::South, deposit);
    // L2 (north row, y = ymax+1): east from NE, west from NW; slide north.
    walk_trail(mesh, blocks, ne, Direction::East, Direction::North, deposit);
    walk_trail(mesh, blocks, nw, Direction::West, Direction::North, deposit);
    // L3 (west column, x = xmin-1): south from SW, north from NW; slide west.
    walk_trail(mesh, blocks, sw, Direction::South, Direction::West, deposit);
    walk_trail(mesh, blocks, nw, Direction::North, Direction::West, deposit);
    // L4 (east column, x = xmax+1): north from NE, south from SE; slide east.
    walk_trail(mesh, blocks, ne, Direction::North, Direction::East, deposit);
    walk_trail(mesh, blocks, se, Direction::South, Direction::East, deposit);
  }
}

}  // namespace

BoundaryInfoMap::BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks)
    : width_(mesh.width()), offsets_(mesh.node_count() + 1, 0) {
  const std::size_t area = mesh.node_count();

  // Pass 1: count unique deposits per node into offsets_[i + 1]. A block's
  // deposits are contiguous, so a per-node stamp of the newest block id is
  // the whole duplicate test.
  std::vector<std::int32_t> stamp(area, fault::kNoBlock);
  for_each_deposit(mesh, blocks, [&](Coord c, std::int32_t id) {
    const std::size_t i = index(c);
    if (stamp[i] == id) return;
    stamp[i] = id;
    ++offsets_[i + 1];
  });
  for (std::size_t i = 0; i < area; ++i) {
    if (offsets_[i + 1] != 0) ++covered_;
    offsets_[i + 1] += offsets_[i];
  }

  // Pass 2: fill, advancing offsets_[i] as node i's cursor. The stamp now
  // marks block `id` as -2 - id, which no pass-1 value (an id or kNoBlock)
  // equals.
  ids_.resize(offsets_[area]);
  for_each_deposit(mesh, blocks, [&](Coord c, std::int32_t id) {
    const std::size_t i = index(c);
    const std::int32_t mark = -2 - id;
    if (stamp[i] == mark) return;
    stamp[i] = mark;
    ids_[offsets_[i]++] = id;
  });
  // Each cursor ended on the next node's start: shift them back into place.
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

bool BoundaryInfoMap::knows(Coord c, std::int32_t block) const noexcept {
  const auto v = known_blocks(c);
  return std::binary_search(v.begin(), v.end(), block);
}

}  // namespace meshroute::info
