// Unit tests for faulty-block-information distribution (boundary lines).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/grid.hpp"
#include "dynamic/dynamic_state.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "info/boundary.hpp"
#include "serve/snapshot.hpp"

namespace meshroute::info {
namespace {

using fault::BlockSet;
using fault::build_faulty_blocks;
using fault::FaultSet;

BlockSet single_block(const Mesh2D& mesh, const Rect& r) {
  return build_faulty_blocks(mesh, fault::rectangle_faults(mesh, r));
}

// Reference oracle: the straightforward per-node-vector builder (append in
// block order, linear duplicate scan). The run index must reproduce it
// exactly, including the order of every node's list.
void reference_deposit(Coord c, std::int32_t id, Grid<std::vector<std::int32_t>>& out) {
  auto& v = out[c];
  if (std::find(v.begin(), v.end(), id) == v.end()) v.push_back(id);
}

void reference_trail(const Mesh2D& mesh, const BlockSet& blocks, Coord cur, Direction primary,
                     Direction slide, std::int32_t id, Grid<std::vector<std::int32_t>>& out) {
  if (!mesh.in_bounds(cur)) return;
  while (true) {
    const Coord ahead = neighbor(cur, primary);
    if (!mesh.in_bounds(ahead)) return;
    if (!blocks.is_block_node(ahead)) {
      cur = ahead;
    } else {
      const Coord aside = neighbor(cur, slide);
      if (!mesh.in_bounds(aside) || blocks.is_block_node(aside)) return;
      cur = aside;
    }
    reference_deposit(cur, id, out);
  }
}

Grid<std::vector<std::int32_t>> reference_deposits(const Mesh2D& mesh, const BlockSet& blocks) {
  Grid<std::vector<std::int32_t>> out(mesh.width(), mesh.height());
  for (std::size_t b = 0; b < blocks.blocks().size(); ++b) {
    const auto id = static_cast<std::int32_t>(b);
    const Rect r = blocks.blocks()[b].rect;
    const Rect ring = r.expanded(1);
    for (Dist y = ring.ymin; y <= ring.ymax; ++y) {
      for (Dist x = ring.xmin; x <= ring.xmax; ++x) {
        const bool on_ring = y == ring.ymin || y == ring.ymax || x == ring.xmin || x == ring.xmax;
        if (on_ring && mesh.in_bounds({x, y})) reference_deposit({x, y}, id, out);
      }
    }
    const Coord sw{r.xmin - 1, r.ymin - 1};
    const Coord se{r.xmax + 1, r.ymin - 1};
    const Coord nw{r.xmin - 1, r.ymax + 1};
    const Coord ne{r.xmax + 1, r.ymax + 1};
    reference_trail(mesh, blocks, sw, Direction::West, Direction::South, id, out);
    reference_trail(mesh, blocks, se, Direction::East, Direction::South, id, out);
    reference_trail(mesh, blocks, ne, Direction::East, Direction::North, id, out);
    reference_trail(mesh, blocks, nw, Direction::West, Direction::North, id, out);
    reference_trail(mesh, blocks, sw, Direction::South, Direction::West, id, out);
    reference_trail(mesh, blocks, nw, Direction::North, Direction::West, id, out);
    reference_trail(mesh, blocks, ne, Direction::North, Direction::East, id, out);
    reference_trail(mesh, blocks, se, Direction::South, Direction::East, id, out);
  }
  return out;
}

/// The rects known at `c`, as a fresh vector.
std::vector<Rect> known(const BoundaryInfoMap& info, Coord c) {
  std::vector<Rect> rects;
  info.known_rects(c, rects);
  return rects;
}

/// Whether the block `r` is known at `c`.
bool knows(const BoundaryInfoMap& info, Coord c, const Rect& r) {
  const std::vector<Rect> rects = known(info, c);
  return std::find(rects.begin(), rects.end(), r) != rects.end();
}

/// The rects of the blocks `ids` names, in order.
std::vector<Rect> rects_of(const BlockSet& blocks, const std::vector<std::int32_t>& ids) {
  std::vector<Rect> rects;
  for (const std::int32_t id : ids) {
    rects.push_back(blocks.blocks()[static_cast<std::size_t>(id)].rect);
  }
  return rects;
}

/// Every node's believed rects, which come from the runs, equal the rects
/// of the oracle's list in order; the totals agree.
void expect_matches_reference(const Mesh2D& mesh, const BlockSet& blocks,
                              const BoundaryInfoMap& info) {
  const Grid<std::vector<std::int32_t>> want = reference_deposits(mesh, blocks);
  std::size_t entries = 0;
  std::size_t covered = 0;
  std::vector<Rect> rects;
  mesh.for_each_node([&](Coord c) {
    info.known_rects(c, rects);
    EXPECT_TRUE(rects == rects_of(blocks, want[c])) << to_string(c);
    entries += want[c].size();
    if (!want[c].empty()) ++covered;
  });
  EXPECT_EQ(info.deposited_entries(), entries);
  EXPECT_EQ(info.covered_nodes(), covered);
}

void expect_matches_reference(const Mesh2D& mesh, const BlockSet& blocks) {
  expect_matches_reference(mesh, blocks, BoundaryInfoMap(mesh, blocks));
}

TEST(Boundary, PerimeterRingKnowsTheBlock) {
  const Mesh2D mesh(12, 12);
  const Rect block{4, 6, 4, 6};
  const BoundaryInfoMap info(mesh, single_block(mesh, block));
  const Rect ring = block.expanded(1);
  for (Dist x = ring.xmin; x <= ring.xmax; ++x) {
    EXPECT_TRUE(knows(info, {x, ring.ymin}, block));
    EXPECT_TRUE(knows(info, {x, ring.ymax}, block));
  }
  for (Dist y = ring.ymin; y <= ring.ymax; ++y) {
    EXPECT_TRUE(knows(info, {ring.xmin, y}, block));
    EXPECT_TRUE(knows(info, {ring.xmax, y}, block));
  }
}

TEST(Boundary, TrailsReachTheMeshEdges) {
  // With a single block the four boundary lines run straight to the edges
  // in both directions (full-line coverage of L1, L2, L3, L4).
  const Mesh2D mesh(12, 12);
  const Rect block{4, 6, 4, 6};
  const BoundaryInfoMap info(mesh, single_block(mesh, block));
  for (Dist x = 0; x <= 11; ++x) {
    EXPECT_TRUE(knows(info, {x, 3}, block)) << "L1 at x=" << x;   // y = ymin-1
    EXPECT_TRUE(knows(info, {x, 7}, block)) << "L2 at x=" << x;   // y = ymax+1
  }
  for (Dist y = 0; y <= 11; ++y) {
    EXPECT_TRUE(knows(info, {3, y}, block)) << "L3 at y=" << y;   // x = xmin-1
    EXPECT_TRUE(knows(info, {7, y}, block)) << "L4 at y=" << y;   // x = xmax+1
  }
}

TEST(Boundary, OffLineNodesKnowNothing) {
  const Mesh2D mesh(12, 12);
  const BlockSet blocks = single_block(mesh, Rect{4, 6, 4, 6});
  const BoundaryInfoMap info(mesh, blocks);
  EXPECT_TRUE(known(info, {0, 0}).empty());
  EXPECT_TRUE(known(info, {1, 9}).empty());
  EXPECT_TRUE(known(info, {9, 1}).empty());
  // Inside the block: trails never enter it.
  EXPECT_TRUE(known(info, {5, 5}).empty());
}

TEST(Boundary, BlockAtMeshCornerClipsGracefully) {
  const Mesh2D mesh(8, 8);
  const Rect block{0, 1, 0, 1};
  const BoundaryInfoMap info(mesh, single_block(mesh, block));
  // Only the NE-side lines exist.
  for (Dist x = 0; x <= 7; ++x) EXPECT_TRUE(knows(info, {x, 2}, block));
  for (Dist y = 0; y <= 7; ++y) EXPECT_TRUE(knows(info, {2, y}, block));
  EXPECT_FALSE(knows(info, {4, 4}, block));
}

TEST(Boundary, TurnAndJoinStaircase) {
  // Block i's L3 (west column) runs south into block j and must slide west
  // along j's north row, then join j's own west column — the Figure 3 (b)
  // staircase.
  const Mesh2D mesh(16, 16);
  FaultSet fs(mesh);
  // Block i = [5:7, 9:10]; L3 of i is column 4 heading south from (4, 8).
  for (Dist x = 5; x <= 7; ++x)
    for (Dist y = 9; y <= 10; ++y) fs.add({x, y});
  // Block j = [3:5, 4:5]: column 4 runs into it at y = 5.
  for (Dist x = 3; x <= 5; ++x)
    for (Dist y = 4; y <= 5; ++y) fs.add({x, y});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  ASSERT_EQ(blocks.block_count(), 2u);
  // Identify the rects.
  const Rect bi = blocks.blocks()[static_cast<std::size_t>(blocks.block_id({5, 9}))].rect;
  const Rect bj = blocks.blocks()[static_cast<std::size_t>(blocks.block_id({3, 4}))].rect;
  ASSERT_NE(bi, bj);

  const BoundaryInfoMap info(mesh, blocks);
  // Straight part of i's L3 above j.
  EXPECT_TRUE(knows(info, {4, 8}, bi));
  EXPECT_TRUE(knows(info, {4, 7}, bi));
  EXPECT_TRUE(knows(info, {4, 6}, bi));
  // Slide west along j's north row (y = 6).
  EXPECT_TRUE(knows(info, {3, 6}, bi));
  EXPECT_TRUE(knows(info, {2, 6}, bi));
  // Join j's L3 (column 2) and continue south to the edge.
  EXPECT_TRUE(knows(info, {2, 5}, bi));
  EXPECT_TRUE(knows(info, {2, 0}, bi));
  // The abandoned original column below j does NOT carry i's info.
  EXPECT_FALSE(knows(info, {4, 2}, bi));
  // j's own L3 nodes know j as well -> shared staircase knows both blocks.
  EXPECT_TRUE(knows(info, {2, 3}, bj));
  EXPECT_TRUE(knows(info, {2, 3}, bi));
}

TEST(Boundary, DepositStatsAreConsistent) {
  const Mesh2D mesh(20, 20);
  Rng rng(3);
  const FaultSet fs = fault::uniform_random_faults(mesh, 12, rng);
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  const BoundaryInfoMap info(mesh, blocks);
  std::size_t entries = 0;
  std::size_t covered = 0;
  mesh.for_each_node([&](Coord c) {
    const auto v = known(info, c);
    entries += v.size();
    if (!v.empty()) ++covered;
    // No duplicates.
    for (std::size_t i = 0; i < v.size(); ++i) {
      for (std::size_t j = i + 1; j < v.size(); ++j) EXPECT_NE(v[i], v[j]);
    }
  });
  EXPECT_EQ(entries, info.deposited_entries());
  EXPECT_EQ(covered, info.covered_nodes());
  EXPECT_GT(covered, 0u);
}

TEST(Boundary, NoInfoEverDepositedOnBlockNodes) {
  const Mesh2D mesh(24, 24);
  Rng rng(9);
  const FaultSet fs = fault::uniform_random_faults(mesh, 40, rng);
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  const BoundaryInfoMap info(mesh, blocks);
  mesh.for_each_node([&](Coord c) {
    if (blocks.is_block_node(c)) {
      EXPECT_TRUE(known(info, c).empty()) << to_string(c);
    }
  });
}

TEST(BoundaryReference, RandomBlockSetsMatchInOrder) {
  for (const Dist n : {20, 33, 48, 64, 80, 96}) {
    const Mesh2D mesh(n, n);
    for (const std::size_t k : {static_cast<std::size_t>(n) / 2,
                                static_cast<std::size_t>(n) * static_cast<std::size_t>(n) / 40}) {
      Rng rng(seed_combine(0xb0a7d, static_cast<std::uint64_t>(n) * 1000 + k));
      const BlockSet blocks = build_faulty_blocks(mesh, fault::uniform_random_faults(mesh, k, rng));
      SCOPED_TRACE(testing::Message() << n << "x" << n << " k=" << k);
      expect_matches_reference(mesh, blocks);
    }
  }
}

TEST(BoundaryReference, EdgeAndCornerBlocksMatchInOrder) {
  const Mesh2D mesh(16, 16);
  const std::vector<Rect> rects = {
      {0, 1, 0, 1},   {14, 15, 0, 1}, {0, 1, 14, 15}, {14, 15, 14, 15},  // corners
      {6, 8, 0, 0},   {6, 8, 15, 15}, {0, 0, 6, 8},   {15, 15, 6, 8},    // edges
  };
  FaultSet all(mesh);
  for (const Rect& r : rects) {
    SCOPED_TRACE(to_string(Coord{r.xmin, r.ymin}));
    expect_matches_reference(mesh, single_block(mesh, r));
    const FaultSet one = fault::rectangle_faults(mesh, r);
    for (const Coord c : one.faults()) all.add(c);
  }
  const BlockSet blocks = build_faulty_blocks(mesh, all);
  ASSERT_EQ(blocks.block_count(), rects.size());
  expect_matches_reference(mesh, blocks);
}

TEST(BoundaryReference, OneWideMeshesMatchInOrder) {
  for (const bool row : {true, false}) {
    const Mesh2D mesh = row ? Mesh2D(17, 1) : Mesh2D(1, 17);
    FaultSet fs(mesh);
    for (const Dist i : {0, 5, 6, 11, 16}) fs.add(row ? Coord{i, 0} : Coord{0, i});
    SCOPED_TRACE(row ? "17x1" : "1x17");
    expect_matches_reference(mesh, build_faulty_blocks(mesh, fs));
  }
}

TEST(BoundaryReference, FaultFreeMeshDepositsNothing) {
  const Mesh2D mesh(10, 7);
  const BlockSet blocks = build_faulty_blocks(mesh, FaultSet(mesh));
  const BoundaryInfoMap info(mesh, blocks);
  EXPECT_EQ(info.deposited_entries(), 0u);
  EXPECT_EQ(info.covered_nodes(), 0u);
  expect_matches_reference(mesh, blocks, info);
}

// The map finds each trail's clear run inside 64-bit words of a row-major and
// a column-major obstacle plane; these cases put mesh edges and block edges
// on either side of a word boundary.
TEST(BoundaryReference, WordStraddlingMeshesMatchInOrder) {
  const std::vector<Dist> sizes = {63, 64, 65, 127, 128, 129};
  for (const Dist w : sizes) {
    for (const Dist h : sizes) {
      if (w > 64 && h > 64 && w != h) continue;  // the big off-square pairs add nothing
      const Mesh2D mesh(w, h);
      const auto area = static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h);
      Rng rng(seed_combine(0x3f40, static_cast<std::uint64_t>(w) * 1000 + area));
      const std::size_t k = area / 60;
      SCOPED_TRACE(testing::Message() << w << "x" << h << " k=" << k);
      const FaultSet faults = fault::uniform_random_faults(mesh, k, rng);
      expect_matches_reference(mesh, build_faulty_blocks(mesh, faults));
    }
  }
  for (const bool row : {true, false}) {
    const Mesh2D mesh = row ? Mesh2D(129, 1) : Mesh2D(1, 129);
    FaultSet fs(mesh);
    for (const Dist i : {0, 62, 63, 64, 65, 100, 127, 128}) fs.add(row ? Coord{i, 0} : Coord{0, i});
    SCOPED_TRACE(row ? "129x1" : "1x129");
    expect_matches_reference(mesh, build_faulty_blocks(mesh, fs));
  }
}

/// The blocks of the faults filling `rects`.
BlockSet blocks_of(const Mesh2D& mesh, const std::vector<Rect>& rects) {
  FaultSet fs(mesh);
  for (const Rect& r : rects) {
    const FaultSet one = fault::rectangle_faults(mesh, r);
    for (const Coord c : one.faults()) fs.add(c);
  }
  return build_faulty_blocks(mesh, fs);
}

TEST(BoundaryReference, BlockEdgesOnWordBoundariesMatchInOrder) {
  const Mesh2D mesh(140, 140);
  const std::vector<Dist> edges = {62, 63, 64, 65, 126, 127, 128, 129};
  for (const bool along_x : {true, false}) {
    const auto orient = [&](const Rect& r) {
      return along_x ? r : Rect{r.ymin, r.ymax, r.xmin, r.xmax};
    };
    // One block for every pairing of word-edge columns (rows): its ring and
    // lines start and end on the edges.
    for (const Dist lo : edges) {
      for (const Dist hi : edges) {
        if (hi < lo) continue;
        SCOPED_TRACE(testing::Message() << (along_x ? "x " : "y ") << lo << ".." << hi);
        expect_matches_reference(mesh, blocks_of(mesh, {orient({lo, hi, 30, 33})}));
      }
    }
    // A wall whose face is the edge, and a small block whose lines run into
    // that face from 1, 2 or 6 nodes away, turn along the wall and go on.
    for (const Dist e : edges) {
      for (const Dist d : {0, 1, 5}) {
        SCOPED_TRACE(testing::Message() << (along_x ? "x " : "y ") << "face " << e << " gap " << d);
        const Rect east_face{e - 4, e, 40, 60};
        const Rect west_face{e, e + 4, 40, 60};
        const Rect east_probe{e + 2 + d, e + 4 + d, 50, 52};
        const Rect west_probe{e - 4 - d, e - 2 - d, 50, 52};
        expect_matches_reference(mesh, blocks_of(mesh, {orient(east_face), orient(east_probe)}));
        expect_matches_reference(mesh, blocks_of(mesh, {orient(west_face), orient(west_probe)}));
      }
    }
  }
}

/// `rects` as blocks with no fault-model fixpoint behind them, in the list
/// order the map takes: sorted by (ymin, xmin).
std::vector<fault::FaultyBlock> sorted_blocks(std::vector<Rect> rects) {
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    return a.ymin != b.ymin ? a.ymin < b.ymin : a.xmin < b.xmin;
  });
  std::vector<fault::FaultyBlock> blocks;
  for (const Rect& r : rects) blocks.push_back({r, static_cast<std::int32_t>(r.area()), 0});
  return blocks;
}

/// A BlockSet straight from `rects`, sorted by (ymin, xmin).
BlockSet hand_built(const Mesh2D& mesh, const std::vector<Rect>& rects) {
  return BlockSet(mesh, sorted_blocks(rects));
}

TEST(BoundaryReference, HandBuiltBlockedSlideMatchesInOrder) {
  // Block a's L1 runs west along y = 9 into block b at (6, 9); its south
  // slide to (7, 8) is block c. Blocks b and c touch only diagonally, which
  // the disable rule would have filled, so the trail must stop at (7, 9).
  const Mesh2D mesh(20, 20);
  const Rect a{10, 12, 10, 12};
  const BlockSet blocks = hand_built(mesh, {a, {4, 6, 9, 11}, {7, 8, 5, 8}});
  const BoundaryInfoMap info(mesh, blocks);
  expect_matches_reference(mesh, blocks, info);
  EXPECT_TRUE(knows(info, {7, 9}, a));
  for (Dist x = 0; x <= 3; ++x) EXPECT_FALSE(knows(info, {x, 9}, a)) << x;
  for (Dist y = 0; y <= 4; ++y) EXPECT_FALSE(knows(info, {7, y}, a)) << y;
}

TEST(Boundary, RejectsBlockSetOfAnotherMesh) {
  // The walk reads the block set's plane and buckets its runs by the mesh's
  // lines, so the two must agree in size; the walk goes side by side in tag
  // order, so the list must be sorted by (ymin, xmin).
  const Mesh2D big(40, 40);
  FaultSet fs(big);
  fs.add({30, 30});
  fs.add({31, 31});
  const BlockSet far_blocks = build_faulty_blocks(big, fs);
  EXPECT_THROW(BoundaryInfoMap(Mesh2D(10, 10), far_blocks), std::invalid_argument);
  EXPECT_THROW(BoundaryInfoMap(Mesh2D(40, 41), far_blocks), std::invalid_argument);
  EXPECT_NO_THROW(BoundaryInfoMap(big, far_blocks));
  const Mesh2D mesh(20, 20);
  const std::vector<Rect> listed = {{10, 12, 10, 12}, {4, 6, 9, 11}, {7, 8, 5, 8}};
  std::vector<fault::FaultyBlock> in_list_order;
  for (const Rect& r : listed) in_list_order.push_back({r, static_cast<std::int32_t>(r.area()), 0});
  EXPECT_THROW(BoundaryInfoMap(mesh, BlockSet(mesh, in_list_order)), std::invalid_argument);
  EXPECT_NO_THROW(BoundaryInfoMap(mesh, BlockSet(mesh, sorted_blocks(listed))));
  // Two blocks starting on one row, the west one last.
  EXPECT_THROW(
      BoundaryInfoMap(mesh, BlockSet(mesh, {{Rect{8, 9, 3, 4}, 4, 0}, {Rect{2, 3, 3, 3}, 2, 0}})),
      std::invalid_argument);
}

TEST(BoundaryReference, HandBuiltNearbyRectsMatchInOrder) {
  // Disjoint rects a node apart (or touching), which no fixpoint produces:
  // trails start inside other blocks and slides are blocked.
  for (const Dist n : {24, 65, 130}) {
    const Mesh2D mesh(n, n);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
      Rng rng(seed_combine(0x4a2d, static_cast<std::uint64_t>(n) * 100 + trial));
      std::vector<Rect> rects;
      for (int attempt = 0; attempt < n * 4; ++attempt) {
        const auto x = static_cast<Dist>(rng.uniform(0, n - 1));
        const auto y = static_cast<Dist>(rng.uniform(0, n - 1));
        const Rect r{x, std::min(n - 1, x + static_cast<Dist>(rng.uniform(0, 3))), y,
                     std::min(n - 1, y + static_cast<Dist>(rng.uniform(0, 3)))};
        const bool clash = std::any_of(rects.begin(), rects.end(),
                                       [&](const Rect& o) { return r.touches(o, 0); });
        if (!clash) rects.push_back(r);
      }
      SCOPED_TRACE(testing::Message() << n << "x" << n << " trial " << trial << " blocks "
                                      << rects.size());
      expect_matches_reference(mesh, hand_built(mesh, rects));
    }
  }
}

// The run index against the stepwise walker on shapes that stress its
// layout: lines with no runs, runs of one node, lines that are one block,
// blocks flush with the mesh edges, and word-edge mesh sizes. Besides each
// node's ordered list, each (node, block) pair is checked: the block's rect
// is among the node's known rects exactly when the oracle deposited it.
void expect_runs_match(const Mesh2D& mesh, const BlockSet& blocks) {
  const BoundaryInfoMap info(mesh, blocks);
  expect_matches_reference(mesh, blocks, info);
  const Grid<std::vector<std::int32_t>> want = reference_deposits(mesh, blocks);
  const auto count = static_cast<std::int32_t>(blocks.blocks().size());
  mesh.for_each_node([&](Coord c) {
    const std::vector<Rect> rects = known(info, c);
    for (std::int32_t b = 0; b < count; ++b) {
      const bool deposited = std::find(want[c].begin(), want[c].end(), b) != want[c].end();
      const Rect& r = blocks.blocks()[static_cast<std::size_t>(b)].rect;
      EXPECT_EQ(std::find(rects.begin(), rects.end(), r) != rects.end(), deposited)
          << to_string(c) << " block " << b;
    }
  });
}

TEST(BoundaryRuns, OneNodeMesh) {
  const Mesh2D mesh(1, 1);
  expect_runs_match(mesh, build_faulty_blocks(mesh, FaultSet(mesh)));
  FaultSet fs(mesh);
  fs.add({0, 0});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  ASSERT_EQ(blocks.block_count(), 1u);
  expect_runs_match(mesh, blocks);
  EXPECT_EQ(BoundaryInfoMap(mesh, blocks).deposited_entries(), 0u);
}

TEST(BoundaryRuns, OneWideMeshes) {
  for (const Dist n : {2, 3, 9}) {
    for (const bool row : {true, false}) {
      const Mesh2D mesh = row ? Mesh2D(n, 1) : Mesh2D(1, n);
      const auto at = [&](Dist i) { return row ? Coord{i, 0} : Coord{0, i}; };
      SCOPED_TRACE(testing::Message() << (row ? "row " : "column ") << n);
      for (Dist i = 0; i < n; ++i) {
        FaultSet fs(mesh);
        fs.add(at(i));
        expect_runs_match(mesh, build_faulty_blocks(mesh, fs));
      }
      FaultSet ends(mesh);
      ends.add(at(0));
      ends.add(at(n - 1));
      expect_runs_match(mesh, build_faulty_blocks(mesh, ends));
    }
  }
}

TEST(BoundaryRuns, LinesWithoutRuns) {
  // One small block: every row but its two ring rows and every column but
  // its two ring columns holds no run of its own axis.
  const Mesh2D mesh(20, 14);
  expect_runs_match(mesh, single_block(mesh, Rect{8, 9, 5, 6}));
  // A whole row is one block: its ring columns and vertical trails lie off
  // the mesh, so no column holds a run at all.
  for (const Dist y : {0, 6, 13}) {
    SCOPED_TRACE(testing::Message() << "full row " << y);
    expect_runs_match(mesh, single_block(mesh, Rect{0, 19, y, y}));
  }
  // And a whole column: no row holds a run.
  for (const Dist x : {0, 7, 19}) {
    SCOPED_TRACE(testing::Message() << "full column " << x);
    expect_runs_match(mesh, single_block(mesh, Rect{x, x, 0, 13}));
  }
}

TEST(BoundaryRuns, BlocksFlushWithEveryEdgeAndCorner) {
  const Mesh2D mesh(15, 12);
  const std::vector<Rect> rects = {
      {0, 2, 0, 1},  {12, 14, 0, 2},  {0, 1, 10, 11}, {13, 14, 9, 11},  // corners
      {6, 8, 0, 1},  {6, 7, 10, 11},  {0, 1, 5, 6},   {14, 14, 5, 7},   // edges
  };
  for (const Rect& r : rects) {
    SCOPED_TRACE(to_string(Coord{r.xmin, r.ymin}));
    expect_runs_match(mesh, single_block(mesh, r));
  }
  expect_runs_match(mesh, blocks_of(mesh, rects));
}

TEST(BoundaryRuns, SingleSlideNodeRuns) {
  // Block a's L1 runs west along y = 9 into the tall block b at (6, 9) and
  // slides south down its east face: (7, 8) .. (7, 5) are runs of one slide
  // node each, and (7, 4) starts the run on to the west edge. Block a's L3
  // runs south along x = 9 into block c and slides west to (8, 3), whose
  // node ahead is block c and whose next slide is block d: a trail that ends
  // in a run of one slide node.
  const Mesh2D mesh(20, 20);
  const Rect a{10, 12, 10, 12};
  const BlockSet blocks = hand_built(mesh, {a, {5, 6, 5, 9}, {8, 9, 0, 2}, {7, 7, 3, 3}});
  expect_runs_match(mesh, blocks);
  const BoundaryInfoMap info(mesh, blocks);
  for (Dist y = 4; y <= 9; ++y) EXPECT_TRUE(knows(info, {7, y}, a)) << y;
  for (Dist x = 0; x <= 6; ++x) EXPECT_TRUE(knows(info, {x, 4}, a)) << x;
  EXPECT_FALSE(knows(info, {6, 8}, a));
  EXPECT_TRUE(knows(info, {8, 3}, a));
}

TEST(BoundaryRuns, WordEdgeSizes) {
  for (const Dist n : {63, 64, 65, 129}) {
    const Mesh2D mesh(n, n);
    Rng rng(seed_combine(0x7a11, static_cast<std::uint64_t>(n)));
    const std::size_t k = static_cast<std::size_t>(n) * static_cast<std::size_t>(n) / 150;
    SCOPED_TRACE(testing::Message() << n << "x" << n << " k=" << k);
    expect_runs_match(mesh, build_faulty_blocks(mesh, fault::uniform_random_faults(mesh, k, rng)));
  }
  // Blocks whose edges, ring lines and trail ends sit on both sides of word
  // boundaries, on a 129x65 mesh.
  const Mesh2D mesh(129, 65);
  expect_runs_match(mesh, blocks_of(mesh, {{62, 64, 62, 63}, {126, 128, 0, 1}, {0, 63, 30, 30}}));
}

TEST(BoundaryRuns, MeshTooLargeForBlockKeysThrows) {
  // A run's tag packs its block's SW corner and its side into 31 bits, so
  // the height times the width rounded up to a power of two must fit 29.
  // No block is walked, so no plane is read.
  const BlockSet none(std::vector<fault::FaultyBlock>{}, core::BitGrid{});
  EXPECT_NO_THROW(BoundaryInfoMap(Mesh2D(1 << 16, 1 << 13), none));
  EXPECT_THROW(BoundaryInfoMap(Mesh2D(1 << 16, (1 << 13) + 1), none), std::invalid_argument);
  EXPECT_THROW(BoundaryInfoMap(Mesh2D((1 << 16) + 1, 1 << 13), none), std::invalid_argument);
  // A run's ends are 16-bit positions along its line.
  EXPECT_NO_THROW(BoundaryInfoMap(Mesh2D(1, 1 << 16), none));
  EXPECT_THROW(BoundaryInfoMap(Mesh2D(1, (1 << 16) + 1), none), std::invalid_argument);
}

TEST(BoundaryReference, DeltaFedGrowAndMergeMatchesEveryEpoch) {
  // The serve world, but every injection lands on or next to an existing
  // block's ring, so blocks grow and merge; the delta-fed snapshot's map is
  // checked at every epoch.
  const Mesh2D mesh = Mesh2D::square(96);
  Rng rng(0x96e1);
  dynamic::DynamicMeshState state(mesh);
  const FaultSet initial = fault::uniform_random_faults(mesh, 64, rng);
  for (const Coord c : initial.faults()) state.inject_fault(c);
  serve::SnapshotScratch scratch;
  std::size_t merges = 0;
  for (std::uint64_t epoch = 1; epoch <= 200; ++epoch) {
    const std::vector<fault::FaultyBlock> before = state.blocks();
    const auto pick =
        static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(before.size()) - 1));
    const Rect r = before[pick].rect;
    // A node of the ring one or two nodes out from the block.
    const Rect around = r.expanded(static_cast<Dist>(rng.uniform(1, 2)));
    const bool low = rng.chance(0.5);
    const Coord c =
        rng.chance(0.5)
            ? Coord{static_cast<Dist>(rng.uniform(around.xmin, around.xmax)),
                    low ? around.ymin : around.ymax}
            : Coord{low ? around.xmin : around.xmax,
                    static_cast<Dist>(rng.uniform(around.ymin, around.ymax))};
    if (mesh.in_bounds(c)) state.inject_fault(c);
    if (state.blocks().size() < before.size()) ++merges;
    const serve::RoutingSnapshot snap(state, epoch, scratch);
    SCOPED_TRACE(testing::Message() << "epoch " << epoch);
    expect_matches_reference(mesh, snap.blocks(), snap.boundary());
  }
  EXPECT_GT(merges, 10u);
}

TEST(BoundaryReference, DeltaFedServeSnapshotMatchesInOrder) {
  // The serve world (96x96, 64 faults) driven through 200 injections; the
  // delta-fed snapshot's map is checked at every epoch.
  const Mesh2D mesh = Mesh2D::square(96);
  Rng rng(0x5e7e);
  dynamic::DynamicMeshState state(mesh);
  const FaultSet initial = fault::uniform_random_faults(mesh, 64, rng);
  for (const Coord c : initial.faults()) state.inject_fault(c);
  serve::SnapshotScratch scratch;
  for (std::uint64_t epoch = 1; epoch <= 200; ++epoch) {
    const auto x = static_cast<Dist>(rng.uniform(0, 95));
    state.inject_fault({x, static_cast<Dist>(rng.uniform(0, 95))});
    const serve::RoutingSnapshot snap(state, epoch, scratch);
    SCOPED_TRACE(testing::Message() << "epoch " << epoch);
    expect_matches_reference(mesh, snap.blocks(), snap.boundary());
  }
}

}  // namespace
}  // namespace meshroute::info
