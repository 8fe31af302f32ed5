// Unit + property tests for the faulty-block model (Definition 1).
#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"

namespace meshroute::fault {
namespace {

FaultSet faults_at(const Mesh2D& mesh, std::initializer_list<Coord> cs) {
  FaultSet fs(mesh);
  for (const Coord c : cs) fs.add(c);
  return fs;
}

TEST(BlockModel, PaperFigure1Example) {
  // "eight faults (3,3), (3,4), (4,4), (5,4), (6,4), (2,5), (5,5), and (3,6)
  //  form a rectangle [2:6, 3:6]" (Section 2, Figure 1 (a)).
  const Mesh2D mesh(10, 10);
  const FaultSet fs = faults_at(
      mesh, {{3, 3}, {3, 4}, {4, 4}, {5, 4}, {6, 4}, {2, 5}, {5, 5}, {3, 6}});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  ASSERT_EQ(blocks.block_count(), 1u);
  EXPECT_EQ(blocks.blocks()[0].rect, (Rect{2, 6, 3, 6}));
  EXPECT_EQ(blocks.blocks()[0].faulty_count, 8);
  EXPECT_EQ(blocks.blocks()[0].disabled_count, 12);
}

TEST(BlockModel, SingleFaultIsUnitBlock) {
  const Mesh2D mesh(8, 8);
  const FaultSet fs = faults_at(mesh, {{4, 4}});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  ASSERT_EQ(blocks.block_count(), 1u);
  EXPECT_EQ(blocks.blocks()[0].rect, rect_at({4, 4}));
  EXPECT_EQ(blocks.blocks()[0].disabled_count, 0);
  EXPECT_TRUE(blocks.is_block_node({4, 4}));
  EXPECT_TRUE(fs.contains({4, 4}));
  EXPECT_FALSE(blocks.is_block_node({4, 5}));
}

TEST(BlockModel, NoFaultsNoBlocks) {
  const Mesh2D mesh(8, 8);
  const FaultSet fs(mesh);
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  EXPECT_EQ(blocks.block_count(), 0u);
  EXPECT_EQ(blocks.total_disabled(), 0);
  mesh.for_each_node([&](Coord c) { EXPECT_FALSE(blocks.is_block_node(c)); });
}

TEST(BlockModel, DistantFaultsStaySeparate) {
  const Mesh2D mesh(10, 10);
  const FaultSet fs = faults_at(mesh, {{1, 1}, {8, 8}});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  EXPECT_EQ(blocks.block_count(), 2u);
}

TEST(BlockModel, SameDimensionNeighborsDoNotDisable) {
  // Two bad neighbors in the SAME dimension do not disable a node:
  // faults at (2,5) and (4,5) leave (3,5) enabled, giving two blocks.
  const Mesh2D mesh(10, 10);
  const FaultSet fs = faults_at(mesh, {{2, 5}, {4, 5}});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  EXPECT_EQ(blocks.block_count(), 2u);
  EXPECT_FALSE(blocks.is_block_node({3, 5}));
}

TEST(BlockModel, DiagonalFaultsMergeIntoSquare) {
  // (3,3) and (4,4) disable (3,4) and (4,3): one 2 x 2 block.
  const Mesh2D mesh(10, 10);
  const FaultSet fs = faults_at(mesh, {{3, 3}, {4, 4}});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  ASSERT_EQ(blocks.block_count(), 1u);
  EXPECT_EQ(blocks.blocks()[0].rect, (Rect{3, 4, 3, 4}));
  for (const Coord c : {Coord{3, 4}, Coord{4, 3}}) {
    EXPECT_TRUE(blocks.is_block_node(c));
    EXPECT_FALSE(fs.contains(c));
  }
}

TEST(BlockModel, LShapeFillsItsBoundingRectangle) {
  const Mesh2D mesh(10, 10);
  const FaultSet fs = faults_at(mesh, {{2, 2}, {2, 3}, {2, 4}, {3, 2}, {4, 2}});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  ASSERT_EQ(blocks.block_count(), 1u);
  EXPECT_EQ(blocks.blocks()[0].rect, (Rect{2, 4, 2, 4}));
  EXPECT_EQ(blocks.blocks()[0].disabled_count, 4);
}

TEST(BlockModel, CornerFaultBlockClipsAtMeshEdge) {
  const Mesh2D mesh(6, 6);
  const FaultSet fs = faults_at(mesh, {{0, 0}, {1, 1}});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  ASSERT_EQ(blocks.block_count(), 1u);
  EXPECT_EQ(blocks.blocks()[0].rect, (Rect{0, 1, 0, 1}));
}

TEST(BlockModel, BlockIdMapMatchesRects) {
  const Mesh2D mesh(12, 12);
  const FaultSet fs = faults_at(mesh, {{2, 2}, {3, 3}, {9, 9}});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  mesh.for_each_node([&](Coord c) {
    const auto id = blocks.block_id(c);
    if (id == kNoBlock) {
      for (const auto& b : blocks.blocks()) EXPECT_FALSE(b.rect.contains(c));
    } else {
      EXPECT_TRUE(blocks.blocks()[static_cast<std::size_t>(id)].rect.contains(c));
    }
  });
}

TEST(BlockModel, RejectsOverlappingBlocksInCtor) {
  const Mesh2D mesh(6, 6);
  std::vector<FaultyBlock> overlapping{{Rect{0, 2, 0, 2}, 1, 8}, {Rect{2, 4, 2, 4}, 1, 8}};
  EXPECT_THROW(BlockSet(mesh, std::move(overlapping)), std::invalid_argument);
}

TEST(BlockModel, CtorChecksRectsAgainstTheMesh) {
  // The constructor paints caller-supplied rects into its plane, so a rect
  // off the mesh must throw before any bit is written.
  const Mesh2D mesh(8, 6);
  const auto make = [&](std::vector<Rect> rects) {
    std::vector<FaultyBlock> blocks;
    for (const Rect& r : rects) blocks.push_back({r, 1, static_cast<std::int32_t>(r.area()) - 1});
    return BlockSet(mesh, std::move(blocks));
  };
  EXPECT_THROW(make({Rect{-1, 0, 2, 3}}), std::invalid_argument);  // negative x
  EXPECT_THROW(make({Rect{2, 3, -2, 1}}), std::invalid_argument);  // negative y
  EXPECT_THROW(make({Rect{6, 8, 2, 3}}), std::invalid_argument);   // past the east edge
  EXPECT_THROW(make({Rect{2, 3, 4, 6}}), std::invalid_argument);   // past the north edge
  // Flush with each edge: west, east, south, north.
  const BlockSet flush = make({Rect{0, 1, 2, 3}, Rect{6, 7, 2, 3}, Rect{3, 4, 0, 0},
                               Rect{3, 4, 5, 5}});
  EXPECT_TRUE(flush.is_block_node({0, 2}));
  EXPECT_TRUE(flush.is_block_node({7, 3}));
  EXPECT_TRUE(flush.is_block_node({4, 0}));
  EXPECT_TRUE(flush.is_block_node({3, 5}));
  EXPECT_EQ(flush.block_id({7, 3}), 1);
  EXPECT_EQ(flush.block_id({5, 5}), kNoBlock);
  // Touching along a side and at a corner, never sharing a node.
  const BlockSet touching = make({Rect{1, 2, 1, 2}, Rect{3, 4, 1, 2}, Rect{5, 5, 3, 4}});
  EXPECT_EQ(touching.block_count(), 3u);
  EXPECT_EQ(touching.plane().popcount(), 4 + 4 + 2);
}

TEST(BlockModel, LabelingFixedPointAloneYieldsRectangles) {
  // The classic theorem: Definition 1's fixed point components are already
  // rectangles. The bit-plane builder relies on it, reading the blocks
  // straight off the fixed point and throwing if a component is not a
  // separated rectangle. Verified against random fault sets by comparing the
  // raw labeling with the built blocks cell by cell.
  Rng rng(99);
  for (const std::size_t k : {5u, 20u, 60u}) {
    for (int rep = 0; rep < 10; ++rep) {
      const Mesh2D mesh(40, 40);
      const FaultSet fs = uniform_random_faults(mesh, k, rng);
      const Grid<NodeLabel> raw = disable_labeling_fixed_point(mesh, fs);
      const BlockSet blocks = build_faulty_blocks(mesh, fs);
      mesh.for_each_node([&](Coord c) {
        const bool raw_bad = raw[c] != NodeLabel::Enabled;
        EXPECT_EQ(raw_bad, blocks.is_block_node(c))
            << "closure changed node " << to_string(c) << " at k=" << k;
      });
    }
  }
}

// The builders read the fault set's plane as the mesh's, so a set sized for
// another mesh is refused rather than read out of bounds.
TEST(BlockModel, BuildersRejectFaultSetOfAnotherMesh) {
  const Mesh2D mesh(10, 10);
  const FaultSet other(Mesh2D(8, 10));
  BlockSet blocks;
  BlockScratch block_scratch;
  EXPECT_THROW(build_faulty_blocks(mesh, other, blocks, block_scratch), std::invalid_argument);
  EXPECT_THROW((void)build_mcc(mesh, other, MccKind::TypeOne), std::invalid_argument);
}

/// A plane of the given size with `rects` painted in.
core::BitGrid plane_of(Dist w, Dist h, std::initializer_list<Rect> rects) {
  core::BitGrid g(w, h);
  for (const Rect& r : rects) {
    for (Dist y = r.ymin; y <= r.ymax; ++y) core::row_range_set(g.row(y), r.xmin, r.xmax);
  }
  return g;
}

/// A plane of the given size with the cells `cs` set.
core::BitGrid cells_of(Dist w, Dist h, std::initializer_list<Coord> cs) {
  core::BitGrid g(w, h);
  for (const Coord c : cs) g.set(c);
  return g;
}

// Each of these shapes breaks the fixed point's rectangle-with-a-clear-ring
// form, so the reader must refuse it rather than report a block.
TEST(BlockReader, RejectsNonRectangularComponents) {
  const core::BitGrid none(8, 8);
  std::vector<FaultyBlock> out;
  const auto read = [&](const core::BitGrid& bad) {
    detail::read_fixpoint_blocks(bad, none, out);
  };
  // L-shapes: a column with a foot, and a row with a leg hanging off its end.
  EXPECT_THROW(read(plane_of(8, 8, {Rect{2, 2, 2, 4}, Rect{3, 4, 2, 2}})), std::logic_error);
  EXPECT_THROW(read(plane_of(8, 8, {Rect{2, 4, 2, 2}, Rect{4, 4, 3, 4}})), std::logic_error);
  // Plus.
  EXPECT_THROW(read(plane_of(8, 8, {Rect{3, 3, 1, 5}, Rect{1, 5, 3, 3}})), std::logic_error);
  // Two squares touching at a corner, in both diagonal orientations.
  EXPECT_THROW(read(plane_of(8, 8, {Rect{1, 2, 1, 2}, Rect{3, 4, 3, 4}})), std::logic_error);
  EXPECT_THROW(read(plane_of(8, 8, {Rect{3, 4, 1, 2}, Rect{1, 2, 3, 4}})), std::logic_error);
  // Ring.
  EXPECT_THROW(read(plane_of(8, 8, {Rect{1, 5, 1, 1}, Rect{1, 5, 5, 5}, Rect{1, 1, 2, 4},
                                    Rect{5, 5, 2, 4}})),
               std::logic_error);
  // Two squares one clear cell apart diagonally read fine.
  read(plane_of(8, 8, {Rect{1, 2, 1, 2}, Rect{4, 5, 4, 5}}));
  EXPECT_EQ(out.size(), 2u);
}

TEST(BlockReader, EdgeFlushRectsComeOutInRowMajorOrderWithCounts) {
  std::vector<FaultyBlock> out;
  detail::read_fixpoint_blocks(core::BitGrid(12, 9), core::BitGrid(12, 9), out);
  EXPECT_TRUE(out.empty());
  // Flush with the south-west corner, the south-east corner, the west and
  // north edges, and the north-east corner, plus one interior rect.
  const core::BitGrid bad = plane_of(12, 9,
                                     {Rect{10, 11, 7, 8}, Rect{0, 0, 4, 8}, Rect{5, 6, 3, 5},
                                      Rect{9, 11, 0, 0}, Rect{0, 2, 0, 1}});
  const core::BitGrid faults = cells_of(12, 9,
                                        {{1, 1}, {9, 0}, {11, 0}, {5, 3}, {6, 5}, {0, 8},
                                         {10, 7}, {11, 7}, {10, 8}, {11, 8}});
  detail::read_fixpoint_blocks(bad, faults, out);
  const std::vector<FaultyBlock> want = {{Rect{0, 2, 0, 1}, 1, 5},
                                         {Rect{9, 11, 0, 0}, 2, 1},
                                         {Rect{5, 6, 3, 5}, 2, 4},
                                         {Rect{0, 0, 4, 8}, 1, 4},
                                         {Rect{10, 11, 7, 8}, 4, 0}};
  EXPECT_EQ(out, want);
}

TEST(BlockReader, RectsAcrossWordBoundariesComeOutInRowMajorOrderWithCounts) {
  const core::BitGrid bad = plane_of(130, 12,
                                     {Rect{0, 129, 11, 11}, Rect{63, 64, 7, 7},
                                      Rect{127, 128, 6, 8}, Rect{62, 65, 2, 4},
                                      Rect{126, 129, 0, 3}});
  const core::BitGrid faults = cells_of(130, 12,
                                        {{127, 0}, {129, 1}, {128, 3}, {63, 2}, {64, 4},
                                         {127, 8}, {64, 7}, {0, 11}, {64, 11}, {129, 11}});
  std::vector<FaultyBlock> out;
  detail::read_fixpoint_blocks(bad, faults, out);
  const std::vector<FaultyBlock> want = {{Rect{126, 129, 0, 3}, 3, 13},
                                         {Rect{62, 65, 2, 4}, 2, 10},
                                         {Rect{127, 128, 6, 8}, 1, 5},
                                         {Rect{63, 64, 7, 7}, 1, 1},
                                         {Rect{0, 129, 11, 11}, 3, 127}};
  EXPECT_EQ(out, want);
}

class BlockDisjointness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockDisjointness, BlocksArePairwiseDisjointAndCoverAllFaults) {
  Rng rng(7 + GetParam());
  const Mesh2D mesh(60, 60);
  const FaultSet fs = uniform_random_faults(mesh, GetParam(), rng);
  const BlockSet blocks = build_faulty_blocks(mesh, fs);

  for (std::size_t i = 0; i < blocks.block_count(); ++i) {
    for (std::size_t j = i + 1; j < blocks.block_count(); ++j) {
      EXPECT_FALSE(blocks.blocks()[i].rect.overlaps(blocks.blocks()[j].rect));
    }
  }
  for (const Coord f : fs.faults()) {
    EXPECT_TRUE(blocks.is_block_node(f));
  }
  // Counts are consistent.
  EXPECT_EQ(blocks.total_faulty(), static_cast<std::int64_t>(fs.count()));
  std::int64_t area = 0;
  for (const auto& b : blocks.blocks()) area += b.rect.area();
  EXPECT_EQ(area, blocks.total_faulty() + blocks.total_disabled());
}

INSTANTIATE_TEST_SUITE_P(VaryFaultCount, BlockDisjointness,
                         ::testing::Values(1u, 5u, 15u, 40u, 80u, 150u));

TEST(BlockModel, DisabledNodesNeverHaveTwoCleanDimensions) {
  // Fixed point sanity: every disabled node has a bad neighbor in each
  // dimension; every enabled node does not.
  Rng rng(21);
  const Mesh2D mesh(50, 50);
  const FaultSet fs = uniform_random_faults(mesh, 100, rng);
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  const auto bad = [&](Coord c) { return mesh.in_bounds(c) && blocks.is_block_node(c); };
  mesh.for_each_node([&](Coord c) {
    const bool horiz =
        bad(neighbor(c, Direction::East)) || bad(neighbor(c, Direction::West));
    const bool vert =
        bad(neighbor(c, Direction::North)) || bad(neighbor(c, Direction::South));
    if (!blocks.is_block_node(c)) {
      EXPECT_FALSE(horiz && vert) << "enabled node " << to_string(c)
                                  << " should have been disabled";
    }
  });
}

}  // namespace
}  // namespace meshroute::fault
