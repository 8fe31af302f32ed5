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
  // rectangles, so the defensive rectangular closure is a no-op. Verified
  // against random fault sets by comparing the raw labeling with the built
  // blocks cell by cell.
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

/// Pairwise reference for the closure merge: merge the first overlapping
/// pair into the lower slot and start over, until no pair overlaps.
std::vector<Rect> pairwise_merge(std::vector<Rect> boxes) {
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < boxes.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < boxes.size() && !changed; ++j) {
        if (boxes[i].overlaps(boxes[j])) {
          boxes[i] = boxes[i].united(boxes[j]);
          boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
        }
      }
    }
  }
  return boxes;
}

// Fixpoint components are rectangles (the test above), so no fault set makes
// their boxes overlap and the closure merge is pinned on its own. A and B
// overlap; their union overlaps C, which neither overlaps alone, so one round
// of pairing is not enough. The group lands in C's slot, the lowest of the
// three, although C is not first by xmin.
TEST(BlockModel, ClosureMergeFollowsUnionsInIndexOrder) {
  const Rect a{0, 4, 0, 1};
  const Rect b{4, 5, 1, 6};
  const Rect c{0, 1, 4, 5};
  ASSERT_TRUE(a.overlaps(b));
  ASSERT_FALSE(a.overlaps(c));
  ASSERT_FALSE(b.overlaps(c));
  const Rect d{10, 12, 10, 12};
  const Rect e{20, 20, 0, 0};
  std::vector<Rect> boxes = {d, c, a, e, b};
  const std::vector<Rect> want = {d, Rect{0, 5, 0, 6}, e};
  ASSERT_EQ(pairwise_merge(boxes), want);
  BlockScratch scratch;
  detail::merge_overlapping_boxes(boxes, scratch);
  EXPECT_EQ(boxes, want);
}

TEST(BlockModel, ClosureMergeMatchesPairwiseMerge) {
  Rng rng(31);
  BlockScratch scratch;
  for (int rep = 0; rep < 300; ++rep) {
    std::vector<Rect> boxes(static_cast<std::size_t>(rng.uniform(0, 40)));
    for (Rect& r : boxes) {
      const auto x = static_cast<Dist>(rng.uniform(0, 40));
      const auto y = static_cast<Dist>(rng.uniform(0, 40));
      r = Rect{x, x + static_cast<Dist>(rng.uniform(0, 5)), y,
               y + static_cast<Dist>(rng.uniform(0, 5))};
    }
    const std::vector<Rect> want = pairwise_merge(boxes);
    detail::merge_overlapping_boxes(boxes, scratch);
    EXPECT_EQ(boxes, want) << "rep " << rep;
  }
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
