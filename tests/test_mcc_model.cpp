// Unit + property tests for the MCC model (Definition 2, Wang's refinement).
#include <gtest/gtest.h>

#include "cond/wang.hpp"
#include "fault/block_model.hpp"
#include "fault/mcc_model.hpp"
#include "fault/fault_set.hpp"

namespace meshroute::fault {
namespace {

using mcc_status::kCantReach;
using mcc_status::kFaulty;
using mcc_status::kUseless;

FaultSet faults_at(const Mesh2D& mesh, std::initializer_list<Coord> cs) {
  FaultSet fs(mesh);
  for (const Coord c : cs) fs.add(c);
  return fs;
}

TEST(MccModel, KindForQuadrants) {
  EXPECT_EQ(mcc_kind_for(Quadrant::I), MccKind::TypeOne);
  EXPECT_EQ(mcc_kind_for(Quadrant::III), MccKind::TypeOne);
  EXPECT_EQ(mcc_kind_for(Quadrant::II), MccKind::TypeTwo);
  EXPECT_EQ(mcc_kind_for(Quadrant::IV), MccKind::TypeTwo);
}

TEST(MccModel, SingleFaultHasNoDisabledNodes) {
  const Mesh2D mesh(8, 8);
  const FaultSet fs = faults_at(mesh, {{4, 4}});
  const MccSet mcc = build_mcc(mesh, fs, MccKind::TypeOne);
  ASSERT_EQ(mcc.components().size(), 1u);
  EXPECT_EQ(mcc.components()[0].size, 1);
  EXPECT_EQ(mcc.components()[0].disabled_count(), 0);
}

TEST(MccModel, UselessNodeNotchNorthEast) {
  // A node whose north and east neighbors are faulty becomes useless for
  // quadrant-I routing (type one).
  const Mesh2D mesh(8, 8);
  const FaultSet fs = faults_at(mesh, {{4, 5}, {5, 4}});  // north and east of (4,4)
  const MccSet mcc = build_mcc(mesh, fs, MccKind::TypeOne);
  EXPECT_TRUE(mcc.status({4, 4}) & kUseless);
  EXPECT_FALSE(mcc.status({4, 4}) & kCantReach);
  EXPECT_TRUE(mcc.is_mcc_node({4, 4}));
  // The symmetric notch on the south-west side becomes can't-reach.
  EXPECT_TRUE(mcc.status({5, 5}) & kCantReach);
  EXPECT_FALSE(mcc.status({5, 5}) & kUseless);
  ASSERT_EQ(mcc.components().size(), 1u);
  EXPECT_EQ(mcc.components()[0].size, 4);
}

TEST(MccModel, TypeTwoMirrorsEastWest) {
  const Mesh2D mesh(8, 8);
  const FaultSet fs = faults_at(mesh, {{4, 5}, {3, 4}});  // north and west of (4,4)
  const MccSet t2 = build_mcc(mesh, fs, MccKind::TypeTwo);
  EXPECT_TRUE(t2.status({4, 4}) & kUseless);
  const MccSet t1 = build_mcc(mesh, fs, MccKind::TypeOne);
  EXPECT_FALSE(t1.is_mcc_node({4, 4}));
}

TEST(MccModel, UselessPropagatesAlongStaircase) {
  // A south-west facing staircase of faults creates a chain of useless
  // nodes filling the staircase's inner corners.
  const Mesh2D mesh(10, 10);
  const FaultSet fs = faults_at(mesh, {{2, 6}, {3, 5}, {4, 4}, {5, 3}, {6, 2}});
  const MccSet mcc = build_mcc(mesh, fs, MccKind::TypeOne);
  EXPECT_TRUE(mcc.status({2, 5}) & kUseless);  // north (2,6) faulty, east (3,5) faulty
  EXPECT_TRUE(mcc.status({3, 4}) & kUseless);
  EXPECT_TRUE(mcc.status({4, 3}) & kUseless);
  EXPECT_TRUE(mcc.status({5, 2}) & kUseless);
  // Second-order propagation: (2,4) has north (2,5) useless, east (3,4) useless.
  EXPECT_TRUE(mcc.status({2, 4}) & kUseless);
  ASSERT_EQ(mcc.components().size(), 1u);
}

TEST(MccModel, MeshEdgeDoesNotLabel) {
  // Conservative reading: a missing neighbor never triggers a label.
  const Mesh2D mesh(6, 6);
  const FaultSet fs = faults_at(mesh, {{4, 5}});  // north neighbor of (4,4)... but (5,5)'s
  const MccSet mcc = build_mcc(mesh, fs, MccKind::TypeOne);
  // (5,5): north neighbor is off-mesh at y=6? No: (5,6) is off-mesh (height 6).
  // Its east neighbor is off-mesh too; neither qualifies it.
  EXPECT_FALSE(mcc.is_mcc_node({5, 5}));
  EXPECT_FALSE(mcc.is_mcc_node({3, 5}));
}

TEST(MccModel, PaperFigure1MccSmallerThanBlock) {
  // The MCC refinement of Figure 1: strictly fewer disabled nodes than the
  // faulty block for the same fault pattern.
  const Mesh2D mesh(10, 10);
  const FaultSet fs = faults_at(
      mesh, {{3, 3}, {3, 4}, {4, 4}, {5, 4}, {6, 4}, {2, 5}, {5, 5}, {3, 6}});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  const MccSet mcc1 = build_mcc(mesh, fs, MccKind::TypeOne);
  const MccSet mcc2 = build_mcc(mesh, fs, MccKind::TypeTwo);
  ASSERT_EQ(blocks.block_count(), 1u);
  EXPECT_LT(mcc1.total_disabled(), blocks.blocks()[0].disabled_count);
  EXPECT_LT(mcc2.total_disabled(), blocks.blocks()[0].disabled_count);
}

TEST(MccModel, DualStatusExample) {
  // Nodes can have different status under the two labelings (the paper's
  // (status1, status2) pairs).
  const Mesh2D mesh(10, 10);
  const FaultSet fs = faults_at(
      mesh, {{3, 3}, {3, 4}, {4, 4}, {5, 4}, {6, 4}, {2, 5}, {5, 5}, {3, 6}});
  const MccModel model = build_mcc_model(mesh, fs);
  bool differs = false;
  mesh.for_each_node([&](Coord c) {
    if (model.type_one.is_mcc_node(c) != model.type_two.is_mcc_node(c)) differs = true;
  });
  EXPECT_TRUE(differs) << "type-one and type-two labelings should disagree somewhere";
  EXPECT_EQ(&model.for_quadrant(Quadrant::I), &model.type_one);
  EXPECT_EQ(&model.for_quadrant(Quadrant::IV), &model.type_two);
}

class MccProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MccProperty, MccIsSubsetOfFaultyBlock) {
  // MCCs refine faulty blocks: every MCC node lies in some faulty block.
  Rng rng(31 + GetParam());
  const Mesh2D mesh(60, 60);
  const FaultSet fs = uniform_random_faults(mesh, GetParam(), rng);
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  for (const MccKind kind : {MccKind::TypeOne, MccKind::TypeTwo}) {
    const MccSet mcc = build_mcc(mesh, fs, kind);
    mesh.for_each_node([&](Coord c) {
      if (mcc.is_mcc_node(c)) {
        EXPECT_TRUE(blocks.is_block_node(c)) << to_string(c);
      }
    });
    EXPECT_LE(mcc.total_disabled(), blocks.total_disabled());
  }
}

TEST_P(MccProperty, MccPreservesMinimalReachability) {
  // Wang's theorem: a monotone path avoiding faults exists iff one avoiding
  // the (quadrant-matched) MCC nodes exists. This is the property that makes
  // MCC the "right" refinement.
  Rng rng(77 + GetParam());
  const Mesh2D mesh(40, 40);
  const FaultSet fs = uniform_random_faults(mesh, GetParam(), rng);
  const MccModel model = build_mcc_model(mesh, fs);
  Grid<bool> fault_mask;
  fs.mask().unpack(fault_mask);
  Grid<bool> mcc1_mask(mesh.width(), mesh.height(), false);
  Grid<bool> mcc2_mask(mesh.width(), mesh.height(), false);
  mesh.for_each_node([&](Coord c) {
    mcc1_mask[c] = model.type_one.is_mcc_node(c);
    mcc2_mask[c] = model.type_two.is_mcc_node(c);
  });

  for (int rep = 0; rep < 60; ++rep) {
    const Coord s{static_cast<Dist>(rng.uniform(0, 39)), static_cast<Dist>(rng.uniform(0, 39))};
    const Coord d{static_cast<Dist>(rng.uniform(0, 39)), static_cast<Dist>(rng.uniform(0, 39))};
    const Quadrant q = quadrant_of(s, d);
    const Grid<bool>& mcc_mask =
        mcc_kind_for(q) == MccKind::TypeOne ? mcc1_mask : mcc2_mask;
    if (fault_mask[s] || fault_mask[d] || mcc_mask[s] || mcc_mask[d]) continue;
    EXPECT_EQ(cond::monotone_path_exists(mesh, fault_mask, s, d),
              cond::monotone_path_exists(mesh, mcc_mask, s, d))
        << "s=" << to_string(s) << " d=" << to_string(d);
  }
}

INSTANTIATE_TEST_SUITE_P(VaryFaultCount, MccProperty,
                         ::testing::Values(1u, 10u, 30u, 60u, 120u));

}  // namespace
}  // namespace meshroute::fault
