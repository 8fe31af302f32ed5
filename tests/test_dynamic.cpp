// Tests for incremental fault-information maintenance: after every single
// injection the dynamic state must equal a from-scratch rebuild, while doing
// only locally-bounded work.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "dynamic/dynamic_state.hpp"
#include "fault/block_model.hpp"
#include "fault/mcc_model.hpp"
#include "info/boundary.hpp"
#include "info/safety_level.hpp"
#include "safety_oracle.hpp"

namespace meshroute::dynamic {
namespace {

constexpr std::array kMccKinds{fault::MccKind::TypeOne, fault::MccKind::TypeTwo};

/// The safety levels of one MCC labeling, built from scratch.
info::SafetyGrid mcc_levels(const Mesh2D& mesh, const fault::FaultSet& faults,
                            fault::MccKind kind) {
  info::SafetyGrid levels;
  info::compute_safety_levels(mesh, fault::build_mcc(mesh, faults, kind).plane(), levels);
  return levels;
}

/// Full rebuild reference for the current fault set.
struct Reference {
  fault::BlockSet blocks;
  Grid<bool> mask;
  info::SafetyGrid safety;

  Reference(const Mesh2D& mesh, const fault::FaultSet& faults)
      : blocks(fault::build_faulty_blocks(mesh, faults)),
        mask(info::obstacle_mask(mesh, blocks)),
        safety(info::compute_safety_levels(mesh, mask)) {}
};

void expect_mcc_equal_to_rebuild(const DynamicMeshState& dyn) {
  for (const fault::MccKind kind : kMccKinds) {
    ASSERT_TRUE(dyn.mcc_safety(kind) == mcc_levels(dyn.mesh(), dyn.faults(), kind))
        << "MCC kind " << static_cast<int>(kind);
  }
}

std::vector<Rect> rects_of(const DynamicMeshState& dyn) {
  std::vector<Rect> out;
  for (const fault::FaultyBlock& b : dyn.blocks()) out.push_back(b.rect);
  return out;
}

/// Position of `r` in the block list, or -1.
std::int32_t id_of(const DynamicMeshState& dyn, const Rect& r) {
  const std::vector<Rect> rects = rects_of(dyn);
  const auto it = std::find(rects.begin(), rects.end(), r);
  return it == rects.end() ? -1 : static_cast<std::int32_t>(it - rects.begin());
}

void expect_equal_to_rebuild(const DynamicMeshState& dyn) {
  ASSERT_NO_FATAL_FAILURE(expect_mcc_equal_to_rebuild(dyn));
  const Reference ref(dyn.mesh(), dyn.faults());
  // Obstacle sets identical.
  ASSERT_TRUE(testing_support::ObstaclesMatchMask(dyn.safety(), ref.mask));
  // Block list identical: rects, order and counts.
  ASSERT_EQ(dyn.blocks(), ref.blocks.blocks());
  // Boundary runs identical, run for run, to a from-scratch walk.
  ASSERT_TRUE(dyn.boundary() == info::BoundaryInfoMap(dyn.mesh(), ref.blocks));
  // Safety levels identical on non-block nodes.
  dyn.mesh().for_each_node([&](Coord c) {
    if (ref.mask[c]) return;
    for (const Direction d : kAllDirections) {
      const Dist a = dyn.safety()[c].get(d);
      const Dist b = ref.safety[c].get(d);
      ASSERT_EQ(is_infinite(a), is_infinite(b)) << to_string(c) << " " << to_string(d);
      if (!is_infinite(b)) {
        ASSERT_EQ(a, b) << to_string(c) << " " << to_string(d);
      }
    }
  });
  // And on every node, block nodes included, against the scalar sweeps.
  Grid<info::ExtendedSafetyLevel> oracle;
  info::compute_safety_levels_scalar(dyn.mesh(), ref.mask, oracle);
  ASSERT_TRUE(testing_support::SafetyMatchesOracle(dyn.safety(), oracle));
}

TEST(DynamicState, EmptyStateMatchesRebuild) {
  const Mesh2D mesh(12, 12);
  const DynamicMeshState dyn(mesh);
  EXPECT_TRUE(dyn.blocks().empty());
  expect_equal_to_rebuild(dyn);
}

TEST(DynamicState, SingleInjection) {
  const Mesh2D mesh(12, 12);
  DynamicMeshState dyn(mesh);
  const UpdateStats s = dyn.inject_fault({5, 5});
  EXPECT_EQ(s.relabeled_nodes, 1);
  EXPECT_EQ(s.absorbed_blocks, 0);
  EXPECT_EQ(s.rows_resweeped, 1);
  EXPECT_EQ(s.cols_resweeped, 1);
  EXPECT_EQ(dyn.blocks().size(), 1u);
  expect_equal_to_rebuild(dyn);
}

TEST(DynamicState, DuplicateInjectionIsNoOp) {
  const Mesh2D mesh(10, 10);
  DynamicMeshState dyn(mesh);
  (void)dyn.inject_fault({3, 3});
  const UpdateStats s = dyn.inject_fault({3, 3});
  EXPECT_EQ(s.relabeled_nodes, 0);
  EXPECT_EQ(dyn.faults().count(), 1u);
  expect_equal_to_rebuild(dyn);
}

TEST(DynamicState, FaultInsideBlockKeepsStructure) {
  const Mesh2D mesh(10, 10);
  DynamicMeshState dyn(mesh);
  (void)dyn.inject_fault({4, 4});
  (void)dyn.inject_fault({5, 5});  // merges into [4:5,4:5]; (4,5) disabled
  ASSERT_EQ(dyn.blocks().size(), 1u);
  const UpdateStats s = dyn.inject_fault({4, 5});
  EXPECT_EQ(s.relabeled_nodes, 0);
  EXPECT_EQ(dyn.blocks().size(), 1u);
  expect_equal_to_rebuild(dyn);
}

TEST(DynamicState, DiagonalMergeAbsorbsBlock) {
  const Mesh2D mesh(12, 12);
  DynamicMeshState dyn(mesh);
  (void)dyn.inject_fault({4, 4});
  const UpdateStats s = dyn.inject_fault({5, 5});
  EXPECT_EQ(s.absorbed_blocks, 1);
  EXPECT_GE(s.relabeled_nodes, 3);  // (5,5) + two disabled bridge nodes
  ASSERT_EQ(dyn.blocks().size(), 1u);
  EXPECT_EQ(dyn.blocks()[0].rect, (Rect{4, 5, 4, 5}));
  expect_equal_to_rebuild(dyn);
}

TEST(DynamicState, BridgingFaultMergesTwoBlocks) {
  const Mesh2D mesh(14, 14);
  DynamicMeshState dyn(mesh);
  (void)dyn.inject_fault({4, 4});
  (void)dyn.inject_fault({6, 6});
  ASSERT_EQ(dyn.blocks().size(), 2u);
  const UpdateStats s = dyn.inject_fault({5, 5});  // diagonal to both
  EXPECT_EQ(s.absorbed_blocks, 2);
  ASSERT_EQ(dyn.blocks().size(), 1u);
  EXPECT_EQ(dyn.blocks()[0].rect, (Rect{4, 6, 4, 6}));
  expect_equal_to_rebuild(dyn);
}

TEST(DynamicState, PaperExampleIncrementally) {
  // Figure 1 (a)'s eight faults injected one by one must land on the same
  // [2:6, 3:6] block the batch builder produces.
  const Mesh2D mesh(10, 10);
  DynamicMeshState dyn(mesh);
  for (const Coord f : {Coord{3, 3}, Coord{3, 4}, Coord{4, 4}, Coord{5, 4}, Coord{6, 4},
                        Coord{2, 5}, Coord{5, 5}, Coord{3, 6}}) {
    (void)dyn.inject_fault(f);
    expect_equal_to_rebuild(dyn);
  }
  ASSERT_EQ(dyn.blocks().size(), 1u);
  EXPECT_EQ(dyn.blocks()[0].rect, (Rect{2, 6, 3, 6}));
}

TEST(DynamicBoundary, NewBlockCutsSurvivorTrail) {
  // [5,5]'s south-east trail runs east along row 4. A fault at (8,4) makes
  // a 1x1 block on it, which sorts first (ymin 4), so the old block moves
  // to id 1 and its trail turns south at x = 7: it must be re-walked.
  const Mesh2D mesh(12, 12);
  DynamicMeshState dyn(mesh);
  (void)dyn.inject_fault({5, 5});
  const Coord c{8, 4};
  ASSERT_TRUE(dyn.boundary().knows(c, 0));
  ASSERT_TRUE(dyn.boundary().knows({9, 4}, 0));
  const UpdateStats s = dyn.inject_fault(c);
  ASSERT_EQ(s.absorbed_blocks, 0);
  ASSERT_EQ(rects_of(dyn), (std::vector<Rect>{rect_at(c), rect_at({5, 5})}));
  EXPECT_FALSE(dyn.boundary().knows({9, 4}, 1));
  EXPECT_TRUE(dyn.boundary().knows({9, 3}, 1));
  EXPECT_TRUE(dyn.boundary().knows({9, 4}, 0));
  expect_equal_to_rebuild(dyn);
}

TEST(DynamicBoundary, MergeShiftsIdsBothWays) {
  // (5,5) bridges the blocks at (4,6) and (6,6) into [4:6, 5:6], which
  // sorts before the block at (9,5) (that one moves up an id) while (2,9)
  // moves down, since two blocks left ahead of it. (1,1) keeps id 0.
  const Mesh2D mesh(12, 12);
  DynamicMeshState dyn(mesh);
  for (const Coord f : {Coord{1, 1}, Coord{4, 6}, Coord{6, 6}, Coord{9, 5}, Coord{2, 9}}) {
    (void)dyn.inject_fault(f);
  }
  ASSERT_EQ(dyn.blocks().size(), 5u);
  const std::int32_t up_before = id_of(dyn, rect_at({9, 5}));
  const std::int32_t down_before = id_of(dyn, rect_at({2, 9}));
  const UpdateStats s = dyn.inject_fault({5, 5});
  ASSERT_EQ(s.absorbed_blocks, 2);
  ASSERT_EQ(id_of(dyn, Rect{4, 6, 5, 6}), 1);
  EXPECT_EQ(dyn.blocks()[1].faulty_count, 3);
  EXPECT_EQ(dyn.blocks()[1].disabled_count, 3);
  EXPECT_EQ(id_of(dyn, rect_at({1, 1})), 0);
  EXPECT_GT(id_of(dyn, rect_at({9, 5})), up_before);
  EXPECT_LT(id_of(dyn, rect_at({2, 9})), down_before);
  expect_equal_to_rebuild(dyn);
}

TEST(DynamicBoundary, FaultInsideBlockMovesCountsOnly) {
  // (4,5) is disabled inside [4:5, 4:5]; a fault there moves one node from
  // the block's disabled count to its faulty count and changes no run.
  const Mesh2D mesh(10, 10);
  DynamicMeshState dyn(mesh);
  (void)dyn.inject_fault({4, 4});
  (void)dyn.inject_fault({5, 5});
  const Coord c{4, 5};
  ASSERT_TRUE(dyn.safety().blocked(c));
  ASSERT_FALSE(dyn.faults().contains(c));
  ASSERT_EQ(dyn.blocks(), (std::vector<fault::FaultyBlock>{{Rect{4, 5, 4, 5}, 2, 2}}));
  const info::BoundaryInfoMap runs = dyn.boundary();
  (void)dyn.inject_fault(c);
  EXPECT_EQ(dyn.blocks(), (std::vector<fault::FaultyBlock>{{Rect{4, 5, 4, 5}, 3, 1}}));
  EXPECT_TRUE(dyn.boundary() == runs);
  expect_equal_to_rebuild(dyn);
}

/// known_blocks at every node of the state's map, against a from-scratch
/// map over the from-scratch block list, and known_rects against the rects
/// of those ids: a wrong key-to-id lookup or far corner shows here even
/// where the runs match run for run.
void expect_known_blocks_match_rebuild(const DynamicMeshState& dyn) {
  const fault::BlockSet blocks = fault::build_faulty_blocks(dyn.mesh(), dyn.faults());
  ASSERT_EQ(dyn.blocks(), blocks.blocks());
  const info::BoundaryInfoMap ref(dyn.mesh(), blocks);
  ASSERT_TRUE(dyn.boundary() == ref);
  std::vector<std::int32_t> got;
  std::vector<std::int32_t> want;
  std::vector<Rect> rects;
  std::vector<Rect> want_rects;
  dyn.mesh().for_each_node([&](Coord c) {
    dyn.boundary().known_blocks(c, got);
    ref.known_blocks(c, want);
    ASSERT_EQ(got, want) << to_string(c);
    dyn.boundary().known_rects(c, rects);
    want_rects.clear();
    for (const std::int32_t id : want) {
      want_rects.push_back(blocks.blocks()[static_cast<std::size_t>(id)].rect);
    }
    ASSERT_TRUE(rects == want_rects) << to_string(c);
  });
}

TEST(DynamicBoundary, GrownBlockKeepsAnAbsorbedCorner) {
  // (5,5) merges the block at (4,4) into [4:5, 4:5], whose SW corner (its
  // key) is the absorbed block's: the same key is dropped and walked again.
  // (1,1) and (8,8) keep their rects around it; (8,8)'s trails are cut.
  const Mesh2D mesh(12, 12);
  DynamicMeshState dyn(mesh);
  for (const Coord f : {Coord{1, 1}, Coord{4, 4}, Coord{8, 8}}) (void)dyn.inject_fault(f);
  ASSERT_EQ(id_of(dyn, rect_at({4, 4})), 1);
  const UpdateStats s = dyn.inject_fault({5, 5});
  ASSERT_EQ(s.absorbed_blocks, 1);
  ASSERT_EQ(id_of(dyn, rect_at({4, 4})), -1);
  ASSERT_EQ(id_of(dyn, Rect{4, 5, 4, 5}), 1);
  EXPECT_TRUE(dyn.boundary().knows({6, 6}, 1));
  EXPECT_FALSE(dyn.boundary().knows({5, 5}, 1));
  expect_equal_to_rebuild(dyn);
  expect_known_blocks_match_rebuild(dyn);
}

TEST(DynamicBoundary, RewalkedSurvivorMovesOffLinesTheGrownRectMisses) {
  // [8,10]'s east trail runs south down column 9 into (9,1) and slides to
  // column 10 at y = 2. The block at (9,7) cuts it higher up: it slides to
  // column 10 at y = 8, runs into (10,5) and slides on to column 11. So
  // (10,2), whose row and column the grown rect does not cross, loses the
  // survivor's deposit, and column 10 holds its runs at new places.
  const Mesh2D mesh(12, 12);
  DynamicMeshState dyn(mesh);
  for (const Coord f : {Coord{9, 1}, Coord{10, 5}, Coord{8, 10}}) (void)dyn.inject_fault(f);
  const Coord lost{10, 2};
  const std::int32_t before = id_of(dyn, rect_at({8, 10}));
  ASSERT_TRUE(dyn.boundary().knows(lost, before));
  ASSERT_FALSE(dyn.boundary().knows({10, 7}, before));
  const UpdateStats s = dyn.inject_fault({9, 7});
  ASSERT_EQ(s.absorbed_blocks, 0);
  const Rect grown = rect_at({9, 7});
  ASSERT_GE(id_of(dyn, grown), 0);
  ASSERT_TRUE(lost.y < grown.ymin || lost.y > grown.ymax);
  ASSERT_TRUE(lost.x < grown.xmin || lost.x > grown.xmax);
  const std::int32_t after = id_of(dyn, rect_at({8, 10}));
  EXPECT_FALSE(dyn.boundary().knows(lost, after));
  EXPECT_TRUE(dyn.boundary().knows({10, 7}, after));
  EXPECT_TRUE(dyn.boundary().knows({11, 0}, after));
  expect_equal_to_rebuild(dyn);
  expect_known_blocks_match_rebuild(dyn);
}

TEST(DynamicBoundary, MergeAbsorbsFourBlocks) {
  // (5,5) is diagonal to four blocks; the disable rule fills the gaps and
  // the grown block [4:6, 4:6] absorbs all four, between two survivors.
  const Mesh2D mesh(12, 12);
  DynamicMeshState dyn(mesh);
  for (const Coord f : {Coord{2, 1}, Coord{4, 4}, Coord{6, 4}, Coord{4, 6}, Coord{6, 6},
                        Coord{9, 9}}) {
    (void)dyn.inject_fault(f);
  }
  ASSERT_EQ(dyn.blocks().size(), 6u);
  const UpdateStats s = dyn.inject_fault({5, 5});
  ASSERT_GE(s.absorbed_blocks, 3);
  ASSERT_EQ(rects_of(dyn), (std::vector<Rect>{rect_at({2, 1}), Rect{4, 6, 4, 6}, rect_at({9, 9})}));
  expect_equal_to_rebuild(dyn);
  expect_known_blocks_match_rebuild(dyn);
}

TEST(DynamicBoundary, HeldMapsOutliveLaterInjections) {
  // A map held across injections, as a snapshot holds it through
  // boundary_ptr(), stays the map of the blocks it was made for: every held
  // map is checked against a from-scratch one after every injection that
  // grows a block.
  Rng rng(11);
  const Mesh2D mesh(32, 32);
  DynamicMeshState dyn(mesh);
  struct Held {
    std::shared_ptr<const info::BoundaryInfoMap> map;
    fault::BlockSet blocks;
  };
  std::vector<Held> held;
  while (held.size() < 24) {
    const std::shared_ptr<const info::BoundaryInfoMap> before = dyn.boundary_ptr();
    (void)dyn.inject_fault(
        {static_cast<Dist>(rng.uniform(0, 31)), static_cast<Dist>(rng.uniform(0, 31))});
    if (dyn.boundary_ptr() == before) continue;
    held.push_back({dyn.boundary_ptr(), fault::build_faulty_blocks(mesh, dyn.faults())});
    for (const Held& h : held) {
      ASSERT_TRUE(*h.map == info::BoundaryInfoMap(mesh, h.blocks))
          << "map held since update " << (&h - held.data()) << ", now at " << held.size();
    }
  }
}

class DynamicKnownBlocks : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicKnownBlocks, EveryNodeMatchesRebuildAfterEveryInjection) {
  // 1,000 uniform injections on 48x48, from a clear mesh to one mostly in
  // blocks: every update's key-to-id lookup is read back at every node.
  Rng rng(GetParam());
  const Mesh2D mesh(48, 48);
  DynamicMeshState dyn(mesh);
  for (int i = 0; i < 1000; ++i) {
    const Coord c{static_cast<Dist>(rng.uniform(0, 47)), static_cast<Dist>(rng.uniform(0, 47))};
    (void)dyn.inject_fault(c);
    ASSERT_NO_FATAL_FAILURE(expect_known_blocks_match_rebuild(dyn))
        << "after injection " << i << " at " << to_string(c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicKnownBlocks, ::testing::Values(3u, 41u, 0x48u));

std::int64_t obstacle_count(const Mesh2D& mesh, const info::SafetyGrid& grid) {
  std::int64_t n = 0;
  mesh.for_each_node([&](Coord c) { n += grid.blocked(c) ? 1 : 0; });
  return n;
}

/// Inject `faults` in order, then `c`, which must carry `status` in labeling
/// `kind` beforehand. The other labeling must gain nodes besides `c`, so the
/// case exercises the propagation and not only the new fault's own bit.
void check_fault_on_labeled_node(std::initializer_list<Coord> faults, Coord c,
                                 fault::MccKind kind, std::uint8_t status) {
  const Mesh2D mesh(7, 7);
  DynamicMeshState dyn(mesh);
  for (const Coord f : faults) (void)dyn.inject_fault(f);
  ASSERT_EQ(fault::build_mcc(mesh, dyn.faults(), kind).status(c), status);
  const fault::MccKind other =
      kind == fault::MccKind::TypeOne ? fault::MccKind::TypeTwo : fault::MccKind::TypeOne;
  const std::int64_t before = obstacle_count(mesh, dyn.mcc_safety(other));
  (void)dyn.inject_fault(c);
  expect_equal_to_rebuild(dyn);
  EXPECT_GT(obstacle_count(mesh, dyn.mcc_safety(other)), before + 1);
}

TEST(DynamicMcc, FaultOnUselessNode) {
  // (5,5) and then (4,5) are type-one useless (north and east neighbors
  // faulty or useless); the fault at (4,5) makes (5,5) type-two useless.
  check_fault_on_labeled_node({{5, 6}, {4, 6}, {6, 5}}, {4, 5}, fault::MccKind::TypeOne,
                              fault::mcc_status::kUseless);
}

TEST(DynamicMcc, FaultOnCantReachNode) {
  // The mirror image: (1,1) and then (2,1) are type-one can't-reach.
  check_fault_on_labeled_node({{1, 0}, {2, 0}, {0, 1}}, {2, 1}, fault::MccKind::TypeOne,
                              fault::mcc_status::kCantReach);
}

TEST(DynamicMcc, FaultInsideBlockAddsLabels) {
  // (1,2) is disabled inside the block [0:2, 0:2]; a fault there changes no
  // block but becomes a type-one MCC node and labels (1,1), (2,2) and more.
  const Mesh2D mesh(7, 7);
  DynamicMeshState dyn(mesh);
  for (const Coord f : {Coord{1, 0}, Coord{2, 1}, Coord{0, 2}}) (void)dyn.inject_fault(f);
  const Coord c{1, 2};
  ASSERT_TRUE(dyn.safety().blocked(c));
  const std::vector<Rect> blocks = rects_of(dyn);
  const std::int64_t before = obstacle_count(mesh, dyn.mcc_safety(fault::MccKind::TypeOne));
  const UpdateStats s = dyn.inject_fault(c);
  EXPECT_EQ(s.relabeled_nodes, 0);
  EXPECT_EQ(rects_of(dyn), blocks);
  EXPECT_GT(obstacle_count(mesh, dyn.mcc_safety(fault::MccKind::TypeOne)), before + 1);
  expect_equal_to_rebuild(dyn);
}

TEST(DynamicMcc, EveryThreeFaultPlacementInEveryOrderOn5x5) {
  // All C(25, 3) placements, each injected in all 3! orders, against the
  // rebuild after every step.
  const Mesh2D mesh(5, 5);
  std::vector<Coord> nodes;
  mesh.for_each_node([&](Coord c) { nodes.push_back(c); });
  int placements = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      for (std::size_t k = j + 1; k < nodes.size(); ++k) {
        ++placements;
        std::array<Coord, 3> order{nodes[i], nodes[j], nodes[k]};
        std::sort(order.begin(), order.end());
        do {
          DynamicMeshState dyn(mesh);
          for (const Coord c : order) {
            (void)dyn.inject_fault(c);
            ASSERT_NO_FATAL_FAILURE(expect_equal_to_rebuild(dyn))
                << "order " << to_string(order[0]) << " " << to_string(order[1]) << " "
                << to_string(order[2]) << ", after " << to_string(c);
          }
        } while (std::next_permutation(order.begin(), order.end()));
      }
    }
  }
  EXPECT_EQ(placements, 2300);
}

class DynamicRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicRandom, LongInjectionSequencesStayConsistent) {
  Rng rng(GetParam());
  const Mesh2D mesh(30, 30);
  DynamicMeshState dyn(mesh);
  for (int i = 0; i < 120; ++i) {
    const Coord c{static_cast<Dist>(rng.uniform(0, 29)), static_cast<Dist>(rng.uniform(0, 29))};
    (void)dyn.inject_fault(c);
    if (i % 10 == 9) expect_equal_to_rebuild(dyn);  // spot-check every 10th
  }
  expect_equal_to_rebuild(dyn);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicRandom, ::testing::Values(1u, 7u, 13u, 29u));

// Chaos-layer hardening: the ChaosEngine replays whole fault schedules
// through this state, so the incremental structures must agree with a
// from-scratch rebuild after EVERY injection of a long random sequence —
// not just at spot-check intervals — across seeds and mesh sizes. The
// sequences deliberately mix fresh faults, duplicates, and hits on already
// disabled nodes (coordinates are drawn uniformly, so late draws land in
// grown blocks often).
struct StressCase {
  std::uint64_t seed;
  Dist n;
  int injections;
};

// Names each case "seed<seed>_n<side>_i<injections>". gtest_discover_tests
// (CMake 3.25) names a value-parameterized ctest case by its printed
// parameter when gtest names it by index, and keeps gtest's whole listing
// line, "# GetParam() = ..." comment and all, under a name generator; so the
// readable name comes from the printer.
void PrintTo(const StressCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_n" << c.n << "_i" << c.injections;
}

void check_every_injection(std::uint64_t seed, Dist width, Dist height, int injections) {
  Rng rng(seed);
  const Mesh2D mesh(width, height);
  DynamicMeshState dyn(mesh);
  for (int i = 0; i < injections; ++i) {
    const Coord c{static_cast<Dist>(rng.uniform(0, width - 1)),
                  static_cast<Dist>(rng.uniform(0, height - 1))};
    (void)dyn.inject_fault(c);
    ASSERT_NO_FATAL_FAILURE(expect_equal_to_rebuild(dyn)) << "after injection " << i << " at "
                                                          << to_string(c);
  }
}

class DynamicStressEveryStep : public ::testing::TestWithParam<StressCase> {};

TEST_P(DynamicStressEveryStep, BitIdenticalToRebuildAfterEveryInjection) {
  const StressCase& p = GetParam();
  check_every_injection(p.seed, p.n, p.n, p.injections);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSizes, DynamicStressEveryStep,
                         ::testing::Values(StressCase{2026u, 16, 220},
                                           StressCase{77u, 24, 260},
                                           StressCase{0xC0FFEEu, 33, 300},
                                           StressCase{419u, 48, 240}));

TEST(DynamicState, BitIdenticalToRebuildAfterEveryInjectionAtWordEdges) {
  // 129 x 65: every row and column runs one node past a 64-bit word.
  check_every_injection(0x129065u, 129, 65, 300);
}

TEST(DynamicState, SeededStateEqualsInjectingOneByOne) {
  // The seeding constructor builds the boundary runs once at the end; every
  // structure must match injecting the same faults (duplicates included) in
  // order, the runs included.
  Rng rng(0x5eed);
  const Mesh2D mesh(40, 40);
  std::vector<Coord> faults;
  for (int i = 0; i < 150; ++i) {
    faults.push_back({static_cast<Dist>(rng.uniform(0, 39)), static_cast<Dist>(rng.uniform(0, 39))});
  }
  DynamicMeshState one_by_one(mesh);
  for (const Coord c : faults) (void)one_by_one.inject_fault(c);
  const DynamicMeshState seeded(mesh, faults);
  EXPECT_EQ(seeded.blocks(), one_by_one.blocks());
  EXPECT_TRUE(seeded.boundary() == one_by_one.boundary());
  EXPECT_TRUE(seeded.safety() == one_by_one.safety());
  for (const fault::MccKind kind : kMccKinds) {
    EXPECT_TRUE(seeded.mcc_safety(kind) == one_by_one.mcc_safety(kind));
  }
  EXPECT_EQ(seeded.last_changed(), one_by_one.last_changed());
  expect_equal_to_rebuild(seeded);
}

TEST(DynamicState, ResweepBoundedByAffectedBand) {
  // The re-swept line counts are exactly the distinct rows/columns of the
  // injection's epoch delta (last_changed) — bounded by the affected band's
  // bounding box, never by the mesh dimensions. Also: deltas partition the
  // becomes-bad events (no cell ever appears in two deltas), which is what
  // lets ChaosEngine stamp bad-since times from them.
  Rng rng(0xBAD5EED);
  const Mesh2D mesh(160, 90);
  DynamicMeshState dyn(mesh);
  std::set<Coord> ever_changed;
  for (int i = 0; i < 250; ++i) {
    const Coord c{static_cast<Dist>(rng.uniform(0, 159)),
                  static_cast<Dist>(rng.uniform(0, 89))};
    const UpdateStats s = dyn.inject_fault(c);
    const std::vector<Coord>& delta = dyn.last_changed();
    std::set<Dist> rows;
    std::set<Dist> cols;
    Rect band;
    for (const Coord d : delta) {
      rows.insert(d.y);
      cols.insert(d.x);
      band = band.united(d);
      EXPECT_TRUE(ever_changed.insert(d).second) << "cell in two deltas: " << to_string(d);
      EXPECT_TRUE(dyn.safety().blocked(d));
    }
    EXPECT_EQ(s.rows_resweeped, static_cast<std::int64_t>(rows.size()));
    EXPECT_EQ(s.cols_resweeped, static_cast<std::int64_t>(cols.size()));
    if (delta.empty()) {
      EXPECT_EQ(s.rows_resweeped, 0);
      EXPECT_EQ(s.cols_resweeped, 0);
    } else {
      EXPECT_LE(s.rows_resweeped, band.height());
      EXPECT_LE(s.cols_resweeped, band.width());
      EXPECT_LT(s.rows_resweeped, mesh.height());
      EXPECT_LT(s.cols_resweeped, mesh.width());
    }
  }
  // The union of all deltas is exactly today's obstacle set.
  std::int64_t bad_count = 0;
  mesh.for_each_node([&](Coord c) { bad_count += dyn.safety().blocked(c) ? 1 : 0; });
  EXPECT_EQ(bad_count, static_cast<std::int64_t>(ever_changed.size()));
}

TEST(DynamicState, WorkIsLocallyBounded) {
  // Scattered faults on a big mesh: each injection re-sweeps only the
  // handful of lines it touched, never the whole grid.
  Rng rng(55);
  const Mesh2D mesh(100, 100);
  DynamicMeshState dyn(mesh);
  for (int i = 0; i < 150; ++i) {
    const Coord c{static_cast<Dist>(rng.uniform(0, 99)), static_cast<Dist>(rng.uniform(0, 99))};
    const UpdateStats s = dyn.inject_fault(c);
    EXPECT_LE(s.rows_resweeped, 8);
    EXPECT_LE(s.cols_resweeped, 8);
    EXPECT_LE(s.relabeled_nodes, 64);
  }
  expect_equal_to_rebuild(dyn);
}

}  // namespace
}  // namespace meshroute::dynamic
