// Tests for the sufficient safe condition and extensions 1, 2, 3
// (Definition 3, Theorems 1, 1a, 1b, 1c) — including the soundness
// property: whenever a condition certifies Minimal/SubMinimal, a path of
// the promised length really exists.
#include <gtest/gtest.h>

#include "cond/conditions.hpp"
#include "cond/strategies.hpp"
#include "cond/wang.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "info/pivots.hpp"
#include "mesh/frame.hpp"

namespace meshroute::cond {
namespace {

struct Fixture {
  Mesh2D mesh;
  Grid<bool> obstacles;
  info::SafetyGrid safety;

  Fixture(Dist n, std::initializer_list<Rect> blocks)
      : mesh(Mesh2D::square(n)), obstacles(n, n, false),
        safety(n, n) {
    for (const Rect& r : blocks) {
      for (Dist y = r.ymin; y <= r.ymax; ++y) {
        for (Dist x = r.xmin; x <= r.xmax; ++x) obstacles[{x, y}] = true;
      }
    }
    safety = info::compute_safety_levels(mesh, obstacles);
  }

  [[nodiscard]] RoutingProblem problem(Coord s, Coord d) const {
    return {&mesh, &safety, s, d};
  }
};

TEST(SafeCondition, Definition3ExactSemantics) {
  // Source (2,2); block [5:6, 1:3] sits 2 hops east of the source row.
  const Fixture fx(12, {Rect{5, 6, 1, 3}});
  // E at (2,2) = 2; N = inf.
  const RoutingProblem p = fx.problem({2, 2}, {4, 8});
  EXPECT_TRUE(source_safe(p));  // xd-xs = 2 <= E
  EXPECT_FALSE(source_safe(fx.problem({2, 2}, {5, 8})));  // 3 > E
  EXPECT_TRUE(source_safe(fx.problem({2, 2}, {2, 11})));  // straight north, clear
}

TEST(SafeCondition, WorksInEveryQuadrant) {
  const Fixture fx(12, {Rect{5, 6, 5, 6}});
  const Coord center{8, 8};
  // Row 8 passes north of the block: W = inf, so a due-west target is safe.
  EXPECT_TRUE(source_safe(fx.problem(center, {0, 8})));
  // From (8,8) toward (4,4): west section of row 8 clear, south section of
  // column 8 clear -> safe.
  EXPECT_TRUE(source_safe(fx.problem(center, {4, 4})));
  // From (8,5): the west section of row 5 hits the block at x=6 -> W = 1.
  EXPECT_FALSE(source_safe(fx.problem({8, 5}, {4, 3})));
  EXPECT_TRUE(source_safe(fx.problem({8, 5}, {7, 3})));
}

TEST(SafeCondition, ObstacleEndpointsAreUnsafe) {
  const Fixture fx(8, {Rect{3, 4, 3, 4}});
  EXPECT_FALSE(safe_with_respect_to(fx.problem({3, 3}, {7, 7}), {3, 3}, {7, 7}));
  EXPECT_FALSE(safe_with_respect_to(fx.problem({0, 0}, {4, 4}), {0, 0}, {4, 4}));
}

TEST(SafeCondition, TheoremOneGuarantee) {
  // Theorem 1: safe source => a minimal path exists. Exhaustive check on a
  // fixed two-block layout.
  const Fixture fx(16, {Rect{4, 6, 5, 7}, Rect{9, 11, 10, 11}});
  const Coord s{1, 1};
  for (Dist x = 1; x < 16; ++x) {
    for (Dist y = 1; y < 16; ++y) {
      const Coord d{x, y};
      if (fx.obstacles[d]) continue;
      const RoutingProblem p = fx.problem(s, d);
      if (source_safe(p)) {
        EXPECT_TRUE(monotone_path_exists(fx.mesh, fx.obstacles, s, d))
            << "safe but unreachable: d=" << to_string(d);
      }
    }
  }
}

TEST(Extension1, PreferredNeighborRescuesUnsafeSource) {
  // Source (2,5) with a block immediately east on its row: E = 0, so the
  // base condition fails for eastern destinations; its north neighbor (2,6)
  // has a clear row -> extension 1 certifies Minimal.
  const Fixture fx(12, {Rect{3, 4, 4, 5}});
  const RoutingProblem p = fx.problem({2, 5}, {6, 9});
  EXPECT_FALSE(source_safe(p));
  Coord via{-1, -1};
  EXPECT_EQ(extension1(p, &via), Decision::Minimal);
  EXPECT_EQ(via, (Coord{2, 6}));
}

TEST(Extension1, SpareNeighborGivesSubMinimal) {
  // A block pressed against the source's row (and its north neighbor's row)
  // leaves only the south spare neighbor safe: sub-minimal routing with one
  // detour (Theorem 1a's second clause).
  const Fixture fx(14, {Rect{4, 6, 3, 4}});
  const Coord s{3, 3};
  const Coord d{6, 9};
  const RoutingProblem p = fx.problem(s, d);
  EXPECT_FALSE(source_safe(p));
  Coord via{-1, -1};
  const Decision dec = extension1(p, &via);
  EXPECT_EQ(dec, Decision::SubMinimal);
  // The certificate: one spare hop, then a minimal path from the neighbor.
  EXPECT_EQ(via, (Coord{3, 2}));
  EXPECT_EQ(manhattan(s, via), 1);
  EXPECT_EQ(manhattan(via, d), manhattan(s, d) + 1);
  EXPECT_TRUE(monotone_path_exists(fx.mesh, fx.obstacles, via, d));
}

TEST(Extension1, UnknownWhenAllNeighborsUnsafe) {
  // Surround the source region so neither the source nor any neighbor is
  // safe toward the destination.
  const Fixture fx(16, {Rect{5, 6, 0, 6}, Rect{0, 3, 8, 9}});
  const RoutingProblem p = fx.problem({1, 1}, {9, 12});
  EXPECT_FALSE(source_safe(p));
  EXPECT_EQ(extension1(p), Decision::Unknown);
}

TEST(Extension2, AxisNodeFactorsTheRoute) {
  // Source row clear eastward; a block north of the source column makes the
  // base condition fail; an axis node further east sees a clear column.
  const Fixture fx(14, {Rect{0, 2, 5, 6}});
  const Coord s{1, 1};
  const Coord d{6, 10};
  const RoutingProblem p = fx.problem(s, d);
  EXPECT_FALSE(source_safe(p));  // N at source is 3 (block at y=5), yd-ys=9
  Coord via{-1, -1};
  EXPECT_EQ(extension2(p, 1, &via), Decision::Minimal);
  EXPECT_GT(via.x, 2);  // must clear the block's columns
  EXPECT_EQ(via.y, 1);
  EXPECT_TRUE(monotone_path_exists(fx.mesh, fx.obstacles, s, via));
  EXPECT_TRUE(monotone_path_exists(fx.mesh, fx.obstacles, via, d));
}

TEST(Extension2, RepresentativeBeyondDestinationIsUseless) {
  // Axis nodes east of the destination column cannot factor a minimal
  // route; extension 2 must ignore them.
  const Fixture fx(14, {Rect{0, 4, 5, 6}});
  const RoutingProblem p = fx.problem({1, 1}, {3, 10});
  // All axis nodes with k <= 2 (x <= 3) have N = 3 < 9; nodes with x >= 5
  // would be safe but exceed the destination offset.
  EXPECT_EQ(extension2(p, 1), Decision::Unknown);
}

TEST(Extension2, CoarserSegmentsAreWeaker) {
  // Property on a random batch: the certifying power of extension 2 is
  // monotone in information granularity (size 1 >= size 5 >= whole-region).
  Rng rng(5);
  const Mesh2D mesh(40, 40);
  int hits1 = 0;
  int hits5 = 0;
  int hitsmax = 0;
  for (int rep = 0; rep < 40; ++rep) {
    const auto fs = fault::uniform_random_faults(mesh, 40, rng);
    const auto blocks = fault::build_faulty_blocks(mesh, fs);
    const Grid<bool> mask = info::obstacle_mask(mesh, blocks);
    const info::SafetyGrid safety = info::compute_safety_levels(mesh, mask);
    for (int t = 0; t < 20; ++t) {
      const Coord s{static_cast<Dist>(rng.uniform(0, 19)),
                    static_cast<Dist>(rng.uniform(0, 19))};
      const Coord d{static_cast<Dist>(rng.uniform(20, 39)),
                    static_cast<Dist>(rng.uniform(20, 39))};
      if (mask[s] || mask[d]) continue;
      const RoutingProblem p{&mesh, &safety, s, d};
      const bool e1 = extension2(p, 1) == Decision::Minimal;
      const bool e5 = extension2(p, 5) == Decision::Minimal;
      const bool emax = extension2(p, info::kWholeRegionSegment) == Decision::Minimal;
      hits1 += e1;
      hits5 += e5;
      hitsmax += emax;
      // Pointwise monotonicity does not hold (different representatives),
      // but any certificate must be sound:
      for (const bool hit : {e1, e5, emax}) {
        if (hit) {
          EXPECT_TRUE(monotone_path_exists(mesh, mask, s, d));
        }
      }
    }
  }
  EXPECT_GE(hits1, hits5);
  EXPECT_GE(hits5, hitsmax);
  EXPECT_GT(hits1, 0);
}

TEST(Extension2, FourDirectionalRepsDominateSinglePerpendicular) {
  // Section 4's second variation can only certify more, never less, and
  // stays sound.
  Rng rng(9);
  const Mesh2D mesh(40, 40);
  int single_hits = 0;
  int multi_hits = 0;
  for (int rep = 0; rep < 30; ++rep) {
    const auto fs = fault::uniform_random_faults(mesh, 50, rng);
    const auto blocks = fault::build_faulty_blocks(mesh, fs);
    const Grid<bool> mask = info::obstacle_mask(mesh, blocks);
    const info::SafetyGrid safety = info::compute_safety_levels(mesh, mask);
    for (int t = 0; t < 20; ++t) {
      const Coord s{static_cast<Dist>(rng.uniform(0, 19)),
                    static_cast<Dist>(rng.uniform(0, 19))};
      const Coord d{static_cast<Dist>(rng.uniform(20, 39)),
                    static_cast<Dist>(rng.uniform(20, 39))};
      if (mask[s] || mask[d]) continue;
      const RoutingProblem p{&mesh, &safety, s, d};
      const bool single =
          extension2(p, info::kWholeRegionSegment, nullptr, Ext2Reps::SinglePerpendicular) ==
          Decision::Minimal;
      const bool multi =
          extension2(p, info::kWholeRegionSegment, nullptr, Ext2Reps::FourDirectional) ==
          Decision::Minimal;
      if (single) {
        EXPECT_TRUE(multi);
      }
      if (multi) {
        EXPECT_TRUE(monotone_path_exists(mesh, mask, s, d));
      }
      single_hits += single;
      multi_hits += multi;
    }
  }
  EXPECT_GE(multi_hits, single_hits);
}

TEST(Extension3, PivotInsideRectangleCertifies) {
  // Base condition fails (blocks pinch both axes near the source), but a
  // pivot in the middle is doubly safe.
  const Fixture fx(16, {Rect{4, 5, 0, 2}, Rect{0, 2, 4, 5}});
  const Coord s{1, 1};
  const Coord d{10, 10};
  const RoutingProblem p = fx.problem(s, d);
  EXPECT_FALSE(source_safe(p));
  EXPECT_EQ(extension1(p), Decision::Unknown);  // every neighbor is pinched too
  const std::vector<Coord> good{{3, 3}};
  Coord via{-1, -1};
  EXPECT_EQ(extension3(p, good, &via), Decision::Minimal);
  EXPECT_EQ(via, (Coord{3, 3}));
  // A pivot outside the rectangle is ignored.
  const std::vector<Coord> outside{{12, 3}};
  EXPECT_EQ(extension3(p, outside), Decision::Unknown);
  // No pivots: Unknown.
  EXPECT_EQ(extension3(p, {}), Decision::Unknown);
}

TEST(Extension3, PivotOnObstacleIsIgnored) {
  const Fixture fx(12, {Rect{4, 5, 4, 5}, Rect{2, 3, 0, 1}});
  const RoutingProblem p = fx.problem({0, 0}, {9, 9});
  const std::vector<Coord> bad{{4, 4}};
  EXPECT_EQ(extension3(p, bad), Decision::Unknown);
}

TEST(Extensions, AllApplyViaQuadrantFrames) {
  // Mirror a known quadrant-I scenario into quadrant III and expect the
  // same answers.
  const Fixture fx1(14, {Rect{0, 2, 5, 6}});
  const RoutingProblem p1 = fx1.problem({1, 1}, {6, 10});
  // Mirrored: mesh 14, block mirrored in both axes (x -> 13-x, y -> 13-y).
  const Fixture fx3(14, {Rect{11, 13, 7, 8}});
  const RoutingProblem p3 = fx3.problem({12, 12}, {7, 3});
  EXPECT_EQ(source_safe(p1), source_safe(p3));
  EXPECT_EQ(extension1(p1), extension1(p3));
  EXPECT_EQ(extension2(p1, 1), extension2(p3, 1));
}

TEST(SafeCondition, AdjacentDestination) {
  const Fixture fx(8, {Rect{4, 4, 4, 4}});
  // Destination one hop away: safe iff that node is not a block node.
  EXPECT_TRUE(source_safe(fx.problem({1, 1}, {2, 1})));
  EXPECT_FALSE(source_safe(fx.problem({3, 4}, {4, 4})));  // into the block
  EXPECT_TRUE(source_safe(fx.problem({3, 4}, {3, 5})));
}

TEST(SafeCondition, SourceAtMeshCorner) {
  const Fixture fx(8, {Rect{3, 4, 3, 4}});
  // All four corners toward the opposite corner.
  EXPECT_TRUE(source_safe(fx.problem({0, 0}, {2, 7})));
  EXPECT_TRUE(source_safe(fx.problem({7, 7}, {5, 0})));
  EXPECT_FALSE(source_safe(fx.problem({0, 3}, {5, 3})));  // row 3 blocked at x=3
  EXPECT_TRUE(source_safe(fx.problem({0, 7}, {7, 7})));
}

TEST(Extension1, DegenerateAxisSparesIncludeBothPerpendicularDirections) {
  // Destination due east with the row blocked: the spare set includes both
  // north and south neighbors; either may certify.
  const Fixture fx(10, {Rect{4, 4, 5, 5}});
  const RoutingProblem p = fx.problem({2, 5}, {7, 5});
  EXPECT_FALSE(source_safe(p));
  Coord via{-1, -1};
  const Decision dec = extension1(p, &via);
  EXPECT_EQ(dec, Decision::SubMinimal);
  EXPECT_TRUE((via == Coord{2, 4} || via == Coord{2, 6})) << to_string(via);
  EXPECT_TRUE(monotone_path_exists(fx.mesh, fx.obstacles, via, {7, 5}));
}

TEST(Extension2, WorksTowardQuadrantIII) {
  // Mirror of the quadrant-I axis-factoring scenario into quadrant III.
  const Fixture fx(14, {Rect{11, 13, 7, 8}});
  const RoutingProblem p = fx.problem({12, 12}, {7, 3});
  EXPECT_FALSE(source_safe(p));
  Coord via{-1, -1};
  EXPECT_EQ(extension2(p, 1, &via), Decision::Minimal);
  EXPECT_LT(via.x, 11);
  EXPECT_EQ(via.y, 12);
}

TEST(Extension3, PivotEqualToDestinationOrSource) {
  const Fixture fx(12, {Rect{4, 5, 0, 2}, Rect{0, 2, 4, 5}});
  const Coord s{1, 1};
  const Coord d{10, 10};
  const RoutingProblem p = fx.problem(s, d);
  // Pivot == destination reduces to safe(source, dest) == base (fails);
  // pivot == source likewise. Neither may crash or certify falsely.
  const std::vector<Coord> trivial{s, d};
  EXPECT_EQ(extension3(p, trivial), Decision::Unknown);
}

TEST(Extension3, MatchesPivotwiseDefinition) {
  // Theorem 1c read literally: some pivot in the source-destination
  // rectangle has safe(source, pivot) and safe(pivot, destination). Random
  // worlds, sources and destinations in every quadrant (obstacle endpoints
  // included), and pivot sets that put pivots on obstacles and on the
  // source's and destination's rows and columns.
  Rng rng(0x3c3c);
  const Mesh2D mesh(40, 33);
  for (int world = 0; world < 6; ++world) {
    const fault::FaultSet faults = fault::uniform_random_faults(mesh, 30 + 25 * world, rng);
    const Grid<bool> mask = info::obstacle_mask(mesh, fault::build_faulty_blocks(mesh, faults));
    const info::SafetyGrid safety = info::compute_safety_levels(mesh, mask);
    const auto random_node = [&] {
      return Coord{static_cast<Dist>(rng.uniform(0, 39)), static_cast<Dist>(rng.uniform(0, 32))};
    };
    for (int q = 0; q < 200; ++q) {
      const Coord s = random_node();
      const Coord d = random_node();
      const RoutingProblem p{&mesh, &safety, s, d};
      std::vector<Coord> pivots{{s.x, d.y}, {d.x, s.y}, s, d};
      for (int i = 0; i < 8; ++i) pivots.push_back(random_node());
      bool expected = source_safe(p);
      const QuadrantFrame frame(s, d);
      const Coord rel = frame.to_frame(d);
      for (const Coord pivot : pivots) {
        const Coord rp = frame.to_frame(pivot);
        if (rp.x < 0 || rp.x > rel.x || rp.y < 0 || rp.y > rel.y) continue;
        expected = expected || (safe_with_respect_to(p, s, pivot) && safe_with_respect_to(p, pivot, d));
      }
      EXPECT_EQ(extension3(p, pivots) == Decision::Minimal, expected)
          << to_string(s) << " -> " << to_string(d);
    }
  }
}

TEST(Extensions, BlocksTouchingMeshEdgeDoNotConfuse) {
  // A block flush against the north edge: conditions toward it behave.
  const Fixture fx(10, {Rect{4, 6, 8, 9}});
  EXPECT_TRUE(source_safe(fx.problem({0, 0}, {9, 7})));
  EXPECT_FALSE(source_safe(fx.problem({4, 0}, {4, 9})));  // destination inside
  EXPECT_FALSE(source_safe(fx.problem({0, 9}, {9, 9})));  // row 9 blocked
  const RoutingProblem p = fx.problem({0, 9}, {9, 9});
  // Spare neighbor (0,8)? Row 8 is blocked too; (0,8)'s E = 3 < 9: unsafe.
  // No certificate should appear, and nothing crashes at the edge.
  EXPECT_EQ(extension1(p), Decision::Unknown);
}

TEST(Extensions, NeverCertifyUnusableSource) {
  // A faulty, disabled or out-of-mesh source has no path to certify, even
  // when a neighbor of it is safe with respect to the destination: every
  // extension and every strategy answers Unknown. Faults (2,8) and (3,9)
  // close a 2x2 block whose other two nodes are disabled.
  const Mesh2D mesh = Mesh2D::square(12);
  fault::FaultSet faults(mesh);
  for (const Coord f : {Coord{5, 5}, Coord{2, 8}, Coord{3, 9}}) faults.add(f);
  const auto blocks = fault::build_faulty_blocks(mesh, faults);
  ASSERT_TRUE(blocks.is_block_node({3, 8}));
  ASSERT_FALSE(faults.contains({3, 8}));
  const info::SafetyGrid safety =
      info::compute_safety_levels(mesh, info::obstacle_mask(mesh, blocks));
  std::vector<Coord> pivots;
  mesh.for_each_node([&](Coord c) { pivots.push_back(c); });
  const StrategyConfig cfg{.segment_size = 5};
  const std::pair<Coord, Coord> cases[] = {
      {{5, 5}, {8, 8}},    // faulty
      {{3, 8}, {10, 10}},  // disabled
      {{-1, 3}, {8, 8}},   // west of the mesh
      {{12, 3}, {3, 8}},   // east
      {{3, -1}, {8, 8}},   // south
      {{3, 12}, {8, 2}},   // north
  };
  for (const auto& [s, d] : cases) {
    const RoutingProblem p{&mesh, &safety, s, d};
    EXPECT_EQ(extension1(p), Decision::Unknown) << to_string(s);
    for (const Dist seg : {Dist{1}, Dist{5}, info::kWholeRegionSegment}) {
      for (const Ext2Reps reps : {Ext2Reps::SinglePerpendicular, Ext2Reps::FourDirectional}) {
        EXPECT_EQ(extension2(p, seg, nullptr, reps), Decision::Unknown)
            << to_string(s) << " segment " << seg;
      }
    }
    EXPECT_EQ(extension3(p, pivots), Decision::Unknown) << to_string(s);
    for (const StrategyId id : {StrategyId::S1, StrategyId::S2, StrategyId::S3, StrategyId::S4}) {
      const Certificate cert = explain_strategy(p, id, cfg, pivots);
      EXPECT_EQ(cert.decision, Decision::Unknown) << to_string(id) << " " << to_string(s);
      EXPECT_EQ(cert.method, Method::None);
    }
  }
}

TEST(Extensions, NullProblemThrows) {
  RoutingProblem p;
  EXPECT_THROW((void)source_safe(p), std::invalid_argument);
  EXPECT_THROW((void)extension1(p), std::invalid_argument);
}

}  // namespace
}  // namespace meshroute::cond
