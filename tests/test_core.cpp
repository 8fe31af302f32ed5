// Tests for the FaultTolerantMesh facade and the reads through its
// QueryView: certificates (cond::explain_strategy), decisions and routing.
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/fault_tolerant_mesh.hpp"
#include "info/pivots.hpp"
#include "info/safety_level.hpp"
#include "route/path.hpp"
#include "safety_oracle.hpp"

namespace meshroute {
namespace {

/// Certificate for s -> d under strategy `id` with segment size 1. The
/// default S1 chain (extensions 1 and 2) is what `meshroutectl decide`
/// explains when no pivots are distributed.
cond::Certificate explain(const FaultTolerantMesh& ftm, Coord s, Coord d,
                          FaultModel model = FaultModel::FaultyBlock,
                          cond::StrategyId id = cond::StrategyId::S1,
                          std::span<const Coord> pivots = {}) {
  return cond::explain_strategy(ftm.query_view().problem(s, d, model), id, {.segment_size = 1},
                                pivots);
}

TEST(FaultTolerantMesh, FreshMeshHasNoBlocks) {
  const FaultTolerantMesh ftm(20, 20);
  EXPECT_EQ(ftm.blocks().block_count(), 0u);
  EXPECT_TRUE(ftm.mcc(fault::MccKind::TypeOne).components().empty());
  EXPECT_EQ(explain(ftm, {1, 1}, {15, 15}).decision, cond::Decision::Minimal);
  const auto r = route::route(ftm.query_view(), {1, 1}, {15, 15});
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(route::path_is_minimal(r.path));
}

TEST(FaultTolerantMesh, InjectionInvalidatesDerivedState) {
  FaultTolerantMesh ftm(20, 20);
  EXPECT_EQ(ftm.blocks().block_count(), 0u);
  ftm.inject_fault({10, 10});
  EXPECT_EQ(ftm.blocks().block_count(), 1u);
  const std::vector<Coord> more{{3, 3}, {16, 4}};
  ftm.inject_faults(more);
  EXPECT_EQ(ftm.blocks().block_count(), 3u);
  EXPECT_EQ(ftm.faults().count(), 3u);
}

TEST(FaultTolerantMesh, ThrowingInjectLeavesNoStaleState) {
  FaultTolerantMesh ftm(20, 20);
  EXPECT_EQ(ftm.blocks().block_count(), 0u);
  // The second fault is off the mesh: the first stays injected, and the
  // derived state must see it.
  const std::vector<Coord> faults{{1, 1}, {99, 99}};
  EXPECT_THROW(ftm.inject_faults(faults), std::out_of_range);
  EXPECT_EQ(ftm.faults().count(), 1u);
  EXPECT_EQ(ftm.blocks().block_count(), 1u);
  EXPECT_TRUE(ftm.query_view().safety(FaultModel::FaultyBlock, Quadrant::I).blocked({1, 1}));
}

TEST(FaultTolerantMesh, ClearFaultsRestoresTheFaultFreeState) {
  FaultTolerantMesh ftm(20, 20);
  ftm.inject_fault({10, 10});
  ftm.inject_fault({3, 3});
  EXPECT_EQ(ftm.blocks().block_count(), 2u);
  ftm.clear_faults();
  EXPECT_EQ(ftm.faults().count(), 0u);
  EXPECT_EQ(ftm.blocks().block_count(), 0u);
  EXPECT_EQ(explain(ftm, {1, 1}, {15, 15}).decision, cond::Decision::Minimal);
  // The mesh is reusable: new faults rebuild derived state from scratch.
  ftm.inject_fault({5, 5});
  EXPECT_EQ(ftm.blocks().block_count(), 1u);
  EXPECT_TRUE(ftm.query_view().safety(FaultModel::FaultyBlock, Quadrant::I).blocked({5, 5}));
}

TEST(FaultTolerantMesh, FaultModelNames) {
  EXPECT_STREQ(to_string(FaultModel::FaultyBlock), "faulty-block");
  EXPECT_STREQ(to_string(FaultModel::Mcc), "mcc");
}

TEST(FaultTolerantMesh, SafetyGridsDifferPerModelAndQuadrant) {
  FaultTolerantMesh ftm(20, 20);
  // A NE-facing notch: (10,11) and (11,10) faulty; (10,10) is useless under
  // type-one but fault-free under type-two.
  ftm.inject_fault({10, 11});
  ftm.inject_fault({11, 10});
  const route::QueryView view = ftm.query_view();
  const auto& fb = view.safety(FaultModel::FaultyBlock, Quadrant::I);
  const auto& m1 = view.safety(FaultModel::Mcc, Quadrant::I);
  const auto& m2 = view.safety(FaultModel::Mcc, Quadrant::II);
  EXPECT_TRUE(fb.blocked({10, 10}));  // block fills the 2x2 square
  EXPECT_TRUE(m1.blocked({10, 10}));
  EXPECT_FALSE(m2.blocked({10, 10}));
  EXPECT_EQ(&view.safety(FaultModel::Mcc, Quadrant::III),
            &view.safety(FaultModel::Mcc, Quadrant::I));
}

TEST(FaultTolerantMesh, DecideUsesConfiguredExtensions) {
  FaultTolerantMesh ftm(16, 16);
  // Pinch the source corner as in the extension-3 unit test.
  for (Dist x = 4; x <= 5; ++x)
    for (Dist y = 0; y <= 2; ++y) ftm.inject_fault({x, y});
  for (Dist x = 0; x <= 2; ++x)
    for (Dist y = 4; y <= 5; ++y) ftm.inject_fault({x, y});
  const Coord s{1, 1};
  const Coord d{10, 10};
  // S2 chains extensions 1 and 3: extension 1 alone cannot tell, and the
  // pivot inside the pinch certifies.
  const cond::StrategyId s2 = cond::StrategyId::S2;
  EXPECT_EQ(explain(ftm, s, d, FaultModel::FaultyBlock, s2).decision, cond::Decision::Unknown);
  const std::vector<Coord> pivot{{3, 3}};
  const cond::Certificate cert = explain(ftm, s, d, FaultModel::FaultyBlock, s2, pivot);
  EXPECT_EQ(cert.decision, cond::Decision::Minimal);
  EXPECT_EQ(cert.method, cond::Method::Ext3Pivot);
  EXPECT_EQ(cert.via, (Coord{3, 3}));
}

TEST(FaultTolerantMesh, DecideStrategyAndGroundTruth) {
  FaultTolerantMesh ftm(30, 30);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const Coord c{static_cast<Dist>(rng.uniform(0, 29)), static_cast<Dist>(rng.uniform(0, 29))};
    if (c != Coord{2, 2} && c != Coord{27, 27}) ftm.inject_fault(c);
  }
  const Coord s{2, 2};
  const Coord d{27, 27};
  const route::QueryView view = ftm.query_view();
  if (!view.safety(FaultModel::FaultyBlock, Quadrant::I).blocked(s) &&
      !view.safety(FaultModel::FaultyBlock, Quadrant::I).blocked(d)) {
    const auto pivots =
        info::generate_pivots(Rect{2, 27, 2, 27}, 3, info::PivotPlacement::Center);
    const auto dec = route::decide_strategy(view, s, d, FaultModel::FaultyBlock,
                                            cond::StrategyId::S4, pivots);
    if (dec == cond::Decision::Minimal) {
      EXPECT_TRUE(route::minimal_path_exists(view, s, d));
      const auto r = route::route(view, s, d);
      EXPECT_TRUE(r.delivered());
    }
  }
}

TEST(FaultTolerantMesh, ExplainStrategyAgreesWithDecideStrategy) {
  // One extension chain: the certificate's decision is exactly what
  // decide_strategy answers for every strategy, its method is None exactly
  // when nothing certified, and a base-safe certificate names the source.
  Rng rng(9);
  FaultTolerantMesh ftm(30, 30);
  for (int i = 0; i < 50; ++i) {
    ftm.inject_fault(
        {static_cast<Dist>(rng.uniform(0, 29)), static_cast<Dist>(rng.uniform(0, 29))});
  }
  const route::QueryView view = ftm.query_view();
  const auto pivots = info::generate_pivots(Rect{0, 29, 0, 29}, 2, info::PivotPlacement::Center);
  const cond::StrategyConfig cfg{.segment_size = 5};
  int checked = 0;
  for (int t = 0; t < 50; ++t) {
    const Coord s{static_cast<Dist>(rng.uniform(0, 14)), static_cast<Dist>(rng.uniform(0, 14))};
    const Coord d{static_cast<Dist>(rng.uniform(15, 29)), static_cast<Dist>(rng.uniform(15, 29))};
    const Quadrant q = quadrant_of(s, d);
    if (view.safety(FaultModel::FaultyBlock, q).blocked(s) ||
        view.safety(FaultModel::FaultyBlock, q).blocked(d)) {
      continue;
    }
    ++checked;
    for (const auto id : {cond::StrategyId::S1, cond::StrategyId::S2, cond::StrategyId::S3,
                          cond::StrategyId::S4}) {
      const cond::Certificate cert = cond::explain_strategy(
          view.problem(s, d, FaultModel::FaultyBlock), id, cfg, pivots);
      EXPECT_EQ(cert.decision,
                route::decide_strategy(view, s, d, FaultModel::FaultyBlock, id, pivots, cfg));
      EXPECT_EQ(cert.method == cond::Method::None, cert.decision == cond::Decision::Unknown);
      EXPECT_EQ(cert.method == cond::Method::BaseSafe,
                cert.decision != cond::Decision::Unknown && cert.via == s);
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(FaultTolerantMesh, RouteViaCompletesTwoPhase) {
  FaultTolerantMesh ftm(14, 14);
  for (Dist x = 4; x <= 6; ++x)
    for (Dist y = 3; y <= 4; ++y) ftm.inject_fault({x, y});
  const route::QueryView view = ftm.query_view();
  const auto r = route::route_via(view, {3, 3}, {3, 2}, {6, 9});
  ASSERT_TRUE(r.delivered());
  EXPECT_EQ(r.path.length(), manhattan(Coord{3, 3}, Coord{6, 9}) + 2);
  EXPECT_EQ(r.stats.hops, r.path.length());
  // Through the source itself, two-phase routing is plain routing: same
  // walk, same tie-break draws.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng a(seed);
    Rng b(seed);
    const auto via_self = route::route_via(view, {1, 1}, {1, 1}, {12, 11}, &a);
    const auto direct = route::route(view, {1, 1}, {12, 11}, &b);
    EXPECT_EQ(via_self.status, direct.status);
    EXPECT_EQ(via_self.path.hops, direct.path.hops);
    EXPECT_EQ(via_self.stats, direct.stats);
    EXPECT_EQ(via_self.end_time, direct.end_time);
    EXPECT_EQ(a.uniform01(), b.uniform01());  // same number of draws consumed
  }
}

TEST(FaultTolerantMesh, ExplainNamesTheCertifyingExtension) {
  FaultTolerantMesh ftm(16, 16);
  // Clear mesh: base condition.
  const cond::Certificate clear = explain(ftm, {1, 1}, {10, 10});
  EXPECT_EQ(clear.decision, cond::Decision::Minimal);
  EXPECT_EQ(clear.method, cond::Method::BaseSafe);
  EXPECT_EQ(clear.via, (Coord{1, 1}));

  // Extension 1 via a preferred neighbor (the test_conditions fixture).
  FaultTolerantMesh e1(12, 12);
  for (Dist x = 3; x <= 4; ++x)
    for (Dist y = 4; y <= 5; ++y) e1.inject_fault({x, y});
  const cond::Certificate c1 = explain(e1, {2, 5}, {6, 9});
  EXPECT_EQ(c1.method, cond::Method::Ext1Preferred);
  EXPECT_EQ(c1.via, (Coord{2, 6}));
  const auto r1 = route::route_via(e1.query_view(), {2, 5}, c1.via, {6, 9});
  ASSERT_TRUE(r1.delivered());
  EXPECT_TRUE(route::path_is_minimal(r1.path));

  // Extension 1's spare-neighbor sub-minimal certificate (S2 without
  // pivots is extension 1 alone).
  FaultTolerantMesh e2(14, 14);
  for (Dist x = 4; x <= 6; ++x)
    for (Dist y = 3; y <= 4; ++y) e2.inject_fault({x, y});
  const cond::Certificate c2 =
      explain(e2, {3, 3}, {6, 9}, FaultModel::FaultyBlock, cond::StrategyId::S2);
  EXPECT_EQ(c2.method, cond::Method::Ext1Spare);
  EXPECT_EQ(c2.decision, cond::Decision::SubMinimal);
  const auto r2 = route::route_via(e2.query_view(), {3, 3}, c2.via, {6, 9});
  ASSERT_TRUE(r2.delivered());
  EXPECT_TRUE(route::path_is_sub_minimal(r2.path));
  EXPECT_STREQ(to_string(cond::Method::Ext2Axis), "extension 2 (axis representative)");
}

TEST(FaultTolerantMesh, ExplainPrefersMinimalOverSubMinimal) {
  // Extension 2 can upgrade an Ext1Spare sub-minimal certificate to a
  // minimal one; the S1 chain must return the minimal certificate.
  FaultTolerantMesh ftm(14, 14);
  for (Dist x = 4; x <= 6; ++x)
    for (Dist y = 3; y <= 4; ++y) ftm.inject_fault({x, y});
  const cond::Certificate cert = explain(ftm, {3, 3}, {6, 9});
  // Axis candidates northward from (3,3) rescue this instance minimally.
  EXPECT_EQ(cert.decision, cond::Decision::Minimal);
  EXPECT_EQ(cert.method, cond::Method::Ext2Axis);
  const auto r = route::route_via(ftm.query_view(), {3, 3}, cert.via, {6, 9});
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(route::path_is_minimal(r.path));
}

TEST(FaultTolerantMesh, MccDecisionsAreAtLeastAsStrongAsBlockDecisions) {
  // MCC blocks are subsets of faulty blocks, so safety levels only grow and
  // every FB certificate remains valid under MCC.
  Rng rng(11);
  FaultTolerantMesh ftm(40, 40);
  for (int i = 0; i < 60; ++i) {
    ftm.inject_fault(
        {static_cast<Dist>(rng.uniform(0, 39)), static_cast<Dist>(rng.uniform(0, 39))});
  }
  int checked = 0;
  for (int t = 0; t < 200 && checked < 60; ++t) {
    const Coord s{static_cast<Dist>(rng.uniform(0, 19)), static_cast<Dist>(rng.uniform(0, 19))};
    const Coord d{static_cast<Dist>(rng.uniform(20, 39)), static_cast<Dist>(rng.uniform(20, 39))};
    const Quadrant q = quadrant_of(s, d);
    if (ftm.query_view().safety(FaultModel::FaultyBlock, q).blocked(s) ||
        ftm.query_view().safety(FaultModel::FaultyBlock, q).blocked(d)) {
      continue;
    }
    ++checked;
    const auto fb = explain(ftm, s, d, FaultModel::FaultyBlock).decision;
    const auto mcc = explain(ftm, s, d, FaultModel::Mcc).decision;
    if (fb == cond::Decision::Minimal) {
      EXPECT_EQ(mcc, cond::Decision::Minimal)
          << "s=" << to_string(s) << " d=" << to_string(d);
    }
  }
  EXPECT_GT(checked, 0);
}

/// Every plane the facade derives equals the one the scalar oracles build
/// from the same fault set: both fault models, both MCC kinds, all three
/// safety grids, the ground-truth mask and the boundary deposits.
TEST(FaultTolerantMesh, PlanesMatchScalarOracles) {
  const Mesh2D mesh = Mesh2D::square(40);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const fault::FaultSet uniform = fault::uniform_random_faults(mesh, 160, rng);
    const fault::FaultSet clustered = fault::clustered_faults(mesh, 5, 24, rng);
    for (const fault::FaultSet* faults : {&uniform, &clustered}) {
      FaultTolerantMesh ftm(mesh.width(), mesh.height());
      ftm.inject_faults(faults->faults());

      fault::BlockSet blocks;
      fault::BlockScratch block_scratch;
      fault::build_faulty_blocks_scalar(mesh, *faults, blocks, block_scratch);
      fault::MccSet mcc1;
      fault::MccSet mcc2;
      fault::MccScratch mcc_scratch;
      fault::build_mcc_scalar(mesh, *faults, fault::MccKind::TypeOne, mcc1, mcc_scratch);
      fault::build_mcc_scalar(mesh, *faults, fault::MccKind::TypeTwo, mcc2, mcc_scratch);
      const Grid<bool> fb_mask = info::obstacle_mask(mesh, blocks);
      const Grid<bool> mcc1_mask = info::obstacle_mask(mesh, mcc1);
      const Grid<bool> mcc2_mask = info::obstacle_mask(mesh, mcc2);
      Grid<info::ExtendedSafetyLevel> fb_safety;
      Grid<info::ExtendedSafetyLevel> mcc1_safety;
      Grid<info::ExtendedSafetyLevel> mcc2_safety;
      info::compute_safety_levels_scalar(mesh, fb_mask, fb_safety);
      info::compute_safety_levels_scalar(mesh, mcc1_mask, mcc1_safety);
      info::compute_safety_levels_scalar(mesh, mcc2_mask, mcc2_safety);

      const route::QueryView view = ftm.query_view();
      ASSERT_NE(view.mcc2_safety, nullptr);
      EXPECT_EQ(*view.faulty_mask, faults->mask()) << "seed " << seed;
      EXPECT_TRUE(testing_support::ObstaclesMatchMask(*view.fb_safety, fb_mask))
          << "seed " << seed;
      EXPECT_TRUE(testing_support::SafetyMatchesOracle(*view.fb_safety, fb_safety))
          << "seed " << seed;
      EXPECT_TRUE(testing_support::ObstaclesMatchMask(*view.mcc1_safety, mcc1_mask))
          << "seed " << seed;
      EXPECT_TRUE(testing_support::SafetyMatchesOracle(*view.mcc1_safety, mcc1_safety))
          << "seed " << seed;
      EXPECT_TRUE(testing_support::ObstaclesMatchMask(*view.mcc2_safety, mcc2_mask))
          << "seed " << seed;
      EXPECT_TRUE(testing_support::SafetyMatchesOracle(*view.mcc2_safety, mcc2_safety))
          << "seed " << seed;
      EXPECT_TRUE(ftm.blocks() == blocks) << "seed " << seed;

      const info::BoundaryInfoMap boundary(mesh, blocks);
      mesh.for_each_node([&](Coord c) {
        std::vector<Rect> got;
        std::vector<Rect> want;
        ftm.boundary().known_rects(c, got);
        boundary.known_rects(c, want);
        EXPECT_EQ(got, want) << "seed " << seed << " node " << to_string(c);
      });
    }
  }
}

}  // namespace
}  // namespace meshroute
