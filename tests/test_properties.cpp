// Cross-module property tests at simulation scale: every certificate the
// decision procedures emit is validated against the ground-truth oracle and,
// where applicable, against an actually executed route.
#include <gtest/gtest.h>

#include "cond/strategies.hpp"
#include "cond/wang.hpp"
#include "experiment/trial.hpp"
#include "info/boundary.hpp"
#include "info/pivots.hpp"
#include "route/path.hpp"
#include "route/query.hpp"
#include "simsub/protocols.hpp"
#include "safety_oracle.hpp"

namespace meshroute {
namespace {

using cond::Decision;
using experiment::make_trial;
using experiment::sample_quadrant1_dest;
using experiment::Trial;

class EndToEnd : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EndToEnd, AllCertificatesAreSoundUnderBothModels) {
  Rng rng(4242 + GetParam());
  for (int rep = 0; rep < 3; ++rep) {
    const Trial trial = make_trial({.n = 100, .faults = GetParam()}, rng);
    const auto pivots = info::generate_pivots(trial.quadrant1_area(), 3,
                                              info::PivotPlacement::Random, &rng);
    const Grid<bool> fb_mask = info::obstacle_mask(trial.mesh, trial.blocks);
    const Grid<bool> mcc_mask = info::obstacle_mask(trial.mesh, trial.mcc1);
    for (int t = 0; t < 40; ++t) {
      const Coord d = sample_quadrant1_dest(trial, rng);
      const bool truth =
          cond::monotone_path_exists(trial.mesh, trial.faults.mask(), trial.source, d);

      for (const bool use_mcc : {false, true}) {
        const cond::RoutingProblem p = use_mcc ? trial.mcc_problem(d) : trial.fb_problem(d);
        const Grid<bool>& mask = use_mcc ? mcc_mask : fb_mask;

        // Base condition.
        if (cond::source_safe(p)) {
          EXPECT_TRUE(truth) << "base condition unsound";
        }
        // Extension 1: Minimal and SubMinimal certificates.
        Coord via{-1, -1};
        const Decision e1 = cond::extension1(p, &via);
        if (e1 == Decision::Minimal) {
          EXPECT_TRUE(cond::monotone_path_exists(trial.mesh, mask, trial.source, d));
          EXPECT_TRUE(truth);
        } else if (e1 == Decision::SubMinimal) {
          // One spare hop, then a minimal path from the neighbor.
          EXPECT_EQ(manhattan(trial.source, via), 1);
          EXPECT_EQ(manhattan(via, d), manhattan(trial.source, d) + 1);
          EXPECT_TRUE(cond::monotone_path_exists(trial.mesh, mask, via, d));
        }
        // Extension 2, all granularities.
        for (const Dist seg : {Dist{1}, Dist{5}, Dist{10}, info::kWholeRegionSegment}) {
          if (cond::extension2(p, seg) == Decision::Minimal) {
            EXPECT_TRUE(truth) << "extension2(" << seg << ") unsound";
          }
        }
        // Extension 3.
        if (cond::extension3(p, pivots) == Decision::Minimal) {
          EXPECT_TRUE(truth) << "extension3 unsound";
        }
        // Strategies.
        const cond::StrategyConfig cfg{.segment_size = 5};
        for (const auto id : {cond::StrategyId::S1, cond::StrategyId::S2,
                              cond::StrategyId::S3, cond::StrategyId::S4}) {
          if (cond::run_strategy(p, id, cfg, pivots) == Decision::Minimal) {
            EXPECT_TRUE(truth) << cond::to_string(id) << " unsound";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(VaryFaultCount, EndToEnd, ::testing::Values(10u, 50u, 120u, 200u));

TEST(EndToEnd, CertificatesConvertToExecutedRoutes) {
  // Decision -> route: wherever extension 1/2 certifies under the FB model,
  // the boundary-information router must realize the promised path length.
  Rng rng(777);
  for (const std::size_t k : {30u, 90u, 150u}) {
    const Trial trial = make_trial({.n = 100, .faults = k}, rng);
    const info::BoundaryInfoMap boundary(trial.mesh, trial.blocks);
    route::QueryView view = trial.query_view();
    view.boundary = &boundary;
    const Grid<bool> fb_mask = info::obstacle_mask(trial.mesh, trial.blocks);
    for (int t = 0; t < 25; ++t) {
      const Coord d = sample_quadrant1_dest(trial, rng);
      const cond::RoutingProblem p = trial.fb_problem(d);

      Coord via{-1, -1};
      const Decision e1 = cond::extension1(p, &via);
      if (e1 == Decision::Minimal) {
        const auto r = route::route_via(view, trial.source, via, d, &rng);
        ASSERT_TRUE(r.delivered());
        EXPECT_TRUE(route::path_is_minimal(r.path));
        EXPECT_TRUE(route::path_avoids(fb_mask, r.path));
      } else if (e1 == Decision::SubMinimal) {
        const auto r = route::route_via(view, trial.source, via, d, &rng);
        ASSERT_TRUE(r.delivered());
        EXPECT_TRUE(route::path_is_sub_minimal(r.path));
      }

      Coord via2{-1, -1};
      if (cond::extension2(p, 1, &via2) == Decision::Minimal) {
        const auto r = route::route_via(view, trial.source, via2, d, &rng);
        ASSERT_TRUE(r.delivered());
        EXPECT_TRUE(route::path_is_minimal(r.path));
      }
    }
  }
}

TEST(EndToEnd, ExtensionHierarchyHoldsStatistically) {
  // The paper's headline comparison: ext1 certifies at least as often as
  // the base condition; ext2(1) and ext3(level 3) at least as often as the
  // base; the optimal (existence) curve dominates everything.
  Rng rng(31337);
  int base_hits = 0;
  int e1_hits = 0;
  int e2_hits = 0;
  int e3_hits = 0;
  int exist_hits = 0;
  int samples = 0;
  for (const std::size_t k : {40u, 120u, 200u}) {
    const Trial trial = make_trial({.n = 100, .faults = k}, rng);
    const auto pivots = info::generate_pivots(trial.quadrant1_area(), 3,
                                              info::PivotPlacement::Center);
    for (int t = 0; t < 60; ++t) {
      const Coord d = sample_quadrant1_dest(trial, rng);
      const cond::RoutingProblem p = trial.fb_problem(d);
      const bool base = cond::source_safe(p);
      const bool e1 = cond::extension1(p) == Decision::Minimal;
      const bool e2 = cond::extension2(p, 1) == Decision::Minimal;
      const bool e3 = cond::extension3(p, pivots) == Decision::Minimal;
      const bool exist =
          cond::monotone_path_exists(trial.mesh, trial.faults.mask(), trial.source, d);
      // Pointwise: every extension subsumes the base condition; existence
      // subsumes every certificate.
      if (base) {
        EXPECT_TRUE(e1);
        EXPECT_TRUE(e2);
        EXPECT_TRUE(e3);
      }
      base_hits += base;
      e1_hits += e1;
      e2_hits += e2;
      e3_hits += e3;
      exist_hits += exist;
      ++samples;
    }
  }
  EXPECT_GE(e1_hits, base_hits);
  EXPECT_GE(e2_hits, base_hits);
  EXPECT_GE(e3_hits, base_hits);
  EXPECT_GE(exist_hits, e1_hits);
  EXPECT_GE(exist_hits, e2_hits);
  EXPECT_GE(exist_hits, e3_hits);
  EXPECT_GT(samples, 0);
}

TEST(EndToEnd, DistributedPipelineEqualsCentralizedDecisions) {
  // Run the full distributed information plane (simsub) and check that the
  // decisions computed from distributed state equal the centralized ones.
  Rng rng(808);
  const Trial trial = make_trial({.n = 60, .faults = 40}, rng);
  const Grid<bool> fb_mask = info::obstacle_mask(trial.mesh, trial.blocks);
  const auto dist = simsub::distributed_safety_levels(trial.mesh, fb_mask);
  // The decision procedures read a SafetyGrid, which is built from obstacle
  // bits. Rebuild one from only what the protocol delivered: every finite
  // level names the obstacle one hop past its gap. It must reproduce the
  // distributed tuple at every participating node.
  Grid<bool> seen(trial.mesh.width(), trial.mesh.height(), false);
  trial.mesh.for_each_node([&](Coord c) {
    if (fb_mask[c]) return;
    for (const Direction d : kAllDirections) {
      const Dist level = dist.levels[c].get(d);
      if (is_infinite(level)) continue;
      Coord o = c;
      for (Dist i = 0; i <= level; ++i) o = neighbor(o, d);
      seen.at(o) = true;
    }
  });
  const info::SafetyGrid dist_safety = info::compute_safety_levels(trial.mesh, seen);
  ASSERT_TRUE(testing_support::SafetyMatchesOracle(dist_safety, dist.levels, &fb_mask));
  for (int t = 0; t < 50; ++t) {
    const Coord d = sample_quadrant1_dest(trial, rng);
    const cond::RoutingProblem central = trial.fb_problem(d);
    const cond::RoutingProblem distributed{&trial.mesh, &dist_safety, trial.source, d};
    EXPECT_EQ(cond::source_safe(central), cond::source_safe(distributed));
    EXPECT_EQ(cond::extension1(central), cond::extension1(distributed));
    EXPECT_EQ(cond::extension2(central, 5), cond::extension2(distributed, 5));
  }
}

}  // namespace
}  // namespace meshroute
