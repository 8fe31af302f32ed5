// Tests for the combined routing strategies (Section 5, Figure 12).
#include <gtest/gtest.h>

#include "cond/strategies.hpp"
#include "cond/wang.hpp"
#include "core/fault_tolerant_mesh.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "info/pivots.hpp"

namespace meshroute::cond {
namespace {

struct Batch {
  Mesh2D mesh = Mesh2D::square(60);
  Grid<bool> mask{60, 60, false};
  info::SafetyGrid safety{60, 60};
  std::vector<Coord> pivots;

  explicit Batch(std::uint64_t seed, std::size_t k) {
    Rng rng(seed);
    const auto fs = fault::uniform_random_faults(mesh, k, rng);
    const auto blocks = fault::build_faulty_blocks(mesh, fs);
    mask = info::obstacle_mask(mesh, blocks);
    safety = info::compute_safety_levels(mesh, mask);
    pivots = info::generate_pivots(Rect{30, 59, 30, 59}, 3, info::PivotPlacement::Random, &rng);
  }

  [[nodiscard]] RoutingProblem problem(Coord s, Coord d) const {
    return {&mesh, &safety, s, d};
  }
};

TEST(Strategies, NamesAreStable) {
  EXPECT_STREQ(to_string(StrategyId::S1), "strategy 1 (1+2)");
  EXPECT_STREQ(to_string(StrategyId::S4), "strategy 4 (1+2+3)");
}

TEST(Strategies, S4DominatesAllOthers) {
  // Strategy 4 applies every extension, so its certificate set contains the
  // others' (for identical segment size and pivots).
  const StrategyConfig cfg{.segment_size = 5};
  int s4_minimal = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Batch batch(seed, 80);
    Rng rng(seed * 100);
    for (int t = 0; t < 100; ++t) {
      const Coord s{static_cast<Dist>(rng.uniform(0, 29)),
                    static_cast<Dist>(rng.uniform(0, 29))};
      const Coord d{static_cast<Dist>(rng.uniform(30, 59)),
                    static_cast<Dist>(rng.uniform(30, 59))};
      if (batch.mask[s] || batch.mask[d]) continue;
      const RoutingProblem p = batch.problem(s, d);
      const Decision d4 = run_strategy(p, StrategyId::S4, cfg, batch.pivots);
      for (const StrategyId id : {StrategyId::S1, StrategyId::S2, StrategyId::S3}) {
        const Decision di = run_strategy(p, id, cfg, batch.pivots);
        if (di == Decision::Minimal) {
          EXPECT_EQ(d4, Decision::Minimal) << to_string(id);
        }
      }
      if (d4 == Decision::Minimal) ++s4_minimal;
    }
  }
  EXPECT_GT(s4_minimal, 0);
}

TEST(Strategies, EveryMinimalCertificateIsSound) {
  const StrategyConfig cfg{.segment_size = 5};
  for (const std::uint64_t seed : {11u, 12u}) {
    const Batch batch(seed, 120);
    Rng rng(seed * 7);
    for (int t = 0; t < 150; ++t) {
      const Coord s{static_cast<Dist>(rng.uniform(0, 29)),
                    static_cast<Dist>(rng.uniform(0, 29))};
      const Coord d{static_cast<Dist>(rng.uniform(30, 59)),
                    static_cast<Dist>(rng.uniform(30, 59))};
      if (batch.mask[s] || batch.mask[d]) continue;
      const RoutingProblem p = batch.problem(s, d);
      for (const StrategyId id :
           {StrategyId::S1, StrategyId::S2, StrategyId::S3, StrategyId::S4}) {
        const Decision dec = run_strategy(p, id, cfg, batch.pivots);
        if (dec == Decision::Minimal) {
          EXPECT_TRUE(monotone_path_exists(batch.mesh, batch.mask, s, d))
              << to_string(id) << " s=" << to_string(s) << " d=" << to_string(d);
        }
      }
    }
  }
}

TEST(Strategies, SubMinimalOnlyFromExtensionOneMembers) {
  // Strategy 3 (2+3) has no extension-1 member and therefore never reports
  // SubMinimal.
  const StrategyConfig cfg{.segment_size = 5};
  const Batch batch(21, 150);
  Rng rng(77);
  for (int t = 0; t < 300; ++t) {
    const Coord s{static_cast<Dist>(rng.uniform(0, 29)), static_cast<Dist>(rng.uniform(0, 29))};
    const Coord d{static_cast<Dist>(rng.uniform(30, 59)), static_cast<Dist>(rng.uniform(30, 59))};
    if (batch.mask[s] || batch.mask[d]) continue;
    EXPECT_NE(run_strategy(batch.problem(s, d), StrategyId::S3, cfg, batch.pivots),
              Decision::SubMinimal);
  }
}

TEST(Strategies, FaultyEndpointCertifiesNothing) {
  // The faulty node's neighbors are safe with respect to the other endpoint,
  // yet no path starts or ends on a faulty node: every strategy, under both
  // models and in both directions, must answer Unknown with no witness.
  FaultTolerantMesh ftm(20, 20);
  ftm.inject_fault({5, 5});
  const route::QueryView view = ftm.query_view();
  const std::vector<Coord> pivots = {{8, 8}, {3, 12}, {12, 3}};
  const StrategyConfig cfg{.segment_size = 5};
  const Coord faulty{5, 5};
  const Coord healthy{10, 10};
  for (const route::QueryModel model : {route::QueryModel::FaultyBlock, route::QueryModel::Mcc}) {
    // The neighbor (6, 5) IS safe: without the endpoint check extension 1
    // would certify the faulty source through it.
    EXPECT_EQ(run_strategy(view.problem({6, 5}, healthy, model), StrategyId::S1, cfg, pivots),
              Decision::Minimal);
    for (const auto& [s, d] : {std::pair{faulty, healthy}, std::pair{healthy, faulty}}) {
      for (const StrategyId id :
           {StrategyId::S1, StrategyId::S2, StrategyId::S3, StrategyId::S4}) {
        const Certificate cert = explain_strategy(view.problem(s, d, model), id, cfg, pivots);
        EXPECT_EQ(cert.decision, Decision::Unknown)
            << to_string(id) << " " << route::to_string(model) << " s=" << to_string(s);
        EXPECT_EQ(cert.method, Method::None);
        EXPECT_EQ(route::decide_strategy(view, s, d, model, id, pivots, cfg), Decision::Unknown);
        route::QuerySpec spec;
        spec.src = s;
        spec.dst = d;
        std::vector<Decision> batch;
        route::decide_batch(view, {&spec, 1}, model, id, pivots, cfg, batch);
        EXPECT_EQ(batch.front(), Decision::Unknown);
      }
    }
  }
}

}  // namespace
}  // namespace meshroute::cond
