// Micro-benchmarks for the decision procedures and routers: the per-packet
// costs a switch/NIC implementation of the paper would care about.
#include <benchmark/benchmark.h>

#include "cond/strategies.hpp"
#include "cond/wang.hpp"
#include "experiment/trial.hpp"
#include "info/boundary.hpp"
#include "info/pivots.hpp"
#include "route/query.hpp"

namespace {

using namespace meshroute;

struct Fixture {
  Rng rng{0xbadcafe};
  experiment::Trial trial = experiment::make_trial({.n = 200, .faults = 200}, rng);
  info::BoundaryInfoMap boundary{trial.mesh, trial.blocks};
  std::vector<Coord> pivots = info::generate_pivots(trial.quadrant1_area(), 3,
                                                    info::PivotPlacement::Random, &rng);

  Coord dest() { return experiment::sample_quadrant1_dest(trial, rng); }
};

Fixture& fixture() {
  static Fixture fx;
  return fx;
}

void BM_SafeCondition(benchmark::State& state) {
  auto& fx = fixture();
  const Coord d = fx.dest();
  const auto p = fx.trial.fb_problem(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cond::source_safe(p));
  }
}
BENCHMARK(BM_SafeCondition);

void BM_Extension1(benchmark::State& state) {
  auto& fx = fixture();
  const Coord d = fx.dest();
  const auto p = fx.trial.fb_problem(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cond::extension1(p));
  }
}
BENCHMARK(BM_Extension1);

void BM_Extension2(benchmark::State& state) {
  auto& fx = fixture();
  const Coord d = fx.dest();
  const auto p = fx.trial.fb_problem(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cond::extension2(p, static_cast<Dist>(state.range(0))));
  }
}
BENCHMARK(BM_Extension2)->Arg(1)->Arg(5)->Arg(0);

void BM_Extension3(benchmark::State& state) {
  auto& fx = fixture();
  const Coord d = fx.dest();
  const auto p = fx.trial.fb_problem(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cond::extension3(p, fx.pivots));
  }
}
BENCHMARK(BM_Extension3);

void BM_Strategy4(benchmark::State& state) {
  auto& fx = fixture();
  const Coord d = fx.dest();
  const auto p = fx.trial.fb_problem(d);
  const cond::StrategyConfig cfg{.segment_size = 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cond::run_strategy(p, cond::StrategyId::S4, cfg, fx.pivots));
  }
}
BENCHMARK(BM_Strategy4);

void BM_MonotoneDpOracle(benchmark::State& state) {
  auto& fx = fixture();
  const Coord d = fx.dest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cond::monotone_path_exists(fx.trial.mesh, fx.trial.faulty_mask, fx.trial.source, d));
  }
}
BENCHMARK(BM_MonotoneDpOracle);

void BM_ReachabilityOracle(benchmark::State& state) {
  // Full-mesh batched oracle: one four-quadrant sweep answers every
  // destination at once. Compare against BM_MonotoneDpOracle x dests to see
  // the per-trial break-even point.
  auto& fx = fixture();
  Grid<bool> reach;
  for (auto _ : state) {
    cond::monotone_reachability(fx.trial.mesh, fx.trial.faulty_mask, fx.trial.source, reach);
    benchmark::DoNotOptimize(reach.data());
  }
}
BENCHMARK(BM_ReachabilityOracle);

void BM_MonotoneDpRects(benchmark::State& state) {
  // Rasterized rect-list DP (the router's node-local feasibility check).
  auto& fx = fixture();
  std::vector<Rect> rects;
  for (const auto& b : fx.trial.blocks.blocks()) rects.push_back(b.rect);
  const Coord d = fx.dest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cond::monotone_path_exists_rects(rects, fx.trial.source, d));
  }
}
BENCHMARK(BM_MonotoneDpRects);

void BM_WangCoverageCondition(benchmark::State& state) {
  auto& fx = fixture();
  const Coord d = fx.dest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cond::wang_minimal_path_exists(fx.trial.blocks, fx.trial.source, d));
  }
}
BENCHMARK(BM_WangCoverageCondition);

void BM_RouteBoundaryInfo(benchmark::State& state) {
  auto& fx = fixture();
  const route::QueryView view{.mesh = &fx.trial.mesh, .blocks = &fx.trial.blocks,
                              .boundary = &fx.boundary};
  // Pick a safe destination so the route always completes.
  Coord d = fx.dest();
  for (int tries = 0; tries < 1000; ++tries) {
    if (cond::source_safe(fx.trial.fb_problem(d))) break;
    d = fx.dest();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::route(view, fx.trial.source, d));
  }
}
BENCHMARK(BM_RouteBoundaryInfo);

void BM_RouteGlobalInfo(benchmark::State& state) {
  auto& fx = fixture();
  const route::QueryView view{.mesh = &fx.trial.mesh, .blocks = &fx.trial.blocks};
  Coord d = fx.dest();
  for (int tries = 0; tries < 1000; ++tries) {
    if (cond::monotone_path_exists(fx.trial.mesh, fx.trial.fb_mask, fx.trial.source, d)) break;
    d = fx.dest();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::route(view, fx.trial.source, d));
  }
}
BENCHMARK(BM_RouteGlobalInfo);

}  // namespace

BENCHMARK_MAIN();
