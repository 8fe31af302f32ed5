// Micro-benchmarks for the fault-model and information-plane substrates:
// block construction, MCC labeling, safety-level sweeps, boundary-info
// distribution, and the distributed protocols. Not a paper figure; these
// quantify the per-trial cost of the simulation pipeline.
#include <benchmark/benchmark.h>

#include "experiment/workspace.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/boundary.hpp"
#include "info/safety_level.hpp"
#include <memory>

#include "dynamic/dynamic_state.hpp"
#include "simsub/protocols.hpp"

namespace {

using namespace meshroute;

fault::FaultSet make_faults(const Mesh2D& mesh, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  return fault::uniform_random_faults(mesh, k, rng);
}

void BM_BuildFaultyBlocks(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(200);
  const auto fs = make_faults(mesh, static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::build_faulty_blocks(mesh, fs));
  }
}
BENCHMARK(BM_BuildFaultyBlocks)->Arg(50)->Arg(200);

void BM_BuildMcc(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(200);
  const auto fs = make_faults(mesh, static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::build_mcc(mesh, fs, fault::MccKind::TypeOne));
  }
}
BENCHMARK(BM_BuildMcc)->Arg(50)->Arg(200);

void BM_SafetyLevelSweep(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(200);
  const auto fs = make_faults(mesh, 200, 3);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const auto mask = info::obstacle_mask(mesh, blocks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(info::compute_safety_levels(mesh, mask));
  }
}
BENCHMARK(BM_SafetyLevelSweep);

void BM_BuildFaultyBlocksInPlace(benchmark::State& state) {
  // Same work as BM_BuildFaultyBlocks, but through the scratch-reusing entry
  // point: steady-state allocation count is zero.
  const Mesh2D mesh = Mesh2D::square(200);
  const auto fs = make_faults(mesh, static_cast<std::size_t>(state.range(0)), 1);
  fault::BlockSet out;
  fault::BlockScratch scratch;
  for (auto _ : state) {
    fault::build_faulty_blocks(mesh, fs, out, scratch);
    benchmark::DoNotOptimize(out.block_count());
  }
}
BENCHMARK(BM_BuildFaultyBlocksInPlace)->Arg(50)->Arg(200);

void BM_BuildMccInPlace(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(200);
  const auto fs = make_faults(mesh, static_cast<std::size_t>(state.range(0)), 2);
  fault::MccSet out;
  fault::MccScratch scratch;
  for (auto _ : state) {
    fault::build_mcc(mesh, fs, fault::MccKind::TypeOne, out, scratch);
    benchmark::DoNotOptimize(out.components().size());
  }
}
BENCHMARK(BM_BuildMccInPlace)->Arg(50)->Arg(200);

void BM_SafetyLevelSweepInPlace(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(200);
  const auto fs = make_faults(mesh, 200, 3);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const auto mask = info::obstacle_mask(mesh, blocks);
  info::SafetyGrid out;
  for (auto _ : state) {
    info::compute_safety_levels(mesh, mask, out);
    benchmark::DoNotOptimize(out.width());
  }
}
BENCHMARK(BM_SafetyLevelSweepInPlace);

void BM_MakeTrialWorkspace(benchmark::State& state) {
  // The whole per-trial pipeline (faults -> blocks -> MCC -> masks -> safety
  // grids) through the reusable workspace, as the sweep engine runs it.
  Rng rng(0xfeed);
  experiment::TrialWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        &experiment::make_trial({.n = 200, .faults = 200}, rng, ws));
  }
}
BENCHMARK(BM_MakeTrialWorkspace);

void BM_BoundaryInfoDistribution(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(200);
  const auto fs = make_faults(mesh, static_cast<std::size_t>(state.range(0)), 4);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(info::BoundaryInfoMap(mesh, blocks));
  }
}
BENCHMARK(BM_BoundaryInfoDistribution)->Arg(50)->Arg(200);

void BM_DistributedSafetyProtocol(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(100);
  const auto fs = make_faults(mesh, 100, 5);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const auto mask = info::obstacle_mask(mesh, blocks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simsub::distributed_safety_levels(mesh, mask));
  }
}
BENCHMARK(BM_DistributedSafetyProtocol);

void BM_PivotBroadcast(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(100);
  const auto fs = make_faults(mesh, 100, 6);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const auto mask = info::obstacle_mask(mesh, blocks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simsub::broadcast_from(mesh, mask, {50, 50}));
  }
}
BENCHMARK(BM_PivotBroadcast);

void BM_DynamicInjectFault(benchmark::State& state) {
  // Cost of one incremental disturbance on a large mesh. The state is reset
  // (outside the timed region) whenever the pre-drawn fault stream is
  // exhausted, so every timed call injects a genuinely new fault.
  Rng rng(13);
  std::vector<Coord> faults;
  for (int i = 0; i < 512; ++i) {
    faults.push_back({static_cast<Dist>(rng.uniform(0, 199)),
                      static_cast<Dist>(rng.uniform(0, 199))});
  }
  auto dyn_state = std::make_unique<dynamic::DynamicMeshState>(Mesh2D::square(200));
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == faults.size()) {
      state.PauseTiming();
      dyn_state = std::make_unique<dynamic::DynamicMeshState>(Mesh2D::square(200));
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(dyn_state->inject_fault(faults[i++]));
  }
}
BENCHMARK(BM_DynamicInjectFault);

}  // namespace

BENCHMARK_MAIN();
