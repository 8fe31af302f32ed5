// The repository's one micro-benchmark harness: times the kernels behind
// every sweep, snapshot and query (model builders, oracles, decision
// procedures, rung-0 walks, incremental injection, the simsub protocols;
// DESIGN §7 lists the rows) on one fixed-seed workload, 200x200 with 200
// faults; the boundary_update row replays the serve world instead (96x96,
// 64 seed faults, 200 injections). Six guards exit 1 before their rows are
// timed: the boundary map's deposit totals must equal the per-node map's,
// the safety levels must equal the scalar oracle's, the route pair must be
// walked minimally, incremental injection must match the builder, the
// delta-fed snapshot's safety grids must equal the from-scratch snapshot's,
// and every replayed boundary update must equal a from-scratch map.
// Reports the median of --reps repetitions per kernel and, with --json=,
// emits the schema consumed by tools/bench_compare:
//
//   {"bench":"core","n":...,"faults":...,"reps":...,
//    "meta":{"git_rev":...,"build_type":...,"compiler":...,"threads":...,
//            "trace_enabled":...},
//    "kernels":[{"name":...,"iters":...,"median_us":...,"min_us":...,
//                "max_us":...}, ...]}
//
// The meta block records the provenance a number is meaningless without:
// which revision, build type, and compiler produced it (injected at
// configure time), plus the machine's thread count and whether trace
// emission was compiled in. bench_compare ignores it; humans reading a
// stale BENCH file don't have to.
//
// The checked-in BENCH_core.json at the repository root holds the reference
// medians (Release build); regenerate it with
//   build/bench/microbench --json=BENCH_core.json
// and compare runs with
//   build/tools/bench_compare BENCH_core.json new.json
//
// --metrics=FILE|- additionally dumps the obs registry snapshot the kernels
// accumulated (safety recomputes, trial builds, ...) for bench_compare
// --metrics diffs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/json.hpp"
#include "common/simd.hpp"
#include "cond/conditions.hpp"
#include "cond/strategies.hpp"
#include "cond/wang.hpp"
#include "dynamic/dynamic_state.hpp"
#include "experiment/workspace.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/boundary.hpp"
#include "info/pivots.hpp"
#include "info/safety_level.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/query.hpp"
#include "serve/snapshot.hpp"
#include "simsub/protocols.hpp"

// Provenance from bench/CMakeLists.txt: the revision header it generates on
// every build, and the build type and compiler as definitions.
#include "meshroute_git_rev.hpp"
#ifndef MESHROUTE_BUILD_TYPE
#define MESHROUTE_BUILD_TYPE "unknown"
#endif
#ifndef MESHROUTE_COMPILER
#define MESHROUTE_COMPILER "unknown"
#endif

namespace {

using namespace meshroute;
using Clock = std::chrono::steady_clock;

struct Options {
  int reps = 9;
  bool quick = false;
  std::string json;     // empty = no JSON; "-" = stdout
  std::string metrics;  // empty = off; "-" = stdout
};

[[noreturn]] void usage_and_exit() {
  std::cerr << "usage: microbench [--reps=K] [--quick] [--json=FILE|-] [--metrics=FILE|-]\n"
               "  --reps=K     repetitions per kernel; the median is reported (default 9)\n"
               "  --quick      3 reps and reduced inner iteration counts (smoke mode)\n"
               "  --json=F     emit the bench_compare schema to F ('-' for stdout)\n"
               "  --metrics=F  emit the obs registry snapshot to F ('-' for stdout)\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool reps_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg.rfind("--reps=", 0) == 0) {
      opt.reps = std::stoi(arg.substr(7));
      reps_given = true;
      if (opt.reps < 1) usage_and_exit();
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json = arg.substr(7);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      opt.metrics = arg.substr(10);
      if (opt.metrics.empty()) usage_and_exit();
    } else {
      usage_and_exit();
    }
  }
  if (opt.quick && !reps_given) opt.reps = 3;
  return opt;
}

struct KernelResult {
  std::string name;
  int iters = 0;
  double median_us = 0;
  double min_us = 0;
  double max_us = 0;
};

/// Time `fn` (one full kernel invocation) `iters` times per rep, `reps`
/// times, and report per-invocation microseconds.
KernelResult run_kernel(const std::string& name, int reps, int iters,
                        const std::function<void()>& fn) {
  std::vector<double> us(static_cast<std::size_t>(reps));
  // Warm-up rep (excluded from stats): a full iters loop, not a single call,
  // so scratch buffers that grow lazily leave no first-touch page faults
  // inside the first timed rep.
  for (int i = 0; i < iters; ++i) fn();
  for (auto& sample : us) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto t1 = Clock::now();
    sample = std::chrono::duration<double, std::micro>(t1 - t0).count() /
             static_cast<double>(iters);
  }
  std::sort(us.begin(), us.end());
  KernelResult r{name, iters, us[us.size() / 2], us.front(), us.back()};
  if (us.size() % 2 == 0) r.median_us = (us[us.size() / 2 - 1] + us[us.size() / 2]) / 2.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const int scale = opt.quick ? 4 : 1;  // quick mode divides inner iterations

  constexpr Dist kSide = 200;
  constexpr std::size_t kFaults = 200;
  const Mesh2D mesh = Mesh2D::square(kSide);
  const Coord source = mesh.center();

  // Fixed-seed workload shared by all kernels, so medians are comparable
  // across runs and machines-of-the-same-kind.
  Rng rng(0xc0ffee);
  const fault::FaultSet faults = fault::uniform_random_faults(
      mesh, kFaults, rng, [&](Coord c) { return c == source; });
  const fault::BlockSet blocks = fault::build_faulty_blocks(mesh, faults);
  const fault::MccSet mcc = fault::build_mcc(mesh, faults, fault::MccKind::TypeOne);
  const Grid<bool> fb_mask = info::obstacle_mask(mesh, blocks);
  const info::SafetyGrid safety = info::compute_safety_levels(mesh, fb_mask);
  std::vector<Rect> rects;
  for (const auto& b : blocks.blocks()) rects.push_back(b.rect);
  const Coord far_dest{kSide - 1, kSide - 1};
  const cond::RoutingProblem problem{&mesh, &safety, source, far_dest};

  // Reused outputs/scratch: the kernels measure steady-state (zero-alloc)
  // cost, which is what the sweep engine pays per trial.
  fault::BlockSet blocks_out;
  fault::BlockScratch block_scratch;
  fault::MccSet mcc_out;
  fault::MccScratch mcc_scratch;
  Grid<bool> mask_out;
  info::SafetyGrid safety_out;
  core::BitGrid reach;
  experiment::TrialWorkspace ws;
  Rng trial_rng(0xfeedbeef);
  volatile bool sink = false;

  std::vector<KernelResult> results;
  const auto bench = [&](const char* name, int iters, const std::function<void()>& fn) {
    results.push_back(run_kernel(name, opt.reps, std::max(1, iters / scale), fn));
  };

  // A fast but wrong boundary map must not produce a row either: its
  // per-node totals on this world are pinned to the values the per-node
  // (CSR) map produced.
  {
    constexpr std::size_t kDeposits = 157'639;
    constexpr std::size_t kCovered = 36'412;
    const info::BoundaryInfoMap map(mesh, blocks);
    if (map.deposited_entries() != kDeposits || map.covered_nodes() != kCovered) {
      std::cerr << "microbench: boundary map has " << map.deposited_entries() << " deposits on "
                << map.covered_nodes() << " nodes, want " << kDeposits << " on " << kCovered
                << "\n";
      return 1;
    }
  }

  // The historical kernel names time the PRODUCTION entry points (the
  // bit-plane kernels), so they stay comparable across
  // BENCH files; scalar_* pins the reference kernels, bitgrid_safety builds
  // safety from a plane instead of the byte mask and bitgrid_reach calls the
  // word-parallel reach fill directly.
  bench("block_build", 32, [&] { fault::build_faulty_blocks(mesh, faults, blocks_out,
                                                            block_scratch); });
  bench("mcc_build", 32, [&] { fault::build_mcc(mesh, faults, fault::MccKind::TypeOne,
                                                mcc_out, mcc_scratch); });
  bench("obstacle_mask", 256, [&] { info::obstacle_mask(mesh, blocks, mask_out); });
  // A fast but wrong safety grid must not produce a row: every node and
  // direction against the scalar sweeps first.
  {
    Grid<info::ExtendedSafetyLevel> oracle;
    info::compute_safety_levels_scalar(mesh, fb_mask, oracle);
    info::compute_safety_levels(mesh, fb_mask, safety_out);
    bool same = true;
    mesh.for_each_node([&](Coord c) {
      for (const Direction d : kAllDirections) same = same && safety_out.get(c, d) == oracle[c].get(d);
    });
    if (!same) {
      std::cerr << "microbench: compute_safety_levels disagrees with the scalar oracle\n";
      return 1;
    }
  }
  bench("safety_build", 64, [&] { info::compute_safety_levels(mesh, fb_mask, safety_out); });
  bench("boundary_build", 64,
        [&] { sink = info::BoundaryInfoMap(mesh, blocks).run_count() != 0; });
  bench("reach_oracle", 256,
        [&] { cond::monotone_reachability(mesh, faults.mask(), source, reach); });
  bench("scalar_block_build", 32,
        [&] { fault::build_faulty_blocks_scalar(mesh, faults, blocks_out, block_scratch); });
  bench("scalar_mcc_build", 32, [&] {
    fault::build_mcc_scalar(mesh, faults, fault::MccKind::TypeOne, mcc_out, mcc_scratch);
  });
  core::BitGrid fb_plane;
  fb_plane.assign(fb_mask);
  bench("bitgrid_safety", 64, [&] { info::compute_safety_levels(mesh, fb_plane, safety_out); });
  core::simd::SweepScratch reach_scratch;
  core::BitGrid reach_plane;
  bench("bitgrid_reach", 256,
        [&] { core::simd::reach_fill(faults.mask(), source, reach_plane, reach_scratch); });
  bench("perdest_dp", 256,
        [&] { sink = cond::monotone_path_exists(mesh, faults.mask(), source, far_dest); });
  bench("rects_dp", 4096,
        [&] { sink = cond::monotone_path_exists_rects(rects, source, far_dest); });
  bench("ext1_decide", 4096,
        [&] { sink = cond::extension1(problem) == cond::Decision::Minimal; });
  bench("make_trial_ws", 8, [&] {
    sink = experiment::make_trial({.n = kSide, .faults = kFaults}, trial_rng, ws)
               .fb_safety.blocked(far_dest);
  });

  // Decision procedures and Wang's condition on the same source and far
  // destination as ext1_decide. These rows and their setup come after
  // make_trial_ws, so the rows above keep their heap and cache state.
  const Rect quadrant1{source.x + 1, kSide - 1, source.y + 1, kSide - 1};
  Rng pivot_rng(0xbadcafe);
  const std::vector<Coord> pivots =
      info::generate_pivots(quadrant1, 3, info::PivotPlacement::Random, &pivot_rng);
  const cond::StrategyConfig strategy{};  // the paper's segment size 5
  bench("safe_decide", 4096, [&] { sink = cond::source_safe(problem); });
  bench("ext2_decide", 4096, [&] {
    sink = cond::extension2(problem, strategy.segment_size) == cond::Decision::Minimal;
  });
  bench("ext3_decide", 4096,
        [&] { sink = cond::extension3(problem, pivots) == cond::Decision::Minimal; });
  bench("s4_decide", 4096, [&] {
    sink = cond::run_strategy(problem, cond::StrategyId::S4, strategy, pivots) ==
           cond::Decision::Minimal;
  });
  bench("wang_cover", 256,
        [&] { sink = cond::wang_minimal_path_exists(blocks, source, far_dest); });

  // Wu's protocol (rung 0) with boundary deposits and with every node holding
  // the whole block list, on the first quadrant-I destination, scanning rows
  // down from the far corner, that both walk minimally.
  const info::BoundaryInfoMap boundary(mesh, blocks);
  const route::QueryView boundary_view{.mesh = &mesh, .blocks = &blocks, .boundary = &boundary};
  const route::QueryView global_view{.mesh = &mesh, .blocks = &blocks};
  const auto walks_minimally = [&](const route::QueryView& view, Coord d) {
    const route::LadderResult walk = route::route(view, source, d);
    return walk.delivered() && walk.stats.hops == manhattan(source, d);
  };
  std::optional<Coord> walk_dest;
  for (Dist y = kSide - 1; y > source.y && !walk_dest; --y) {
    for (Dist x = kSide - 1; x > source.x && !walk_dest; --x) {
      if (walks_minimally(boundary_view, {x, y}) && walks_minimally(global_view, {x, y})) {
        walk_dest = Coord{x, y};
      }
    }
  }
  if (!walk_dest) {
    std::cerr << "microbench: no quadrant-I destination is routed minimally\n";
    return 1;
  }
  bench("route_walk", 16,
        [&] { sink = route::route(boundary_view, source, *walk_dest).delivered(); });
  bench("route_walk_global", 4,
        [&] { sink = route::route(global_view, source, *walk_dest).delivered(); });

  // Incremental maintenance: the workload's faults, in order, into a fresh
  // state; its block list must be the from-scratch builder's, in order and
  // counted.
  const auto inject_all = [&] {
    dynamic::DynamicMeshState state(mesh);
    for (const Coord c : faults.faults()) state.inject_fault(c);
    return state;
  };
  if (inject_all().blocks() != blocks.blocks()) {
    std::cerr << "microbench: incremental injection disagrees with build_faulty_blocks\n";
    return 1;
  }
  bench("dynamic_inject", 8, [&] { sink = inject_all().blocks().empty(); });

  // The delta-fed snapshot build after those injections: it copies the
  // maintained blocks and safety grids and shares the boundary runs. Its
  // blocks, runs and three safety grids must be the from-scratch snapshot's.
  const dynamic::DynamicMeshState injected = inject_all();
  serve::SnapshotScratch snapshot_scratch;
  {
    const serve::RoutingSnapshot delta_built(injected, 1, snapshot_scratch);
    const serve::RoutingSnapshot scratch_built(mesh, faults, 1, snapshot_scratch);
    const route::QueryView got = delta_built.query_view();
    const route::QueryView want = scratch_built.query_view();
    if (!(delta_built.blocks() == scratch_built.blocks() &&
          delta_built.boundary() == scratch_built.boundary() &&
          *got.fb_safety == *want.fb_safety && *got.mcc1_safety == *want.mcc1_safety &&
          *got.mcc2_safety == *want.mcc2_safety)) {
      std::cerr << "microbench: delta-fed snapshot disagrees with the from-scratch build\n";
      return 1;
    }
  }
  bench("snapshot_delta", 32, [&] {
    sink = serve::RoutingSnapshot(injected, 1, snapshot_scratch).blocks().blocks().empty();
  });

  // The distributed protocols' message-passing simulations.
  bench("distributed_safety", 4, [&] {
    sink = simsub::distributed_safety_levels(mesh, fb_mask).stats.messages != 0;
  });
  bench("pivot_broadcast", 4,
        [&] { sink = simsub::broadcast_from(mesh, fb_mask, source).stats.messages != 0; });

  // The boundary run update alone, on the serve world: 96x96 with 64 seed
  // faults, then 200 uniform injections. Each injection that grows a block
  // is recorded with its inputs; one invocation replays the next recorded
  // update on the map the previous one made, as inject_fault does (the
  // first starts from the seeded map). Every recorded update must equal the
  // state's map and a from-scratch map over the same blocks.
  {
    const Mesh2D serve_mesh = Mesh2D::square(96);
    Rng serve_rng(0x5e7e);
    const fault::FaultSet seed = fault::uniform_random_faults(serve_mesh, 64, serve_rng);
    dynamic::DynamicMeshState state(serve_mesh, seed.faults());
    struct Update {
      std::shared_ptr<const info::BoundaryInfoMap> before;
      std::vector<fault::FaultyBlock> blocks;
      std::int32_t added = -1;
      std::vector<std::int32_t> absorbed;
      core::BitGrid rows;
      core::BitGrid cols;
    };
    std::vector<Update> updates;
    const auto holds = [](const std::vector<fault::FaultyBlock>& list, const Rect& r) {
      return std::any_of(list.begin(), list.end(),
                         [&](const fault::FaultyBlock& b) { return b.rect == r; });
    };
    for (int i = 0; i < 200; ++i) {
      const Coord c{static_cast<Dist>(serve_rng.uniform(0, 95)),
                    static_cast<Dist>(serve_rng.uniform(0, 95))};
      const std::shared_ptr<const info::BoundaryInfoMap> before = state.boundary_ptr();
      const std::vector<fault::FaultyBlock> old_blocks = state.blocks();
      state.inject_fault(c);
      if (state.boundary_ptr() == before) continue;
      Update u{before, state.blocks(), -1, {}, state.safety().row_plane(),
               state.safety().col_plane()};
      for (std::size_t b = 0; b < u.blocks.size(); ++b) {
        if (!holds(old_blocks, u.blocks[b].rect)) u.added = static_cast<std::int32_t>(b);
      }
      for (std::size_t b = 0; b < old_blocks.size(); ++b) {
        if (!holds(u.blocks, old_blocks[b].rect)) u.absorbed.push_back(static_cast<std::int32_t>(b));
      }
      const info::BoundaryInfoMap replayed =
          before->updated(u.blocks, u.added, u.absorbed, u.rows, u.cols);
      if (!(replayed == state.boundary() &&
            replayed == info::BoundaryInfoMap(serve_mesh, fault::BlockSet(u.blocks, u.rows)))) {
        std::cerr << "microbench: boundary update disagrees with the from-scratch map\n";
        return 1;
      }
      updates.push_back(std::move(u));
    }
    std::shared_ptr<const info::BoundaryInfoMap> current;
    std::size_t next = 0;
    bench("boundary_update", 4 * static_cast<int>(updates.size()), [&] {
      const Update& u = updates[next];
      const info::BoundaryInfoMap& from = next == 0 ? *u.before : *current;
      current = std::make_shared<const info::BoundaryInfoMap>(
          from.updated(u.blocks, u.added, u.absorbed, u.rows, u.cols));
      next = next + 1 == updates.size() ? 0 : next + 1;
    });
  }

  (void)sink;

  std::printf("%-16s %8s %12s %12s %12s\n", "kernel", "iters", "median_us", "min_us",
              "max_us");
  for (const auto& r : results) {
    std::printf("%-16s %8d %12.3f %12.3f %12.3f\n", r.name.c_str(), r.iters, r.median_us,
                r.min_us, r.max_us);
  }
  std::printf("route_walk pair: (%d,%d) -> (%d,%d), %d hops\n", source.x, source.y,
              walk_dest->x, walk_dest->y, manhattan(source, *walk_dest));

  if (!opt.json.empty()) {
    json::Value::Array kernels;
    for (const auto& r : results) {
      json::Value::Object k;
      k["name"] = r.name;
      k["iters"] = static_cast<double>(r.iters);
      k["median_us"] = r.median_us;
      k["min_us"] = r.min_us;
      k["max_us"] = r.max_us;
      kernels.emplace_back(std::move(k));
    }
    json::Value::Object meta;
    meta["git_rev"] = MESHROUTE_GIT_REV;
    meta["build_type"] = MESHROUTE_BUILD_TYPE;
    meta["compiler"] = MESHROUTE_COMPILER;
    meta["threads"] = static_cast<double>(std::thread::hardware_concurrency());
    meta["trace_enabled"] = MESHROUTE_TRACE_ENABLED != 0;
    meta["simd"] = std::string(core::simd::tier_name(core::simd::active_tier()));
    json::Value::Object doc;
    doc["bench"] = "core";
    doc["n"] = static_cast<double>(kSide);
    doc["faults"] = static_cast<double>(kFaults);
    doc["reps"] = static_cast<double>(opt.reps);
    doc["meta"] = std::move(meta);
    doc["kernels"] = std::move(kernels);
    if (!json::write_output(opt.json, "json", [&](std::ostream& os) {
          os << json::to_string(json::Value(std::move(doc))) << "\n";
        })) {
      return 1;
    }
  }
  if (!opt.metrics.empty() &&
      !obs::write_metrics_json(opt.metrics, obs::Registry::global().snapshot())) {
    return 1;
  }
  return 0;
}
