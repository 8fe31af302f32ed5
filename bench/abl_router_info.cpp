// Ablation: how much does the information model matter to the router?
//
// For each fault level we route the same (source, destination) pairs with
//   * boundary information — the paper's model (only deposited node-local
//     records),
//   * global information — every node knows every block (the traditional
//     model; a QueryView with a null boundary map),
// split by whether the source was SAFE (Definition 3). The paper's guarantee
// is that for safe sources the two are indistinguishable. With uniformly
// scattered faults blocks stay tiny and even unsafe sources almost always
// get through, so this ablation additionally runs a *clustered* workload
// (random-walk fault clusters -> large blocks, long shadows) where the gap
// between limited and global information can actually show.
#include <iostream>
#include <string>
#include <vector>

#include "cond/conditions.hpp"
#include "cond/wang.hpp"
#include "experiment/sweep.hpp"
#include "experiment/table.hpp"
#include "experiment/workspace.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "info/boundary.hpp"
#include "info/safety_level.hpp"
#include "route/query.hpp"

using namespace meshroute;

namespace {

struct World {
  fault::BlockSet blocks;
  info::BoundaryInfoMap boundary;
  Grid<bool> mask;
  info::SafetyGrid safety;

  World(const Mesh2D& mesh, const fault::FaultSet& fs)
      : blocks(fault::build_faulty_blocks(mesh, fs)), boundary(mesh, blocks),
        mask(info::obstacle_mask(mesh, blocks)),
        safety(info::compute_safety_levels(mesh, mask)) {}
};

enum : std::size_t { kSafeBoundary, kSafeGlobal, kUnsafeBoundary, kUnsafeGlobal, kUnsafeExist };

constexpr const char* kColumns[] = {"safe_boundary_min", "safe_global_min",
                                    "unsafe_boundary_min", "unsafe_global_min",
                                    "unsafe_existence"};

experiment::Table run_workload(const experiment::SweepRunner& runner, bool clustered,
                               const experiment::SweepConfig& cfg, const Mesh2D& mesh,
                               double* wall_ms) {
  const auto result = runner.run(
      experiment::fault_count_points({25, 50, 100, 150, 200}),
      [&](const experiment::SweepCell& cell, Rng& rng, experiment::TrialWorkspace& ws,
          experiment::TrialCounters& out) {
        const Coord source = mesh.center();
        const std::size_t k = cell.faults();
        const auto fs =
            clustered
                ? fault::clustered_faults(mesh, std::max<std::size_t>(1, k / 10), 10, rng,
                                          [&](Coord c) { return c == source; })
                : fault::uniform_random_faults(mesh, k, rng,
                                               [&](Coord c) { return c == source; });
        const World w(mesh, fs);
        if (w.mask[source]) return;
        cond::monotone_reachability(mesh, w.blocks.plane(), source, ws.reach);
        const route::QueryView boundary_view{.mesh = &mesh, .blocks = &w.blocks,
                                             .boundary = &w.boundary};
        const route::QueryView global_view{.mesh = &mesh, .blocks = &w.blocks};
        for (int s = 0; s < cfg.dests; ++s) {
          const Coord d{static_cast<Dist>(rng.uniform(source.x + 1, cfg.n - 1)),
                        static_cast<Dist>(rng.uniform(source.y + 1, cfg.n - 1))};
          if (w.mask[d]) continue;
          const cond::RoutingProblem p{&mesh, &w.safety, source, d};
          const bool safe = cond::source_safe(p);
          const bool b_min = route::route(boundary_view, source, d, &rng).delivered();
          const bool g_min = route::route(global_view, source, d, &rng).delivered();
          if (safe) {
            out.count(kSafeBoundary, b_min);
            out.count(kSafeGlobal, g_min);
          } else {
            out.count(kUnsafeBoundary, b_min);
            out.count(kUnsafeGlobal, g_min);
            out.count(kUnsafeExist, ws.reach[d]);
          }
        }
      });

  *wall_ms += result.wall_ms();
  // Fault levels with no safe (or no unsafe) pairs report the vacuous 1.0.
  experiment::Table table({"faults", kColumns[0], kColumns[1], kColumns[2], kColumns[3],
                           kColumns[4]});
  for (std::size_t p = 0; p < result.points().size(); ++p) {
    std::vector<double> row{result.points()[p].x};
    for (const char* column : kColumns) row.push_back(result.mean_or(p, column, 1.0));
    table.add_row(row);
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = experiment::SweepConfig::parse(argc, argv);
  const Mesh2D mesh = Mesh2D::square(cfg.n);
  const experiment::SweepRunner runner(
      cfg, {kColumns[0], kColumns[1], kColumns[2], kColumns[3], kColumns[4]});

  double wall_ms = 0;
  const experiment::Table uniform = run_workload(runner, false, cfg, mesh, &wall_ms);
  const experiment::Table clustered = run_workload(runner, true, cfg, mesh, &wall_ms);

  uniform.print(std::cout, "Ablation — router success by information policy, uniform faults, "
                           "n=" + std::to_string(cfg.n));
  uniform.print_csv(std::cout, "abl_router_uniform");
  std::cout << "\n";
  clustered.print(std::cout, "Ablation — router success by information policy, clustered "
                             "(walks of 10) faults, n=" + std::to_string(cfg.n));
  clustered.print_csv(std::cout, "abl_router_clustered");
  std::cout << "\n";
  experiment::write_sweep_json(
      cfg, {{"abl_router_uniform", &uniform}, {"abl_router_clustered", &clustered}}, wall_ms);
  return 0;
}
