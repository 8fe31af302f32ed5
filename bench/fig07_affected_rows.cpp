// Figure 7: expected percentage of affected rows (and columns) in an
// n x n mesh with k random faults — Theorem 2's analytical model against
// the simulated model. The paper reports both panels for n = 200; we also
// confirm the FB/MCC invariance claimed in the theorem's proof.
#include <iostream>

#include "analysis/theorem2.hpp"
#include "experiment/sweep.hpp"
#include "experiment/table.hpp"
#include "experiment/workspace.hpp"
#include "info/regions.hpp"

int main(int argc, char** argv) {
  using namespace meshroute;
  const auto cfg = experiment::SweepConfig::parse(argc, argv);

  enum : std::size_t { kRowsFb, kColsFb, kRowsMcc };
  experiment::SweepRunner runner(cfg, {"sim_rows_fb", "sim_cols_fb", "sim_rows_mcc"});
  const auto result = runner.run([&](const experiment::SweepCell& cell, Rng& rng,
                                     experiment::TrialWorkspace& ws,
                                     experiment::TrialCounters& out) {
    const experiment::Trial& trial =
        experiment::make_trial({.n = cell.n(), .faults = cell.faults()}, rng, ws);
    const double denom = static_cast<double>(cell.n());
    const Grid<bool> fb_mask = info::obstacle_mask(trial.mesh, trial.blocks);
    const Grid<bool> mcc_mask = info::obstacle_mask(trial.mesh, trial.mcc1);
    out.observe(kRowsFb,
                static_cast<double>(info::affected_rows(trial.mesh, fb_mask).size()) / denom);
    out.observe(kColsFb,
                static_cast<double>(info::affected_columns(trial.mesh, fb_mask).size()) / denom);
    out.observe(kRowsMcc,
                static_cast<double>(info::affected_rows(trial.mesh, mcc_mask).size()) / denom);
  });

  // The analytical columns are deterministic per point, so they join the
  // simulated means outside the sweep.
  experiment::Table table({"faults", "analytical", "smooth", "sim_rows_fb", "sim_cols_fb",
                           "sim_rows_mcc"});
  for (std::size_t p = 0; p < result.points().size(); ++p) {
    const auto k = static_cast<int>(result.points()[p].faults);
    table.add_row({result.points()[p].x, analysis::expected_affected_fraction(cfg.n, k),
                   analysis::smooth_expected_affected_rows(cfg.n, k) / cfg.n,
                   result.mean(p, "sim_rows_fb"), result.mean(p, "sim_cols_fb"),
                   result.mean(p, "sim_rows_mcc")});
  }

  table.print(std::cout,
              "Figure 7 — percent of affected rows (and columns), n=" + std::to_string(cfg.n) +
                  ", " + std::to_string(cfg.trials) + " trials/point");
  table.print_csv(std::cout, "fig07");
  experiment::write_sweep_json(cfg, {{"fig07", &table}}, result.wall_ms());
  return 0;
}
