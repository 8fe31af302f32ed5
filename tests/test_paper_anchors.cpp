// Scientific regression suite: the paper's quantitative anchors, asserted
// with generous tolerances at reduced sample counts. A code change that
// breaks any of these has changed the REPRODUCED RESULT, not just the code.
#include <gtest/gtest.h>

#include "analysis/stats.hpp"
#include "analysis/theorem2.hpp"
#include "cond/conditions.hpp"
#include "cond/strategies.hpp"
#include "cond/wang.hpp"
#include "experiment/trial.hpp"
#include "info/pivots.hpp"
#include "info/regions.hpp"

namespace meshroute {
namespace {

using cond::Decision;

struct Sampled {
  analysis::Proportion safe;
  analysis::Proportion ext1_min;
  analysis::Proportion ext1_subm;
  analysis::Proportion ext2_full;
  analysis::Proportion ext2_max;
  analysis::Proportion ext3_lvl3;
  analysis::Proportion strat4;
  analysis::Proportion exist;
};

Sampled sample(std::size_t k, int trials, int dests) {
  Rng rng(20020626 + k);
  Sampled out;
  const cond::StrategyConfig cfg{.segment_size = 5};
  for (int t = 0; t < trials; ++t) {
    const experiment::Trial trial = experiment::make_trial({.n = 200, .faults = k}, rng);
    const auto pivots_c =
        info::generate_pivots(trial.quadrant1_area(), 3, info::PivotPlacement::Center);
    const auto pivots_r =
        info::generate_pivots(trial.quadrant1_area(), 3, info::PivotPlacement::Random, &rng);
    for (int s = 0; s < dests; ++s) {
      const Coord d = experiment::sample_quadrant1_dest(trial, rng);
      const cond::RoutingProblem p = trial.fb_problem(d);
      out.safe.add(cond::source_safe(p));
      const Decision e1 = cond::extension1(p);
      out.ext1_min.add(e1 == Decision::Minimal);
      out.ext1_subm.add(e1 != Decision::Unknown);
      out.ext2_full.add(cond::extension2(p, 1) == Decision::Minimal);
      out.ext2_max.add(cond::extension2(p, info::kWholeRegionSegment) == Decision::Minimal);
      out.ext3_lvl3.add(cond::extension3(p, pivots_c) == Decision::Minimal);
      out.strat4.add(cond::run_strategy(p, cond::StrategyId::S4, cfg, pivots_r) ==
                     Decision::Minimal);
      out.exist.add(
          cond::monotone_path_exists(trial.mesh, trial.faults.mask(), trial.source, d));
    }
  }
  return out;
}

TEST(PaperAnchors, LowFaultRegimeMatchesSection5) {
  // "If the number of faults is no more than 30, most routing processes
  // (90% by the sufficient safe condition and 99% by extension 1) can
  // ensure a minimal path."
  const Sampled s = sample(30, 12, 25);
  EXPECT_GE(s.safe.value(), 0.85);
  EXPECT_GE(s.ext1_min.value(), 0.95);
  EXPECT_GE(s.exist.value(), 0.995);
}

TEST(PaperAnchors, HighFaultRegimeMatchesSection5) {
  const Sampled s = sample(200, 24, 25);
  // Safe source decays toward ~0.62; the per-trial correlation makes the
  // sample variance large, hence the wide tolerance band.
  EXPECT_GE(s.safe.value(), 0.45);
  EXPECT_LE(s.safe.value(), 0.85);
  // Extension hierarchy and the paper's floors.
  EXPECT_GE(s.ext1_min.value(), s.safe.value());
  EXPECT_GE(s.ext1_subm.value(), s.ext1_min.value());
  EXPECT_GE(s.ext2_full.value(), 0.90);  // paper: > 94% with full info
  EXPECT_GE(s.ext3_lvl3.value(), s.safe.value() + 0.05);
  EXPECT_GE(s.strat4.value(), 0.88);  // paper: > 97.5%; noise + convention margin
  // "The percentage of the existence of a minimal path stays very high
  // (close to 1) even when the number of faults reaches 200."
  EXPECT_GE(s.exist.value(), 0.99);
  // Extension 2's one-segment-per-region variation collapses to the safe
  // condition (within noise).
  EXPECT_NEAR(s.ext2_max.value(), s.safe.value(), 0.05);
}

TEST(PaperAnchors, AffectedRowAnchors) {
  // "about 20% of rows are affected when the number of faults reaches 50,
  // 40% when 100, and 60% when 200" — the analytical model's anchors,
  // already unit-tested; here the simulation must agree with the model.
  Rng rng(4);
  for (const std::size_t k : {50u, 100u, 200u}) {
    analysis::Accumulator frac;
    for (int t = 0; t < 12; ++t) {
      const experiment::Trial trial = experiment::make_trial({.n = 200, .faults = k}, rng);
      frac.add(static_cast<double>(
                   info::affected_rows(trial.mesh,
                                       info::obstacle_mask(trial.mesh, trial.blocks))
                       .size()) /
               200.0);
    }
    EXPECT_NEAR(frac.mean(), analysis::expected_affected_fraction(200, static_cast<int>(k)),
                0.03)
        << "k=" << k;
  }
}

TEST(PaperAnchors, FaultModelsIndistinguishableWhenScattered) {
  // Section 5: "the difference between the MCC model and the faulty block
  // model is insignificant in terms of percentage of the existence of a
  // minimal/sub-minimal path."
  Rng rng(9);
  analysis::Proportion fb;
  analysis::Proportion mcc;
  for (int t = 0; t < 12; ++t) {
    const experiment::Trial trial = experiment::make_trial({.n = 200, .faults = 150}, rng);
    for (int s = 0; s < 25; ++s) {
      const Coord d = experiment::sample_quadrant1_dest(trial, rng);
      fb.add(cond::source_safe(trial.fb_problem(d)));
      mcc.add(cond::source_safe(trial.mcc_problem(d)));
    }
  }
  EXPECT_GE(mcc.value(), fb.value());          // refinement never certifies less
  EXPECT_NEAR(mcc.value(), fb.value(), 0.02);  // ...and barely more when scattered
}

}  // namespace
}  // namespace meshroute
