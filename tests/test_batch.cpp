// Equivalence tests for batches of independent worlds built back to back:
// the fault builders, safety fills and reachability sweeps reuse one scratch
// across a run of worlds (as a sweep worker does), and
// every world must still come out bit-identical to the scalar oracle run on
// that world alone. The SweepRunner's worker-claim size must not change
// results either — the figure benches' determinism contract rides on it.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cond/wang.hpp"
#include "experiment/sweep.hpp"
#include "experiment/trial.hpp"
#include "experiment/workspace.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/safety_level.hpp"
#include "safety_oracle.hpp"

namespace meshroute {
namespace {

using experiment::make_trial;
using experiment::Trial;
using experiment::TrialWorkspace;

/// A spread of independent fault sets over one mesh (varying k per lane).
std::vector<fault::FaultSet> random_fault_sets(const Mesh2D& mesh, int lanes,
                                               std::uint64_t seed) {
  std::vector<fault::FaultSet> sets;
  Rng rng(seed);
  for (int l = 0; l < lanes; ++l) {
    const auto k = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(mesh.node_count()) / 6));
    sets.push_back(fault::uniform_random_faults(mesh, k, rng));
  }
  return sets;
}

void expect_same_blocks(const fault::BlockSet& a, const fault::BlockSet& b) {
  ASSERT_EQ(a.block_count(), b.block_count());
  for (std::size_t i = 0; i < a.block_count(); ++i) {
    EXPECT_EQ(a.blocks()[i].rect, b.blocks()[i].rect);
    EXPECT_EQ(a.blocks()[i].faulty_count, b.blocks()[i].faulty_count);
    EXPECT_EQ(a.blocks()[i].disabled_count, b.blocks()[i].disabled_count);
  }
  EXPECT_TRUE(a == b);
}

TEST(BlockBatch, MatchesSingleLaneBuilder) {
  const Mesh2D mesh(70, 50);
  for (const int lanes : {1, 3, 8, 11}) {
    const auto sets = random_fault_sets(mesh, lanes, 0xb10c + static_cast<std::uint64_t>(lanes));
    fault::BlockScratch shared;
    fault::BlockSet out;  // rebuilt in place, lane after lane
    for (const fault::FaultSet& fs : sets) {
      fault::build_faulty_blocks(mesh, fs, out, shared);
      fault::BlockScratch fresh;
      fault::BlockSet single;
      fault::build_faulty_blocks_scalar(mesh, fs, single, fresh);
      expect_same_blocks(single, out);
    }
  }
}

TEST(MccBatch, MatchesSingleLaneBuilder) {
  const Mesh2D mesh(60, 45);
  for (const fault::MccKind kind : {fault::MccKind::TypeOne, fault::MccKind::TypeTwo}) {
    const auto sets = random_fault_sets(mesh, 7, 0x3cc);
    fault::MccScratch shared;
    fault::MccSet out;
    for (const fault::FaultSet& fs : sets) {
      fault::build_mcc(mesh, fs, kind, out, shared);
      fault::MccScratch fresh;
      fault::MccSet single;
      fault::build_mcc_scalar(mesh, fs, kind, single, fresh);
      ASSERT_EQ(single.components().size(), out.components().size());
      mesh.for_each_node([&](Coord c) { EXPECT_EQ(single.status(c), out.status(c)); });
      for (std::size_t c = 0; c < single.components().size(); ++c) {
        EXPECT_EQ(single.components()[c].bbox, out.components()[c].bbox);
        EXPECT_EQ(single.components()[c].size, out.components()[c].size);
        EXPECT_EQ(single.components()[c].faulty_count, out.components()[c].faulty_count);
      }
      EXPECT_TRUE(single == out);  // planes and the numbered component list
    }
  }
}

TEST(SafetyBatch, MatchesPerLaneFill) {
  const Mesh2D mesh(80, 33);
  const auto sets = random_fault_sets(mesh, 5, 0x5afe);
  info::SafetyGrid out;
  for (const fault::FaultSet& fs : sets) {
    core::BitGrid plane(mesh.width(), mesh.height());
    for (const Coord f : fs.faults()) plane.set(f);
    info::compute_safety_levels(mesh, plane, out);
    Grid<info::ExtendedSafetyLevel> single;
    Grid<bool> fault_bytes;
    fs.mask().unpack(fault_bytes);
    info::compute_safety_levels_scalar(mesh, fault_bytes, single);
    EXPECT_TRUE(testing_support::SafetyMatchesOracle(out, single));
  }
}

TEST(ReachBatch, MatchesSingleLaneKernel) {
  const Mesh2D mesh(90, 40);
  const Coord source = mesh.center();
  const auto sets = random_fault_sets(mesh, 9, 0x4ea7);
  core::BitGrid reach;
  Grid<bool> lane_reach, expect, fault_bytes;
  for (std::size_t l = 0; l < sets.size(); ++l) {
    core::BitGrid blocked(mesh.width(), mesh.height());
    for (const Coord f : sets[l].faults()) blocked.set(f);
    cond::monotone_reachability(mesh, blocked, source, reach);
    reach.unpack(lane_reach);
    sets[l].mask().unpack(fault_bytes);
    cond::monotone_reachability_scalar(mesh, fault_bytes, source, expect);
    EXPECT_EQ(expect, lane_reach) << "lane " << l;
  }
}

experiment::SweepResult run_batched_sweep(int batch) {
  experiment::SweepConfig cfg;
  cfg.n = 30;
  cfg.trials = 6;
  cfg.dests = 5;
  cfg.threads = 2;
  cfg.batch = batch;
  cfg.fault_counts = {5, 25};
  const experiment::SweepRunner runner(cfg, {"safe", "draw"});
  return runner.run([&](const experiment::SweepCell& cell, Rng& rng, TrialWorkspace& ws,
                        experiment::TrialCounters& out) {
    const Trial& trial = make_trial({.n = cell.n(), .faults = cell.faults()}, rng, ws);
    for (int s = 0; s < cfg.dests; ++s) {
      const Coord d = experiment::sample_quadrant1_dest(trial, rng);
      out.count(0, !trial.fb_safety.blocked(d));
      out.observe(1, rng.uniform01());
    }
  });
}

TEST(Sweep, BitIdenticalAcrossBatchSizes) {
  const experiment::SweepResult plain = run_batched_sweep(1);
  for (const int batch : {3, 8}) {
    const experiment::SweepResult batched = run_batched_sweep(batch);
    for (std::size_t p = 0; p < plain.points().size(); ++p) {
      for (const char* column : {"safe", "draw"}) {
        EXPECT_EQ(plain.mean(p, column), batched.mean(p, column));  // exact
        EXPECT_EQ(plain.ci95(p, column), batched.ci95(p, column));
        EXPECT_EQ(plain.count(p, column), batched.count(p, column));
      }
    }
    const experiment::Table ta = plain.table("faults", {"safe", "draw"});
    const experiment::Table tb = batched.table("faults", {"safe", "draw"});
    std::ostringstream a, b;
    ta.print_json(a, "t");
    tb.print_json(b, "t");
    EXPECT_EQ(a.str(), b.str());
  }
}

}  // namespace
}  // namespace meshroute
