// Tests for the hot-path performance layer: the batched reachability oracle
// (the four-quadrant sweep) against the per-destination DP it replaces, the
// bit-identical contract of the reusable TrialWorkspace, and the in-place
// builder entry points against their allocating originals.
#include <gtest/gtest.h>

#include <vector>

#include "cond/wang.hpp"
#include "experiment/workspace.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/safety_level.hpp"
#include "safety_oracle.hpp"

namespace meshroute {
namespace {

Grid<bool> random_mask(const Mesh2D& mesh, double density, Rng& rng) {
  Grid<bool> mask(mesh.width(), mesh.height(), false);
  mesh.for_each_node([&](Coord c) { mask[c] = rng.chance(density); });
  return mask;
}

// The oracle must agree with the per-destination DP at EVERY node — including
// blocked destinations, the source itself, and nodes in quadrants II-IV
// relative to the source (the fan-out directions the batched sweep handles
// with separate row orders).
TEST(ReachabilityOracle, MatchesPerDestinationDpEverywhere) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    Rng rng(seed);
    for (const auto [w, h] : {std::pair<Dist, Dist>{9, 9}, {17, 9}, {7, 23}, {30, 30}}) {
      const Mesh2D mesh(w, h);
      // Interior source (all four quadrants populated), plus corners/edges
      // that collapse one or both fan-out directions.
      const std::vector<Coord> sources = {
          {static_cast<Dist>(w / 2), static_cast<Dist>(h / 2)},
          {0, 0},
          {static_cast<Dist>(w - 1), static_cast<Dist>(h - 1)},
          {static_cast<Dist>(w - 1), 0},
          {0, static_cast<Dist>(h / 3)}};
      const Grid<bool> blocked = random_mask(mesh, 0.25, rng);
      core::BitGrid plane;
      plane.assign(blocked);
      core::BitGrid reach;
      for (const Coord s : sources) {
        cond::monotone_reachability(mesh, plane, s, reach);
        mesh.for_each_node([&](Coord d) {
          const bool want = cond::monotone_path_exists(mesh, blocked, s, d);
          EXPECT_EQ(reach[d], want) << "seed=" << seed << " mesh=" << w << "x" << h << " s=("
                                    << s.x << "," << s.y << ") d=(" << d.x << "," << d.y << ")";
          EXPECT_EQ(cond::monotone_path_exists(mesh, plane, s, d), want)
              << "plane DP, seed=" << seed << " mesh=" << w << "x" << h << " s=(" << s.x << ","
              << s.y << ") d=(" << d.x << "," << d.y << ")";
        });
      }
    }
  }
}

TEST(ReachabilityOracle, BlockedSourceReachesNothing) {
  const Mesh2D mesh(8, 8);
  core::BitGrid blocked(8, 8);
  blocked.set({4, 4});
  core::BitGrid reach;
  cond::monotone_reachability(mesh, blocked, {4, 4}, reach);
  mesh.for_each_node([&](Coord d) { EXPECT_FALSE(reach[d]); });
}

TEST(ReachabilityOracle, InPlaceReusesDirtyBufferExactly) {
  const Mesh2D mesh(12, 10);
  Rng rng(99);
  core::BitGrid blocked;
  blocked.assign(random_mask(mesh, 0.3, rng));
  const Coord s{5, 5};
  core::BitGrid fresh;
  cond::monotone_reachability(mesh, blocked, s, fresh);
  const auto all_set = [](Dist w, Dist h) {
    core::BitGrid g(w, h);
    for (Dist y = 0; y < h; ++y) core::row_range_set(g.row(y), 0, w - 1);
    return g;
  };
  core::BitGrid dirty = all_set(12, 10);  // stale set bits must all be overwritten
  cond::monotone_reachability(mesh, blocked, s, dirty);
  EXPECT_EQ(fresh, dirty);
  core::BitGrid wrong_shape = all_set(3, 3);  // mismatched buffer gets resized
  cond::monotone_reachability(mesh, blocked, s, wrong_shape);
  EXPECT_EQ(fresh, wrong_shape);
}

// A worker thread reuses one workspace for its whole slice of trials; the
// sweep determinism contract therefore requires make_trial through a reused
// workspace to produce bit-for-bit the same trials (and consume the same RNG
// stream) as the allocating path.
TEST(TrialWorkspace, HundredTrialReuseIsBitIdentical) {
  Rng fresh_rng(0xabcdef);
  Rng ws_rng(0xabcdef);
  experiment::TrialWorkspace ws;
  for (int t = 0; t < 100; ++t) {
    // Vary the shape so buffer-resize paths are exercised mid-stream.
    const Dist n = (t % 3 == 0) ? 30 : 40;
    const std::size_t k = 20 + static_cast<std::size_t>(t % 7) * 5;
    const experiment::Trial fresh = experiment::make_trial({.n = n, .faults = k}, fresh_rng);
    const experiment::Trial& reused =
        experiment::make_trial({.n = n, .faults = k}, ws_rng, ws);

    ASSERT_EQ(fresh.source, reused.source) << "trial " << t;
    ASSERT_EQ(fresh.faults.faults(), reused.faults.faults()) << "trial " << t;
    ASSERT_EQ(fresh.faults.mask(), reused.faults.mask()) << "trial " << t;
    const Grid<bool> fb_mask = info::obstacle_mask(fresh.mesh, fresh.blocks);
    const Grid<bool> mcc_mask = info::obstacle_mask(fresh.mesh, fresh.mcc1);
    ASSERT_TRUE(testing_support::ObstaclesMatchMask(fresh.fb_safety, fb_mask)) << "trial " << t;
    ASSERT_TRUE(testing_support::ObstaclesMatchMask(reused.fb_safety, fb_mask)) << "trial " << t;
    ASSERT_TRUE(testing_support::ObstaclesMatchMask(fresh.mcc_safety, mcc_mask)) << "trial " << t;
    ASSERT_TRUE(testing_support::ObstaclesMatchMask(reused.mcc_safety, mcc_mask))
        << "trial " << t;
    ASSERT_EQ(fresh.fb_safety, reused.fb_safety) << "trial " << t;
    ASSERT_EQ(fresh.mcc_safety, reused.mcc_safety) << "trial " << t;
    ASSERT_EQ(fresh.blocks.block_count(), reused.blocks.block_count()) << "trial " << t;
    for (std::size_t b = 0; b < fresh.blocks.block_count(); ++b) {
      ASSERT_EQ(fresh.blocks.blocks()[b].rect, reused.blocks.blocks()[b].rect);
      ASSERT_EQ(fresh.blocks.blocks()[b].faulty_count, reused.blocks.blocks()[b].faulty_count);
      ASSERT_EQ(fresh.blocks.blocks()[b].disabled_count,
                reused.blocks.blocks()[b].disabled_count);
    }
    ASSERT_EQ(fresh.mcc1.components().size(), reused.mcc1.components().size()) << "trial " << t;
    // Same RNG stream consumed: the next draw must agree exactly.
    ASSERT_EQ(fresh_rng.uniform(0, 1 << 30), ws_rng.uniform(0, 1 << 30)) << "trial " << t;
  }
}

TEST(InPlaceBuilders, MatchAllocatingResults) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Mesh2D mesh = Mesh2D::square(40);
    Rng rng_a(seed);
    Rng rng_b(seed);
    const fault::FaultSet fresh = fault::uniform_random_faults(mesh, 60, rng_a);
    fault::FaultSet reused;
    fault::SampleScratch sample;
    fault::uniform_random_faults(mesh, 60, rng_b, [](Coord) { return false; }, reused,
                                 sample);
    ASSERT_EQ(fresh.faults(), reused.faults());
    ASSERT_EQ(fresh.mask(), reused.mask());

    const fault::BlockSet blocks_fresh = fault::build_faulty_blocks(mesh, fresh);
    fault::BlockSet blocks_reused;
    fault::BlockScratch block_scratch;
    fault::build_faulty_blocks(mesh, fresh, blocks_reused, block_scratch);
    ASSERT_EQ(blocks_fresh.block_count(), blocks_reused.block_count());
    for (std::size_t b = 0; b < blocks_fresh.block_count(); ++b) {
      ASSERT_EQ(blocks_fresh.blocks()[b].rect, blocks_reused.blocks()[b].rect);
    }

    const fault::MccSet mcc_fresh = fault::build_mcc(mesh, fresh, fault::MccKind::TypeOne);
    fault::MccSet mcc_reused;
    fault::MccScratch mcc_scratch;
    fault::build_mcc(mesh, fresh, fault::MccKind::TypeOne, mcc_reused, mcc_scratch);
    ASSERT_EQ(mcc_fresh.components().size(), mcc_reused.components().size());

    const Grid<bool> mask_fresh = info::obstacle_mask(mesh, blocks_fresh);
    Grid<bool> mask_reused(5, 5, true);  // wrong shape AND dirty
    info::obstacle_mask(mesh, blocks_fresh, mask_reused);
    ASSERT_EQ(mask_fresh, mask_reused);

    const Grid<bool> mcc_mask_fresh = info::obstacle_mask(mesh, mcc_fresh);
    Grid<bool> mcc_mask_reused;
    info::obstacle_mask(mesh, mcc_fresh, mcc_mask_reused);
    ASSERT_EQ(mcc_mask_fresh, mcc_mask_reused);

    const info::SafetyGrid safety_fresh = info::compute_safety_levels(mesh, mask_fresh);
    info::SafetyGrid safety_reused(7, 3);  // wrong shape; every field rewritten
    info::compute_safety_levels(mesh, mask_fresh, safety_reused);
    ASSERT_EQ(safety_fresh, safety_reused);
    info::compute_safety_levels(mesh, mask_fresh, safety_reused);  // reuse, now in shape
    ASSERT_EQ(safety_fresh, safety_reused);
  }
}

}  // namespace
}  // namespace meshroute
