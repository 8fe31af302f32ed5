// Stress suite: clustered (random-walk) faults produce the large, stacked,
// irregular fault regions that uniform scattering almost never does. Every
// cross-module equivalence and guarantee is re-validated in that regime,
// plus crash-freedom fuzzing on adversarial inputs.
#include <gtest/gtest.h>

#include "cond/conditions.hpp"
#include "cond/strategies.hpp"
#include "cond/wang.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/boundary.hpp"
#include "info/pivots.hpp"
#include "info/safety_level.hpp"
#include "route/path.hpp"
#include "route/query.hpp"
#include "simsub/protocols.hpp"

namespace meshroute {
namespace {

struct ClusteredWorld {
  Mesh2D mesh = Mesh2D::square(48);
  fault::FaultSet faults;
  fault::BlockSet blocks;
  fault::MccModel mcc;
  Grid<bool> fault_mask{48, 48, false};
  Grid<bool> fb_mask{48, 48, false};
  info::SafetyGrid fb_safety{48, 48};
  info::BoundaryInfoMap boundary;

  explicit ClusteredWorld(Rng& rng, std::size_t clusters, std::size_t size)
      : faults(fault::clustered_faults(mesh, clusters, size, rng)),
        blocks(fault::build_faulty_blocks(mesh, faults)),
        mcc(fault::build_mcc_model(mesh, faults)), fb_mask(info::obstacle_mask(mesh, blocks)),
        fb_safety(info::compute_safety_levels(mesh, fb_mask)), boundary(mesh, blocks) {
    faults.mask().unpack(fault_mask);
  }

  [[nodiscard]] Coord random_free(Rng& rng, const Grid<bool>& mask) const {
    for (int i = 0; i < 10000; ++i) {
      const Coord c{static_cast<Dist>(rng.uniform(0, 47)),
                    static_cast<Dist>(rng.uniform(0, 47))};
      if (!mask[c]) return c;
    }
    throw std::runtime_error("mesh saturated");
  }
};

class Clustered : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Clustered, WangStillMatchesDpOnStackedBlocks) {
  Rng rng(GetParam());
  const ClusteredWorld w(rng, 4, 12);
  for (int t = 0; t < 150; ++t) {
    const Coord s = w.random_free(rng, w.fb_mask);
    const Coord d = w.random_free(rng, w.fb_mask);
    EXPECT_EQ(cond::wang_minimal_path_exists(w.blocks, s, d),
              cond::monotone_path_exists(w.mesh, w.fb_mask, s, d))
        << "s=" << to_string(s) << " d=" << to_string(d);
  }
}

TEST_P(Clustered, MccEquivalenceOnStackedShapes) {
  Rng rng(GetParam() * 31);
  const ClusteredWorld w(rng, 4, 12);
  Grid<bool> mcc1(48, 48, false);
  Grid<bool> mcc2(48, 48, false);
  w.mesh.for_each_node([&](Coord c) {
    mcc1[c] = w.mcc.type_one.is_mcc_node(c);
    mcc2[c] = w.mcc.type_two.is_mcc_node(c);
  });
  for (int t = 0; t < 150; ++t) {
    const Coord s = w.random_free(rng, w.fault_mask);
    const Coord d = w.random_free(rng, w.fault_mask);
    const Grid<bool>& mask =
        fault::mcc_kind_for(quadrant_of(s, d)) == fault::MccKind::TypeOne ? mcc1 : mcc2;
    if (mask[s] || mask[d]) continue;
    EXPECT_EQ(cond::monotone_path_exists(w.mesh, w.fault_mask, s, d),
              cond::monotone_path_exists(w.mesh, mask, s, d))
        << "s=" << to_string(s) << " d=" << to_string(d);
  }
}

TEST_P(Clustered, CertificatesRemainSound) {
  Rng rng(GetParam() * 97);
  const ClusteredWorld w(rng, 5, 10);
  const auto pivots =
      info::generate_pivots(w.mesh.bounds(), 3, info::PivotPlacement::Random, &rng);
  for (int t = 0; t < 120; ++t) {
    const Coord s = w.random_free(rng, w.fb_mask);
    const Coord d = w.random_free(rng, w.fb_mask);
    const cond::RoutingProblem p{&w.mesh, &w.fb_safety, s, d};
    const bool reachable = cond::monotone_path_exists(w.mesh, w.fb_mask, s, d);
    if (cond::source_safe(p)) {
      EXPECT_TRUE(reachable);
    }
    Coord via{-1, -1};
    const auto e1 = cond::extension1(p, &via);
    if (e1 == cond::Decision::Minimal) {
      EXPECT_TRUE(reachable);
    }
    if (e1 == cond::Decision::SubMinimal) {
      EXPECT_TRUE(cond::monotone_path_exists(w.mesh, w.fb_mask, via, d));
    }
    for (const Dist seg : {Dist{1}, Dist{5}, info::kWholeRegionSegment}) {
      if (cond::extension2(p, seg) == cond::Decision::Minimal) {
        EXPECT_TRUE(reachable);
      }
    }
    if (cond::extension3(p, pivots) == cond::Decision::Minimal) {
      EXPECT_TRUE(reachable);
    }
  }
}

TEST_P(Clustered, SafeSourcesRouteMinimallyAroundBigBlocks) {
  Rng rng(GetParam() * 131);
  const ClusteredWorld w(rng, 4, 14);
  const route::QueryView view{.mesh = &w.mesh, .blocks = &w.blocks, .boundary = &w.boundary};
  int safe_pairs = 0;
  for (int t = 0; t < 400 && safe_pairs < 60; ++t) {
    const Coord s = w.random_free(rng, w.fb_mask);
    const Coord d = w.random_free(rng, w.fb_mask);
    const cond::RoutingProblem p{&w.mesh, &w.fb_safety, s, d};
    if (!cond::safe_with_respect_to(p, s, d)) continue;
    ++safe_pairs;
    const auto r = route::route(view, s, d, &rng);
    ASSERT_TRUE(r.delivered()) << "s=" << to_string(s) << " d=" << to_string(d);
    EXPECT_TRUE(route::path_is_minimal(r.path));
    EXPECT_TRUE(route::path_avoids(w.fb_mask, r.path));
  }
  EXPECT_GT(safe_pairs, 0);
}

TEST_P(Clustered, DistributedProtocolsSurviveBigBlocks) {
  Rng rng(GetParam() * 173);
  const ClusteredWorld w(rng, 3, 15);
  const auto dist = simsub::distributed_safety_levels(w.mesh, w.fb_mask);
  const auto central = info::compute_safety_levels(w.mesh, w.fb_mask);
  w.mesh.for_each_node([&](Coord c) {
    if (w.fb_mask[c]) return;
    for (const Direction dir : kAllDirections) {
      const Dist a = dist.levels[c].get(dir);
      const Dist b = central[c].get(dir);
      EXPECT_EQ(is_infinite(a), is_infinite(b));
      if (!is_infinite(b)) {
        EXPECT_EQ(a, b);
      }
    }
  });
  const auto bdist = simsub::distributed_boundary_info(w.mesh, w.blocks);
  std::size_t total = 0;
  std::vector<Rect> known;
  w.mesh.for_each_node([&](Coord c) {
    w.boundary.known_rects(c, known);
    EXPECT_EQ(bdist.known[c].size(), known.size()) << to_string(c);
    total += bdist.known[c].size();
  });
  EXPECT_GT(total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Clustered, ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Fuzz, RouterNeverCrashesOnArbitraryEndpoints) {
  Rng rng(99);
  const ClusteredWorld w(rng, 4, 10);
  const route::QueryView view{.mesh = &w.mesh, .blocks = &w.blocks, .boundary = &w.boundary};
  for (int t = 0; t < 500; ++t) {
    const Coord s{static_cast<Dist>(rng.uniform(-2, 49)), static_cast<Dist>(rng.uniform(-2, 49))};
    const Coord d{static_cast<Dist>(rng.uniform(-2, 49)), static_cast<Dist>(rng.uniform(-2, 49))};
    const auto r = route::route(view, s, d, &rng);
    if (!w.mesh.in_bounds(s) || !w.mesh.in_bounds(d) ||
        w.blocks.is_block_node(s) || w.blocks.is_block_node(d)) {
      EXPECT_EQ(r.status, route::RouteStatus::SourceBlocked);
    } else if (r.delivered()) {
      EXPECT_TRUE(route::path_is_connected(w.mesh, r.path));
      EXPECT_TRUE(route::path_is_minimal(r.path));
      EXPECT_TRUE(route::path_avoids(w.fb_mask, r.path));
    }
  }
}

TEST(Fuzz, SaturatedMeshStillBuildsModels) {
  // Nearly half the mesh faulty: one giant block engulfing the rest.
  const Mesh2D mesh = Mesh2D::square(16);
  Rng rng(5);
  const auto fs = fault::uniform_random_faults(mesh, 120, rng);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  EXPECT_GE(blocks.block_count(), 1u);
  std::int64_t area = 0;
  for (const auto& b : blocks.blocks()) area += b.rect.area();
  EXPECT_EQ(area, blocks.total_faulty() + blocks.total_disabled());
  const auto mcc = fault::build_mcc_model(mesh, fs);
  EXPECT_LE(mcc.type_one.total_disabled(), blocks.total_disabled());
}

TEST(Fuzz, FullRowAndColumnBlocks) {
  // Blocks spanning an entire row/column of the mesh: safety levels and
  // boundary trails must clip at edges without incident.
  const Mesh2D mesh = Mesh2D::square(12);
  fault::FaultSet fs(mesh);
  for (Dist x = 0; x < 12; ++x) fs.add({x, 5});
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  ASSERT_EQ(blocks.block_count(), 1u);
  const info::BoundaryInfoMap boundary(mesh, blocks);
  const auto mask = info::obstacle_mask(mesh, blocks);
  const auto safety = info::compute_safety_levels(mesh, mask);
  EXPECT_EQ((safety[{3, 2}].n), 2);
  // Wall splits the mesh: no route across.
  const route::QueryView view{.mesh = &mesh, .blocks = &blocks, .boundary = &boundary};
  const auto r = route::route(view, {3, 2}, {3, 9});
  EXPECT_FALSE(r.delivered());
  // Along the wall: fine.
  const auto ok = route::route(view, {0, 2}, {11, 4});
  ASSERT_TRUE(ok.delivered());
  EXPECT_TRUE(route::path_is_minimal(ok.path));
}

}  // namespace
}  // namespace meshroute
