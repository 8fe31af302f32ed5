// Unit tests for extended safety levels (the (E, S, W, N) tuples).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/safety_level.hpp"
#include "safety_oracle.hpp"

namespace meshroute::info {
namespace {

using fault::build_faulty_blocks;
using fault::FaultSet;

Grid<bool> mask_with(const Mesh2D& mesh, std::initializer_list<Coord> cs) {
  Grid<bool> m(mesh.width(), mesh.height(), false);
  for (const Coord c : cs) m[c] = true;
  return m;
}

TEST(SafetyLevel, DefaultTupleIsAllInfinite) {
  const ExtendedSafetyLevel level;
  for (const Direction d : kAllDirections) EXPECT_TRUE(is_infinite(level.get(d)));
}

TEST(SafetyLevel, GetSetRoundTrip) {
  ExtendedSafetyLevel level;
  level.set(Direction::East, 3);
  level.set(Direction::South, 1);
  EXPECT_EQ(level.get(Direction::East), 3);
  EXPECT_EQ(level.e, 3);
  EXPECT_EQ(level.s, 1);
  EXPECT_TRUE(is_infinite(level.w));
}

TEST(SafetyLevel, FaultFreeMeshAllInfinite) {
  // "the default extended safety level is (inf, inf, inf, inf)".
  const Mesh2D mesh(10, 10);
  const Grid<bool> obstacles(10, 10, false);
  const SafetyGrid grid = compute_safety_levels(mesh, obstacles);
  mesh.for_each_node([&](Coord c) {
    for (const Direction d : kAllDirections) EXPECT_TRUE(is_infinite(grid[c].get(d)));
  });
}

TEST(SafetyLevel, SingleObstacleRowAndColumn) {
  const Mesh2D mesh(10, 10);
  const Grid<bool> obstacles = mask_with(mesh, {{5, 5}});
  const SafetyGrid grid = compute_safety_levels(mesh, obstacles);
  // (2,5): the obstacle is 3 hops east -> E = 2 clear nodes.
  EXPECT_EQ((grid[{2, 5}].e), 2);
  EXPECT_TRUE(is_infinite(grid[{2, 5}].w));
  EXPECT_TRUE(is_infinite(grid[{2, 5}].n));
  // (5,2): obstacle 3 hops north -> N = 2.
  EXPECT_EQ((grid[{5, 2}].n), 2);
  EXPECT_TRUE(is_infinite(grid[{5, 2}].s));
  // (6,5): adjacent west -> W = 0.
  EXPECT_EQ((grid[{6, 5}].w), 0);
  // Off the obstacle's row/column: unaffected.
  EXPECT_TRUE(is_infinite(grid[{2, 4}].e));
}

TEST(SafetyLevel, SemanticXdLeECharacterizesClearSection) {
  // E is defined so that xd <= E holds exactly when the section of the row
  // from the node to xd is clear of obstacles.
  const Mesh2D mesh(20, 20);
  const Grid<bool> obstacles = mask_with(mesh, {{7, 3}, {13, 3}});
  const SafetyGrid grid = compute_safety_levels(mesh, obstacles);
  const Coord node{2, 3};
  for (Dist xd = 1; xd <= 10; ++xd) {
    bool clear = true;
    for (Dist x = node.x + 1; x <= node.x + xd; ++x) {
      if (obstacles[{x, 3}]) clear = false;
    }
    EXPECT_EQ(xd <= grid[node].e, clear) << "xd=" << xd;
  }
}

TEST(SafetyLevel, BetweenTwoObstacles) {
  const Mesh2D mesh(10, 1);
  const Grid<bool> obstacles = mask_with(mesh, {{2, 0}, {8, 0}});
  const SafetyGrid grid = compute_safety_levels(mesh, obstacles);
  EXPECT_EQ((grid[{5, 0}].e), 2);
  EXPECT_EQ((grid[{5, 0}].w), 2);
  EXPECT_EQ((grid[{3, 0}].w), 0);
  EXPECT_EQ((grid[{7, 0}].e), 0);
}

TEST(SafetyLevel, ObstacleMaskFromBlocks) {
  const Mesh2D mesh(10, 10);
  FaultSet fs(mesh);
  fs.add({3, 3});
  fs.add({4, 4});
  const auto blocks = build_faulty_blocks(mesh, fs);
  const Grid<bool> mask = obstacle_mask(mesh, blocks);
  // Diagonal faults merge into a 2x2 block; the whole rect is an obstacle.
  EXPECT_TRUE((mask[{3, 4}]));
  EXPECT_TRUE((mask[{4, 3}]));
  EXPECT_FALSE((mask[{5, 5}]));
}

TEST(SafetyLevel, LevelsMeasureDistanceToBlockNotFault) {
  // Distance is to the nearest *block* node, which may be a disabled
  // (healthy) node of the block.
  const Mesh2D mesh(12, 12);
  FaultSet fs(mesh);
  fs.add({5, 5});
  fs.add({6, 6});  // merges into block [5:6, 5:6]
  const auto blocks = build_faulty_blocks(mesh, fs);
  const SafetyGrid grid = compute_safety_levels(mesh, obstacle_mask(mesh, blocks));
  // (2,6): nearest block node east is (5,6) (disabled), 3 hops -> E=2.
  EXPECT_EQ((grid[{2, 6}].e), 2);
}

TEST(SafetyLevel, ExhaustiveAgreementWithBruteForce) {
  // Randomized cross-check of the sweep implementation against a naive
  // per-node directional scan.
  Rng rng(5);
  const Mesh2D mesh(30, 30);
  Grid<bool> obstacles(30, 30, false);
  for (int i = 0; i < 40; ++i) {
    obstacles[{static_cast<Dist>(rng.uniform(0, 29)), static_cast<Dist>(rng.uniform(0, 29))}] =
        true;
  }
  const SafetyGrid grid = compute_safety_levels(mesh, obstacles);
  const auto brute = [&](Coord c, Direction d) -> Dist {
    Dist count = 0;
    Coord v = neighbor(c, d);
    while (mesh.in_bounds(v) && !obstacles[v]) {
      ++count;
      v = neighbor(v, d);
    }
    return mesh.in_bounds(v) ? count : kInfiniteDistance;
  };
  mesh.for_each_node([&](Coord c) {
    for (const Direction d : kAllDirections) {
      const Dist expected = brute(c, d);
      const Dist got = grid[c].get(d);
      if (is_infinite(expected)) {
        EXPECT_TRUE(is_infinite(got)) << to_string(c) << " " << to_string(d);
      } else {
        EXPECT_EQ(got, expected) << to_string(c) << " " << to_string(d);
      }
    }
  });
}

TEST(SafetyLevels, RejectsMismatchedPlane) {
  // Every builder sizes its output from the mesh; a plane of any other size
  // is refused instead of being read past its rows.
  const Mesh2D mesh(10, 8);
  SafetyGrid out;
  Grid<ExtendedSafetyLevel> oracle_out;
  for (const auto& [w, h] : {std::pair<Dist, Dist>{11, 8}, std::pair<Dist, Dist>{10, 9}}) {
    const Grid<bool> mask(w, h, true);
    core::BitGrid plane(w, h);
    plane.set({w - 1, h - 1});
    EXPECT_THROW(compute_safety_levels(mesh, mask, out), std::invalid_argument) << w << "x" << h;
    EXPECT_THROW((void)compute_safety_levels(mesh, mask), std::invalid_argument);
    EXPECT_THROW(compute_safety_levels(mesh, plane, out), std::invalid_argument);
    EXPECT_THROW(compute_safety_levels_scalar(mesh, mask, oracle_out), std::invalid_argument);
  }
}

TEST(SafetyGrid, MatchesScalarOracleAtWordEdges) {
  // Lines of 1, 63, 64, 65, 127, 128 and 129 nodes put obstacles, gaps and
  // mesh edges on both sides of every word boundary the scans cross.
  const Dist sizes[] = {1, 63, 64, 65, 127, 128, 129};
  Rng rng(0x5afe1e7e1);
  for (const Dist w : sizes) {
    for (const Dist h : sizes) {
      const Mesh2D mesh(w, h);
      const auto area = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
      const fault::FaultSet faults = fault::uniform_random_faults(mesh, 1 + area / 40, rng);
      Grid<bool> random_plane(w, h, false);
      mesh.for_each_node([&](Coord c) { random_plane[c] = rng.uniform(0, 5) == 0; });
      const Grid<bool> masks[] = {
          obstacle_mask(mesh, build_faulty_blocks(mesh, faults)),
          obstacle_mask(mesh, fault::build_mcc(mesh, faults, fault::MccKind::TypeOne)),
          obstacle_mask(mesh, fault::build_mcc(mesh, faults, fault::MccKind::TypeTwo)),
          random_plane};
      for (const Grid<bool>& mask : masks) {
        Grid<ExtendedSafetyLevel> oracle;
        compute_safety_levels_scalar(mesh, mask, oracle);
        SafetyGrid from_bytes;
        compute_safety_levels(mesh, mask, from_bytes);
        EXPECT_TRUE(testing_support::SafetyMatchesOracle(from_bytes, oracle)) << w << "x" << h;
        core::BitGrid plane;
        plane.assign(mask);
        SafetyGrid from_plane(3, 2);  // reshaped by the build
        compute_safety_levels(mesh, plane, from_plane);
        EXPECT_TRUE(testing_support::SafetyMatchesOracle(from_plane, oracle)) << w << "x" << h;
      }
    }
  }
}

}  // namespace
}  // namespace meshroute::info
