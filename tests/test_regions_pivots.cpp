// Unit tests for affected rows/columns, region segmentation, and pivot
// generation (Section 4's information-distribution machinery).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/pivots.hpp"
#include "info/regions.hpp"

namespace meshroute::info {
namespace {

Grid<bool> mask_with(const Mesh2D& mesh, std::initializer_list<Coord> cs) {
  Grid<bool> m(mesh.width(), mesh.height(), false);
  for (const Coord c : cs) m[c] = true;
  return m;
}

TEST(Regions, AffectedRowsAndColumns) {
  const Mesh2D mesh(10, 10);
  const Grid<bool> obstacles = mask_with(mesh, {{2, 3}, {5, 3}, {7, 8}});
  const auto rows = affected_rows(mesh, obstacles);
  const auto cols = affected_columns(mesh, obstacles);
  EXPECT_EQ(rows, (std::vector<Dist>{3, 8}));
  EXPECT_EQ(cols, (std::vector<Dist>{2, 5, 7}));
}

TEST(Regions, NoObstaclesNoAffected) {
  const Mesh2D mesh(6, 6);
  const Grid<bool> obstacles(6, 6, false);
  EXPECT_TRUE(affected_rows(mesh, obstacles).empty());
  EXPECT_TRUE(affected_columns(mesh, obstacles).empty());
}

TEST(Regions, AffectedRowsEqualFaultRowsUnderBlockModel) {
  // Theorem 2's proof observation: disabled nodes never create a new hit,
  // so block-affected rows coincide with rows containing an actual fault.
  Rng rng(17);
  for (int rep = 0; rep < 10; ++rep) {
    const Mesh2D mesh(50, 50);
    const auto fs = fault::uniform_random_faults(mesh, 60, rng);
    const auto blocks = fault::build_faulty_blocks(mesh, fs);
    Grid<bool> block_mask(50, 50, false);
    mesh.for_each_node([&](Coord c) { block_mask[c] = blocks.is_block_node(c); });
    std::set<Dist> fault_rows;
    for (const Coord f : fs.faults()) fault_rows.insert(f.y);
    const auto rows = affected_rows(mesh, block_mask);
    EXPECT_EQ(std::set<Dist>(rows.begin(), rows.end()), fault_rows);
  }
}

TEST(Regions, ClearRunStopsAtObstacleAndEdge) {
  const Mesh2D mesh(10, 1);
  const Grid<bool> obstacles = mask_with(mesh, {{7, 0}});
  const auto east = clear_run(mesh, obstacles, {2, 0}, Direction::East);
  ASSERT_EQ(east.size(), 4u);  // (3,0) .. (6,0)
  EXPECT_EQ(east.front(), (Coord{3, 0}));
  EXPECT_EQ(east.back(), (Coord{6, 0}));
  const auto west = clear_run(mesh, obstacles, {2, 0}, Direction::West);
  EXPECT_EQ(west.size(), 2u);  // (1,0), (0,0) - to the mesh edge
}

TEST(Regions, ClearRunFromObstacleNeighborIsEmpty) {
  const Mesh2D mesh(5, 5);
  const Grid<bool> obstacles = mask_with(mesh, {{3, 2}});
  EXPECT_TRUE(clear_run(mesh, obstacles, {2, 2}, Direction::East).empty());
}

TEST(Segments, SizeOneCollectsEveryNode) {
  const Mesh2D mesh(10, 10);
  const Grid<bool> obstacles = mask_with(mesh, {{6, 5}});
  const SafetyGrid safety = compute_safety_levels(mesh, obstacles);
  const auto reps =
      segment_representatives(mesh, safety, {1, 5}, Direction::East, Direction::North, 1);
  ASSERT_EQ(reps.size(), 4u);  // (2,5), (3,5), (4,5), (5,5)
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_EQ(reps[i].hops, static_cast<Dist>(i + 1));
    EXPECT_EQ(reps[i].node, (Coord{static_cast<Dist>(2 + i), 5}));
  }
}

TEST(Segments, WholeRegionSelectsSingleBestRepresentative) {
  const Mesh2D mesh(12, 12);
  // Obstacle above the run at x=4 limits N there; x=7 has clear north.
  const Grid<bool> obstacles = mask_with(mesh, {{4, 8}, {10, 5}});
  const SafetyGrid safety = compute_safety_levels(mesh, obstacles);
  const auto reps = segment_representatives(mesh, safety, {2, 5}, Direction::East,
                                            Direction::North, kWholeRegionSegment);
  ASSERT_EQ(reps.size(), 1u);
  // Representative maximizes N; node (3,5) has N=inf while (4,5) has N=2.
  EXPECT_TRUE(is_infinite(safety[reps[0].node].n));
}

TEST(Segments, SegmentSizePartitionsRun) {
  const Mesh2D mesh(20, 3);
  const Grid<bool> obstacles = mask_with(mesh, {{15, 1}});
  const SafetyGrid safety = compute_safety_levels(mesh, obstacles);
  // Run from (0,1): nodes (1,1)..(14,1) = 14 nodes; segment size 5 -> 3 reps.
  const auto reps = segment_representatives(mesh, safety, {0, 1}, Direction::East,
                                            Direction::North, 5);
  EXPECT_EQ(reps.size(), 3u);
  // Hops must be monotone increasing and within run bounds.
  Dist last = 0;
  for (const auto& r : reps) {
    EXPECT_GT(r.hops, last);
    EXPECT_LE(r.hops, 14);
    last = r.hops;
  }
}

TEST(Segments, MultiDirectionalRepsIncludePerpendicularRep) {
  // The four-directional variation contains the single-perpendicular
  // representative of every segment (same tie-break), so it can only add
  // candidates.
  Rng rng(23);
  const Mesh2D mesh(30, 30);
  Grid<bool> obstacles(30, 30, false);
  for (int i = 0; i < 25; ++i) {
    obstacles[{static_cast<Dist>(rng.uniform(0, 29)), static_cast<Dist>(rng.uniform(0, 29))}] =
        true;
  }
  const SafetyGrid safety = compute_safety_levels(mesh, obstacles);
  for (const Dist seg : {Dist{1}, Dist{4}, kWholeRegionSegment}) {
    for (int t = 0; t < 20; ++t) {
      const Coord src{static_cast<Dist>(rng.uniform(0, 29)),
                      static_cast<Dist>(rng.uniform(0, 29))};
      if (obstacles[src]) continue;
      const auto single =
          segment_representatives(mesh, safety, src, Direction::East, Direction::North, seg);
      const auto multi = segment_representatives_multi(mesh, safety, src, Direction::East, seg);
      EXPECT_GE(multi.size(), single.size());
      EXPECT_LE(multi.size(), single.size() * 4);
      for (const auto& s : single) {
        bool found = false;
        for (const auto& m : multi) found |= m.node == s.node;
        EXPECT_TRUE(found) << to_string(s.node);
      }
      // Ordered, distinct hops.
      for (std::size_t i = 1; i < multi.size(); ++i) {
        EXPECT_GT(multi[i].hops, multi[i - 1].hops);
      }
    }
  }
}

TEST(Segments, MaxHopsDropsOnlySegmentsPastIt) {
  // A bounded call returns a prefix of the unbounded list that holds every
  // representative within max_hops, for both variations.
  Rng rng(31);
  const Mesh2D mesh(70, 40);
  Grid<bool> obstacles(70, 40, false);
  for (int i = 0; i < 60; ++i) {
    obstacles[{static_cast<Dist>(rng.uniform(0, 69)), static_cast<Dist>(rng.uniform(0, 39))}] =
        true;
  }
  const SafetyGrid safety = compute_safety_levels(mesh, obstacles);
  const auto expect_bounded_prefix = [](const std::vector<AxisCandidate>& all,
                                        const std::vector<AxisCandidate>& bounded,
                                        Dist max_hops) {
    ASSERT_LE(bounded.size(), all.size());
    for (std::size_t i = 0; i < bounded.size(); ++i) {
      EXPECT_EQ(bounded[i].node, all[i].node);
      EXPECT_EQ(bounded[i].hops, all[i].hops);
    }
    for (std::size_t i = bounded.size(); i < all.size(); ++i) EXPECT_GT(all[i].hops, max_hops);
  };
  for (const Dist seg : {Dist{1}, Dist{5}, kWholeRegionSegment}) {
    for (int t = 0; t < 20; ++t) {
      const Coord src{static_cast<Dist>(rng.uniform(0, 69)),
                      static_cast<Dist>(rng.uniform(0, 39))};
      if (obstacles[src]) continue;
      for (const Direction dir : kAllDirections) {
        const Direction perp = is_horizontal(dir) ? Direction::North : Direction::East;
        const auto all = segment_representatives(mesh, safety, src, dir, perp, seg);
        const auto all_multi = segment_representatives_multi(mesh, safety, src, dir, seg);
        for (const Dist max_hops : {Dist{0}, Dist{1}, Dist{4}, Dist{5}, Dist{6}, Dist{23}}) {
          expect_bounded_prefix(
              all, segment_representatives(mesh, safety, src, dir, perp, seg, max_hops),
              max_hops);
          expect_bounded_prefix(
              all_multi,
              segment_representatives_multi(mesh, safety, src, dir, seg, max_hops),
              max_hops);
        }
      }
    }
  }
}

TEST(Segments, RunLengthMatchesClearRun) {
  // segment_representatives reads the clear run from a node off its safety
  // level (infinite: up to the mesh edge). That must be clear_run's length
  // at every node, obstacle nodes included, in every direction, on FB and
  // MCC worlds whose widths and heights straddle the 64-bit word edges.
  Rng rng(0x5e9);
  for (const Dist w : {1, 63, 64, 65, 129}) {
    for (const Dist h : {1, 64, 65}) {
      const Mesh2D mesh(w, h);
      const auto fs = fault::uniform_random_faults(mesh, mesh.node_count() / 12, rng);
      const Grid<bool> masks[] = {
          obstacle_mask(mesh, fault::build_faulty_blocks(mesh, fs)),
          obstacle_mask(mesh, fault::build_mcc(mesh, fs, fault::MccKind::TypeOne)),
          obstacle_mask(mesh, fault::build_mcc(mesh, fs, fault::MccKind::TypeTwo))};
      for (const Grid<bool>& mask : masks) {
        const SafetyGrid safety = compute_safety_levels(mesh, mask);
        mesh.for_each_node([&](Coord c) {
          for (const Direction d : kAllDirections) {
            const Dist to_edge = d == Direction::East    ? w - 1 - c.x
                                 : d == Direction::West  ? c.x
                                 : d == Direction::North ? h - 1 - c.y
                                                         : c.y;
            const Dist run = static_cast<Dist>(clear_run(mesh, mask, c, d).size());
            ASSERT_EQ(run, std::min(safety.get(c, d), to_edge))
                << w << "x" << h << " " << to_string(c) << " " << to_string(d);
          }
        });
      }
    }
  }
}

TEST(Segments, RejectsNegativeSize) {
  const Mesh2D mesh(5, 5);
  const Grid<bool> obstacles(5, 5, false);
  const SafetyGrid safety = compute_safety_levels(mesh, obstacles);
  EXPECT_THROW(
      (void)segment_representatives(mesh, safety, {0, 0}, Direction::East, Direction::North, -1),
      std::invalid_argument);
}

TEST(Segments, RejectsSourceOutsideMesh) {
  const Mesh2D mesh(5, 5);
  const SafetyGrid safety = compute_safety_levels(mesh, Grid<bool>(5, 5, false));
  EXPECT_THROW(
      (void)segment_representatives(mesh, safety, {-1, 2}, Direction::East, Direction::North, 1),
      std::invalid_argument);
  EXPECT_THROW((void)segment_representatives_multi(mesh, safety, {2, 5}, Direction::South, 1),
               std::invalid_argument);
}

TEST(Pivots, CountMatchesClosedForm) {
  EXPECT_EQ(pivot_count(1), 1);
  EXPECT_EQ(pivot_count(2), 5);
  EXPECT_EQ(pivot_count(3), 21);
  EXPECT_EQ(pivot_count(4), 85);
}

TEST(Pivots, CenterPlacementLevels) {
  const Rect area{0, 99, 0, 99};
  const auto level1 = generate_pivots(area, 1, PivotPlacement::Center);
  ASSERT_EQ(level1.size(), 1u);
  EXPECT_EQ(level1[0], (Coord{49, 49}));
  const auto level3 = generate_pivots(area, 3, PivotPlacement::Center);
  EXPECT_EQ(level3.size(), 21u);
  for (const Coord p : level3) EXPECT_TRUE(area.contains(p));
}

TEST(Pivots, RandomPlacementStaysInsideAndIsSeeded) {
  const Rect area{10, 59, 20, 69};
  Rng rng1(8);
  Rng rng2(8);
  const auto a = generate_pivots(area, 3, PivotPlacement::Random, &rng1);
  const auto b = generate_pivots(area, 3, PivotPlacement::Random, &rng2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 21u);
  for (const Coord p : a) EXPECT_TRUE(area.contains(p));
  EXPECT_THROW((void)generate_pivots(area, 2, PivotPlacement::Random, nullptr),
               std::invalid_argument);
}

TEST(Pivots, TinyAreaTruncatesRecursion) {
  // A 1x1 area cannot be subdivided; deeper levels must not crash or emit
  // out-of-area pivots.
  const Rect area{5, 5, 5, 5};
  const auto pivots = generate_pivots(area, 3, PivotPlacement::Center);
  ASSERT_EQ(pivots.size(), 1u);
  EXPECT_EQ(pivots[0], (Coord{5, 5}));
}

TEST(Pivots, LatinPlacementDistinctRowsAndColumns) {
  const Rect area{0, 49, 0, 49};
  Rng rng(12);
  const auto pivots = generate_latin_pivots(area, 21, rng);
  ASSERT_EQ(pivots.size(), 21u);
  std::set<Dist> xs;
  std::set<Dist> ys;
  for (const Coord p : pivots) {
    EXPECT_TRUE(area.contains(p));
    xs.insert(p.x);
    ys.insert(p.y);
  }
  EXPECT_EQ(xs.size(), 21u);
  EXPECT_EQ(ys.size(), 21u);
  EXPECT_THROW((void)generate_latin_pivots(Rect{0, 5, 0, 5}, 10, rng), std::invalid_argument);
}

}  // namespace
}  // namespace meshroute::info
