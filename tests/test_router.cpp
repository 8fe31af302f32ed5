// Tests for Wu-protocol routing (route::route, ladder rung 0): path
// validity, minimality, and the central guarantee — a safe source always gets
// a minimal path with only node-local boundary information.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cond/conditions.hpp"
#include "cond/wang.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "info/boundary.hpp"
#include "info/safety_level.hpp"
#include "mesh/frame.hpp"
#include "route/path.hpp"
#include "route/query.hpp"
#include "route/router.hpp"

namespace meshroute::route {
namespace {

struct World {
  Mesh2D mesh;
  fault::BlockSet blocks;
  info::BoundaryInfoMap boundary;
  Grid<bool> mask;
  info::SafetyGrid safety;

  World(Dist n, const fault::FaultSet& fs)
      : mesh(Mesh2D::square(n)), blocks(fault::build_faulty_blocks(mesh, fs)),
        boundary(mesh, blocks), mask(info::obstacle_mask(mesh, blocks)),
        safety(info::compute_safety_levels(mesh, mask)) {}

  /// Node-local boundary information, or global information at every node.
  [[nodiscard]] QueryView view(bool global = false) const {
    return {.mesh = &mesh, .blocks = &blocks, .boundary = global ? nullptr : &boundary};
  }
};

World make_world(Dist n, std::initializer_list<Rect> rects) {
  const Mesh2D mesh = Mesh2D::square(n);
  fault::FaultSet fs(mesh);
  for (const Rect& r : rects) {
    for (Dist y = r.ymin; y <= r.ymax; ++y)
      for (Dist x = r.xmin; x <= r.xmax; ++x) fs.add({x, y});
  }
  return World(n, fs);
}

/// The literal single-block reading of Wu's L1/L3 shadow rules, kept as an
/// ablation oracle: `v` is dead for destination `d` when v lies inside one
/// of `rects`, or when d sits in a block's north (resp. east) shadow and v
/// can no longer pass on the open side. Each block is judged alone, without
/// composing the joint barrier.
bool dead_by_single_block(const std::vector<Rect>& rects, Coord v, Coord d) {
  const QuadrantFrame frame(v, d);
  const Coord rel = frame.to_frame(d);
  const Coord q = frame.to_frame(v);
  for (const Rect& r : rects) {
    const Coord a = frame.to_frame({r.xmin, r.ymin});
    const Coord b = frame.to_frame({r.xmax, r.ymax});
    const Rect bf{std::min(a.x, b.x), std::max(a.x, b.x), std::min(a.y, b.y),
                  std::max(a.y, b.y)};
    if (bf.contains(q)) return true;
    const bool north_shadow = rel.y > bf.ymax && rel.x <= bf.xmax && rel.x >= bf.xmin;
    if (north_shadow && q.x >= bf.xmin && q.y <= bf.ymax) return true;
    const bool east_shadow = rel.x > bf.xmax && rel.y <= bf.ymax && rel.y >= bf.ymin;
    if (east_shadow && q.y >= bf.ymin && q.x <= bf.xmax) return true;
  }
  return false;
}

TEST(PathValidation, Predicates) {
  const Mesh2D mesh(8, 8);
  const Path good{{{0, 0}, {1, 0}, {1, 1}, {2, 1}}};
  EXPECT_TRUE(path_is_connected(mesh, good));
  EXPECT_TRUE(path_is_minimal(good));
  EXPECT_TRUE(path_is_simple(good));
  const Path gap{{{0, 0}, {2, 0}}};
  EXPECT_FALSE(path_is_connected(mesh, gap));
  const Path detour{{{0, 0}, {1, 0}, {1, 1}, {1, 0}, {2, 0}}};
  EXPECT_FALSE(path_is_minimal(detour));
  EXPECT_FALSE(path_is_simple(detour));
  const Path empty;
  EXPECT_FALSE(path_is_connected(mesh, empty));

  Grid<bool> blocked(8, 8, false);
  blocked[{1, 1}] = true;
  EXPECT_FALSE(path_avoids(blocked, good));
  blocked[{1, 1}] = false;
  EXPECT_TRUE(path_avoids(blocked, good));
}

TEST(PathValidation, SubMinimal) {
  const Path p{{{0, 0}, {0, 1}, {1, 1}, {1, 0}, {2, 0}}};  // length 4 = D(2)+2
  EXPECT_TRUE(path_is_sub_minimal(p));
  EXPECT_FALSE(path_is_minimal(p));
}

TEST(Router, FaultFreeMeshRoutesMinimally) {
  const World w = make_world(10, {});
  const auto r = route(w.view(), {1, 1}, {8, 7});
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(path_is_connected(w.mesh, r.path));
  EXPECT_TRUE(path_is_minimal(r.path));
  EXPECT_EQ(r.path.source(), (Coord{1, 1}));
  EXPECT_EQ(r.path.destination(), (Coord{8, 7}));
}

TEST(Router, SelfRouteIsTrivial) {
  const World w = make_world(6, {});
  const auto r = route(w.view(), {2, 2}, {2, 2});
  ASSERT_TRUE(r.delivered());
  EXPECT_EQ(r.path.length(), 0);
}

TEST(Router, BlockedEndpointsRejected) {
  const World w = make_world(10, {Rect{4, 5, 4, 5}});
  EXPECT_EQ(route(w.view(), {4, 4}, {8, 8}).status, RouteStatus::SourceBlocked);
  EXPECT_EQ(route(w.view(), {0, 0}, {5, 5}).status, RouteStatus::SourceBlocked);
  EXPECT_EQ(route(w.view(), {-1, 0}, {3, 3}).status, RouteStatus::SourceBlocked);
  // Two-phase: a reachable witness does not make a blocked destination
  // routable; the answer is route()'s, with no path.
  const auto via = route_via(w.view(), {0, 0}, {2, 2}, {5, 5});
  EXPECT_EQ(via.status, RouteStatus::SourceBlocked);
  EXPECT_TRUE(via.path.hops.empty());
}

TEST(Router, RoutesAroundSingleBlock) {
  // Destination in the block's north shadow: the packet must commit to the
  // west passage, which the L3 boundary information enforces.
  const World w = make_world(16, {Rect{5, 9, 5, 9}});
  for (int flip = 0; flip < 2; ++flip) {
    Rng rng(static_cast<std::uint64_t>(flip) + 1);
    const auto r = route(w.view(), {2, 2}, {7, 14}, &rng);
    ASSERT_TRUE(r.delivered());
    EXPECT_TRUE(path_is_minimal(r.path));
    EXPECT_TRUE(path_avoids(w.mask, r.path));
  }
}

TEST(Router, EastShadowSymmetric) {
  const World w = make_world(16, {Rect{5, 9, 5, 9}});
  const auto r = route(w.view(), {2, 2}, {14, 7});
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(path_is_minimal(r.path));
  EXPECT_TRUE(path_avoids(w.mask, r.path));
}

TEST(Router, CompositeTrapRequiresJoinedBoundaries) {
  // The two-block trap: block j sits under block B's west flank; the region
  // east of B's west column and south of j is dead for a destination in B's
  // north shadow. Only the joined (turn-and-join) L3 staircase warns the
  // packet in time; a packet routed on single-block shadows alone would die.
  const World w = make_world(16, {Rect{2, 4, 2, 3}, Rect{3, 6, 6, 9}});
  ASSERT_EQ(w.blocks.block_count(), 2u);
  const Coord s{0, 0};
  const Coord d{5, 12};
  // Source is safe (both axes clear).
  const cond::RoutingProblem p{&w.mesh, &w.safety, s, d};
  ASSERT_TRUE(cond::source_safe(p));
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const auto r = route(w.view(), s, d, &rng);
    ASSERT_TRUE(r.delivered()) << "seed " << seed;
    EXPECT_TRUE(path_is_minimal(r.path)) << "seed " << seed;
    EXPECT_TRUE(path_avoids(w.mask, r.path)) << "seed " << seed;
  }
}

TEST(Router, DpRuleMatchesWusTextualRuleOnOneBlock) {
  // Spec check: for a single block, the router's "no monotone completion"
  // move filter must coincide exactly with the L1/L3 case analysis quoted
  // from Wu's protocol — on the lower section of L3, the packet must stay
  // on L3 iff the destination lies in R4 (between the extended L3/L4, above
  // L2); symmetrically for the left section of L1 and R6.
  const Rect block{5, 9, 5, 9};
  const std::vector<Rect> known{block};

  // Lower section of L3: u = (4, y), y < 5. East is forbidden iff dest in R4.
  for (Dist y = 0; y < 5; ++y) {
    const Coord u{4, y};
    for (Dist xd = 5; xd < 20; ++xd) {
      for (Dist yd = y; yd < 20; ++yd) {
        const Coord d{xd, yd};
        if (block.contains(d)) continue;
        const bool in_r4 = xd <= block.xmax && yd > block.ymax;
        const Coord east{5, y};
        const bool dp_allows = cond::monotone_path_exists_rects(known, east, d);
        EXPECT_EQ(dp_allows, !in_r4) << "u=" << to_string(u) << " d=" << to_string(d);
      }
    }
  }
  // Left section of L1: u = (x, 4), x < 5. North is forbidden iff dest in R6.
  for (Dist x = 0; x < 5; ++x) {
    for (Dist xd = x; xd < 20; ++xd) {
      for (Dist yd = 5; yd < 20; ++yd) {
        const Coord d{xd, yd};
        if (block.contains(d)) continue;
        const bool in_r6 = yd <= block.ymax && xd > block.xmax;
        const Coord north{x, 5};
        const bool dp_allows = cond::monotone_path_exists_rects(known, north, d);
        EXPECT_EQ(dp_allows, !in_r6) << "u=(" << x << ",4) d=" << to_string(d);
      }
    }
  }
}

TEST(Router, SingleBlockRuleMatchesDpOnIsolatedBlock) {
  // The literal per-block shadow rule is exact when blocks do not stack:
  // for every node/destination pair around one block it agrees with rung
  // 0's "no monotone completion" filter.
  const std::vector<Rect> known{Rect{5, 9, 5, 9}};
  const Rect area{0, 15, 0, 15};
  int dead = 0;
  for (Dist vy = area.ymin; vy <= area.ymax; ++vy) {
    for (Dist vx = area.xmin; vx <= area.xmax; ++vx) {
      const Coord v{vx, vy};
      if (known[0].contains(v)) continue;
      for (Dist dy = area.ymin; dy <= area.ymax; ++dy) {
        for (Dist dx = area.xmin; dx <= area.xmax; ++dx) {
          const Coord d{dx, dy};
          if (known[0].contains(d)) continue;
          const bool rule_dead = dead_by_single_block(known, v, d);
          ASSERT_EQ(rule_dead, !cond::monotone_path_exists_rects(known, v, d))
              << "v=" << to_string(v) << " d=" << to_string(d);
          dead += rule_dead ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(dead, 0);
}

TEST(Router, SingleBlockRuleAdmitsDeadNodesInCompositeTrap) {
  // Ablation: without composing the joint barrier, the per-block rule
  // admits nodes of the two-block trap from which no monotone completion
  // remains, so a router using it strands packets there. Rung 0 evaluates
  // the joined barrier and delivers on every tie-break stream. This pins
  // down why turn-and-join matters.
  const World w = make_world(16, {Rect{2, 4, 2, 3}, Rect{3, 6, 6, 9}});
  std::vector<Rect> known;
  for (const auto& b : w.blocks.blocks()) known.push_back(b.rect);
  const Coord s{0, 0};
  const Coord d{5, 12};
  int trapped = 0;
  w.mesh.for_each_node([&](Coord v) {
    if (w.mask[v] || v.x > d.x || v.y > d.y) return;
    if (!dead_by_single_block(known, v, d) && !cond::monotone_path_exists_rects(known, v, d)) {
      ++trapped;
    }
  });
  EXPECT_GT(trapped, 0) << "expected the per-block rule to admit a dead node";
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    EXPECT_TRUE(route(w.view(), s, d, &rng).delivered()) << seed;
  }
}

TEST(DimensionOrder, BaselineBehaviour) {
  const Mesh2D mesh = Mesh2D::square(10);
  Grid<bool> mask(10, 10, false);
  const auto clear = route_dimension_order(mesh, mask, {1, 1}, {7, 4});
  ASSERT_TRUE(clear.delivered());
  EXPECT_TRUE(path_is_minimal(clear.path));
  // Path is exactly: x hops then y hops.
  EXPECT_EQ(clear.path.hops[1], (Coord{2, 1}));
  EXPECT_EQ(clear.path.hops[clear.path.length() - 1], (Coord{7, 3}));

  mask[{4, 1}] = true;  // a single fault on the x leg
  const auto stuck = route_dimension_order(mesh, mask, {1, 1}, {7, 4});
  EXPECT_EQ(stuck.status, RouteStatus::Stuck);
  EXPECT_EQ(stuck.path.destination(), (Coord{3, 1}));
  EXPECT_EQ(route_dimension_order(mesh, mask, {4, 1}, {7, 4}).status,
            RouteStatus::SourceBlocked);
  // Works in every direction.
  const auto west = route_dimension_order(mesh, mask, {7, 7}, {0, 0});
  ASSERT_TRUE(west.delivered());
  EXPECT_TRUE(path_is_minimal(west.path));
}

TEST(Router, GlobalPolicyDeliversIffMinimalPathExists) {
  Rng rng(9);
  const Mesh2D mesh = Mesh2D::square(30);
  for (int rep = 0; rep < 20; ++rep) {
    const auto fs = fault::uniform_random_faults(mesh, 50, rng);
    const World w(30, fs);
    const QueryView global = w.view(/*global=*/true);
    for (int t = 0; t < 30; ++t) {
      const Coord s{static_cast<Dist>(rng.uniform(0, 29)),
                    static_cast<Dist>(rng.uniform(0, 29))};
      const Coord d{static_cast<Dist>(rng.uniform(0, 29)),
                    static_cast<Dist>(rng.uniform(0, 29))};
      if (w.mask[s] || w.mask[d]) continue;
      const bool exists = cond::monotone_path_exists(w.mesh, w.mask, s, d);
      const auto r = route(global, s, d, &rng);
      EXPECT_EQ(r.delivered(), exists) << "s=" << to_string(s) << " d=" << to_string(d);
      if (r.delivered()) {
        EXPECT_TRUE(path_is_minimal(r.path));
        EXPECT_TRUE(path_avoids(w.mask, r.path));
      }
    }
  }
}

class SafeSourceGuarantee : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SafeSourceGuarantee, BoundaryInfoDeliversMinimalFromSafeSources) {
  // Theorem 1 + Wu's protocol, end to end: for every safe (source, dest)
  // pair, routing with ONLY node-local boundary information yields a
  // minimal, block-avoiding path.
  Rng rng(1000 + GetParam());
  const Mesh2D mesh = Mesh2D::square(40);
  for (int rep = 0; rep < 8; ++rep) {
    const auto fs = fault::uniform_random_faults(mesh, GetParam(), rng);
    const World w(40, fs);
    int safe_pairs = 0;
    for (int t = 0; t < 60 && safe_pairs < 25; ++t) {
      const Coord s{static_cast<Dist>(rng.uniform(0, 39)),
                    static_cast<Dist>(rng.uniform(0, 39))};
      const Coord d{static_cast<Dist>(rng.uniform(0, 39)),
                    static_cast<Dist>(rng.uniform(0, 39))};
      if (w.mask[s] || w.mask[d]) continue;
      const cond::RoutingProblem p{&w.mesh, &w.safety, s, d};
      if (!cond::safe_with_respect_to(p, s, d)) continue;
      ++safe_pairs;
      const auto r = route(w.view(), s, d, &rng);
      ASSERT_TRUE(r.delivered()) << "safe source failed: s=" << to_string(s)
                                 << " d=" << to_string(d);
      EXPECT_TRUE(path_is_minimal(r.path));
      EXPECT_TRUE(path_avoids(w.mask, r.path));
      EXPECT_TRUE(path_is_connected(w.mesh, r.path));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(VaryFaultCount, SafeSourceGuarantee,
                         ::testing::Values(5u, 20u, 50u, 100u, 160u));

TEST(Router, TwoPhaseSubMinimalViaSpareNeighbor) {
  const World w = make_world(14, {Rect{4, 6, 3, 4}});
  const Coord s{3, 3};
  const Coord d{6, 9};
  const cond::RoutingProblem p{&w.mesh, &w.safety, s, d};
  Coord via{-1, -1};
  ASSERT_EQ(cond::extension1(p, &via), cond::Decision::SubMinimal);
  const auto r = route_via(w.view(), s, via, d);
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(path_is_sub_minimal(r.path));
  EXPECT_TRUE(path_avoids(w.mask, r.path));
}

TEST(Router, TwoPhaseMinimalViaAxisNode) {
  const World w = make_world(14, {Rect{0, 2, 5, 6}});
  const Coord s{1, 1};
  const Coord d{6, 10};
  const cond::RoutingProblem p{&w.mesh, &w.safety, s, d};
  Coord via{-1, -1};
  ASSERT_EQ(cond::extension2(p, 1, &via), cond::Decision::Minimal);
  const auto r = route_via(w.view(), s, via, d);
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(path_is_minimal(r.path));
}

TEST(Router, BoundaryPolicyRequiresMap) {
  // Routing needs a complete world: a view without the mesh or without the
  // block plane is rejected by every routing entry point before any walk
  // starts. A null boundary map is not an incomplete world — it is global
  // information.
  const World w = make_world(8, {});
  const QuerySpec spec{{1, 1}, {5, 5}};
  std::vector<RouteAnswer> out;
  const QueryView no_mesh{.blocks = &w.blocks, .boundary = &w.boundary};
  const QueryView no_blocks{.mesh = &w.mesh, .boundary = &w.boundary};
  for (const QueryView& bad : {no_mesh, no_blocks}) {
    EXPECT_THROW((void)route(bad, spec.src, spec.dst), std::invalid_argument);
    EXPECT_THROW((void)route_via(bad, spec.src, {1, 3}, spec.dst), std::invalid_argument);
    EXPECT_THROW((void)route_ladder(bad, spec.src, spec.dst), std::invalid_argument);
    EXPECT_THROW(route_batch(bad, {&spec, 1}, LadderOptions{}, out), std::invalid_argument);
  }
  EXPECT_TRUE(route(w.view(/*global=*/true), spec.src, spec.dst).delivered());
}

TEST(ShortestBfs, MatchesManhattanWhenUnobstructed) {
  const Mesh2D mesh = Mesh2D::square(12);
  const Grid<bool> empty(12, 12, false);
  const auto r = route_shortest_bfs(mesh, empty, {1, 2}, {9, 7});
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(path_is_minimal(r.path));
  EXPECT_TRUE(path_is_connected(mesh, r.path));
  const auto self = route_shortest_bfs(mesh, empty, {4, 4}, {4, 4});
  ASSERT_TRUE(self.delivered());
  EXPECT_EQ(self.path.length(), 0);
}

TEST(ShortestBfs, DetoursWhenMinimalPathsDie) {
  // A wall with a hole far to the east: BFS finds the detour; its length is
  // exactly Manhattan + 2 * (overshoot past the hole).
  const Mesh2D mesh = Mesh2D::square(12);
  Grid<bool> wall(12, 12, false);
  for (Dist x = 0; x <= 8; ++x) wall[{x, 5}] = true;  // hole at x >= 9
  const Coord s{2, 2};
  const Coord d{2, 9};
  ASSERT_FALSE(cond::monotone_path_exists(mesh, wall, s, d));
  const auto r = route_shortest_bfs(mesh, wall, s, d);
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(path_is_connected(mesh, r.path));
  EXPECT_TRUE(path_avoids(wall, r.path));
  // Detour: east to x=9 (7 hops), through, back west (7 hops): 7 + 7 extra.
  EXPECT_EQ(r.path.length(), manhattan(s, d) + 14);
}

TEST(ShortestBfs, StuckOnlyWhenDisconnected) {
  const Mesh2D mesh = Mesh2D::square(10);
  Grid<bool> wall(10, 10, false);
  for (Dist x = 0; x < 10; ++x) wall[{x, 5}] = true;  // full cut
  EXPECT_EQ(route_shortest_bfs(mesh, wall, {2, 2}, {2, 8}).status, RouteStatus::Stuck);
  EXPECT_EQ(route_shortest_bfs(mesh, wall, {0, 5}, {2, 8}).status,
            RouteStatus::SourceBlocked);
  // Same side: fine.
  EXPECT_TRUE(route_shortest_bfs(mesh, wall, {2, 2}, {8, 4}).delivered());
}

TEST(ShortestBfs, AlwaysLowerBoundsOtherRouters) {
  // BFS length <= any delivered path from minimal routing.
  Rng rng(44);
  const Mesh2D mesh = Mesh2D::square(30);
  const auto fs = fault::uniform_random_faults(mesh, 60, rng);
  const World w(30, fs);
  const QueryView global = w.view(/*global=*/true);
  for (int t = 0; t < 100; ++t) {
    const Coord s{static_cast<Dist>(rng.uniform(0, 29)), static_cast<Dist>(rng.uniform(0, 29))};
    const Coord d{static_cast<Dist>(rng.uniform(0, 29)), static_cast<Dist>(rng.uniform(0, 29))};
    if (w.mask[s] || w.mask[d]) continue;
    const auto bfs = route_shortest_bfs(w.mesh, w.mask, s, d);
    const auto min = route(global, s, d, &rng);
    if (min.delivered()) {
      ASSERT_TRUE(bfs.delivered());
      EXPECT_LE(bfs.path.length(), min.path.length());
      EXPECT_EQ(bfs.path.length(), manhattan(s, d));  // minimal existed
    }
    if (bfs.delivered()) {
      EXPECT_GE(bfs.path.length(), manhattan(s, d));
      EXPECT_TRUE(path_is_simple(bfs.path));
    }
  }
}

}  // namespace
}  // namespace meshroute::route
