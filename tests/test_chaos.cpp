// Tests for the chaos layer: deterministic fault schedules, the ChaosEngine
// truth/belief timeline, and the graceful-degradation ladder — including the
// differential anchor (rung 0 over a frozen view reproduces pinned digests of
// Wu's protocol walks) and the new failure statuses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "chaos/fault_schedule.hpp"
#include "dynamic/dynamic_state.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "info/boundary.hpp"
#include "route/ladder.hpp"
#include "route/query.hpp"
#include "route/router.hpp"

namespace meshroute::chaos {
namespace {

// ---------------------------------------------------------------------------
// FaultSchedule: spec grammar, round-trips, and the randomized generator.

TEST(FaultSchedule, ParsesInjectionsAndKnobs) {
  const FaultSchedule s =
      FaultSchedule::parse("inject=3:4,5; inject=1:2,2\tlag=6;hoplag=2 drop=0.25;dup=0.1");
  ASSERT_EQ(s.entries().size(), 2u);
  // Entries are kept sorted by time regardless of spec order.
  EXPECT_EQ(s.entries()[0], (TimedFault{1, {2, 2}}));
  EXPECT_EQ(s.entries()[1], (TimedFault{3, {4, 5}}));
  EXPECT_EQ(s.staleness.base_lag, 6);
  EXPECT_EQ(s.staleness.per_hop_lag, 2);
  EXPECT_DOUBLE_EQ(s.loss.drop, 0.25);
  EXPECT_DOUBLE_EQ(s.loss.duplicate, 0.1);
}

TEST(FaultSchedule, SpecRoundTrips) {
  FaultSchedule s;
  s.add(7, {3, 9});
  s.add(2, {0, 0});
  s.set_random(5, 40);
  s.staleness = StalenessSpec{4, 1};
  s.loss.drop = 0.5;
  s.loss.max_retries = 16;
  const FaultSchedule back = FaultSchedule::parse(s.to_spec());
  EXPECT_EQ(back, s);
}

TEST(FaultSchedule, MalformedSpecsThrow) {
  EXPECT_THROW((void)FaultSchedule::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("inject=5"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("inject=x:1,2"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("rand=4"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("lag"), std::invalid_argument);
  FaultSchedule s;
  EXPECT_THROW(s.add(-1, {0, 0}), std::invalid_argument);
}

TEST(FaultSchedule, LoadMatchesParseAndStripsComments) {
  const std::string path = testing::TempDir() + "/chaos_spec.txt";
  {
    std::ofstream out(path);
    out << "# a scheduled outage\n"
        << "inject=2:1,1\n"
        << "lag=3  # nodes hear late\n"
        << "inject=9:6,0\n";
  }
  const FaultSchedule loaded = FaultSchedule::load(path);
  EXPECT_EQ(loaded, FaultSchedule::parse("inject=2:1,1;lag=3;inject=9:6,0"));
  EXPECT_THROW((void)FaultSchedule::load(testing::TempDir() + "/no_such_spec"),
               std::runtime_error);
}

TEST(FaultSchedule, MaterializedIsSeedDeterministic) {
  const Mesh2D mesh(10, 10);
  FaultSchedule s;
  s.set_random(12, 30);
  Rng a(99);
  Rng b(99);
  const FaultSchedule ma = s.materialized(mesh, a);
  const FaultSchedule mb = s.materialized(mesh, b);
  EXPECT_EQ(ma, mb);
  EXPECT_EQ(ma.rand_count(), 0u);
  ASSERT_EQ(ma.entries().size(), 12u);
  std::vector<Coord> nodes;
  for (const TimedFault& e : ma.entries()) {
    EXPECT_TRUE(mesh.in_bounds(e.node));
    EXPECT_GE(e.time, 1);
    EXPECT_LE(e.time, 30);
    nodes.push_back(e.node);
  }
  std::sort(nodes.begin(), nodes.end(),
            [](Coord l, Coord r) { return std::pair(l.y, l.x) < std::pair(r.y, r.x); });
  EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()), nodes.end()) << "nodes not distinct";

  Rng c(100);
  const FaultSchedule mc = s.materialized(mesh, c);
  EXPECT_NE(mc, ma);  // a different seed draws a different script
}

// ---------------------------------------------------------------------------
// ChaosEngine: physical truth per tick, epoch snapshots, staleness law.

TEST(ChaosEngine, TruthTimelineFollowsTheSchedule) {
  const Mesh2D mesh(8, 8);
  const std::vector<Coord> initial{{1, 1}};
  FaultSchedule sched;
  sched.add(5, {4, 4});
  const ChaosEngine engine(mesh, initial, sched);

  EXPECT_EQ(engine.bad_since({1, 1}), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(engine.bad_since({4, 4}), 5);
  EXPECT_EQ(engine.bad_since({0, 0}), std::numeric_limits<std::int64_t>::max());

  EXPECT_TRUE(engine.truly_bad({1, 1}, 0));
  EXPECT_FALSE(engine.truly_bad({4, 4}, 4));
  EXPECT_TRUE(engine.truly_bad({4, 4}, 5));
  EXPECT_FALSE(engine.truly_bad({0, 0}, 1000));

  EXPECT_EQ(engine.blocks_at(0).size(), 1u);
  EXPECT_EQ(engine.blocks_at(4).size(), 1u);
  EXPECT_EQ(engine.blocks_at(5).size(), 2u);
  EXPECT_EQ(engine.horizon(), 5);
  EXPECT_EQ(engine.replay_stats().injections_applied, 1);
}

TEST(ChaosEngine, DisableRuleCasualtiesAreStampedWithTheInjectionTime) {
  // A diagonal second fault merges the two into [4:5,4:5]; the bridge nodes
  // (4,5) and (5,4) are disabled by that injection, so they turn bad at its
  // tick — the mask diff, not the injected node alone, defines the truth.
  const Mesh2D mesh(12, 12);
  const std::vector<Coord> initial{{4, 4}};
  FaultSchedule sched;
  sched.add(3, {5, 5});
  const ChaosEngine engine(mesh, initial, sched);
  for (const Coord c : {Coord{5, 5}, Coord{4, 5}, Coord{5, 4}}) {
    EXPECT_FALSE(engine.truly_bad(c, 2)) << to_string(c);
    EXPECT_TRUE(engine.truly_bad(c, 3)) << to_string(c);
  }
  ASSERT_EQ(engine.blocks_at(3).size(), 1u);
  EXPECT_EQ(engine.blocks_at(3)[0], (Rect{4, 5, 4, 5}));
}

TEST(ChaosEngine, DeltaStampsMatchFullScanReference) {
  // The engine stamps bad-since times from each injection's epoch delta
  // (DynamicMeshState::last_changed). That must be bit-identical to the
  // definitional full-mesh sweep — "stamp every node whose obstacle bit is
  // newly set" — across a long random schedule that mixes fresh faults,
  // duplicates, and injections into already-bad interiors.
  Rng rng(0x57A1E);
  const Mesh2D mesh(24, 24);
  const auto draw = [&] {
    return Coord{static_cast<Dist>(rng.uniform(0, 23)), static_cast<Dist>(rng.uniform(0, 23))};
  };
  std::vector<Coord> initial;
  for (int i = 0; i < 6; ++i) initial.push_back(draw());
  FaultSchedule sched;
  for (std::int64_t t = 1; t <= 80; ++t) sched.add(t, draw());
  const ChaosEngine engine(mesh, initial, sched);

  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  dynamic::DynamicMeshState state(mesh);
  Grid<std::int64_t> ref(mesh.width(), mesh.height(), kNever);
  const auto stamp_scan = [&](std::int64_t since) {
    mesh.for_each_node([&](Coord c) {
      if (state.safety().blocked(c) && ref[c] == kNever) ref[c] = since;
    });
  };
  for (const Coord c : initial) state.inject_fault(c);
  stamp_scan(std::numeric_limits<std::int64_t>::min());
  for (const TimedFault& entry : sched.entries()) {
    if (state.safety().blocked(entry.node)) continue;
    state.inject_fault(entry.node);
    stamp_scan(entry.time);
  }
  mesh.for_each_node([&](Coord c) { ASSERT_EQ(engine.bad_since(c), ref[c]) << to_string(c); });
}

TEST(ChaosEngine, StalenessLawDelaysBeliefByDistance) {
  const Mesh2D mesh(16, 16);
  FaultSchedule sched;
  sched.add(10, {0, 0});
  sched.staleness = StalenessSpec{4, 1};  // learn at 10 + 4 + h
  const ChaosEngine engine(mesh, {}, sched);

  const Coord near{1, 0};   // h = 1 -> learns at 15
  const Coord far{8, 8};    // h = 16 -> learns at 30
  std::vector<Rect> believed;

  engine.believed_blocks(near, 14, believed);
  EXPECT_TRUE(believed.empty());
  EXPECT_TRUE(engine.is_stale(near, 14));
  engine.believed_blocks(near, 15, believed);
  EXPECT_EQ(believed.size(), 1u);
  EXPECT_FALSE(engine.is_stale(near, 15));

  EXPECT_TRUE(engine.is_stale(far, 29));
  EXPECT_FALSE(engine.is_stale(far, 30));

  // Before the injection fires nobody is stale: belief == truth == empty.
  EXPECT_FALSE(engine.is_stale(far, 9));
  EXPECT_TRUE(engine.blocks_at(9).empty());
}

TEST(ChaosEngine, EmptyScheduleIsNeverStale) {
  const Mesh2D mesh(10, 10);
  const std::vector<Coord> initial{{3, 3}, {7, 7}};
  const ChaosEngine engine(mesh, initial, FaultSchedule{});
  std::vector<Rect> believed;
  mesh.for_each_node([&](Coord c) {
    EXPECT_FALSE(engine.is_stale(c, 0));
    engine.believed_blocks(c, 0, believed);
    EXPECT_EQ(believed, engine.blocks_at(0));
  });
}

TEST(ChaosEngine, RejectsUnmaterializedSchedules) {
  const Mesh2D mesh(6, 6);
  FaultSchedule sched;
  sched.set_random(3, 10);
  EXPECT_THROW((ChaosEngine(mesh, {}, sched)), std::invalid_argument);
  FaultSchedule oob;
  oob.add(1, {99, 0});
  EXPECT_THROW((ChaosEngine(mesh, {}, oob)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Degradation ladder, rung 0 differential. The digests pin Wu's protocol
// walk by walk: FNV-1a over each walk's (status, hop count, hops), as the
// standalone frozen-world minimal router produced them before it became
// rung 0. route::route must reproduce them under both information models —
// same statuses, same paths, same rng draws.

std::uint64_t rung0_digest(bool global_info, std::uint64_t seed) {
  Rng rng(seed);
  const Mesh2D mesh(20, 20);
  const auto fs = fault::uniform_random_faults(mesh, 30, rng);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const info::BoundaryInfoMap boundary(mesh, blocks);
  const route::QueryView view{.mesh = &mesh, .blocks = &blocks,
                              .boundary = global_info ? nullptr : &boundary};

  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t v) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
  };
  for (int i = 0; i < 200; ++i) {
    const Coord s{static_cast<Dist>(rng.uniform(0, 19)), static_cast<Dist>(rng.uniform(0, 19))};
    const Coord d{static_cast<Dist>(rng.uniform(0, 19)), static_cast<Dist>(rng.uniform(0, 19))};
    Rng tie = rng.fork();  // a forked tie-break stream per walk
    const route::LadderResult r = route::route(view, s, d, &tie);
    EXPECT_EQ(r.rung, route::Rung::Minimal);
    EXPECT_TRUE(r.escalations.empty());
    mix(static_cast<std::int64_t>(r.status));
    mix(static_cast<std::int64_t>(r.path.hops.size()));
    for (const Coord c : r.path.hops) {
      mix(c.x);
      mix(c.y);
    }
  }
  return h;
}

TEST(LadderDifferential, MatchesMinimalRouterGlobalInfo) {
  EXPECT_EQ(rung0_digest(true, 1), 0x5dd3d2f286b95695ull);
  EXPECT_EQ(rung0_digest(true, 12), 0x49050bf2bbb445aaull);
  EXPECT_EQ(rung0_digest(true, 77), 0xd34697f587d1b1cbull);
}

TEST(LadderDifferential, MatchesMinimalRouterBoundaryInfo) {
  EXPECT_EQ(rung0_digest(false, 3), 0x7cc7c7702c69544full);
  EXPECT_EQ(rung0_digest(false, 21), 0x706c5f482c0b18b9ull);
  EXPECT_EQ(rung0_digest(false, 99), 0x077213e18c5bfa3eull);
}

TEST(LadderDifferential, EmptyScheduleChaosEngineMatchesGlobalInfoRouter) {
  // Injection rate zero: routing through the full chaos stack must walk
  // exactly like rung 0 over the frozen global-information view.
  Rng rng(2002);
  const Mesh2D mesh(20, 20);
  const auto fs = fault::uniform_random_faults(mesh, 25, rng);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const ChaosEngine engine(mesh, fs.faults(), FaultSchedule{});
  const route::StaticFaultView global(blocks, nullptr);
  route::LadderOptions opts;
  opts.max_rung = route::Rung::Minimal;

  for (int i = 0; i < 150; ++i) {
    const Coord s{static_cast<Dist>(rng.uniform(0, 19)), static_cast<Dist>(rng.uniform(0, 19))};
    const Coord d{static_cast<Dist>(rng.uniform(0, 19)), static_cast<Dist>(rng.uniform(0, 19))};
    Rng tie_a = rng.fork();
    Rng tie_b = tie_a;
    const route::LadderResult want = route_degradation_ladder(mesh, global, s, d, opts, &tie_a);
    const route::LadderResult got = route_degradation_ladder(mesh, engine, s, d, opts, &tie_b);
    ASSERT_EQ(got.status, want.status) << to_string(s) << " -> " << to_string(d);
    ASSERT_EQ(got.path.hops, want.path.hops) << to_string(s) << " -> " << to_string(d);
  }
}

// ---------------------------------------------------------------------------
// Ladder rungs and the new statuses.

TEST(Ladder, SpareDetourRescuesAStuckMinimalWalk) {
  // Single block node (2,0) on the s->d row: every minimal path is dead, but
  // one sub-minimal hop north restores a monotone completion (Extension 1).
  const Mesh2D mesh(6, 3);
  const auto blocks = fault::build_faulty_blocks(mesh, fault::rectangle_faults(mesh, {2, 2, 0, 0}));
  const route::StaticFaultView view(blocks, nullptr);
  const Coord s{0, 0};
  const Coord d{4, 0};

  route::LadderOptions minimal_only;
  minimal_only.max_rung = route::Rung::Minimal;
  EXPECT_EQ(route_degradation_ladder(mesh, view, s, d, minimal_only).status,
            route::RouteStatus::Stuck);

  const route::LadderResult r = route_degradation_ladder(mesh, view, s, d);
  ASSERT_EQ(r.status, route::RouteStatus::Delivered);
  EXPECT_EQ(r.rung, route::Rung::SpareDetour);
  ASSERT_EQ(r.escalations.size(), 1u);
  EXPECT_EQ(r.escalations[0].abandoned, route::Rung::Minimal);
  EXPECT_EQ(r.escalations[0].reason, route::RouteStatus::Stuck);
  EXPECT_EQ(r.escalations[0].at, s);
  // One detour: length D + 2.
  EXPECT_EQ(r.path.hops.size(), static_cast<std::size_t>(manhattan(s, d)) + 3);
  EXPECT_EQ(r.detours, 1);
}

TEST(Ladder, BoundedMisrouteEscapesAWallNoSingleDetourCan) {
  // A 3-node wall at x=2 spanning y=1..3: no monotone completion survives
  // from s's side (nor from any single spare hop), but walking around via
  // y=4 or y=0 delivers. Only the bounded-misroute rung finds it.
  const Mesh2D mesh(6, 5);
  const auto blocks = fault::build_faulty_blocks(mesh, fault::rectangle_faults(mesh, {2, 2, 1, 3}));
  const route::StaticFaultView view(blocks, nullptr);
  const Coord s{0, 2};
  const Coord d{4, 2};

  route::LadderOptions spare_only;
  spare_only.max_rung = route::Rung::SpareDetour;
  EXPECT_NE(route_degradation_ladder(mesh, view, s, d, spare_only).status,
            route::RouteStatus::Delivered);

  const route::LadderResult r = route_degradation_ladder(mesh, view, s, d);
  ASSERT_EQ(r.status, route::RouteStatus::Delivered);
  EXPECT_EQ(r.rung, route::Rung::BoundedMisroute);
  EXPECT_GE(r.escalations.size(), 1u);
  EXPECT_GT(r.detours, 0);
  EXPECT_EQ(r.path.hops.front(), s);
  EXPECT_EQ(r.path.hops.back(), d);
  // Sanity: every hop is a mesh move between adjacent good nodes.
  for (std::size_t i = 1; i < r.path.hops.size(); ++i) {
    EXPECT_EQ(manhattan(r.path.hops[i - 1], r.path.hops[i]), 1);
    EXPECT_FALSE(blocks.is_block_node(r.path.hops[i]));
  }
}

TEST(Ladder, TtlBoundsTheWalk) {
  const Mesh2D mesh(6, 5);
  const auto blocks = fault::build_faulty_blocks(mesh, fault::rectangle_faults(mesh, {2, 2, 1, 3}));
  const route::StaticFaultView view(blocks, nullptr);
  route::LadderOptions opts;
  opts.ttl = 3;  // the around-the-wall walk needs more than 3 hops
  const route::LadderResult r = route_degradation_ladder(mesh, view, {0, 2}, {4, 2}, opts);
  EXPECT_EQ(r.status, route::RouteStatus::TtlExceeded);
  EXPECT_EQ(r.path.hops.size(), 4u);  // source + exactly ttl hops
}

TEST(Ladder, ScheduledFaultOnDestinationReportsEnteredNewFault) {
  const Mesh2D mesh(8, 1);
  FaultSchedule sched;
  sched.add(2, {7, 0});
  const ChaosEngine engine(mesh, {}, sched);
  const route::LadderResult r = route_degradation_ladder(mesh, engine, {0, 0}, {7, 0});
  EXPECT_EQ(r.status, route::RouteStatus::EnteredNewFault);
  EXPECT_EQ(r.end_time, 2);
  EXPECT_EQ(r.path.hops.size(), 3u);  // s plus the two hops walked before the fault
}

TEST(Ladder, StaleInformationIsReportedAsInfoStale) {
  // A fault fires ahead of the packet at t=1 but nobody hears of it for 100
  // ticks: when the walk reaches the hole the node's picture still shows a
  // clear row, so the failure is attributed to staleness, not to Wu routing.
  const Mesh2D mesh(8, 1);
  FaultSchedule sched;
  sched.add(1, {4, 0});
  sched.staleness = StalenessSpec{100, 0};
  const ChaosEngine engine(mesh, {}, sched);
  route::LadderOptions opts;
  opts.max_rung = route::Rung::Minimal;
  const route::LadderResult r = route_degradation_ladder(mesh, engine, {0, 0}, {7, 0}, opts);
  EXPECT_EQ(r.status, route::RouteStatus::InfoStale);
  EXPECT_TRUE(r.escalations.empty());
  EXPECT_EQ(r.path.hops.back(), (Coord{3, 0}));  // stopped just short of the hole
}

TEST(Ladder, SameSeedReplaysTheSameWalk) {
  const Mesh2D mesh(16, 16);
  FaultSchedule sched;
  sched.set_random(10, 20);
  sched.staleness = StalenessSpec{2, 1};
  Rng mat_rng(7);
  const ChaosEngine engine(mesh, {}, sched.materialized(mesh, mat_rng));
  const auto walk = [&] {
    Rng tie(13);
    return route_degradation_ladder(mesh, engine, {0, 0}, {15, 15}, {}, &tie);
  };
  const route::LadderResult a = walk();
  const route::LadderResult b = walk();
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.path.hops, b.path.hops);
  EXPECT_EQ(a.detours, b.detours);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(Names, StatusAndRungStringsAreStable) {
  using route::RouteStatus;
  EXPECT_STREQ(route::to_string(RouteStatus::Delivered), "delivered");
  EXPECT_STREQ(route::to_string(RouteStatus::EnteredNewFault), "entered_new_fault");
  EXPECT_STREQ(route::to_string(RouteStatus::InfoStale), "info_stale");
  EXPECT_STREQ(route::to_string(RouteStatus::TtlExceeded), "ttl_exceeded");
  EXPECT_STREQ(route::to_string(route::Rung::Minimal), "minimal");
  EXPECT_STREQ(route::to_string(route::Rung::SpareDetour), "spare_detour");
  EXPECT_STREQ(route::to_string(route::Rung::BoundedMisroute), "bounded_misroute");
}

}  // namespace
}  // namespace meshroute::chaos
