// Tests for the synchronous message-passing substrate and the distributed
// information protocols: the distributed runs must converge to exactly the
// centralized computations.
#include <gtest/gtest.h>

#include <algorithm>

#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "info/boundary.hpp"
#include "info/regions.hpp"
#include "info/safety_level.hpp"
#include "simsub/protocols.hpp"
#include "simsub/sync_network.hpp"
#include "safety_oracle.hpp"

namespace meshroute::simsub {
namespace {

TEST(SyncNetwork, MessagesTravelOneHopPerRound) {
  const Mesh2D mesh(5, 1);
  SyncNetwork<int, int> net(mesh, nullptr, 0);
  net.send({0, 0}, Direction::East, 1);
  const auto handler = [&](Coord self, int& state, Direction from, const int& msg) {
    EXPECT_EQ(from, Direction::West);  // arrived from the west side
    state = msg;
    if (self.x < 4) net.send(self, Direction::East, msg + 1);
  };
  const ProtocolStats stats = net.run(handler, 10);
  EXPECT_EQ(stats.rounds, 4);
  EXPECT_EQ(stats.delivered, 4);
  EXPECT_EQ(net.state({4, 0}), 4);
}

TEST(SyncNetwork, InactiveNodesDropTraffic) {
  const Mesh2D mesh(3, 1);
  Grid<bool> inactive(3, 1, false);
  inactive[{1, 0}] = true;
  SyncNetwork<int, int> net(mesh, &inactive, 0);
  net.send({0, 0}, Direction::East, 7);
  const ProtocolStats stats =
      net.run([&](Coord, int& s, Direction, const int& m) { s = m; }, 10);
  EXPECT_EQ(stats.messages, 1);
  EXPECT_EQ(stats.delivered, 0);
  EXPECT_EQ(net.state({1, 0}), 0);
}

TEST(SyncNetwork, OffMeshSendsAreDropped) {
  const Mesh2D mesh(2, 2);
  SyncNetwork<int, int> net(mesh, nullptr, 0);
  net.send({0, 0}, Direction::West, 1);
  net.send({0, 0}, Direction::South, 2);
  const ProtocolStats stats = net.run([](Coord, int&, Direction, const int&) {}, 5);
  EXPECT_EQ(stats.messages, 2);
  EXPECT_EQ(stats.delivered, 0);
  EXPECT_EQ(stats.rounds, 0);
}

TEST(SyncNetwork, NonConvergenceThrows) {
  const Mesh2D mesh(2, 1);
  SyncNetwork<int, int> net(mesh, nullptr, 0);
  net.send({0, 0}, Direction::East, 0);
  // Ping-pong forever.
  const auto handler = [&](Coord self, int&, Direction from, const int& m) {
    net.send(self, from, m + 1);
  };
  EXPECT_THROW(net.run(handler, 20), std::runtime_error);
}

TEST(SyncNetwork, MismatchedMaskThrows) {
  const Mesh2D mesh(4, 4);
  Grid<bool> wrong(3, 3, false);
  EXPECT_THROW((SyncNetwork<int, int>(mesh, &wrong, 0)), std::invalid_argument);
}

class DistributedSafetyProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistributedSafetyProperty, MatchesCentralizedComputation) {
  Rng rng(41 + GetParam());
  const Mesh2D mesh(30, 30);
  const auto fs = fault::uniform_random_faults(mesh, GetParam(), rng);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const Grid<bool> obstacles = info::obstacle_mask(mesh, blocks);

  const info::SafetyGrid central = info::compute_safety_levels(mesh, obstacles);
  const DistributedSafetyLevels dist = distributed_safety_levels(mesh, obstacles);

  // Block nodes do not participate.
  EXPECT_TRUE(testing_support::SafetyMatchesOracle(central, dist.levels, &obstacles));
  // Convergence cost: chains are at most one mesh dimension long.
  EXPECT_LE(dist.stats.rounds, static_cast<std::int64_t>(mesh.width() + mesh.height()));
}

INSTANTIATE_TEST_SUITE_P(VaryFaultCount, DistributedSafetyProperty,
                         ::testing::Values(0u, 1u, 10u, 40u, 90u));

TEST(DistributedSafety, NoFaultsMeansNoTraffic) {
  // "In the absence of faulty blocks, no information distribution is
  // needed" (Section 4).
  const Mesh2D mesh(10, 10);
  const Grid<bool> obstacles(10, 10, false);
  const DistributedSafetyLevels dist = distributed_safety_levels(mesh, obstacles);
  EXPECT_EQ(dist.stats.messages, 0);
  EXPECT_EQ(dist.stats.rounds, 0);
}

class DistributedBoundaryProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistributedBoundaryProperty, MatchesCentralizedWalk) {
  Rng rng(51 + GetParam());
  const Mesh2D mesh(30, 30);
  const auto fs = fault::uniform_random_faults(mesh, GetParam(), rng);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);

  const info::BoundaryInfoMap central(mesh, blocks);
  const DistributedBoundaryInfo dist = distributed_boundary_info(mesh, blocks);

  mesh.for_each_node([&](Coord c) {
    auto got = dist.known[c];
    std::vector<std::int32_t> want;
    central.known_blocks(c, want);  // ascending by contract
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "at " << to_string(c);
  });
}

INSTANTIATE_TEST_SUITE_P(VaryFaultCount, DistributedBoundaryProperty,
                         ::testing::Values(1u, 8u, 25u, 60u));

TEST(RegionExchange, EveryNodeLearnsExactlyItsRegionPeers) {
  Rng rng(61);
  const Mesh2D mesh(24, 24);
  const auto fs = fault::uniform_random_faults(mesh, 20, rng);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const Grid<bool> obstacles = info::obstacle_mask(mesh, blocks);
  const info::SafetyGrid levels = info::compute_safety_levels(mesh, obstacles);

  const DistributedRegionExchange ex = distributed_region_exchange(mesh, obstacles, levels);

  const std::vector<Dist> rows = info::affected_rows(mesh, obstacles);
  const std::vector<Dist> cols = info::affected_columns(mesh, obstacles);
  const auto contains = [](const std::vector<Dist>& v, Dist x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };

  mesh.for_each_node([&](Coord c) {
    if (obstacles[c]) {
      EXPECT_TRUE(ex.row_peers[c].empty());
      return;
    }
    // Expected row peers: the clear runs both ways, on affected rows only.
    std::vector<Coord> expected;
    if (contains(rows, c.y)) {
      for (const Coord p : info::clear_run(mesh, obstacles, c, Direction::East)) {
        expected.push_back(p);
      }
      for (const Coord p : info::clear_run(mesh, obstacles, c, Direction::West)) {
        expected.push_back(p);
      }
    }
    const auto& got = ex.row_peers[c];
    EXPECT_EQ(got.size(), expected.size()) << to_string(c);
    for (const Coord p : expected) {
      bool found = false;
      for (const auto& e : got) {
        if (e.node == p) {
          found = true;
          EXPECT_EQ(e.level, levels[p]);
        }
      }
      EXPECT_TRUE(found) << to_string(c) << " missing " << to_string(p);
    }
    // Column side, same contract.
    std::size_t col_expected = 0;
    if (contains(cols, c.x)) {
      col_expected = info::clear_run(mesh, obstacles, c, Direction::North).size() +
                     info::clear_run(mesh, obstacles, c, Direction::South).size();
    }
    EXPECT_EQ(ex.col_peers[c].size(), col_expected) << to_string(c);
  });
  EXPECT_GT(ex.payload_entries, 0);
}

TEST(RegionExchange, NoFaultsNoTraffic) {
  const Mesh2D mesh(10, 10);
  const Grid<bool> obstacles(10, 10, false);
  const info::SafetyGrid levels = info::compute_safety_levels(mesh, obstacles);
  const DistributedRegionExchange ex = distributed_region_exchange(mesh, obstacles, levels);
  EXPECT_EQ(ex.stats.messages, 0);
  EXPECT_EQ(ex.payload_entries, 0);
}

TEST(RegionExchange, SingleBlockRowSplitsIntoTwoRegions) {
  const Mesh2D mesh(9, 3);
  Grid<bool> obstacles(9, 3, false);
  obstacles[{4, 1}] = true;
  const info::SafetyGrid levels = info::compute_safety_levels(mesh, obstacles);
  const DistributedRegionExchange ex = distributed_region_exchange(mesh, obstacles, levels);
  // Row 1 is affected; (0,1) learns (1..3,1) — never anything east of the
  // obstacle.
  EXPECT_EQ((ex.row_peers[{0, 1}].size()), 3u);
  for (const auto& e : ex.row_peers[{0, 1}]) EXPECT_LT(e.node.x, 4);
  EXPECT_EQ((ex.row_peers[{5, 1}].size()), 3u);
  for (const auto& e : ex.row_peers[{5, 1}]) EXPECT_GT(e.node.x, 4);
  // Rows 0 and 2 are unaffected: no row exchange there.
  EXPECT_TRUE((ex.row_peers[{3, 0}].empty()));
  // Column 4 is affected: (4,0) has no clear-column peers (obstacle above).
  EXPECT_TRUE((ex.col_peers[{4, 0}].empty()));
  EXPECT_TRUE((ex.col_peers[{4, 2}].empty()));
}

TEST(Broadcast, ReachesEveryActiveNode) {
  const Mesh2D mesh(12, 12);
  Grid<bool> obstacles(12, 12, false);
  obstacles[{5, 5}] = true;
  obstacles[{5, 6}] = true;
  const BroadcastResult r = broadcast_from(mesh, obstacles, {0, 0});
  EXPECT_EQ(r.reached, 144 - 2);
  // Flood rounds equal the farthest hop distance (possibly + detours).
  EXPECT_GE(r.stats.rounds, 22);
}

// ---------------------------------------------------------------------------
// Lossy-link hardening: the three distribution protocols must converge to the
// SAME centralized oracles when every link crossing can be dropped, delayed,
// or duplicated (the chaos-layer contract), with drops recovered by bounded
// ARQ retransmission.

/// The standard chaos dose for these tests: every fifth crossing dropped,
/// plus delays and duplicate deliveries.
LossConfig chaos_links(std::uint64_t seed) {
  LossConfig loss;
  loss.drop = 0.2;
  loss.duplicate = 0.1;
  loss.delay = 0.15;
  loss.seed = seed;
  return loss;
}

TEST(LossyNetwork, ZeroConfigIsByteIdenticalToReliableRun) {
  const Mesh2D mesh(5, 1);
  const auto run_chain = [&](const LossConfig* loss) {
    SyncNetwork<int, int> net(mesh, nullptr, 0);
    net.send({0, 0}, Direction::East, 1);
    const auto handler = [&](Coord self, int& state, Direction, const int& msg) {
      state = msg;
      if (self.x < 4) net.send(self, Direction::East, msg + 1);
    };
    return loss != nullptr ? net.run_lossy(handler, 10, *loss) : net.run(handler, 10);
  };
  const LossConfig zero;  // all probabilities 0.0
  ASSERT_TRUE(zero.lossless());
  const ProtocolStats reliable = run_chain(nullptr);
  const ProtocolStats lossless = run_chain(&zero);
  EXPECT_EQ(lossless.rounds, reliable.rounds);
  EXPECT_EQ(lossless.messages, reliable.messages);
  EXPECT_EQ(lossless.delivered, reliable.delivered);
  EXPECT_EQ(lossless.dropped, 0);
  EXPECT_EQ(lossless.retries, 0);
  EXPECT_EQ(lossless.lost, 0);
}

class LossySafetyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossySafetyProperty, ConvergesToCentralizedOracle) {
  Rng rng(41 + GetParam());
  const Mesh2D mesh(30, 30);
  const auto fs = fault::uniform_random_faults(mesh, 40, rng);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const Grid<bool> obstacles = info::obstacle_mask(mesh, blocks);

  const info::SafetyGrid central = info::compute_safety_levels(mesh, obstacles);
  const LossConfig loss = chaos_links(GetParam());
  const DistributedSafetyLevels dist = distributed_safety_levels(mesh, obstacles, &loss);

  EXPECT_TRUE(testing_support::SafetyMatchesOracle(central, dist.levels, &obstacles));
  // The fault process really fired, and bounded ARQ absorbed all of it.
  EXPECT_GT(dist.stats.dropped, 0);
  EXPECT_GT(dist.stats.retries, 0);
  EXPECT_EQ(dist.stats.lost, 0);
  EXPECT_LE(dist.stats.retries, dist.stats.messages);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossySafetyProperty, ::testing::Values(1u, 5u, 11u));

class LossyBoundaryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossyBoundaryProperty, ConvergesToCentralizedWalk) {
  Rng rng(51 + GetParam());
  const Mesh2D mesh(30, 30);
  const auto fs = fault::uniform_random_faults(mesh, 25, rng);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);

  const info::BoundaryInfoMap central(mesh, blocks);
  const LossConfig loss = chaos_links(GetParam());
  const DistributedBoundaryInfo dist = distributed_boundary_info(mesh, blocks, &loss);

  mesh.for_each_node([&](Coord c) {
    auto got = dist.known[c];
    std::vector<std::int32_t> want;
    central.known_blocks(c, want);  // ascending by contract
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "at " << to_string(c);
  });
  EXPECT_GT(dist.stats.dropped, 0);
  EXPECT_EQ(dist.stats.lost, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyBoundaryProperty, ::testing::Values(2u, 9u, 23u));

TEST(LossyProtocols, RegionExchangeMatchesReliableRun) {
  Rng rng(61);
  const Mesh2D mesh(24, 24);
  const auto fs = fault::uniform_random_faults(mesh, 20, rng);
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const Grid<bool> obstacles = info::obstacle_mask(mesh, blocks);
  const info::SafetyGrid levels = info::compute_safety_levels(mesh, obstacles);

  const DistributedRegionExchange reliable =
      distributed_region_exchange(mesh, obstacles, levels);
  const LossConfig loss = chaos_links(77);
  const DistributedRegionExchange lossy =
      distributed_region_exchange(mesh, obstacles, levels, &loss);

  // Same peers at every node (order may differ with delayed waves).
  const auto sorted = [](std::vector<RegionEntry> v) {
    std::sort(v.begin(), v.end(), [](const RegionEntry& a, const RegionEntry& b) {
      return std::pair(a.node.y, a.node.x) < std::pair(b.node.y, b.node.x);
    });
    return v;
  };
  mesh.for_each_node([&](Coord c) {
    EXPECT_EQ(sorted(lossy.row_peers[c]), sorted(reliable.row_peers[c])) << to_string(c);
    EXPECT_EQ(sorted(lossy.col_peers[c]), sorted(reliable.col_peers[c])) << to_string(c);
  });
  EXPECT_GT(lossy.stats.dropped, 0);
  EXPECT_EQ(lossy.stats.lost, 0);
}

TEST(LossyProtocols, BroadcastStillReachesEveryActiveNode) {
  const Mesh2D mesh(12, 12);
  Grid<bool> obstacles(12, 12, false);
  obstacles[{5, 5}] = true;
  obstacles[{5, 6}] = true;
  const LossConfig loss = chaos_links(3);
  const BroadcastResult r = broadcast_from(mesh, obstacles, {0, 0}, &loss);
  EXPECT_EQ(r.reached, 144 - 2);
  EXPECT_GT(r.stats.dropped, 0);
  EXPECT_EQ(r.stats.lost, 0);
}

TEST(Broadcast, FromInactiveOriginReachesNothing) {
  const Mesh2D mesh(6, 6);
  Grid<bool> obstacles(6, 6, false);
  obstacles[{2, 2}] = true;
  const BroadcastResult r = broadcast_from(mesh, obstacles, {2, 2});
  EXPECT_EQ(r.reached, 0);
}

}  // namespace
}  // namespace meshroute::simsub
