// Distributed implementations of the paper's three information-distribution
// protocols, executed on the SyncNetwork substrate:
//
//   1. FORMATION-EXTENDED-SAFETY-LEVEL-INFORMATION (Section 4): directional
//      chains — a node bordering a block in direction d has level 0 there and
//      pushes its tuple away from the block; receivers add one and forward.
//   2. Boundary-line distribution (Section 2): block corner records travel
//      outward along the four adjacent lines, turning and joining when they
//      meet another block.
//   3. Pivot broadcast (Extension 3): a pivot floods its safety level to the
//      whole mesh.
//
// Each returns its result alongside ProtocolStats; integration tests assert
// the results equal the centralized computations in info/.
//
// Every protocol takes an optional LossConfig: when given, the execution
// runs over unreliable links (SyncNetwork::run_lossy) with drop/delay/
// duplication and ARQ retransmission, and the tests assert the protocols
// STILL converge to the centralized oracles — the chaos-hardening contract.
// A null LossConfig is the original reliable execution, bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/coord.hpp"
#include "common/grid.hpp"
#include "fault/block_model.hpp"
#include "info/safety_level.hpp"
#include "mesh/mesh2d.hpp"
#include "simsub/sync_network.hpp"

namespace meshroute::simsub {

/// Result of the distributed safety-level formation: the per-node tuples
/// the protocol converges to (compare with compute_safety_levels_scalar).
struct DistributedSafetyLevels {
  Grid<info::ExtendedSafetyLevel> levels;
  ProtocolStats stats;
};

/// Run the paper's formation protocol against an obstacle mask. Obstacle
/// nodes are inactive; their grid entries stay at the default (all infinite).
[[nodiscard]] DistributedSafetyLevels distributed_safety_levels(const Mesh2D& mesh,
                                                                const Grid<bool>& obstacles,
                                                                const LossConfig* loss = nullptr);

/// Result of the distributed boundary-information protocol: per node, block
/// ids known there.
struct DistributedBoundaryInfo {
  Grid<std::vector<std::int32_t>> known;
  ProtocolStats stats;
};

[[nodiscard]] DistributedBoundaryInfo distributed_boundary_info(const Mesh2D& mesh,
                                                                const fault::BlockSet& blocks,
                                                                const LossConfig* loss = nullptr);

/// Flood `payload_origin`'s record to every active node; returns how many
/// nodes were reached plus the traffic cost. Models a pivot broadcast.
struct BroadcastResult {
  std::int64_t reached = 0;
  ProtocolStats stats;
};

[[nodiscard]] BroadcastResult broadcast_from(const Mesh2D& mesh, const Grid<bool>& obstacles,
                                             Coord payload_origin,
                                             const LossConfig* loss = nullptr);

/// Extension 2's information exchange (Section 4): "Nodes along each
/// affected row (and affected column) exchange their extended safety levels
/// ... the exchange is within each region. A simple implementation starts
/// from two ends of each region and pushes the partially accumulated
/// information to the other end."
///
/// One entry another node in my region advertised to me.
struct RegionEntry {
  Coord node;
  info::ExtendedSafetyLevel level;

  friend bool operator==(const RegionEntry&, const RegionEntry&) = default;
};

/// Per node: the safety levels of every other node in its row region and
/// its column region (empty at nodes on unaffected rows/columns — they
/// never needed the exchange).
struct DistributedRegionExchange {
  Grid<std::vector<RegionEntry>> row_peers;
  Grid<std::vector<RegionEntry>> col_peers;
  ProtocolStats stats;
  std::int64_t payload_entries = 0;  ///< total levels carried across links
};

/// Run the two-end accumulation along every affected row and column.
/// `levels` must match `obstacles` (typically the output of
/// distributed_safety_levels or the centralized sweep).
[[nodiscard]] DistributedRegionExchange distributed_region_exchange(
    const Mesh2D& mesh, const Grid<bool>& obstacles, const info::SafetyGrid& levels,
    const LossConfig* loss = nullptr);

}  // namespace meshroute::simsub
