// Affected rows/columns and region segmentation (Section 4).
//
// A row (column) is *affected* when it intersects at least one faulty block;
// only affected rows/columns exchange extended-safety-level information. Each
// affected row is partitioned by blocks and mesh edges into obstacle-free
// *regions*; a region may be further cut into *segments* of a configurable
// size, with one representative safety level selected per segment (the
// extension-2 variations of Figure 10).
//
// The segment selection reads everything off a SafetyGrid: the clear run
// from a source is its safety level in that direction (up to the mesh edge
// when infinite). affected_rows/affected_columns and clear_run take a byte
// mask; they are helpers for the distributed protocols, tests, benches and
// examples, and clear_run is the oracle of the run the level gives.
#pragma once

#include <vector>

#include "common/coord.hpp"
#include "common/grid.hpp"
#include "info/safety_level.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::info {

/// y indices of rows containing at least one obstacle node.
[[nodiscard]] std::vector<Dist> affected_rows(const Mesh2D& mesh, const Grid<bool>& obstacles);

/// x indices of columns containing at least one obstacle node.
[[nodiscard]] std::vector<Dist> affected_columns(const Mesh2D& mesh, const Grid<bool>& obstacles);

/// Nodes strictly beyond `from` in direction `dir`, in hop order, up to (not
/// including) the first obstacle or past the mesh edge — the part of `from`'s
/// region that lies in that direction.
[[nodiscard]] std::vector<Coord> clear_run(const Mesh2D& mesh, const Grid<bool>& obstacles,
                                           Coord from, Direction dir);

/// A candidate pivot on an axis: the node plus its hop distance from the
/// source it was computed for.
struct AxisCandidate {
  Coord node;
  Dist hops = 0;
};

/// Sentinel segment size meaning "a single segment spanning the whole
/// region" — the paper's "extension 2 (max)" curve.
inline constexpr Dist kWholeRegionSegment = 0;

/// Extension-2 candidate set along one axis: cut the clear run from `source`
/// in `dir` into segments of `segment_size` nodes and select, per segment,
/// the node whose safety level in `perpendicular` is maximal (the paper's
/// "the one with the highest safety level" representative rule; ties go to
/// the farthest node — the destination-oblivious choice). Segment size 1
/// collects every node; kWholeRegionSegment collects one per region.
/// Segments that start more than `max_hops` hops out are not built (a
/// caller that cannot use a representative past a destination offset
/// passes that offset); the segments that are built are unchanged. Throws
/// std::invalid_argument for a negative size or a source outside the mesh.
[[nodiscard]] std::vector<AxisCandidate> segment_representatives(
    const Mesh2D& mesh, const SafetyGrid& safety, Coord source, Direction dir,
    Direction perpendicular, Dist segment_size, Dist max_hops = kInfiniteDistance);

/// Section 4's second variation: per segment, select up to four
/// representatives — one maximizing the safety level in each of the four
/// directions (duplicates collapsed). Returned in increasing hop order.
/// `max_hops` as for segment_representatives.
[[nodiscard]] std::vector<AxisCandidate> segment_representatives_multi(
    const Mesh2D& mesh, const SafetyGrid& safety, Coord source, Direction dir,
    Dist segment_size, Dist max_hops = kInfiniteDistance);

}  // namespace meshroute::info
