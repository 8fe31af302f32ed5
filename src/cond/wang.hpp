// Ground truth for minimal-path existence.
//
// 1. monotone_path_exists: dynamic programming over the source-destination
//    rectangle — a minimal path exists iff the destination is reachable
//    moving only in the two preferred directions through unblocked nodes.
//    This is the oracle every sufficient condition is validated against.
// 2. Wang's necessary-and-sufficient condition (Section 2): no sequence of
//    blocks "covers" source and destination on x nor on y. Implemented as a
//    BFS over the covers relation; property tests assert it coincides with
//    the DP oracle on the faulty-block model.
#pragma once

#include <cstdint>
#include <span>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/grid.hpp"
#include "common/rect.hpp"
#include "fault/block_model.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::cond {

/// True iff a shortest (monotone) path from s to d exists avoiding nodes
/// where `blocked` is true. Returns false when either endpoint is blocked.
/// O(|s-d rectangle|).
[[nodiscard]] bool monotone_path_exists(const Mesh2D& mesh, const Grid<bool>& blocked, Coord s,
                                        Coord d);

/// Bit-plane overload, the production one (route::minimal_path_exists):
/// one occluded fill per row of the s-d rectangle, over the words that
/// rectangle covers, stopping early once a row reaches nothing. Allocates
/// nothing in steady state (a per-thread row pair).
[[nodiscard]] bool monotone_path_exists(const Mesh2D& mesh, const core::BitGrid& blocked, Coord s,
                                        Coord d);

/// Batched oracle: reachability of EVERY node from a fixed source in one
/// four-quadrant sweep over the mesh, so that for all d
///     out[d] == monotone_path_exists(mesh, blocked, source, d).
/// O(area / 64) words — the per-trial replacement for O(dests x area) loops
/// of the single-destination oracle. One occluded fill pair per row (reach
/// = fill(prev-row reach, ~blocked) on each side of the source column);
/// `out` is resized and fully overwritten, allocating nothing in steady
/// state.
void monotone_reachability(const Mesh2D& mesh, const core::BitGrid& blocked, Coord source,
                           core::BitGrid& out);

/// The scalar reference sweep — the oracle the bit-plane kernel is tested
/// against.
void monotone_reachability_scalar(const Mesh2D& mesh, const Grid<bool>& blocked, Coord source,
                                  Grid<bool>& out);

/// Number of distinct monotone (minimal) paths from s to d avoiding blocked
/// nodes, saturated at kMaxPathCount. Fault-free meshes have binomial-many
/// minimal paths; the count quantifies how much path diversity a fault
/// pattern destroys (0 means no minimal path).
inline constexpr std::uint64_t kMaxPathCount = std::uint64_t{1} << 62;
[[nodiscard]] std::uint64_t count_minimal_paths(const Mesh2D& mesh, const Grid<bool>& blocked,
                                                Coord s, Coord d);

/// Rect-obstacle variant of the DP oracle: true iff a monotone path from s
/// to d exists avoiding every rectangle in `obstacles` (mesh coordinates;
/// rectangles may extend beyond the s-d span). Used by the router to decide,
/// from the blocks *known at the current node*, whether a candidate move
/// still admits a minimal completion.
[[nodiscard]] bool monotone_path_exists_rects(std::span<const Rect> obstacles, Coord s, Coord d);

/// Wang's condition on rectangular blocks: true iff NO covering sequence
/// exists on either axis (i.e. a minimal route exists). `blocks` are in mesh
/// coordinates; s and d arbitrary (internally canonicalized to quadrant I).
///
/// The covers relation is implemented as
///     block b covers block a on y  iff  ymin(b) > ymax(a)  and
///                                       xmin(b) <= xmax(a) + 1,
/// the "+1" capturing that two blocks whose x-spans merely abut (no full
/// fault-free column between them) still seal the passage against monotone
/// paths. The DP-equivalence tests pin this reading down.
[[nodiscard]] bool wang_minimal_path_exists(std::span<const Rect> blocks, Coord s, Coord d);

/// Convenience overload on a BlockSet.
[[nodiscard]] bool wang_minimal_path_exists(const fault::BlockSet& blocks, Coord s, Coord d);

}  // namespace meshroute::cond
