// The sufficient safe condition (Definition 3 / Theorem 1) and the paper's
// three extended sufficient conditions (Theorems 1a, 1b, 1c), stated for an
// arbitrary source/destination pair via quadrant canonicalization.
//
// Every predicate here consumes only information the paper's model actually
// distributes: the node's own extended safety level (base condition), the
// four neighbors' levels (extension 1), segment representatives along the
// source's row/column region (extension 2), and broadcast pivot levels
// (extension 3). The soundness of each — "condition true implies a minimal
// (or sub-minimal) path really exists" — is property-tested against the
// monotone-DP oracle in cond/wang.hpp.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/coord.hpp"
#include "info/regions.hpp"
#include "info/safety_level.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::cond {

/// One routing instance under one fault model. `safety` holds that model's
/// obstacle set (block or MCC nodes, read with blocked()) and the levels
/// derived from it.
struct RoutingProblem {
  const Mesh2D* mesh = nullptr;
  const info::SafetyGrid* safety = nullptr;
  Coord source;
  Coord dest;
};

/// Definition 3, generalized: `node` is safe with respect to `target` when
/// the two axis sections from `node` toward `target` are clear of block
/// nodes — equivalently, the relative offsets are bounded by the node's
/// safety levels in the two preferred directions.
[[nodiscard]] bool safe_with_respect_to(const RoutingProblem& p, Coord node, Coord target);

/// Theorem 1's premise for the source itself.
[[nodiscard]] bool source_safe(const RoutingProblem& p);

/// What a source-side decision procedure can promise.
enum class Decision : std::uint8_t {
  Minimal = 0,     ///< a minimal path is guaranteed
  SubMinimal = 1,  ///< a path of length D(s,d) + 2 is guaranteed
  Unknown = 2,     ///< the (sufficient) condition cannot tell
};

/// Each extension answers Unknown for a source outside the mesh or in the
/// obstacle set, however safe its neighbors are.
///
/// Theorem 1a. Minimal when the source or a preferred neighbor is safe;
/// sub-minimal when a spare neighbor is safe; Unknown otherwise.
/// When it decides via a neighbor, `via` receives that neighbor.
[[nodiscard]] Decision extension1(const RoutingProblem& p, Coord* via = nullptr);

/// Which representatives each extension-2 segment contributes (Section 4's
/// two variations).
enum class Ext2Reps : std::uint8_t {
  /// One per segment: the node with the highest safety level perpendicular
  /// to the axis (the variation Figure 10 sweeps).
  SinglePerpendicular = 0,
  /// Up to four per segment: one maximizing each direction's level.
  FourDirectional = 1,
};

/// Theorem 1b with the segment-size variation of Section 4 / Figure 10.
/// segment_size 1 collects every node of the source's axis regions ("(1)");
/// info::kWholeRegionSegment collects one representative per region
/// ("(max)"). Returns Minimal/Unknown only. `via` receives the axis node
/// the two-phase route factors through (when not decided by the base
/// condition).
[[nodiscard]] Decision extension2(const RoutingProblem& p, Dist segment_size,
                                  Coord* via = nullptr,
                                  Ext2Reps reps = Ext2Reps::SinglePerpendicular);

/// Theorem 1c over an explicit pivot set (mesh coordinates). Only pivots
/// inside the source-destination rectangle participate. `via` receives the
/// successful pivot.
[[nodiscard]] Decision extension3(const RoutingProblem& p, std::span<const Coord> pivots,
                                  Coord* via = nullptr);

}  // namespace meshroute::cond
