// Routing strategies (Section 5, Figure 12): disjunctions of the extended
// sufficient conditions, applied in order until one of them certifies a
// minimal path. Strategy n under the MCC model is the paper's "strategy na"
// — same code, MCC-derived RoutingProblem.
#pragma once

#include <cstdint>
#include <span>

#include "cond/conditions.hpp"
#include "info/pivots.hpp"

namespace meshroute::cond {

enum class StrategyId : std::uint8_t {
  S1 = 0,  ///< extension 1, then extension 2
  S2 = 1,  ///< extension 1, then extension 3
  S3 = 2,  ///< extension 2, then extension 3
  S4 = 3,  ///< extensions 1, 2, then 3
};

/// Knobs fixed by the paper's experiments: segment size 5 and pivot
/// partition level 3 (21 random pivots).
struct StrategyConfig {
  Dist segment_size = 5;
};

/// Which machinery produced a decision — the human-readable part of a
/// routing certificate.
enum class Method : std::uint8_t {
  None = 0,           ///< nothing certified (Decision::Unknown)
  BaseSafe = 1,       ///< Definition 3 at the source
  Ext1Preferred = 2,  ///< a preferred neighbor is safe (Theorem 1a)
  Ext1Spare = 3,      ///< a spare neighbor is safe (sub-minimal, Theorem 1a)
  Ext2Axis = 4,       ///< an axis representative factors the route (Theorem 1b)
  Ext3Pivot = 5,      ///< a pivot factors the route (Theorem 1c)
};

[[nodiscard]] const char* to_string(Method m) noexcept;

/// A decision plus the witness that realizes it: route through `via` (the
/// source itself for BaseSafe; route::route_via) and the promised length
/// holds.
struct Certificate {
  Decision decision = Decision::Unknown;
  Method method = Method::None;
  Coord via{};
};

/// Evaluate a strategy and name its witness: the base condition first, then
/// the member extensions in order until one certifies a minimal path.
/// Extension-1's sub-minimal answer is reported only when no member
/// extension certifies a minimal path. An endpoint outside the mesh or in
/// the problem's obstacle plane certifies nothing (Unknown, Method::None).
/// Pivots are the pre-distributed pivot set (extension 3's broadcast
/// information).
[[nodiscard]] Certificate explain_strategy(const RoutingProblem& p, StrategyId id,
                                           const StrategyConfig& config,
                                           std::span<const Coord> pivots);

/// The decision alone: explain_strategy(p, id, config, pivots).decision.
[[nodiscard]] Decision run_strategy(const RoutingProblem& p, StrategyId id,
                                    const StrategyConfig& config,
                                    std::span<const Coord> pivots);

[[nodiscard]] const char* to_string(StrategyId id) noexcept;

}  // namespace meshroute::cond
