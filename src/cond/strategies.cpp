#include "cond/strategies.hpp"

#include <cstddef>

namespace meshroute::cond {
namespace {

/// Which extensions each strategy chains, indexed by StrategyId.
struct Members {
  bool ext1;
  bool ext2;
  bool ext3;
};
constexpr Members kMembers[] = {
    {true, true, false},  // S1: 1+2
    {true, false, true},  // S2: 1+3
    {false, true, true},  // S3: 2+3
    {true, true, true},   // S4: 1+2+3
};

}  // namespace

Certificate explain_strategy(const RoutingProblem& p, StrategyId id,
                             const StrategyConfig& config, std::span<const Coord> pivots) {
  // Every extension refuses an unusable source, and every certificate ends
  // in a safe-with-respect-to test that refuses an unusable destination.
  if (source_safe(p)) return {Decision::Minimal, Method::BaseSafe, p.source};
  const Members& use = kMembers[static_cast<std::size_t>(id)];
  Certificate fallback;
  Coord via{};
  if (use.ext1) {
    const Decision d = extension1(p, &via);
    if (d == Decision::Minimal) return {d, Method::Ext1Preferred, via};
    if (d == Decision::SubMinimal) fallback = {d, Method::Ext1Spare, via};
  }
  if (use.ext2 && extension2(p, config.segment_size, &via) == Decision::Minimal) {
    return {Decision::Minimal, Method::Ext2Axis, via};
  }
  if (use.ext3 && extension3(p, pivots, &via) == Decision::Minimal) {
    return {Decision::Minimal, Method::Ext3Pivot, via};
  }
  return fallback;
}

Decision run_strategy(const RoutingProblem& p, StrategyId id, const StrategyConfig& config,
                      std::span<const Coord> pivots) {
  return explain_strategy(p, id, config, pivots).decision;
}

const char* to_string(StrategyId id) noexcept {
  switch (id) {
    case StrategyId::S1: return "strategy 1 (1+2)";
    case StrategyId::S2: return "strategy 2 (1+3)";
    case StrategyId::S3: return "strategy 3 (2+3)";
    case StrategyId::S4: return "strategy 4 (1+2+3)";
  }
  return "?";
}

const char* to_string(Method m) noexcept {
  switch (m) {
    case Method::None: return "none";
    case Method::BaseSafe: return "safe source (Definition 3)";
    case Method::Ext1Preferred: return "extension 1 (preferred neighbor)";
    case Method::Ext1Spare: return "extension 1 (spare neighbor, sub-minimal)";
    case Method::Ext2Axis: return "extension 2 (axis representative)";
    case Method::Ext3Pivot: return "extension 3 (pivot)";
  }
  return "?";
}

}  // namespace meshroute::cond
