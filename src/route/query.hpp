// The public query API: one header for the whole read path.
//
// Every query is a pure function of derived fault information, so they all
// take one read-side bundle:
//
//   route::QueryView — const pointers to every plane a query consumes
//     (the ground-truth fault mask, the safety grids that also hold each
//     fault model's obstacle set, blocks, boundary deposits). Producers:
//       core::FaultTolerantMesh::query_view()   (its lazily built snapshot)
//       serve::RoutingSnapshot::query_view()    (immutable epoch snapshot)
//       experiment::Trial::query_view()         (bench trial state)
//
// All functions here are const, allocation-free (given an out-buffer), and
// thread-safe over a shared QueryView — the property the epoch-snapshotted
// query server (src/serve) is built on. The producers own state; every read
// goes through this header (DESIGN §11).
//
// route::FaultView (ladder.hpp) stays the single *time-varying* read-side
// abstraction: QueryView::fault_view() adapts the frozen world onto it, so
// the ladder never takes ad-hoc grids. Routing is one procedure — Wu's
// protocol as ladder rung 0 — whether a caller wants rung 0 alone (route,
// route_via) or the whole ladder (route_ladder, route_batch).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/rng.hpp"
#include "cond/conditions.hpp"
#include "cond/strategies.hpp"
#include "fault/block_model.hpp"
#include "info/boundary.hpp"
#include "info/safety_level.hpp"
#include "mesh/mesh2d.hpp"
#include "route/ladder.hpp"
#include "route/router.hpp"

namespace meshroute::route {

/// Which fault model a query runs under. Mirrors core's FaultModel (the
/// facade aliases it) without making route depend on the facade.
enum class QueryModel : std::uint8_t { FaultyBlock = 0, Mcc = 1 };

[[nodiscard]] const char* to_string(QueryModel model) noexcept;

/// The read-side bundle: non-owning const pointers into derived fault state.
/// A QueryView is 7 pointers — pass it by value. The producer guarantees
/// every plane was computed against the same fault set; all planes except
/// the optional ones must be non-null.
///
/// Optional members:
///   boundary     — null means global information at every node (routing
///                  then sees the whole block list everywhere).
///   mcc2_safety  — null means type-two MCC planes were not built; Mcc-model
///                  queries into quadrants II/IV then throw. Producers that
///                  only serve quadrant-I destinations (experiment::Trial)
///                  leave it null.
struct QueryView {
  const Mesh2D* mesh = nullptr;
  const fault::BlockSet* blocks = nullptr;
  const info::BoundaryInfoMap* boundary = nullptr;
  const core::BitGrid* faulty_mask = nullptr;  ///< truly faulty nodes (ground truth)
  const info::SafetyGrid* fb_safety = nullptr;
  const info::SafetyGrid* mcc1_safety = nullptr;
  const info::SafetyGrid* mcc2_safety = nullptr;

  /// Safety grid serving (model, quadrant); its blocked() is that model's
  /// obstacle set. Throws std::invalid_argument when the needed plane is
  /// null.
  [[nodiscard]] const info::SafetyGrid& safety(QueryModel model, Quadrant q) const;

  /// A cond::RoutingProblem wired to the safety grid serving
  /// quadrant_of(s, d).
  [[nodiscard]] cond::RoutingProblem problem(Coord s, Coord d, QueryModel model) const;

  /// The frozen-world FaultView over this bundle (truth = blocks, belief =
  /// boundary deposits or the whole list). The adapter borrows `blocks` and
  /// `boundary`; keep the producer alive for the adapter's lifetime. Every
  /// routing entry point passes here, so a view without `mesh` or `blocks`
  /// throws std::invalid_argument before any walk starts.
  [[nodiscard]] StaticFaultView fault_view() const;
};

/// One (source, destination) query of a batch.
struct QuerySpec {
  Coord src;
  Coord dst;
};

/// Per-query outcome of route_batch: the ladder result minus the path.
struct RouteAnswer {
  RouteStatus status = RouteStatus::Stuck;
  Rung rung = Rung::Minimal;       ///< highest rung engaged
  RouteStats stats;                ///< hops / detours / escalations
  /// Why degradation was engaged: the first escalation's reason (InfoStale
  /// when a rung was abandoned under a stale view), or `status` when the
  /// walk never escalated. The serve layer's DEGRADED replies surface this.
  RouteStatus attribution = RouteStatus::Delivered;
};

// ---- Decision queries -----------------------------------------------------

/// Evaluate one of the paper's combined strategies (Section 5) against the
/// view: cond::run_strategy on view.problem(s, d, model). For the witness
/// as well, call cond::explain_strategy on the same problem.
[[nodiscard]] cond::Decision decide_strategy(const QueryView& view, Coord s, Coord d,
                                             QueryModel model, cond::StrategyId id,
                                             std::span<const Coord> pivots,
                                             const cond::StrategyConfig& cfg = {});

/// decide_strategy over a batch of pairs, one view dereference for the whole
/// span. `out` is overwritten (resized to specs.size()); answers are
/// positionally aligned with `specs` and independent of evaluation order.
void decide_batch(const QueryView& view, std::span<const QuerySpec> specs, QueryModel model,
                  cond::StrategyId id, std::span<const Coord> pivots,
                  const cond::StrategyConfig& cfg, std::vector<cond::Decision>& out);

// ---- Ground-truth oracle --------------------------------------------------

/// Does a minimal path avoiding the truly faulty nodes exist?
[[nodiscard]] bool minimal_path_exists(const QueryView& view, Coord s, Coord d);

/// Batched ground truth: minimal_path_exists(view, s, d) for every d in one
/// four-quadrant word-parallel pass. Writes into a caller-owned plane (sized
/// to the mesh) — zero allocations in steady state.
void minimal_reachability(const QueryView& view, Coord s, core::BitGrid& out);

// ---- Routing --------------------------------------------------------------

/// Wu's protocol over the view's frozen world: the ladder capped at rung 0
/// (route_ladder with max_rung = Rung::Minimal). A null `view.boundary`
/// gives every node global information. `rng` breaks two-way ties.
[[nodiscard]] LadderResult route(const QueryView& view, Coord s, Coord d, Rng* rng = nullptr);

/// Two-phase routing through a certificate's witness (cond::Certificate::
/// via): route(s, via), then route(via, d) with the hop clock carried on,
/// concatenated. Stops at the first phase that fails; an unusable `d` is
/// SourceBlocked with no path, as in route(). With via == s it equals
/// route(s, d).
[[nodiscard]] LadderResult route_via(const QueryView& view, Coord s, Coord via, Coord d,
                                     Rng* rng = nullptr);

/// Degradation-ladder routing over the view's frozen world (see ladder.hpp).
[[nodiscard]] LadderResult route_ladder(const QueryView& view, Coord s, Coord d,
                                        const LadderOptions& opts = {}, Rng* rng = nullptr);

/// Ladder routing over a batch of pairs. Deterministic: no RNG is consulted
/// (rung-0 two-way ties break toward the dimension with more remaining
/// distance), so answers depend only on (view, spec) — the property the
/// serve layer's cross-thread bit-identity rests on. `out` is overwritten.
void route_batch(const QueryView& view, std::span<const QuerySpec> specs,
                 const LadderOptions& opts, std::vector<RouteAnswer>& out);

/// Same batch walk over an explicit FaultView (the serve layer's staleness
/// guard routes through a stale-marked decorator here so every escalation
/// is attributed InfoStale). Determinism contract is unchanged: no RNG.
void route_batch(const Mesh2D& mesh, const FaultView& view, std::span<const QuerySpec> specs,
                 const LadderOptions& opts, std::vector<RouteAnswer>& out);

}  // namespace meshroute::route
