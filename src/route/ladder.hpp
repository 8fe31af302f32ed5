// The graceful-degradation ladder: routing that survives a fault picture
// changing while the packet is in flight, failing through three rungs
// instead of silently sticking.
//
//   Rung 0, Minimal        — Wu's protocol, the paper's one routing
//                            procedure: only distance-reducing hops whose
//                            target keeps a monotone completion per the
//                            blocks BELIEVED at the current node.
//                            route::route (route/query.hpp) is this rung
//                            alone over a frozen view.
//   Rung 1, SpareDetour    — Extension 1's spare neighbor: when no minimal
//                            move is admissible, one sub-minimal detour hop
//                            to a neighbor that restores a believed monotone
//                            completion, then back to rung 0 (total length
//                            <= D(s,d) + 2 when this rung delivers).
//   Rung 2, BoundedMisroute— fully adaptive: any usable neighbor, preferring
//                            believed-safe then distance-reducing moves,
//                            with a TTL and per-node revisit caps so a
//                            livelock is detected and reported rather than
//                            walked forever.
//
// Rung 0 states the paper's two boundary-line rules ("on the left section
// of L1 ... stay on L1"; "on the lower section of L3 ... stay on L3") as
// their locally-rational closure: a preferred move is forbidden exactly
// when, according to the blocks known at the current node, no monotone
// completion would remain from the next node.
//   - For a single block this reduces to the paper's case analysis: the move
//     would enter the dead "shadow" region the L-rules fence off
//     (Router.DpRuleMatchesWusTextualRuleOnOneBlock).
//   - For joined boundaries it composes on its own: the turn-and-join trails
//     deposit every block of a composite barrier on the shared staircase, so
//     the fence is evaluated with the whole barrier in view. The literal
//     per-block rule strands packets there (Router.SingleBlockRule* tests).
//   - Stepping into a block itself is prevented by 1-hop adjacency sensing,
//     which every node has.
//
// Every escalation records which rung was abandoned, where, when, and WHY
// (the RouteStatus that rung would have returned), so sweeps can attribute
// delivery and overhead to rungs — the paper's minimal/sub-minimal split
// extended one level further down.
//
// The world is presented through a FaultView: physical truth per tick (what
// 1-hop sensing and packet loss obey) and the possibly-stale block list a
// node believes in. chaos::ChaosEngine implements the time-varying, stale
// view; StaticFaultView freezes the classic BlockSet/BoundaryInfoMap world.
#pragma once

#include <cstdint>
#include <vector>

#include "common/coord.hpp"
#include "common/rect.hpp"
#include "common/rng.hpp"
#include "fault/block_model.hpp"
#include "info/boundary.hpp"
#include "mesh/mesh2d.hpp"
#include "route/path.hpp"
#include "route/router.hpp"

namespace meshroute::route {

/// Per-hop world view for degradation-aware routing. `time` is the hop
/// clock: the ladder advances it by one per hop, and implementations may
/// let both the truth and each node's knowledge depend on it.
class FaultView {
 public:
  virtual ~FaultView() = default;

  /// Physical truth at `time`: is `c` a faulty/disabled (block) node? This
  /// is what 1-hop sensing reports and what destroys a packet standing on a
  /// node when a scheduled fault fires.
  [[nodiscard]] virtual bool truly_bad(Coord c, std::int64_t time) const = 0;

  /// The block rectangles the node at `at` believes in at `time` (may lag
  /// the truth). Overwrites `out`.
  virtual void believed_blocks(Coord at, std::int64_t time, std::vector<Rect>& out) const = 0;

  /// True when the believed picture at (`at`, `time`) is behind the truth —
  /// used to report InfoStale instead of Stuck when a rung gives up.
  [[nodiscard]] virtual bool is_stale(Coord at, std::int64_t time) const = 0;
};

/// Frozen-world adapter over the classic fault structures: truth is the
/// BlockSet, belief is either the whole set (global information) or the
/// node-local BoundaryInfoMap deposits, and nothing ever changes or goes
/// stale. Rung 0 over this view is Wu's protocol.
class StaticFaultView final : public FaultView {
 public:
  /// `boundary` may be null (global information at every node).
  StaticFaultView(const fault::BlockSet& blocks, const info::BoundaryInfoMap* boundary)
      : blocks_(blocks), boundary_(boundary) {}

  [[nodiscard]] bool truly_bad(Coord c, std::int64_t /*time*/) const override {
    return blocks_.is_block_node(c);
  }

  void believed_blocks(Coord at, std::int64_t /*time*/,
                       std::vector<Rect>& out) const override {
    if (boundary_ != nullptr) {
      boundary_->known_rects(at, out);
      return;
    }
    out.clear();
    for (const auto& b : blocks_.blocks()) out.push_back(b.rect);
  }

  [[nodiscard]] bool is_stale(Coord /*at*/, std::int64_t /*time*/) const override {
    return false;
  }

 private:
  const fault::BlockSet& blocks_;
  const info::BoundaryInfoMap* boundary_;
};

/// The ladder's rungs, weakest guarantee last.
enum class Rung : std::uint8_t { Minimal = 0, SpareDetour = 1, BoundedMisroute = 2 };

[[nodiscard]] const char* to_string(Rung rung) noexcept;

struct LadderOptions {
  /// Hop budget for the whole walk; 0 = auto (4 * (D(s,d) + 8)).
  int ttl = 0;
  /// Highest rung the ladder may engage (Minimal = plain Wu routing).
  Rung max_rung = Rung::BoundedMisroute;
  /// Hop-clock value at the source.
  std::int64_t start_time = 0;
  /// Logical trace stream this walk's RouteHop/RungEscalation events carry
  /// (obs::TraceEvent::track). Callers multiplexing many walks into one
  /// obs::TraceSink (a sweep, a CLI run) assign distinct tracks; 0 is fine
  /// for a single walk.
  std::uint64_t trace_track = 0;
};

/// Aggregate walk counts, filled on every ladder return so callers get the
/// numbers without re-deriving them from the path or the trace stream.
struct RouteStats {
  int hops = 0;         ///< hops actually walked (path length)
  int detours = 0;      ///< hops that did not reduce distance
  int escalations = 0;  ///< rungs abandoned along the way

  friend bool operator==(const RouteStats&, const RouteStats&) = default;
};

/// One rung giving up: where, when, and the status it would have returned.
struct Escalation {
  Rung abandoned;
  RouteStatus reason;
  Coord at;
  std::int64_t time = 0;
};

struct LadderResult {
  RouteStatus status = RouteStatus::Stuck;
  Path path;                           ///< hops walked (complete when Delivered)
  Rung rung = Rung::Minimal;           ///< highest rung engaged
  std::vector<Escalation> escalations; ///< one entry per rung abandoned
  int detours = 0;                     ///< hops that did not reduce distance
  std::int64_t end_time = 0;           ///< hop clock at termination
  RouteStats stats;                    ///< aggregate counts, filled on every return

  [[nodiscard]] bool delivered() const noexcept { return status == RouteStatus::Delivered; }
};

/// Walk s -> d through `view`, climbing the ladder as rungs fail. `rng` is
/// only consulted for rung-0 two-way ties (one chance(0.5) draw each; with
/// no rng the tie goes to the dimension with more remaining distance); all
/// degradation choices are deterministic.
[[nodiscard]] LadderResult route_degradation_ladder(const Mesh2D& mesh, const FaultView& view,
                                                    Coord s, Coord d,
                                                    const LadderOptions& opts = {},
                                                    Rng* rng = nullptr);

}  // namespace meshroute::route
