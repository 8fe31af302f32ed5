// SnapshotBuilder: the write side of routing-as-a-service.
//
// Owns the live world (a dynamic::DynamicMeshState, whose faulty blocks,
// boundary runs and safety grids are maintained per injection) plus the
// SnapshotStore readers subscribe to. Fault churn flows in through
// inject(); publish() freezes the current world into an immutable
// RoutingSnapshot — via the delta-fed constructor, so the fault-model
// fixpoints and the boundary walk are adopted rather than recomputed — and
// swaps it in. Injections may be batched between publishes; readers simply keep
// answering against the previous epoch until the swap (their measured
// staleness is the serve.staleness_epochs histogram's subject).
//
// Resilience (DESIGN §13):
//   * Journal — attach_journal() turns inject() into a write-ahead append
//     (`inject=E:X,Y`, fsync'd) BEFORE the state mutation; the recovery
//     constructor replays the journal to reconstruct the state and
//     republish the same world epoch bit-identically.
//   * Self-chaos — set_serve_chaos() arms the builder-side events of a
//     chaos::FaultSchedule: the SEQ-th publish can be delayed (bdelay),
//     wedged (bstall — the no-progress watchdog detects the stalled
//     incremental build and forces a from-scratch rebuild), or dropped
//     (pubdrop — the world epoch advances but the store keeps serving the
//     previous snapshot, so reader staleness grows).
//   * Epoch lag — world_epoch() is the epoch the write side has reached;
//     epoch_lag() is how far the published snapshot trails it (> 0 only
//     after dropped publications), the quantity the serve layer's
//     max-staleness guard bounds.
//
// Single-writer: inject()/publish() must come from one thread (or be
// externally serialized). Readers need no coordination with the builder at
// all — that is the point of the store.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "common/coord.hpp"
#include "dynamic/dynamic_state.hpp"
#include "mesh/mesh2d.hpp"
#include "serve/journal.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"

namespace meshroute::serve {

/// Cumulative write-side work, for STATS reporting.
struct BuilderStats {
  std::uint64_t injections = 0;        ///< inject() calls that changed state
  std::uint64_t published = 0;         ///< publishes after the initial one
  std::int64_t relabeled_nodes = 0;    ///< summed delta sizes (nodes turned bad)
  std::uint64_t pending_injections = 0;  ///< injections not yet published
  std::uint64_t dropped_publishes = 0;   ///< pubdrop chaos: epochs that never landed
  std::uint64_t forced_rebuilds = 0;     ///< watchdog-forced from-scratch rebuilds
  std::uint64_t recovered_records = 0;   ///< journal records replayed at recovery
};

class SnapshotBuilder {
 public:
  /// Tag selecting the crash-recovery constructor.
  struct RecoverFromJournal {};

  /// Builds and publishes epoch 0 from `initial_faults`.
  explicit SnapshotBuilder(Mesh2D mesh, std::span<const Coord> initial_faults = {});

  /// Crash recovery: seed `initial_faults` (the deterministic epoch-0 world
  /// the restarted process reconstructs from its own flags), replay the
  /// journal at `journal_path` on top (absent file = fresh start), and
  /// publish the recovered world under the highest journaled epoch —
  /// bit-identical (epoch and plane contents) to the snapshot an
  /// uninterrupted run would serve. The journal stays attached for
  /// continued appends. Recovery wall time feeds serve.recover_us.
  SnapshotBuilder(Mesh2D mesh, std::span<const Coord> initial_faults,
                  const std::string& journal_path, RecoverFromJournal);

  SnapshotBuilder(const SnapshotBuilder&) = delete;
  SnapshotBuilder& operator=(const SnapshotBuilder&) = delete;

  /// Start write-ahead journaling to `path` (append mode; throws
  /// std::runtime_error when the file cannot be opened). Every subsequent
  /// inject() appends + fsyncs its record before touching the state.
  void attach_journal(const std::string& path);
  [[nodiscard]] bool journaling() const noexcept { return journal_ != nullptr; }

  /// Arm the builder-side serve-chaos events of `schedule` (bdelay/bstall/
  /// pubdrop; the session-side shed/tear events are the protocol layer's
  /// business). Publish ordinals are 1-based and count publish() calls.
  void set_serve_chaos(const chaos::FaultSchedule& schedule);

  /// Inject one fault into the live state (incremental maintenance; cheap
  /// no-op for already-bad nodes). Does NOT publish. Returns the delta size
  /// (nodes that turned bad), i.e. |DynamicMeshState::last_changed()|.
  std::size_t inject(Coord c);

  /// Freeze the live state into a new snapshot (next epoch) and publish it.
  /// Returns the published epoch — which armed chaos may leave behind
  /// world_epoch() (pubdrop) — and publishing with no pending injections is
  /// allowed (an identical world under a new epoch). The build plus the
  /// store swap (including its reclamation of retired snapshots) feeds the
  /// serve.rebuild_us histogram.
  std::uint64_t publish();

  /// Epoch the write side has reached (every publish() advances it, dropped
  /// or not); the initial world is epoch 0. Safe to read from any thread
  /// (the --obs-port scrape thread polls it for the epoch_lag gauge).
  [[nodiscard]] std::uint64_t world_epoch() const noexcept {
    return next_epoch_.load(std::memory_order_relaxed) - 1;
  }

  /// How many epochs the published snapshot trails the write side — 0 in
  /// healthy operation, > 0 after dropped publications.
  [[nodiscard]] std::uint64_t epoch_lag() const noexcept {
    return world_epoch() - store_.current_epoch();
  }

  [[nodiscard]] SnapshotStore& store() noexcept { return store_; }
  [[nodiscard]] const SnapshotStore& store() const noexcept { return store_; }
  [[nodiscard]] const dynamic::DynamicMeshState& state() const noexcept { return state_; }
  [[nodiscard]] const Mesh2D& mesh() const noexcept { return state_.mesh(); }
  [[nodiscard]] const BuilderStats& stats() const noexcept { return stats_; }

 private:
  /// Recovery-ctor helper: replays the journal into state_ (mutating
  /// next_epoch_/stats_/journal_ as side effects) and returns the recovered
  /// initial snapshot for store_'s construction. Runs during member init —
  /// store_ is declared last precisely so everything it needs is live.
  [[nodiscard]] std::unique_ptr<const RoutingSnapshot> recover_snapshot(
      const std::string& journal_path);

  dynamic::DynamicMeshState state_;
  SnapshotScratch scratch_;
  /// Written only by the single writer; atomic (relaxed) so world_epoch()
  /// and epoch_lag() are readable from observability threads.
  std::atomic<std::uint64_t> next_epoch_;
  BuilderStats stats_;
  std::unique_ptr<InjectionJournal> journal_;
  std::vector<chaos::ServeChaosEvent> chaos_events_;  ///< builder kinds only
  std::uint64_t publish_ordinal_ = 0;                 ///< 1-based chaos SEQ counter
  SnapshotStore store_;  ///< last: its initial snapshot is built from state_
};

}  // namespace meshroute::serve
