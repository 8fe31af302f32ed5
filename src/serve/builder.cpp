#include "serve/builder.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace meshroute::serve {

namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SnapshotBuilder::SnapshotBuilder(Mesh2D mesh, std::span<const Coord> initial_faults)
    : state_(std::move(mesh), initial_faults),
      next_epoch_(1),
      store_(std::make_unique<const RoutingSnapshot>(state_, /*epoch=*/0, scratch_)) {}

SnapshotBuilder::SnapshotBuilder(Mesh2D mesh, std::span<const Coord> initial_faults,
                                 const std::string& journal_path, RecoverFromJournal)
    : state_(std::move(mesh), initial_faults),
      next_epoch_(1),
      store_(recover_snapshot(journal_path)) {}

std::unique_ptr<const RoutingSnapshot> SnapshotBuilder::recover_snapshot(
    const std::string& journal_path) {
  static obs::Histogram& recover_us = obs::Registry::global().histogram("serve.recover_us");
  const std::int64_t t0 = now_us();
  const std::vector<JournalRecord> records = InjectionJournal::replay(journal_path);
  InjectionJournal::repair(journal_path);  // mend a crash-torn tail before appending
  std::uint64_t max_epoch = 0;
  for (const JournalRecord& r : records) {
    state_.inject_fault(r.site);
    max_epoch = std::max(max_epoch, r.epoch);
  }
  stats_.recovered_records = records.size();
  // Republish under the highest journaled epoch: bit-identical to what an
  // uninterrupted run would be serving after its publish of those records.
  const std::uint64_t next = records.empty() ? 1 : max_epoch + 1;
  next_epoch_.store(next, std::memory_order_relaxed);
  journal_ = std::make_unique<InjectionJournal>(journal_path);
  auto snap = std::make_unique<const RoutingSnapshot>(state_, next - 1, scratch_);
  recover_us.observe(now_us() - t0);
  return snap;
}

void SnapshotBuilder::attach_journal(const std::string& path) {
  journal_ = std::make_unique<InjectionJournal>(path);
}

void SnapshotBuilder::set_serve_chaos(const chaos::FaultSchedule& schedule) {
  chaos_events_.clear();
  for (const chaos::ServeChaosEvent& e : schedule.serve_events()) {
    switch (e.kind) {
      case chaos::ServeChaosEvent::Kind::BuilderDelay:
      case chaos::ServeChaosEvent::Kind::BuilderStall:
      case chaos::ServeChaosEvent::Kind::DropPublish:
        chaos_events_.push_back(e);
        break;
      default:
        break;  // shed/tear belong to the protocol layer
    }
  }
}

std::size_t SnapshotBuilder::inject(Coord c) {
  // Write-ahead: the record must be durable before the state changes, so a
  // crash between the two leaves the journal a superset of the applied
  // state (replay is idempotent — re-injecting a faulty node is a no-op).
  if (journal_ != nullptr) {
    journal_->append(JournalRecord{next_epoch_.load(std::memory_order_relaxed), c});
  }
  state_.inject_fault(c);
  const std::size_t delta = state_.last_changed().size();
  if (delta > 0) {
    ++stats_.injections;
    ++stats_.pending_injections;
    stats_.relabeled_nodes += static_cast<std::int64_t>(delta);
  }
  return delta;
}

std::uint64_t SnapshotBuilder::publish() {
  const std::uint64_t ordinal = ++publish_ordinal_;
  bool stall = false;
  bool drop = false;
  std::int64_t delay_us = 0;
  for (const chaos::ServeChaosEvent& e : chaos_events_) {
    if (e.seq != ordinal) continue;
    switch (e.kind) {
      case chaos::ServeChaosEvent::Kind::BuilderDelay: delay_us += e.param; break;
      case chaos::ServeChaosEvent::Kind::BuilderStall: stall = true; break;
      case chaos::ServeChaosEvent::Kind::DropPublish: drop = true; break;
      default: break;
    }
  }
  if (delay_us > 0) std::this_thread::sleep_for(std::chrono::microseconds(delay_us));

  const std::uint64_t epoch = next_epoch_.load(std::memory_order_relaxed);
  if (drop) {
    // The world epoch advances but the swap never lands: readers keep the
    // previous snapshot and epoch_lag() grows. Pending injections stay
    // pending — the next successful publish carries them.
    next_epoch_.store(epoch + 1, std::memory_order_relaxed);
    ++stats_.dropped_publishes;
    return store_.current_epoch();
  }

  const std::int64_t t0 = now_us();
  std::unique_ptr<const RoutingSnapshot> snap;
  if (stall) {
    // The incremental build is wedged; the no-progress watchdog declares it
    // and forces a from-scratch rebuild against the fault set (the two
    // construction paths are equivalence-tested, so readers cannot tell).
    static obs::Counter& trips =
        obs::Registry::global().counter("serve.builder.watchdog_trips");
    trips.add(1);
    ++stats_.forced_rebuilds;
    MESHROUTE_TRACE_EVENT(obs::EventKind::WatchdogTrip, 0,
                          static_cast<std::int64_t>(ordinal), (Coord{0, 0}), epoch,
                          stats_.pending_injections);
    snap = std::make_unique<const RoutingSnapshot>(mesh(), state_.faults(), epoch,
                                                   scratch_);
  } else {
    snap = std::make_unique<const RoutingSnapshot>(state_, epoch, scratch_);
  }
  next_epoch_.store(epoch + 1, std::memory_order_relaxed);
  ++stats_.published;
  stats_.pending_injections = 0;
  const std::uint64_t published = store_.publish(std::move(snap));
  // Per-epoch rebuild latency: the build plus the store swap (which reclaims
  // retired snapshots) — BENCH_serve.json's rebuild_median_us/rebuild_p99_us.
  static obs::Histogram& rebuild_us = obs::Registry::global().histogram("serve.rebuild_us");
  rebuild_us.observe(now_us() - t0);
  return published;
}

}  // namespace meshroute::serve
