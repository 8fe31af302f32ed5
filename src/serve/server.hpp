// QueryServer: routing-as-a-service over a SnapshotBuilder.
//
// The server couples the single write side (inject/publish on the builder)
// with any number of read-side Sessions. A Session owns one registered
// SnapshotStore::Reader plus reusable answer buffers; its batch entry points
// acquire the current snapshot ONCE, answer every query in the batch against
// that one epoch through the consolidated query API (route/query.hpp), and
// release. Answers within a batch are therefore mutually consistent — a
// batch never straddles an epoch swap — and bit-identical to issuing each
// query alone against the same epoch (tests/test_serve.cpp asserts this).
//
// Observability: every batch feeds two global histograms,
//   serve.query_us          — per-query service latency (microseconds),
//   serve.staleness_epochs  — how many epochs behind the just-published
//                             world the acquired snapshot was,
// and the counters serve.queries / serve.batches, all via obs::Registry.
//
// Live observability (DESIGN §14): the server owns an obs::LiveWindows ring
// (each METRICS scrape closes a measurement window, so windowed rates and
// percentiles move between scrapes) and an always-on obs::FlightRecorder.
// Every guarded batch emits a four-stage span chain — admission → snapshot
// acquire → decide/route work → reply — as span_begin/span_end trace events
// (logical clocks: track = server-wide span ordinal, time = step within the
// span) into both the MESHROUTE_TRACE_EVENT stream (no-op when tracing is
// compiled out) and the flight recorder; batches at or above
// ServeConfig::slow_query_us retain their whole chain as an exemplar.
// dump_flight() writes the postmortem JSON on watchdog trips (detected in
// inject_and_publish via the forced-rebuild count) and on SHUTDOWN.
//
// Resilience (DESIGN §13): the guarded batch entry points put every read
// through the ADMIT gate (Admission, resilience.hpp) — over capacity the
// request is shed with a retry-after hint — and through the max-staleness
// guard: when the acquired snapshot's epoch trails the write side beyond
// the configured bound, the answer is served DEGRADED (route walks go
// through a StaleMarkedView so every rung abandonment is attributed
// InfoStale). serve.degraded_total counts degraded requests; health_json()
// is the HEALTH protocol document.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include <string>
#include <string_view>

#include "chaos/fault_schedule.hpp"
#include "common/coord.hpp"
#include "common/json.hpp"
#include "cond/strategies.hpp"
#include "obs/live.hpp"
#include "route/query.hpp"
#include "serve/builder.hpp"
#include "serve/resilience.hpp"
#include "serve/store.hpp"

namespace meshroute::serve {

/// Fixed per-server query defaults (the protocol has no per-command knobs).
struct ServeConfig {
  route::QueryModel model = route::QueryModel::FaultyBlock;
  cond::StrategyId strategy = cond::StrategyId::S4;
  cond::StrategyConfig strategy_cfg{};
  std::vector<Coord> pivots;          ///< extension-3 pivot set (may be empty)
  route::LadderOptions ladder{};
  ResilienceConfig resilience{};      ///< shedding/staleness/deadline guards
  obs::WindowConfig window{};         ///< METRICS window ring sizing
  std::int64_t slow_query_us = 0;     ///< retain span exemplars for batches
                                      ///< at/above this latency (0 = off)
};

class QueryServer {
 public:
  explicit QueryServer(SnapshotBuilder& builder, ServeConfig config = {});

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  [[nodiscard]] SnapshotBuilder& builder() noexcept { return builder_; }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

  /// Outcome of the write path (the INJECT protocol command).
  struct InjectResult {
    std::uint64_t epoch = 0;   ///< published epoch
    std::size_t changed = 0;   ///< nodes relabeled by the injection
    bool watchdog = false;     ///< a bstall watchdog trip forced a rebuild
  };

  /// The one server-side write entry: inject one fault and publish the next
  /// epoch (readers racing this stay on the old epoch until the swap lands).
  /// Records an epoch_publish trace/flight event, detects a watchdog-forced
  /// rebuild (forced_rebuilds moved) and — when one fired — records a
  /// watchdog_trip event and dumps the flight recorder ("watchdog").
  /// Single-writer, like the builder underneath.
  InjectResult inject_and_publish(Coord c);

  /// Server-wide status document (epoch, world shape, write-side work,
  /// reader registration, windowed query stats) — the STATS protocol reply.
  [[nodiscard]] json::Value stats_json() const;

  /// Prometheus text exposition of the global registry plus live gauges
  /// (serve.queue_depth_now, serve.epoch, serve.epoch_lag, windowed rates and
  /// p99). CLOSES the current measurement window first — each scrape is a
  /// window boundary, so windowed values move between scrapes. Thread-safe
  /// (the --obs-port scrape thread calls this concurrently with sessions).
  /// No trailing newline: the METRICS protocol reply appends its own.
  [[nodiscard]] std::string metrics_text();

  [[nodiscard]] obs::LiveWindows& windows() noexcept { return windows_; }
  [[nodiscard]] obs::FlightRecorder& recorder() noexcept { return recorder_; }

  /// Arm postmortem dumps: dump_flight() writes the recorder to `path`
  /// (write_flight_json schema). Empty path disarms. Set before serving
  /// starts; not synchronized against concurrent dump_flight calls.
  void set_flight_dump(std::string path) { flight_path_ = std::move(path); }
  [[nodiscard]] const std::string& flight_dump_path() const noexcept {
    return flight_path_;
  }

  /// Dump the flight recorder to the armed path tagged with `reason`
  /// ("watchdog", "shutdown", ...). Returns false when disarmed or the file
  /// cannot be written.
  bool dump_flight(std::string_view reason);

  /// Resilience status document (epoch lag, queue depth, shed/degraded
  /// counts, recovery stats) — the HEALTH protocol reply.
  [[nodiscard]] json::Value health_json() const;

  [[nodiscard]] Admission& admission() noexcept { return admission_; }

  /// Arm serve-layer self-chaos: the builder-side events (bdelay/bstall/
  /// pubdrop) go to the builder, the session-side ordinals (shed/tear) are
  /// kept here for the protocol layer to consult.
  void set_serve_chaos(const chaos::FaultSchedule& schedule);
  [[nodiscard]] bool chaos_shed_at(std::uint64_t read_ordinal) const noexcept;
  [[nodiscard]] bool chaos_tear_at(std::uint64_t command_ordinal) const noexcept;

  /// Cooperative shutdown (the SHUTDOWN protocol command): the TCP accept
  /// loop and script drivers stop after the in-flight session ends.
  void request_shutdown() noexcept { shutdown_.store(true, std::memory_order_release); }
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t degraded_total() const noexcept {
    return degraded_total_.load(std::memory_order_relaxed);
  }

  /// One reader: a registered store slot plus reusable buffers. Create one
  /// per querying thread; entry points are safe to call concurrently with
  /// publishes and with other Sessions (never with themselves).
  class Session {
   public:
    explicit Session(QueryServer& server);

    /// Source-side guarantee per query, all against one acquired epoch.
    void decide_batch(std::span<const route::QuerySpec> specs,
                      std::vector<cond::Decision>& out);

    /// Degradation-ladder walk per query, all against one acquired epoch.
    /// Deterministic: no RNG is consulted (route::route_batch contract).
    void route_batch(std::span<const route::QuerySpec> specs,
                     std::vector<route::RouteAnswer>& out);

    [[nodiscard]] cond::Decision decide(route::QuerySpec spec);
    [[nodiscard]] route::RouteAnswer route(route::QuerySpec spec);

    /// Outcome of a guarded batch: shed at the gate (BUSY), or served —
    /// possibly DEGRADED when the snapshot lagged past the staleness bound.
    struct Guard {
      bool admitted = true;
      std::int64_t retry_after_ms = 0;  ///< backoff hint when !admitted
      bool degraded = false;
      std::uint64_t lag = 0;            ///< world_epoch - served epoch
    };

    /// Guarded entry points: ADMIT gate + staleness guard around the plain
    /// batch calls. When shed, `out` is untouched. `force_shed` is the
    /// serve-chaos shed hook. Degraded route walks go through a
    /// StaleMarkedView, so answers carry InfoStale attribution.
    Guard decide_batch_guarded(std::span<const route::QuerySpec> specs,
                               std::vector<cond::Decision>& out, bool force_shed = false);
    Guard route_batch_guarded(std::span<const route::QuerySpec> specs,
                              std::vector<route::RouteAnswer>& out, bool force_shed = false);

    [[nodiscard]] QueryServer& server() noexcept { return server_; }

    /// Epoch the most recent batch was answered against.
    [[nodiscard]] std::uint64_t last_epoch() const noexcept { return last_epoch_; }
    [[nodiscard]] std::uint64_t queries_served() const noexcept { return queries_; }

    /// Protocol bookkeeping for serve-chaos: count one command, tearing the
    /// session when its ordinal is scripted (`tear=SEQ`); count one read
    /// request, reporting whether it is scripted to shed (`shed=SEQ`).
    void note_command() noexcept;
    [[nodiscard]] bool torn() const noexcept { return torn_; }
    [[nodiscard]] bool chaos_shed_next_read() noexcept;

   private:
    void note_batch(std::uint64_t held_epoch, std::size_t n, std::int64_t elapsed_us);
    [[nodiscard]] bool stale_beyond_bound(std::uint64_t held_epoch, std::uint64_t& lag) const;

    QueryServer& server_;
    SnapshotStore::Reader reader_;
    std::uint64_t last_epoch_ = 0;
    std::uint64_t queries_ = 0;
    std::uint64_t command_ordinal_ = 0;  ///< 1-based, for tear=SEQ
    std::uint64_t read_ordinal_ = 0;     ///< 1-based, for shed=SEQ
    bool torn_ = false;
    std::vector<cond::Decision> decide_buf_;
    std::vector<route::RouteAnswer> route_buf_;
  };

 private:
  /// Emits one guarded batch's span chain (server.cpp). Begin/end pairs go
  /// to the trace stream and the flight recorder; finish() retains the
  /// chain as an exemplar when the batch was slow.
  class SpanChain;

  SnapshotBuilder& builder_;
  ServeConfig config_;
  Admission admission_;
  obs::LiveWindows windows_;
  obs::FlightRecorder recorder_;
  std::string flight_path_;                  ///< "" = postmortem dumps disarmed
  std::atomic<std::uint64_t> span_seq_{0};   ///< next span ordinal (track id)
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> degraded_total_{0};
  std::vector<std::uint64_t> shed_seqs_;  ///< sorted chaos ordinals
  std::vector<std::uint64_t> tear_seqs_;
};

}  // namespace meshroute::serve
