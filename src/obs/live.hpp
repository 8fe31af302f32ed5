// Live (time-resolved) observability over the batch-shaped §9 layer: the
// pieces a long-running serve process needs that a run-to-completion bench
// does not (DESIGN.md §14).
//
//   * LiveWindows — a bounded ring of per-interval MetricsSnapshot DELTAS
//     layered on an obs::Registry. Each advance() closes the current
//     measurement window: it snapshots the registry, subtracts the previous
//     cumulative snapshot, and pushes the difference. Lifetime totals answer
//     "how much ever"; the window ring answers "how much lately" — rate()
//     and windowed p50/p95/p99 over the newest K windows. Window spans are
//     wall-clock by default but may be supplied explicitly (logical ticks),
//     which is how the serve_sweep --deterministic replay keeps the windowed
//     export byte-identical across --threads.
//   * write_prometheus — a MetricsSnapshot (plus point-in-time gauges) as
//     Prometheus text exposition: counters as `<name>_total`, histograms as
//     cumulative `_bucket{le="..."}` series (the log2 buckets map directly),
//     gauges verbatim, `# EOF` terminated. Reused by the METRICS protocol
//     command, the --obs-port HTTP endpoint, and benches.
//   * write_windowed_json — the window ring merged over the newest K windows
//     as JSON ({"windows":...,"counters","rates","histograms"[,"gauges"]}),
//     the schema bench_compare --metrics also understands.
//   * FlightRecorder — a bounded, thread-safe ring of recent TraceEvents
//     (spans, epoch transitions, watchdog trips) plus retained slow-query
//     span chains ("exemplars"). Always on; dumped as a postmortem JSON
//     document (write_flight_json) when the serve watchdog trips, a bstall
//     chaos event fires, or SHUTDOWN runs — the crash-time context a
//     process-exit metrics dump cannot give.
//
// Everything here is pull-based and explicitly clocked: nothing spawns
// threads or arms timers, so the deterministic replays stay deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace meshroute::obs {

/// Per-metric difference cur - base: counters subtract, histogram buckets
/// subtract element-wise. Metrics absent from `base` pass through whole
/// (they were registered during the window).
[[nodiscard]] MetricsSnapshot snapshot_delta(const MetricsSnapshot& cur,
                                             const MetricsSnapshot& base);

/// Ring sizing for LiveWindows.
struct WindowConfig {
  std::size_t retain = 8;  ///< completed windows kept (older ones evicted)
  friend bool operator==(const WindowConfig&, const WindowConfig&) = default;
};

/// One closed measurement window.
struct WindowDelta {
  std::uint64_t index = 0;   ///< 0-based tick ordinal (total advances - 1)
  std::int64_t span_us = 0;  ///< window duration (wall or supplied logical)
  MetricsSnapshot delta;     ///< registry movement within the window
};

/// The window ring. Thread-safe: advance() may come from the protocol loop
/// while the --obs-port scrape thread reads — both take the internal mutex
/// (the registry snapshot underneath takes its own).
class LiveWindows {
 public:
  explicit LiveWindows(Registry& registry, WindowConfig cfg = {});

  LiveWindows(const LiveWindows&) = delete;
  LiveWindows& operator=(const LiveWindows&) = delete;

  /// Close the current window with a measured wall-clock span.
  void advance();
  /// Close the current window with an explicit span (deterministic replay:
  /// pass a fixed logical tick, e.g. 1'000'000 for "one second per round").
  void advance(std::int64_t span_us);

  [[nodiscard]] std::uint64_t ticks() const;  ///< total advance() calls
  [[nodiscard]] std::size_t retained() const; ///< windows currently in the ring
  [[nodiscard]] const WindowConfig& config() const noexcept { return cfg_; }

  /// Merge of the newest `last_n` window deltas (0 = all retained). The
  /// merged histograms answer windowed p50/p95/p99 directly.
  [[nodiscard]] MetricsSnapshot windowed(std::size_t last_n = 0) const;
  /// Summed span of the newest `last_n` windows (0 = all retained).
  [[nodiscard]] std::int64_t windowed_span_us(std::size_t last_n = 0) const;
  /// Counter movement per second over the newest `last_n` windows; 0 when
  /// the counter is unseen or no window span has elapsed.
  [[nodiscard]] double rate_per_s(std::string_view counter,
                                  std::size_t last_n = 0) const;
  /// Counter movement (not rate) over the newest `last_n` windows.
  [[nodiscard]] std::int64_t windowed_count(std::string_view counter,
                                            std::size_t last_n = 0) const;

  /// Copies of the retained windows, oldest first.
  [[nodiscard]] std::vector<WindowDelta> deltas() const;

 private:
  mutable std::mutex mutex_;
  Registry& registry_;
  WindowConfig cfg_;
  MetricsSnapshot baseline_;     ///< cumulative snapshot at the last advance
  std::deque<WindowDelta> ring_; ///< oldest-first, size <= cfg_.retain
  std::uint64_t ticks_ = 0;
  std::int64_t last_advance_us_; ///< steady-clock stamp for wall-clock spans
};

/// Prometheus text exposition (text/plain; version=0.0.4) of a snapshot.
/// Metric names are prefixed and sanitized ('.' and '-' become '_'):
/// counters emit `<prefix><name>_total`, histograms emit cumulative
/// `_bucket{le="<bucket_hi>"}` series (plus `{le="+Inf"}`), `_sum` and
/// `_count`; `gauges` emit their values in json's shortest round-trip form
/// (NaN/+Inf/-Inf when not finite). Ends with a `# EOF` line.
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot,
                      const std::map<std::string, double>& gauges = {},
                      std::string_view prefix = "meshroute_");

/// The windowed-metrics JSON document:
///   {"windows":{"ticks":T,"retained":R,"span_us":S},
///    "counters":{name:delta,...},"rates":{name:per_s,...},
///    "histograms":{name:{count,sum,p50,p95,p99,buckets:[[lo,hi,n],...]}},
///    "gauges":{name:value,...}}        (gauges omitted when empty)
/// `allow` restricts counters/rates/histograms to exact metric names (empty
/// = everything) — how deterministic replays exclude wall-time histograms.
void write_windowed_json(std::ostream& os, const LiveWindows& windows,
                         std::size_t last_n = 0,
                         const std::map<std::string, double>& gauges = {},
                         const std::vector<std::string>& allow = {});

/// Honor a --windowed target (json::write_output: "" = no-op, "-" = stdout,
/// else the named file). Returns true when written.
bool write_windowed_json(const std::string& path, const LiveWindows& windows,
                         std::size_t last_n = 0,
                         const std::map<std::string, double>& gauges = {},
                         const std::vector<std::string>& allow = {});

/// Serve-pipeline span stages (the `a` payload of span_begin/span_end).
enum class SpanStage : std::int64_t {
  Admission = 0,  ///< ADMIT gate (b: depth at begin, admitted 0/1 at end)
  Acquire = 1,    ///< snapshot acquire (b: epoch at end)
  Work = 2,       ///< decide/route batch (b: batch size / degraded 0/1)
  Reply = 3,      ///< bookkeeping + reply marshalling (b: elapsed_us at end)
};

[[nodiscard]] const char* to_string(SpanStage stage) noexcept;

/// Bounded thread-safe ring of recent trace events plus retained slow-query
/// span chains. Unlike TraceBuffer this is multi-writer (a mutex, not TLS):
/// it must keep recording while sessions, the write side, and the scrape
/// thread all run, because its whole purpose is to still have context when
/// something goes wrong.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::size_t kDefaultExemplars = 32;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity,
                          std::size_t exemplar_capacity = kDefaultExemplars);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(const TraceEvent& event);
  /// Retain one slow query's whole span chain (newest kDefaultExemplars-ish
  /// kept; older exemplars are evicted like ring events).
  void add_exemplar(std::vector<TraceEvent> chain);

  [[nodiscard]] std::vector<TraceEvent> events() const;  ///< oldest first
  [[nodiscard]] std::vector<std::vector<TraceEvent>> exemplars() const;
  [[nodiscard]] std::uint64_t recorded() const;  ///< total record() calls
  [[nodiscard]] std::uint64_t dropped() const;   ///< events evicted from the ring
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::size_t exemplar_capacity_;
  std::deque<TraceEvent> ring_;
  std::deque<std::vector<TraceEvent>> exemplars_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The postmortem document (tools/trace_check --flight validates it):
///   {"flight":{"reason":"watchdog|shutdown|...","recorded":N,"dropped":D,
///     "events":[{"name","track","time","x","y","a","b"},...],
///     "exemplars":[[event,...],...]}}
/// Events are dumped in ring (arrival) order — a flight recorder's job is
/// "what just happened", so arrival order IS the signal.
void write_flight_json(std::ostream& os, const FlightRecorder& recorder,
                       std::string_view reason);

/// Honor a --postmortem target (json::write_output, as write_windowed_json).
bool write_flight_json(const std::string& path, const FlightRecorder& recorder,
                       std::string_view reason);

}  // namespace meshroute::obs
