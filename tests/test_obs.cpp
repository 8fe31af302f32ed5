// The observability layer's own contracts: histogram merge algebra and
// percentile sanity, ring-buffer loss accounting, canonical event ordering,
// macro emission through TraceScope, exporter round-trips through json
// (common/json.hpp), ladder RouteStats, and — the headline — trace
// determinism of a full SweepRunner workload across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "experiment/sweep.hpp"
#include "experiment/trial.hpp"
#include "experiment/workspace.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "obs/export.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/ladder.hpp"

namespace meshroute {
namespace {

// ---------------------------------------------------------------------------
// Metrics: counters, buckets, percentiles, and the merge algebra the sweep
// reduction and bench_compare --metrics rely on.

TEST(Metrics, CounterAddValueReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.add(-2);
  EXPECT_EQ(c.value(), 40);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Metrics, HistogramBucketBoundaries) {
  using HS = obs::HistogramSnapshot;
  // Bucket 0 is the <= 0 sink; bucket i >= 1 covers [2^(i-1), 2^i - 1].
  EXPECT_EQ(HS::bucket_of(-5), 0u);
  EXPECT_EQ(HS::bucket_of(0), 0u);
  EXPECT_EQ(HS::bucket_of(1), 1u);
  EXPECT_EQ(HS::bucket_of(2), 2u);
  EXPECT_EQ(HS::bucket_of(3), 2u);
  EXPECT_EQ(HS::bucket_of(4), 3u);
  EXPECT_EQ(HS::bucket_of(1023), 10u);
  EXPECT_EQ(HS::bucket_of(1024), 11u);
  for (std::size_t b = 1; b < 20; ++b) {
    EXPECT_EQ(HS::bucket_of(HS::bucket_lo(b)), b);
    EXPECT_EQ(HS::bucket_of(HS::bucket_hi(b)), b);
    EXPECT_EQ(HS::bucket_hi(b) + 1, HS::bucket_lo(b + 1));
  }
}

obs::HistogramSnapshot snapshot_of(const std::vector<std::int64_t>& values) {
  obs::Histogram h;
  for (const std::int64_t v : values) h.observe(v);
  return h.snapshot();
}

TEST(Metrics, HistogramMergeIsAssociativeAndCommutative) {
  const obs::HistogramSnapshot a = snapshot_of({1, 2, 3, 100, 7});
  const obs::HistogramSnapshot b = snapshot_of({0, -4, 9, 9, 4096});
  const obs::HistogramSnapshot c = snapshot_of({55, 1, 1 << 20});

  // (a + b) + c
  obs::HistogramSnapshot left = a;
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  obs::HistogramSnapshot right_tail = b;
  right_tail.merge(c);
  obs::HistogramSnapshot right = a;
  right.merge(right_tail);
  EXPECT_EQ(left, right);

  // b + a == a + b
  obs::HistogramSnapshot ab = a;
  ab.merge(b);
  obs::HistogramSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  // The merge is a true sum: same as observing everything in one histogram.
  const obs::HistogramSnapshot all =
      snapshot_of({1, 2, 3, 100, 7, 0, -4, 9, 9, 4096, 55, 1, 1 << 20});
  EXPECT_EQ(left, all);
  EXPECT_EQ(left.count, 13);
}

TEST(Metrics, PercentilesAreMonotoneAndBounded) {
  obs::Histogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) h.observe(v);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000);
  EXPECT_EQ(s.sum, 1000 * 1001 / 2);

  double prev = -1;
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double q = s.percentile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    EXPECT_GE(q, 1.0);
    EXPECT_LE(q, 1023.0);  // hi edge of the bucket holding 1000
    prev = q;
  }
  // Log2 buckets: the estimate is only bucket-accurate, so assert the
  // covering bucket, not the exact rank value.
  const double p50 = s.percentile(0.5);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1023.0);

  EXPECT_EQ(obs::HistogramSnapshot{}.percentile(0.5), 0.0);
}

TEST(Metrics, PercentileEmptySnapshotAndClampedP) {
  // Empty snapshot: exactly 0.0 for ANY p, including the pathological ones.
  const obs::HistogramSnapshot empty{};
  for (const double p : {-1.0, 0.0, 0.5, 1.0, 7.0,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(empty.percentile(p), 0.0) << "p=" << p;
  }
  // Non-empty: out-of-range and NaN p clamp into [0, 1] instead of reading
  // outside the bucket array.
  const obs::HistogramSnapshot s = snapshot_of({1, 2, 4, 8, 16});
  EXPECT_EQ(s.percentile(-3.0), s.percentile(0.0));
  EXPECT_EQ(s.percentile(1.5), s.percentile(1.0));
  EXPECT_EQ(s.percentile(std::numeric_limits<double>::quiet_NaN()),
            s.percentile(0.0));
}

TEST(Metrics, RegistrySnapshotAndReset) {
  obs::Registry reg;
  obs::Counter& walks = reg.counter("walks");
  walks.add(3);
  reg.histogram("lat").observe(17);
  // Same name, same handle.
  EXPECT_EQ(&reg.counter("walks"), &walks);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters.at("walks"), 3);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms.at("lat").count, 1);

  reg.reset();
  EXPECT_EQ(walks.value(), 0);  // cached reference survives reset
  EXPECT_EQ(reg.snapshot().counters.at("walks"), 0);
  EXPECT_EQ(reg.snapshot().histograms.at("lat").count, 0);
}

// ---------------------------------------------------------------------------
// Tracing: ring loss accounting, canonical merge order, macro emission.

obs::TraceEvent event_at(std::uint64_t track, std::int64_t time) {
  obs::TraceEvent e;
  e.track = track;
  e.time = time;
  return e;
}

TEST(Trace, RingBufferKeepsNewestAndCountsDrops) {
  obs::TraceBuffer ring(4);
  for (std::int64_t t = 0; t < 10; ++t) ring.emit(event_at(1, t));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);

  std::vector<obs::TraceEvent> out;
  ring.drain_into(out);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].time, static_cast<std::int64_t>(6 + i));  // oldest-first
  }
}

TEST(Trace, SinkMergesCollectorsIntoCanonicalOrder) {
  obs::TraceSink sink(8);
  obs::TraceBuffer& b1 = sink.attach();
  obs::TraceBuffer& b2 = sink.attach();
  // Interleave tracks and times across the two collectors, out of order.
  b1.emit(event_at(2, 5));
  b1.emit(event_at(1, 9));
  b2.emit(event_at(1, 3));
  b2.emit(event_at(2, 1));

  const std::vector<obs::TraceEvent> events = sink.sorted_events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(), obs::trace_event_less));
  EXPECT_EQ(events[0].track, 1u);
  EXPECT_EQ(events[0].time, 3);
  EXPECT_EQ(events[3].track, 2u);
  EXPECT_EQ(events[3].time, 5);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(Trace, ScopeRoutesMacroEmissionsAndRestoresOnExit) {
  obs::TraceSink sink;
  {
    obs::TraceScope scope(sink);
    MESHROUTE_TRACE_EVENT(obs::EventKind::ChaosInjection, 3, 11, (Coord{4, 5}), 1, 2);
  }
  // Outside any scope the macro must be a no-op, not a crash.
  MESHROUTE_TRACE_EVENT(obs::EventKind::RouteHop, 0, 0, (Coord{0, 0}), 0, 0);

  const std::vector<obs::TraceEvent> events = sink.sorted_events();
#if MESHROUTE_TRACE_ENABLED
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::ChaosInjection);
  EXPECT_EQ(events[0].track, 3u);
  EXPECT_EQ(events[0].time, 11);
  EXPECT_EQ(events[0].at, (Coord{4, 5}));
  EXPECT_EQ(events[0].a, 1);
  EXPECT_EQ(events[0].b, 2);
#else
  EXPECT_TRUE(events.empty());
#endif
}

TEST(Trace, EventKindNamesAreStable) {
  EXPECT_STREQ(obs::to_string(obs::EventKind::RouteHop), "route_hop");
  EXPECT_STREQ(obs::to_string(obs::EventKind::RungEscalation), "rung_escalation");
  EXPECT_STREQ(obs::to_string(obs::EventKind::WatchdogTrip), "watchdog_trip");
}

// ---------------------------------------------------------------------------
// Exporters round-trip through the repo's own JSON parser (the same door the
// ctest smokes hold shut for the CLI-written files).

TEST(Export, TraceJsonRoundTripsThroughExperimentJson) {
  std::vector<obs::TraceEvent> events;
  events.push_back({7, 2, obs::EventKind::RouteHop, Coord{3, 4}, 1, 0});
  events.push_back({7, 3, obs::EventKind::RungEscalation, Coord{3, 4}, 0, 5});

  std::ostringstream os;
  obs::write_trace_json(os, events, /*dropped=*/9);
  const auto doc = json::parse(os.str());

  const auto& arr = doc.at("traceEvents").as_array();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0].at("name").as_string(), "route_hop");
  EXPECT_EQ(arr[0].at("ts").as_number(), 2.0);
  EXPECT_EQ(arr[0].at("tid").as_number(), 7.0);
  EXPECT_EQ(arr[0].at("args").at("x").as_number(), 3.0);
  EXPECT_EQ(arr[0].at("args").at("y").as_number(), 4.0);
  EXPECT_EQ(arr[1].at("name").as_string(), "rung_escalation");
  EXPECT_EQ(arr[1].at("args").at("b").as_number(), 5.0);
  EXPECT_EQ(doc.at("otherData").at("dropped").as_number(), 9.0);
}

TEST(Export, MetricsJsonRoundTripsThroughExperimentJson) {
  obs::Registry reg;
  reg.counter("alpha").add(5);
  reg.counter("beta").add(-1);
  obs::Histogram& h = reg.histogram("lat");
  for (std::int64_t v = 1; v <= 64; ++v) h.observe(v);

  std::ostringstream os;
  obs::write_metrics_json(os, reg.snapshot());
  const auto doc = json::parse(os.str());

  EXPECT_EQ(doc.at("counters").at("alpha").as_number(), 5.0);
  EXPECT_EQ(doc.at("counters").at("beta").as_number(), -1.0);
  const auto& lat = doc.at("histograms").at("lat");
  EXPECT_EQ(lat.at("count").as_number(), 64.0);
  EXPECT_EQ(lat.at("sum").as_number(), 64.0 * 65.0 / 2.0);
  EXPECT_GT(lat.at("p99").as_number(), lat.at("p50").as_number());
  // Buckets serialize as [lo, hi, count] triples summing to the count.
  double bucket_total = 0;
  for (const auto& b : lat.at("buckets").as_array()) {
    ASSERT_EQ(b.as_array().size(), 3u);
    bucket_total += b.as_array()[2].as_number();
  }
  EXPECT_EQ(bucket_total, 64.0);
}

// ---------------------------------------------------------------------------
// Live observability (DESIGN §14): window-delta algebra, the ring's retain
// semantics, Prometheus exposition, and the flight recorder's loss
// accounting — the pieces the serve layer wires together.

TEST(Live, SnapshotDeltaSubtractsAndPassesNewMetricsThrough) {
  obs::Registry reg;
  reg.counter("walks").add(10);
  reg.histogram("lat").observe(5);
  const obs::MetricsSnapshot base = reg.snapshot();

  reg.counter("walks").add(7);
  reg.histogram("lat").observe(5);
  reg.histogram("lat").observe(900);
  reg.counter("fresh").add(3);  // registered during the window
  const obs::MetricsSnapshot delta = obs::snapshot_delta(reg.snapshot(), base);

  EXPECT_EQ(delta.counters.at("walks"), 7);
  EXPECT_EQ(delta.counters.at("fresh"), 3);
  EXPECT_EQ(delta.histograms.at("lat").count, 2);
  EXPECT_EQ(delta.histograms.at("lat").sum, 905);
  using HS = obs::HistogramSnapshot;
  EXPECT_EQ(delta.histograms.at("lat").buckets[HS::bucket_of(5)], 1);
  EXPECT_EQ(delta.histograms.at("lat").buckets[HS::bucket_of(900)], 1);
}

TEST(Live, WindowRingRetainsNewestAndMergesDeltas) {
  obs::Registry reg;
  obs::LiveWindows windows(reg, obs::WindowConfig{.retain = 2});
  obs::Counter& c = reg.counter("serve.queries");
  obs::Histogram& h = reg.histogram("serve.hops");

  // Three windows with movement 1, 10, 100 — the ring keeps the newest two.
  for (const std::int64_t movement : {1, 10, 100}) {
    c.add(movement);
    h.observe(movement);
    windows.advance(1'000'000);
  }
  EXPECT_EQ(windows.ticks(), 3u);
  EXPECT_EQ(windows.retained(), 2u);

  EXPECT_EQ(windows.windowed_count("serve.queries"), 110);   // 10 + 100
  EXPECT_EQ(windows.windowed_count("serve.queries", 1), 100);  // newest only
  EXPECT_EQ(windows.windowed_count("absent"), 0);
  // 110 counts over 2 explicit one-second spans.
  EXPECT_DOUBLE_EQ(windows.rate_per_s("serve.queries"), 55.0);
  EXPECT_EQ(windows.windowed_span_us(), 2'000'000);

  const obs::MetricsSnapshot merged = windows.windowed();
  EXPECT_EQ(merged.histograms.at("serve.hops").count, 2);  // the 10 and the 100
  EXPECT_EQ(merged.histograms.at("serve.hops").sum, 110);

  const std::vector<obs::WindowDelta> deltas = windows.deltas();
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas.front().index, 1u);  // oldest retained is tick #1
  EXPECT_EQ(deltas.back().delta.counters.at("serve.queries"), 100);
}

TEST(Live, WindowedJsonHonorsAllowFilter) {
  obs::Registry reg;
  obs::LiveWindows windows(reg);
  reg.counter("keep").add(4);
  reg.counter("drop").add(9);
  reg.histogram("keep.lat").observe(2);
  windows.advance(500'000);

  std::ostringstream os;
  obs::write_windowed_json(os, windows, 0,
                           {{"g", 1.5},
                            {"tenth", 0.1},
                            {"unbounded", std::numeric_limits<double>::infinity()}},
                           {"keep", "keep.lat"});
  // Shortest round-trip doubles, and null for a value JSON cannot spell.
  EXPECT_NE(os.str().find("\"tenth\":0.1,"), std::string::npos);
  EXPECT_NE(os.str().find("\"unbounded\":null"), std::string::npos);
  const auto doc = json::parse(os.str());
  EXPECT_EQ(doc.at("windows").at("ticks").as_number(), 1.0);
  EXPECT_EQ(doc.at("windows").at("span_us").as_number(), 500'000.0);
  EXPECT_EQ(doc.at("counters").at("keep").as_number(), 4.0);
  EXPECT_FALSE(doc.at("counters").has("drop"));
  EXPECT_EQ(doc.at("histograms").at("keep.lat").at("count").as_number(), 1.0);
  EXPECT_EQ(doc.at("gauges").at("g").as_number(), 1.5);
  EXPECT_EQ(doc.at("gauges").at("tenth").as_number(), 0.1);
  // rate = 4 counts / 0.5 s.
  EXPECT_EQ(doc.at("rates").at("keep").as_number(), 8.0);
}

TEST(Live, PrometheusExpositionShape) {
  obs::Registry reg;
  reg.counter("serve.queries").add(12);
  reg.counter("serve.shed_total").add(2);  // must NOT become _total_total
  obs::Histogram& h = reg.histogram("route-lat");
  h.observe(1);
  h.observe(100);

  std::ostringstream os;
  obs::write_prometheus(os, reg.snapshot(), {{"serve.depth", 3.5}});
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE meshroute_serve_queries_total counter\n"
                      "meshroute_serve_queries_total 12\n"),
            std::string::npos);
  EXPECT_NE(text.find("meshroute_serve_shed_total 2\n"), std::string::npos);
  EXPECT_EQ(text.find("_total_total"), std::string::npos);
  // Histogram: sanitized family, cumulative buckets, +Inf, sum and count.
  EXPECT_NE(text.find("# TYPE meshroute_route_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("meshroute_route_lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("meshroute_route_lat_bucket{le=\"127\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("meshroute_route_lat_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("meshroute_route_lat_sum 101\n"), std::string::npos);
  EXPECT_NE(text.find("meshroute_route_lat_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE meshroute_serve_depth gauge\n"
                      "meshroute_serve_depth 3.5\n"),
            std::string::npos);
  // Terminated, and terminated last.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

obs::TraceEvent flight_event(std::uint64_t track, std::int64_t time,
                             obs::EventKind kind, std::int64_t a) {
  return obs::TraceEvent{track, time, kind, Coord{1, 2}, a, 0};
}

TEST(Live, FlightRecorderRingAccountingAndDump) {
  obs::FlightRecorder recorder(/*capacity=*/4, /*exemplar_capacity=*/2);
  for (std::int64_t t = 0; t < 10; ++t) {
    recorder.record(flight_event(0, t, obs::EventKind::EpochPublish, t));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const std::vector<obs::TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().time, 6);  // oldest surviving
  EXPECT_EQ(events.back().time, 9);

  // Three exemplars into a 2-slot deque: the oldest chain is evicted.
  for (std::int64_t span = 0; span < 3; ++span) {
    recorder.add_exemplar({
        flight_event(static_cast<std::uint64_t>(span), 0,
                     obs::EventKind::SpanBegin, 0),
        flight_event(static_cast<std::uint64_t>(span), 1,
                     obs::EventKind::SpanEnd, 0),
    });
  }
  ASSERT_EQ(recorder.exemplars().size(), 2u);
  EXPECT_EQ(recorder.exemplars().front().front().track, 1u);

  std::ostringstream os;
  obs::write_flight_json(os, recorder, "watchdog");
  const auto doc = json::parse(os.str());
  const auto& flight = doc.at("flight");
  EXPECT_EQ(flight.at("reason").as_string(), "watchdog");
  EXPECT_EQ(flight.at("recorded").as_number(), 10.0);
  EXPECT_EQ(flight.at("dropped").as_number(), 6.0);
  ASSERT_EQ(flight.at("events").as_array().size(), 4u);
  EXPECT_EQ(flight.at("events").as_array()[0].at("name").as_string(),
            "epoch_publish");
  EXPECT_EQ(flight.at("events").as_array()[0].at("x").as_number(), 1.0);
  ASSERT_EQ(flight.at("exemplars").as_array().size(), 2u);
  EXPECT_EQ(flight.at("exemplars").as_array()[0].as_array()[0]
                .at("name").as_string(),
            "span_begin");
}

TEST(Live, SpanStageNamesAreStable) {
  EXPECT_STREQ(obs::to_string(obs::SpanStage::Admission), "admission");
  EXPECT_STREQ(obs::to_string(obs::SpanStage::Acquire), "acquire");
  EXPECT_STREQ(obs::to_string(obs::SpanStage::Work), "work");
  EXPECT_STREQ(obs::to_string(obs::SpanStage::Reply), "reply");
  EXPECT_STREQ(obs::to_string(obs::EventKind::SpanBegin), "span_begin");
  EXPECT_STREQ(obs::to_string(obs::EventKind::SpanEnd), "span_end");
  EXPECT_STREQ(obs::to_string(obs::EventKind::EpochPublish), "epoch_publish");
}

// ---------------------------------------------------------------------------
// RouteStats: the ladder fills aggregate counts on every return, consistent
// with the path and escalation list it also reports.

TEST(RouteStats, MatchesPathAndEscalations) {
  // The SpareDetour world from test_chaos: one block on the row forces
  // exactly one escalation and one detour.
  const Mesh2D mesh(6, 3);
  const auto blocks =
      fault::build_faulty_blocks(mesh, fault::rectangle_faults(mesh, {2, 2, 0, 0}));
  const route::StaticFaultView view(blocks, nullptr);
  const route::LadderResult r =
      route_degradation_ladder(mesh, view, {0, 0}, {4, 0});

  ASSERT_EQ(r.status, route::RouteStatus::Delivered);
  EXPECT_EQ(r.stats.hops, static_cast<int>(r.path.hops.size()) - 1);
  EXPECT_EQ(r.stats.detours, r.detours);
  EXPECT_EQ(r.stats.escalations, static_cast<int>(r.escalations.size()));
  EXPECT_EQ(r.stats.detours, 1);
  EXPECT_EQ(r.stats.escalations, 1);

  // A failed walk still reports its stats.
  route::LadderOptions minimal_only;
  minimal_only.max_rung = route::Rung::Minimal;
  const route::LadderResult stuck =
      route_degradation_ladder(mesh, view, {0, 0}, {4, 0}, minimal_only);
  EXPECT_EQ(stuck.status, route::RouteStatus::Stuck);
  EXPECT_EQ(stuck.stats.hops, static_cast<int>(stuck.path.hops.size()) - 1);
  EXPECT_EQ(stuck.stats.escalations, 0);
}

// ---------------------------------------------------------------------------
// The headline contract: a traced sweep produces the identical canonical
// stream (and identical serialized export) for any --threads value.

std::string traced_sweep_json(int threads, double* delivered_mean) {
  experiment::SweepConfig cfg;
  cfg.n = 20;
  cfg.trials = 4;
  cfg.dests = 3;
  cfg.threads = threads;
  cfg.seed = 0xab5eed;
  cfg.fault_counts = {10, 25};

  experiment::SweepRunner runner(cfg, {"delivered", "hops"});
  obs::TraceSink sink;
  runner.set_trace_sink(&sink);

  const experiment::SweepResult result = runner.run(
      [&](const experiment::SweepCell& cell, Rng& rng, experiment::TrialWorkspace& ws,
          experiment::TrialCounters& out) {
        const experiment::Trial& trial = experiment::make_trial(
            {.n = cell.n(), .faults = cell.faults()}, rng, ws);
        const route::StaticFaultView view(trial.blocks, nullptr);
        route::LadderOptions opts;
        opts.trace_track = cell.track_id();
        for (int s = 0; s < cfg.dests; ++s) {
          const Coord dest = experiment::sample_quadrant1_dest(trial, rng);
          const route::LadderResult lr =
              route_degradation_ladder(trial.mesh, view, trial.source, dest, opts, &rng);
          out.count(0, lr.delivered());
          out.observe(1, lr.stats.hops);
        }
      });

  EXPECT_EQ(sink.dropped(), 0u);
  if (delivered_mean != nullptr) *delivered_mean = result.mean(0, "delivered");

  std::ostringstream os;
  obs::write_trace_json(os, sink);
  return os.str();
}

TEST(TraceDeterminism, SweepStreamIdenticalAcrossThreadCounts) {
  double mean1 = 0;
  double mean8 = 0;
  const std::string serial = traced_sweep_json(1, &mean1);
  const std::string parallel = traced_sweep_json(8, &mean8);

  EXPECT_EQ(mean1, mean8);
  EXPECT_EQ(serial, parallel);
#if MESHROUTE_TRACE_ENABLED
  // Not vacuous: the traced workload must actually emit route events.
  EXPECT_NE(serial.find("route_hop"), std::string::npos);
#endif
  // Either way the export parses.
  const auto doc = json::parse(serial);
  EXPECT_EQ(doc.at("otherData").at("dropped").as_number(), 0.0);
}

}  // namespace
}  // namespace meshroute
