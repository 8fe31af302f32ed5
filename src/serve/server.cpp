#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
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

/// One guarded batch's span chain: four begin/end pairs on logical clocks
/// (track = server-wide span ordinal, time = step 0..7 within the span).
/// Every event goes to the trace stream (compiled out under trace-OFF) AND
/// the always-on flight recorder; finish() retains the chain as a slow-query
/// exemplar when the batch met ServeConfig::slow_query_us.
class QueryServer::SpanChain {
 public:
  SpanChain(QueryServer& server, Coord at)
      : server_(server),
        span_(server.span_seq_.fetch_add(1, std::memory_order_relaxed)),
        at_(at) {
    chain_.reserve(8);
  }

  void begin(obs::SpanStage stage, std::int64_t payload) {
    emit(obs::EventKind::SpanBegin, stage, payload);
  }
  void end(obs::SpanStage stage, std::int64_t payload) {
    emit(obs::EventKind::SpanEnd, stage, payload);
  }

  /// Close the chain; `elapsed_us` decides exemplar retention.
  void finish(std::int64_t elapsed_us) {
    const std::int64_t bound = server_.config_.slow_query_us;
    if (bound > 0 && elapsed_us >= bound) {
      server_.recorder_.add_exemplar(std::move(chain_));
      chain_.clear();
    }
  }

 private:
  void emit(obs::EventKind kind, obs::SpanStage stage, std::int64_t payload) {
    const obs::TraceEvent event{span_, step_++, kind, at_,
                                static_cast<std::int64_t>(stage), payload};
    MESHROUTE_TRACE_EVENT(event.kind, event.track, event.time, event.at, event.a,
                          event.b);
    server_.recorder_.record(event);
    chain_.push_back(event);
  }

  QueryServer& server_;
  std::uint64_t span_;
  Coord at_;
  std::int64_t step_ = 0;
  std::vector<obs::TraceEvent> chain_;
};

QueryServer::QueryServer(SnapshotBuilder& builder, ServeConfig config)
    : builder_(builder),
      config_(std::move(config)),
      admission_(config_.resilience),
      windows_(obs::Registry::global(), config_.window) {}

QueryServer::InjectResult QueryServer::inject_and_publish(Coord c) {
  const std::uint64_t rebuilds_before = builder_.stats().forced_rebuilds;
  InjectResult r;
  r.changed = builder_.inject(c);
  r.epoch = builder_.publish();
  r.watchdog = builder_.stats().forced_rebuilds > rebuilds_before;
  const auto world = static_cast<std::int64_t>(builder_.world_epoch());
  const obs::TraceEvent publish{0, world, obs::EventKind::EpochPublish, c,
                                static_cast<std::int64_t>(r.epoch),
                                static_cast<std::int64_t>(r.changed)};
  MESHROUTE_TRACE_EVENT(publish.kind, publish.track, publish.time, publish.at,
                        publish.a, publish.b);
  recorder_.record(publish);
  if (r.watchdog) {
    const obs::TraceEvent trip{0, world, obs::EventKind::WatchdogTrip, c,
                               static_cast<std::int64_t>(r.epoch),
                               static_cast<std::int64_t>(r.changed)};
    recorder_.record(trip);
    dump_flight("watchdog");
  }
  return r;
}

std::string QueryServer::metrics_text() {
  windows_.advance();  // every scrape is a window boundary
  std::map<std::string, double> gauges;
  // _now: the point-in-time depth; the registry histogram serve.queue_depth
  // (sampled per admit) keeps the bare name, and a Prometheus family may not
  // carry two TYPEs.
  gauges["serve.queue_depth_now"] = static_cast<double>(admission_.depth());
  gauges["serve.epoch"] = static_cast<double>(builder_.store().current_epoch());
  gauges["serve.epoch_lag"] = static_cast<double>(builder_.epoch_lag());
  gauges["serve.window.queries_per_s"] = windows_.rate_per_s("serve.queries");
  const obs::MetricsSnapshot windowed = windows_.windowed();
  const auto it = windowed.histograms.find("serve.query_us");
  gauges["serve.window.query_p99_us"] =
      it == windowed.histograms.end() ? 0.0 : it->second.percentile(0.99);
  std::ostringstream os;
  obs::write_prometheus(os, obs::Registry::global().snapshot(), gauges);
  std::string text = os.str();
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

bool QueryServer::dump_flight(std::string_view reason) {
  return obs::write_flight_json(flight_path_, recorder_, reason);
}

void QueryServer::set_serve_chaos(const chaos::FaultSchedule& schedule) {
  builder_.set_serve_chaos(schedule);
  shed_seqs_.clear();
  tear_seqs_.clear();
  for (const chaos::ServeChaosEvent& e : schedule.serve_events()) {
    if (e.kind == chaos::ServeChaosEvent::Kind::Shed) shed_seqs_.push_back(e.seq);
    if (e.kind == chaos::ServeChaosEvent::Kind::Tear) tear_seqs_.push_back(e.seq);
  }
}

bool QueryServer::chaos_shed_at(std::uint64_t read_ordinal) const noexcept {
  return std::binary_search(shed_seqs_.begin(), shed_seqs_.end(), read_ordinal);
}

bool QueryServer::chaos_tear_at(std::uint64_t command_ordinal) const noexcept {
  return std::binary_search(tear_seqs_.begin(), tear_seqs_.end(), command_ordinal);
}

json::Value QueryServer::health_json() const {
  using json::Value;
  const BuilderStats& bs = builder_.stats();
  Value::Object o;
  o["epoch"] = Value(static_cast<double>(builder_.store().current_epoch()));
  o["world_epoch"] = Value(static_cast<double>(builder_.world_epoch()));
  o["epoch_lag"] = Value(static_cast<double>(builder_.epoch_lag()));
  o["max_staleness"] = Value(static_cast<double>(config_.resilience.max_staleness_epochs));
  o["queue_depth"] = Value(static_cast<double>(admission_.depth()));
  o["queue_capacity"] = Value(static_cast<double>(config_.resilience.queue_capacity));
  o["shed_total"] = Value(static_cast<double>(admission_.shed_total()));
  o["degraded_total"] = Value(static_cast<double>(degraded_total()));
  o["deadline_misses"] = Value(static_cast<double>(admission_.deadline_misses()));
  o["dropped_publishes"] = Value(static_cast<double>(bs.dropped_publishes));
  o["forced_rebuilds"] = Value(static_cast<double>(bs.forced_rebuilds));
  o["recovered_records"] = Value(static_cast<double>(bs.recovered_records));
  o["journaling"] = Value(builder_.journaling());
  return Value(std::move(o));
}

json::Value QueryServer::stats_json() const {
  using json::Value;
  const SnapshotStore& store = builder_.store();
  const BuilderStats& bs = builder_.stats();
  Value::Object o;
  o["epoch"] = Value(static_cast<double>(store.current_epoch()));
  o["width"] = Value(static_cast<double>(builder_.mesh().width()));
  o["height"] = Value(static_cast<double>(builder_.mesh().height()));
  o["faults"] = Value(static_cast<double>(builder_.state().faults().count()));
  o["blocks"] = Value(static_cast<double>(builder_.state().blocks().size()));
  o["injections"] = Value(static_cast<double>(bs.injections));
  o["published"] = Value(static_cast<double>(bs.published));
  o["pending_injections"] = Value(static_cast<double>(bs.pending_injections));
  o["relabeled_nodes"] = Value(static_cast<double>(bs.relabeled_nodes));
  o["dropped_publishes"] = Value(static_cast<double>(bs.dropped_publishes));
  o["forced_rebuilds"] = Value(static_cast<double>(bs.forced_rebuilds));
  o["recovered_records"] = Value(static_cast<double>(bs.recovered_records));
  o["readers"] = Value(static_cast<double>(store.registered_readers()));
  o["retired"] = Value(static_cast<double>(store.retired_count()));
  o["model"] = Value(route::to_string(config_.model));
  o["strategy"] = Value(cond::to_string(config_.strategy));
  // Windowed view (DESIGN §14): the ring as the last METRICS scrape left it
  // (STATS itself does not close a window, so repeated STATS are stable).
  o["window_ticks"] = Value(static_cast<double>(windows_.ticks()));
  o["window_span_us"] = Value(static_cast<double>(windows_.windowed_span_us()));
  o["window_queries"] =
      Value(static_cast<double>(windows_.windowed_count("serve.queries")));
  const obs::MetricsSnapshot windowed = windows_.windowed();
  const auto it = windowed.histograms.find("serve.query_us");
  o["window_query_p99_us"] =
      Value(it == windowed.histograms.end() ? 0.0 : it->second.percentile(0.99));
  return Value(std::move(o));
}

QueryServer::Session::Session(QueryServer& server)
    : server_(server), reader_(server.builder().store()) {}

void QueryServer::Session::note_batch(std::uint64_t held_epoch, std::size_t n,
                                      std::int64_t elapsed_us) {
  static obs::Histogram& query_us = obs::Registry::global().histogram("serve.query_us");
  static obs::Histogram& staleness =
      obs::Registry::global().histogram("serve.staleness_epochs");
  static obs::Counter& queries = obs::Registry::global().counter("serve.queries");
  static obs::Counter& batches = obs::Registry::global().counter("serve.batches");
  last_epoch_ = held_epoch;
  queries_ += n;
  queries.add(static_cast<std::int64_t>(n));
  batches.add(1);
  // Staleness is measured against the epoch published by the time we answer:
  // a batch served entirely against the snapshot it acquired reports how far
  // the world moved underneath it.
  const std::uint64_t published = server_.builder().store().current_epoch();
  staleness.observe(static_cast<std::int64_t>(published - held_epoch));
  if (n > 0) {
    const std::int64_t per_query = elapsed_us / static_cast<std::int64_t>(n);
    for (std::size_t i = 0; i < n; ++i) query_us.observe(per_query);
  }
}

void QueryServer::Session::decide_batch(std::span<const route::QuerySpec> specs,
                                        std::vector<cond::Decision>& out) {
  const std::int64_t t0 = now_us();
  const SnapshotStore::Ref snap = reader_.acquire();
  const ServeConfig& cfg = server_.config_;
  route::decide_batch(snap->query_view(), specs, cfg.model, cfg.strategy, cfg.pivots,
                      cfg.strategy_cfg, out);
  note_batch(snap->epoch(), specs.size(), now_us() - t0);
}

void QueryServer::Session::route_batch(std::span<const route::QuerySpec> specs,
                                       std::vector<route::RouteAnswer>& out) {
  const std::int64_t t0 = now_us();
  const SnapshotStore::Ref snap = reader_.acquire();
  route::route_batch(snap->query_view(), specs, server_.config_.ladder, out);
  note_batch(snap->epoch(), specs.size(), now_us() - t0);
}

bool QueryServer::Session::stale_beyond_bound(std::uint64_t held_epoch,
                                              std::uint64_t& lag) const {
  const std::uint64_t world = server_.builder_.world_epoch();
  lag = world > held_epoch ? world - held_epoch : 0;
  const std::uint64_t bound = server_.config_.resilience.max_staleness_epochs;
  return bound > 0 && lag > bound;
}

QueryServer::Session::Guard QueryServer::Session::decide_batch_guarded(
    std::span<const route::QuerySpec> specs, std::vector<cond::Decision>& out,
    bool force_shed) {
  Guard g;
  SpanChain span(server_, specs.empty() ? Coord{0, 0} : specs.front().src);
  span.begin(obs::SpanStage::Admission, server_.admission_.depth());
  Admission::Ticket ticket = server_.admission_.try_admit(g.retry_after_ms, force_shed);
  if (!ticket.admitted()) {
    g.admitted = false;
    span.end(obs::SpanStage::Admission, 0);  // shed: the chain stops here
    span.finish(0);
    return g;
  }
  span.end(obs::SpanStage::Admission, 1);
  const std::int64_t t0 = now_us();
  span.begin(obs::SpanStage::Acquire, 0);
  const SnapshotStore::Ref snap = reader_.acquire();
  span.end(obs::SpanStage::Acquire, static_cast<std::int64_t>(snap->epoch()));
  g.degraded = stale_beyond_bound(snap->epoch(), g.lag);
  const ServeConfig& cfg = server_.config_;
  // A decision has no ladder to fall back on: a stale-beyond-bound answer is
  // still computed (against the best snapshot we have) but flagged DEGRADED
  // so the caller knows the epoch it reflects is out of date.
  span.begin(obs::SpanStage::Work, static_cast<std::int64_t>(specs.size()));
  route::decide_batch(snap->query_view(), specs, cfg.model, cfg.strategy, cfg.pivots,
                      cfg.strategy_cfg, out);
  span.end(obs::SpanStage::Work, g.degraded ? 1 : 0);
  span.begin(obs::SpanStage::Reply, 0);
  const std::int64_t elapsed = now_us() - t0;
  if (g.degraded) {
    static obs::Counter& degraded = obs::Registry::global().counter("serve.degraded_total");
    degraded.add(1);
    server_.degraded_total_.fetch_add(1, std::memory_order_relaxed);
  }
  note_batch(snap->epoch(), specs.size(), elapsed);
  server_.admission_.note_service(elapsed);
  span.end(obs::SpanStage::Reply, elapsed);
  span.finish(elapsed);
  return g;
}

QueryServer::Session::Guard QueryServer::Session::route_batch_guarded(
    std::span<const route::QuerySpec> specs, std::vector<route::RouteAnswer>& out,
    bool force_shed) {
  Guard g;
  SpanChain span(server_, specs.empty() ? Coord{0, 0} : specs.front().src);
  span.begin(obs::SpanStage::Admission, server_.admission_.depth());
  Admission::Ticket ticket = server_.admission_.try_admit(g.retry_after_ms, force_shed);
  if (!ticket.admitted()) {
    g.admitted = false;
    span.end(obs::SpanStage::Admission, 0);  // shed: the chain stops here
    span.finish(0);
    return g;
  }
  span.end(obs::SpanStage::Admission, 1);
  const std::int64_t t0 = now_us();
  span.begin(obs::SpanStage::Acquire, 0);
  const SnapshotStore::Ref snap = reader_.acquire();
  span.end(obs::SpanStage::Acquire, static_cast<std::int64_t>(snap->epoch()));
  g.degraded = stale_beyond_bound(snap->epoch(), g.lag);
  span.begin(obs::SpanStage::Work, static_cast<std::int64_t>(specs.size()));
  if (g.degraded) {
    // Serve through the degradation ladder with the view marked stale, so
    // any rung abandonment is attributed InfoStale — the reply then carries
    // WHY full fidelity was unavailable, not a silently stale answer.
    static obs::Counter& degraded = obs::Registry::global().counter("serve.degraded_total");
    degraded.add(1);
    server_.degraded_total_.fetch_add(1, std::memory_order_relaxed);
    const StaleMarkedView stale_view(*snap);
    route::route_batch(snap->mesh(), stale_view, specs, server_.config_.ladder, out);
  } else {
    route::route_batch(snap->query_view(), specs, server_.config_.ladder, out);
  }
  span.end(obs::SpanStage::Work, g.degraded ? 1 : 0);
  span.begin(obs::SpanStage::Reply, 0);
  const std::int64_t elapsed = now_us() - t0;
  note_batch(snap->epoch(), specs.size(), elapsed);
  server_.admission_.note_service(elapsed);
  span.end(obs::SpanStage::Reply, elapsed);
  span.finish(elapsed);
  return g;
}

void QueryServer::Session::note_command() noexcept {
  ++command_ordinal_;
  if (server_.chaos_tear_at(command_ordinal_)) torn_ = true;
}

bool QueryServer::Session::chaos_shed_next_read() noexcept {
  ++read_ordinal_;
  return server_.chaos_shed_at(read_ordinal_);
}

cond::Decision QueryServer::Session::decide(route::QuerySpec spec) {
  decide_batch({&spec, 1}, decide_buf_);
  return decide_buf_.front();
}

route::RouteAnswer QueryServer::Session::route(route::QuerySpec spec) {
  route_batch({&spec, 1}, route_buf_);
  return route_buf_.front();
}

}  // namespace meshroute::serve
