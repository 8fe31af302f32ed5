// Traced in-process replays of serve_read and serve_churn.
//
// The benchmark's own code replays the generated request stream on replicas
// of the served world (same seed world, same ServeConfig as
// `meshroutectl serve` with default flags) and wraps a span around each call
// into a layer's public function, outermost to innermost:
//
//   read:  serve::handle_line -> Session::*_batch_guarded -> Session::*_batch
//          -> route::route_batch / route::decide_strategy
//          -> RoutingSnapshot::believed_blocks + cond::monotone_path_exists_rects
//             replayed along the walk's path (from route::route_ladder)
//   write: serve::handle_line -> QueryServer::inject_and_publish
//          -> SnapshotBuilder::inject / publish
//          -> DynamicMeshState::inject_fault, RoutingSnapshot delta constructor
//          -> info::BoundaryInfoMap, fault::build_mcc, info::compute_safety_levels;
//             SnapshotStore::publish
//
// Each layer runs on its own replica, and every write-side replica receives
// the same injection sequence, so the spans of one request line up. A
// layer's self time is its inclusive time minus the next layer's on the same
// request; what the spans do not cover shows up in the *.self_us numbers.
// Spans are taken from outside src/: nothing in the program is changed.
#include <cmath>
#include <memory>
#include <optional>

#include "cond/wang.hpp"
#include "dynamic/dynamic_state.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/boundary.hpp"
#include "info/safety_level.hpp"
#include "route/query.hpp"
#include "serve/builder.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace meshroute;

/// Fixed replay sizes, so the replay's counts repeat exactly per seed.
constexpr std::size_t kReadPairs = 2000;
constexpr std::size_t kTinyReadPairs = 100;

/// Self times this far below zero are timer noise, not a nesting violation.
constexpr double kNestingToleranceUs = 2.0;

volatile std::uint64_t g_sink = 0;  ///< keeps replayed results observable

template <class F>
double span_us(F&& f) {
  const double t0 = now_us();
  f();
  return now_us() - t0;
}

/// `meshroutectl serve` with default flags: faulty-block model, strategy S4,
/// segment 1, no pivots, default ladder and resilience settings.
serve::ServeConfig serve_config() {
  serve::ServeConfig cfg;
  cfg.strategy_cfg.segment_size = 1;
  return cfg;
}

/// One full serving stack: builder, server, session.
struct Stack {
  serve::SnapshotBuilder builder;
  serve::QueryServer server;
  serve::QueryServer::Session session;

  Stack(const Mesh2D& mesh, const fault::FaultSet& faults)
      : builder(mesh, faults.faults()), server(builder, serve_config()), session(server) {}

  std::string line(const std::string& text) {
    bool quit = false;
    return serve::handle_line(session, text, quit);
  }
};

/// Untraced reference pass: the whole stream through handle_line on a fresh
/// stack; returns its wall time.
double untraced_wall_us(const Mesh2D& mesh, const fault::FaultSet& faults,
                        const std::vector<std::string>& lines) {
  Stack stack(mesh, faults);
  const double t0 = now_us();
  for (const auto& l : lines) g_sink = g_sink + stack.line(l).size();
  return now_us() - t0;
}

/// Read-side spans of a DECIDE or ROUTE request, accumulated over the replay.
struct ReadTrace {
  std::vector<double> decide_line, route_line, cond_decide, walk;
  double protocol_self = 0, guard = 0, server_self = 0;
  std::size_t reads = 0;
  double believed = 0, completion = 0, completion_calls = 0, hops = 0;
  std::size_t routes = 0, delivered = 0;
  std::size_t rung[3] = {0, 0, 0};
  std::size_t decision[3] = {0, 0, 0};
  double top_level_us = 0;  ///< summed handle_line spans (overhead ratio)

  std::vector<Rect> believed_buf;
  std::vector<Coord> candidates;       ///< completion checks, hop after hop
  std::vector<std::size_t> hop_end;    ///< end of each hop's candidates
  std::vector<cond::Decision> dout;
  std::vector<route::RouteAnswer> rout;

  void decide(Stack& st, const route::QueryView& view, const Request& rq) {
    const serve::ServeConfig& cfg = st.server.config();
    const route::QuerySpec spec{rq.a, rq.b};
    const std::string text = request_line(rq);
    const double tl = span_us([&] { g_sink = g_sink + st.line(text).size(); });
    const double tg = span_us([&] { st.session.decide_batch_guarded({&spec, 1}, dout); });
    const double tp = span_us([&] { st.session.decide_batch({&spec, 1}, dout); });
    cond::Decision dec{};
    const double tc = span_us([&] {
      dec = route::decide_strategy(view, rq.a, rq.b, cfg.model, cfg.strategy, cfg.pivots,
                                   cfg.strategy_cfg);
    });
    decide_line.push_back(tl);
    cond_decide.push_back(tc);
    protocol_self += tl - tg;
    guard += tg - tp;
    server_self += tp - tc;
    top_level_us += tl;
    ++reads;
    ++decision[static_cast<int>(dec)];
  }

  void route(Stack& st, const serve::RoutingSnapshot& snap, const Request& rq) {
    const serve::ServeConfig& cfg = st.server.config();
    const route::QueryView view = snap.query_view();
    const route::QuerySpec spec{rq.a, rq.b};
    const std::string text = request_line(rq);
    const double tl = span_us([&] { g_sink = g_sink + st.line(text).size(); });
    const double tg = span_us([&] { st.session.route_batch_guarded({&spec, 1}, rout); });
    const double tp = span_us([&] { st.session.route_batch({&spec, 1}, rout); });
    const double tw = span_us([&] { route::route_batch(view, {&spec, 1}, cfg.ladder, rout); });
    const route::RouteAnswer ans = rout.front();

    // The walk's path, then the per-hop work the ladder did along it: the
    // believed-block lookup at every node it decided at, and the
    // monotone-completion checks of the rung-0 candidates there (of every
    // usable neighbour where the walk took a non-reducing hop). Like the
    // ladder, one believed buffer is reused hop after hop; the completion
    // time is the lookup+check pass minus the lookup-only pass.
    const route::LadderResult lr = route::route_ladder(view, rq.a, rq.b, cfg.ladder);
    const auto& path = lr.path.hops;
    // Nodes the ladder decided at: all but the destination of a delivered
    // walk, all of a failed one, none when an endpoint was blocked.
    const std::size_t m = lr.status == route::RouteStatus::SourceBlocked || path.empty()
                              ? 0
                              : path.size() - (lr.delivered() ? 1 : 0);
    const Coord d = rq.b;
    const auto usable = [&](Coord v) { return snap.mesh().in_bounds(v) && !snap.truly_bad(v, 0); };
    candidates.clear();
    hop_end.clear();
    for (std::size_t i = 0; i < m; ++i) {
      const Coord cur = path[i];
      const std::size_t first = candidates.size();
      if (d.x != cur.x) {
        const Coord v{cur.x + (d.x > cur.x ? 1 : -1), cur.y};
        if (usable(v)) candidates.push_back(v);
      }
      if (d.y != cur.y) {
        const Coord v{cur.x, cur.y + (d.y > cur.y ? 1 : -1)};
        if (usable(v)) candidates.push_back(v);
      }
      const bool detour = i + 1 >= path.size() || manhattan(path[i + 1], d) >= manhattan(cur, d);
      if (detour) {
        for (const Direction dir : kAllDirections) {
          const Coord v = neighbor(cur, dir);
          bool seen = false;
          for (std::size_t k = first; k < candidates.size(); ++k) seen |= candidates[k] == v;
          if (!seen && usable(v)) candidates.push_back(v);
        }
      }
      hop_end.push_back(candidates.size());
    }
    const double tb = span_us([&] {
      for (std::size_t i = 0; i < m; ++i) snap.believed_blocks(path[i], 0, believed_buf);
    });
    std::uint64_t yes = 0;
    const double tbc = span_us([&] {
      for (std::size_t i = 0, k = 0; i < m; ++i) {
        snap.believed_blocks(path[i], 0, believed_buf);
        for (; k < hop_end[i]; ++k) {
          yes += cond::monotone_path_exists_rects(believed_buf, candidates[k], d) ? 1 : 0;
        }
      }
    });
    const double tc = tbc - tb;
    g_sink = g_sink + yes;

    route_line.push_back(tl);
    walk.push_back(tw);
    protocol_self += tl - tg;
    guard += tg - tp;
    server_self += tp - tw;
    top_level_us += tl;
    ++reads;
    believed += tb;
    completion += tc;
    completion_calls += static_cast<double>(candidates.size());
    hops += ans.stats.hops;
    ++routes;
    ++rung[static_cast<int>(ans.rung)];
    if (ans.status == route::RouteStatus::Delivered) ++delivered;
  }

  /// Per-layer metrics of the read side (zeros for kinds never replayed).
  void report(Report& rep, double client_decide_p50_us) {
    const auto per = [](double total, std::size_t n) {
      return n ? total / static_cast<double>(n) : 0.0;
    };
    const double decide_line_p50 = percentile(decide_line, 0.5);
    rep.set("protocol.decide_line_us", decide_line_p50, "us");
    rep.set("protocol.route_line_us", percentile(route_line, 0.5), "us");
    rep.set("protocol.wire_us", client_decide_p50_us - decide_line_p50, "us");
    rep.set("protocol.self_us", per(protocol_self, reads), "us");
    rep.set("server.guard_us", per(guard, reads), "us");
    rep.set("server.self_us", per(server_self, reads), "us");
    rep.set("cond.decide_us", percentile(cond_decide, 0.5), "us");
    const double walk_mean = mean(walk);
    rep.set("route.walk_p50_us", percentile(walk, 0.5), "us");
    rep.set("route.walk_p99_us", percentile(walk, 0.99), "us");
    rep.set("route.walk_mean_us", walk_mean, "us");
    rep.set("route.hops_per_query", per(hops, routes), "count");
    rep.set("route.walk_ns_per_hop",
            hops > 0 ? walk_mean * static_cast<double>(routes) * 1e3 / hops : 0, "ns");
    rep.set("info.believed_us_per_query", per(believed, routes), "us");
    rep.set("cond.completion_calls_per_query", per(completion_calls, routes), "count");
    rep.set("cond.completion_us_per_query", per(completion, routes), "us");
    rep.set("route.self_us",
            routes ? walk_mean - per(believed, routes) - per(completion, routes) : 0, "us");
    rep.set("route.rung.minimal", static_cast<double>(rung[0]), "count");
    rep.set("route.rung.spare_detour", static_cast<double>(rung[1]), "count");
    rep.set("route.rung.bounded_misroute", static_cast<double>(rung[2]), "count");
    rep.set("route.delivered_ratio", per(static_cast<double>(delivered), routes), "ratio");
    rep.set("cond.decide.minimal", static_cast<double>(decision[0]), "count");
    rep.set("cond.decide.sub_minimal", static_cast<double>(decision[1]), "count");
    rep.set("cond.decide.unknown", static_cast<double>(decision[2]), "count");
  }
};

/// Inclusive times must nest: a self time may come out negative only by
/// replica noise — at most 2 us or 10% of its parent's inclusive time. (The
/// route children are replayed after the walk, on the same hot data, and
/// come out a few percent slower than inside it.)
/// Counts (and names, in the notes) the self times beyond that.
void nesting_check(Report& rep, const std::vector<std::pair<std::string, std::string>>& pairs) {
  int violations = 0;
  for (const auto& [self, parent] : pairs) {
    const double v = rep.metrics.at(self).value;
    const double tolerance = std::max(kNestingToleranceUs, 0.10 * rep.metrics.at(parent).value);
    if (v < -tolerance) {
      ++violations;
      rep.info["nesting." + self] = std::to_string(v) + " us";
    }
  }
  rep.set("trace.nesting_violations", violations, "count");
}

}  // namespace

void serve_read_replay(const Options& opt, Report& rep) {
  const ServeShape shape = ServeShape::make(opt.tiny);
  const Mesh2D mesh(shape.n, shape.n);
  const fault::FaultSet faults = seed_world(shape, opt.seed);
  // The same stream the TCP run opens with (its first kReadPairs pairs).
  const std::vector<Request> reqs = read_stream(stream_seed(opt.seed, 1), faults,
                                                opt.tiny ? kTinyReadPairs : kReadPairs,
                                                shape.read_rate);
  std::vector<std::string> lines;
  for (const auto& r : reqs) lines.push_back(request_line(r));
  const double untraced = untraced_wall_us(mesh, faults, lines);

  Stack st(mesh, faults);
  serve::SnapshotStore::Reader reader(st.builder.store());
  const serve::SnapshotStore::Ref ref = reader.acquire();
  ReadTrace tr;
  for (const Request& rq : reqs) {
    if (rq.kind == Request::Decide) {
      tr.decide(st, ref->query_view(), rq);
    } else {
      tr.route(st, *ref, rq);
    }
  }
  rep.attempted += reqs.size();
  tr.report(rep, rep.metrics.count("decide_p50_us") ? rep.metrics["decide_p50_us"].value : 0);
  rep.set("trace.overhead_ratio", tr.top_level_us / untraced, "ratio");
  rep.set("trace.unattributed_ratio",
          tr.routes ? rep.metrics["route.self_us"].value / rep.metrics["route.walk_mean_us"].value
                    : 0,
          "ratio");
  nesting_check(rep, {{"protocol.self_us", "protocol.route_line_us"},
                      {"server.self_us", "protocol.route_line_us"},
                      {"route.self_us", "route.walk_mean_us"}});
}

void serve_churn_replay(const Options& opt, Report& rep) {
  const ServeShape shape = ServeShape::make(opt.tiny);
  const Mesh2D mesh(shape.n, shape.n);
  const fault::FaultSet faults = seed_world(shape, opt.seed);
  // The same stream as the TCP run's first server life.
  const std::vector<Request> reqs =
      churn_stream(stream_seed(opt.seed, 100), faults, shape.injects_per_life,
                   shape.inject_rate, shape.churn_read_rate);
  std::vector<std::string> lines;
  for (const auto& r : reqs) lines.push_back(request_line(r));
  const double untraced = untraced_wall_us(mesh, faults, lines);

  // Replicas, one per layer of the write chain.
  Stack a(mesh, faults);                              // handle_line
  serve::SnapshotBuilder builder_b(mesh, faults.faults());
  serve::QueryServer server_b(builder_b, serve_config());  // inject_and_publish
  serve::SnapshotBuilder builder_c(mesh, faults.faults());  // inject / publish
  dynamic::DynamicMeshState state_d(mesh);            // inject_fault + snapshot build
  for (const Coord c : faults.faults()) state_d.inject_fault(c);
  serve::SnapshotScratch scratch_d;
  serve::SnapshotStore store_d(
      std::make_unique<const serve::RoutingSnapshot>(state_d, 0, scratch_d));
  fault::MccScratch mcc_scratch1, mcc_scratch2;
  fault::MccSet mcc1, mcc2;
  info::SafetyGrid safety1, safety2;

  serve::SnapshotStore::Reader reader(a.builder.store());
  ReadTrace tr;
  std::vector<double> inject_line;
  double server_inject = 0, builder_calls = 0, dyn = 0, relabeled = 0, build = 0;
  double boundary = 0, deposits = 0, mcc = 0, safety = 0, store = 0, blocks = 0;
  double protocol_inject_self = 0;
  std::size_t injects = 0;
  std::uint64_t epoch = 0;
  for (const Request& rq : reqs) {
    if (rq.kind != Request::Inject) {
      const serve::SnapshotStore::Ref ref = reader.acquire();
      if (rq.kind == Request::Decide) {
        tr.decide(a, ref->query_view(), rq);
      } else {
        tr.route(a, *ref, rq);
      }
      continue;
    }
    const Coord c = rq.a;
    const std::string text = request_line(rq);
    const double tl = span_us([&] { g_sink = g_sink + a.line(text).size(); });
    const double tb = span_us([&] { g_sink = g_sink + server_b.inject_and_publish(c).epoch; });
    const double tci = span_us([&] { g_sink = g_sink + builder_c.inject(c); });
    const double tcp = span_us([&] { g_sink = g_sink + builder_c.publish(); });
    const double tdi = span_us([&] { state_d.inject_fault(c); });
    relabeled += static_cast<double>(state_d.last_changed().size());
    ++epoch;
    std::unique_ptr<const serve::RoutingSnapshot> snap;
    const double tdb = span_us([&] {
      snap = std::make_unique<const serve::RoutingSnapshot>(state_d, epoch, scratch_d);
    });
    // The constructor's children, replayed on the snapshot it just built.
    // Built into a slot outside the span: inside the constructor the map
    // moves into the snapshot, and its destruction is the store's cost.
    std::optional<info::BoundaryInfoMap> map;
    const double tbd = span_us([&] { map.emplace(mesh, snap->blocks()); });
    const std::size_t dep = map->deposited_entries();
    map.reset();
    const double tm = span_us([&] {
      fault::build_mcc(mesh, snap->faults(), fault::MccKind::TypeOne, mcc1, mcc_scratch1);
      fault::build_mcc(mesh, snap->faults(), fault::MccKind::TypeTwo, mcc2, mcc_scratch2);
    });
    const double ts = span_us([&] {
      info::compute_safety_levels(mesh, mcc_scratch1.labeled_plane, safety1);
      info::compute_safety_levels(mesh, mcc_scratch2.labeled_plane, safety2);
    });
    blocks += static_cast<double>(snap->blocks().blocks().size());
    const double tsp = span_us([&] { store_d.publish(std::move(snap)); });

    inject_line.push_back(tl);
    tr.top_level_us += tl;
    protocol_inject_self += tl - tb;
    server_inject += tb - (tci + tcp);
    builder_calls += (tci + tcp) - (tdi + tdb + tsp);
    dyn += tdi;
    build += tdb;
    boundary += tbd;
    deposits += static_cast<double>(dep);
    mcc += tm;
    safety += ts;
    store += tsp;
    ++injects;
  }
  rep.attempted += reqs.size();
  tr.report(rep, rep.metrics.count("decide_p50_us") ? rep.metrics["decide_p50_us"].value : 0);
  const double n = static_cast<double>(std::max<std::size_t>(injects, 1));
  rep.set("protocol.inject_line_us", percentile(inject_line, 0.5), "us");
  rep.set("protocol.inject_self_us", protocol_inject_self / n, "us");
  rep.set("server.inject_self_us", server_inject / n, "us");
  rep.set("builder.self_us", builder_calls / n, "us");
  rep.set("dynamic.inject_us", dyn / n, "us");
  rep.set("dynamic.relabeled_nodes", relabeled / n, "count");
  rep.set("snapshot.build_us", build / n, "us");
  rep.set("info.boundary_us", boundary / n, "us");
  rep.set("info.boundary_deposits", deposits / n, "count");
  rep.set("info.boundary_ns_per_deposit", deposits > 0 ? boundary * 1e3 / deposits : 0, "ns");
  rep.set("fault.mcc_us", mcc / n, "us");
  rep.set("info.safety_us", safety / n, "us");
  rep.set("snapshot.self_us", (build - boundary - mcc - safety) / n, "us");
  rep.set("store.publish_us", store / n, "us");
  rep.set("fault.blocks", blocks / n, "count");
  rep.set("trace.overhead_ratio", tr.top_level_us / untraced, "ratio");
  rep.set("trace.unattributed_ratio", build > 0 ? (build - boundary - mcc - safety) / build : 0,
          "ratio");
  nesting_check(rep, {{"protocol.self_us", "protocol.route_line_us"},
                      {"server.self_us", "protocol.route_line_us"},
                      {"route.self_us", "route.walk_mean_us"},
                      {"protocol.inject_self_us", "protocol.inject_line_us"},
                      {"server.inject_self_us", "protocol.inject_line_us"},
                      {"builder.self_us", "protocol.inject_line_us"},
                      {"snapshot.self_us", "snapshot.build_us"}});
}

}  // namespace perfbench
