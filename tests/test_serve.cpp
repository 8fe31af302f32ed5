// The serve layer: snapshot equivalence (delta-fed vs from-scratch),
// batch-vs-single bit-identity, RCU store retirement, the line protocol,
// and the headline concurrency property — N reader threads batch-querying
// across epoch swaps, every answer consistent with some published epoch.
// Run this file under the tsan preset to verify the store's publication
// protocol (readers never lock; see src/serve/store.hpp).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_schedule.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "dynamic/dynamic_state.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/query.hpp"
#include "serve/builder.hpp"
#include "serve/obs_http.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "safety_oracle.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace meshroute {
namespace {

std::vector<route::QuerySpec> fixed_specs(const Mesh2D& mesh, std::size_t n,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<route::QuerySpec> specs(n);
  for (route::QuerySpec& s : specs) {
    s.src = {static_cast<Dist>(rng.uniform(0, mesh.width() - 1)),
             static_cast<Dist>(rng.uniform(0, mesh.height() - 1))};
    s.dst = {static_cast<Dist>(rng.uniform(0, mesh.width() - 1)),
             static_cast<Dist>(rng.uniform(0, mesh.height() - 1))};
  }
  return specs;
}

/// The obstacle sets a view's three safety grids hold are, at every node,
/// the block nodes of the from-scratch snapshot `ref` and the type-one and
/// type-two MCC nodes built from its fault set.
::testing::AssertionResult obstacles_are_models(const route::QueryView& v,
                                                const serve::RoutingSnapshot& ref) {
  const Mesh2D& mesh = ref.mesh();
  const auto mcc_mask = [&](fault::MccKind kind) {
    return info::obstacle_mask(mesh, fault::build_mcc(mesh, ref.faults(), kind));
  };
  for (const auto& [name, got, want] :
       {std::tuple{"faulty-block", v.fb_safety, info::obstacle_mask(mesh, ref.blocks())},
        std::tuple{"type-one MCC", v.mcc1_safety, mcc_mask(fault::MccKind::TypeOne)},
        std::tuple{"type-two MCC", v.mcc2_safety, mcc_mask(fault::MccKind::TypeTwo)}}) {
    const ::testing::AssertionResult same = testing_support::ObstaclesMatchMask(*got, want);
    if (!same) return ::testing::AssertionFailure() << name << ": " << same.message();
  }
  return ::testing::AssertionSuccess();
}

/// Block rects as a sorted list — the two construction paths may discover
/// blocks in different orders.
std::vector<Rect> sorted_rects(const fault::BlockSet& blocks) {
  std::vector<Rect> rects;
  for (const fault::FaultyBlock& b : blocks.blocks()) rects.push_back(b.rect);
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    return a.ymin != b.ymin ? a.ymin < b.ymin : a.xmin < b.xmin;
  });
  return rects;
}

// ---- Snapshot equivalence: delta-fed vs from-scratch ----------------------

TEST(RoutingSnapshot, DeltaFedEqualsFromScratch) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(7);
  const fault::FaultSet initial = fault::uniform_random_faults(mesh, 30, rng);

  serve::SnapshotBuilder builder(mesh, initial.faults());
  for (int i = 0; i < 12; ++i) {
    builder.inject({static_cast<Dist>(rng.uniform(0, 31)),
                    static_cast<Dist>(rng.uniform(0, 31))});
    builder.publish();
  }

  // The same final fault set, built from scratch with the bit-plane kernels.
  fault::FaultSet final_faults(mesh);
  for (const Coord c : builder.state().faults().faults()) final_faults.add(c);
  serve::SnapshotScratch scratch;
  const serve::RoutingSnapshot reference(mesh, final_faults, /*epoch=*/99, scratch);

  serve::SnapshotStore::Reader reader(builder.store());
  const serve::SnapshotStore::Ref snap = reader.acquire();
  EXPECT_EQ(snap->epoch(), 12u);

  EXPECT_EQ(sorted_rects(snap->blocks()), sorted_rects(reference.blocks()));
  EXPECT_TRUE(snap->blocks() == reference.blocks());
  EXPECT_TRUE(snap->boundary() == reference.boundary());

  const route::QueryView live = snap->query_view();
  const route::QueryView ref = reference.query_view();
  EXPECT_EQ(*live.faulty_mask, *ref.faulty_mask);
  EXPECT_TRUE(obstacles_are_models(live, reference));
  EXPECT_TRUE(obstacles_are_models(ref, reference));
  EXPECT_EQ(*live.fb_safety, *ref.fb_safety);
  EXPECT_EQ(*live.mcc1_safety, *ref.mcc1_safety);
  EXPECT_EQ(*live.mcc2_safety, *ref.mcc2_safety);

  core::BitGrid reach_live;
  core::BitGrid reach_ref;
  const Coord src{1, 1};
  route::minimal_reachability(live, src, reach_live);
  route::minimal_reachability(ref, src, reach_ref);
  EXPECT_EQ(reach_live, reach_ref);
}

// ---- Every published epoch matches its from-scratch world -----------------

TEST(SnapshotBuilder, EveryEpochMatchesFromScratch) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(20260809);
  const fault::FaultSet initial = fault::uniform_random_faults(mesh, 24, rng);

  // A chaos schedule of 12 epochs: random sites plus the degenerate cases —
  // a repeated site and a node faulty since epoch 0 (an injection that
  // changes nothing still publishes its own epoch).
  std::vector<Coord> sites;
  for (int i = 0; i < 10; ++i) {
    sites.push_back({static_cast<Dist>(rng.uniform(0, 31)),
                     static_cast<Dist>(rng.uniform(0, 31))});
  }
  sites.push_back(sites[3]);
  sites.push_back(initial.faults().front());
  ASSERT_GE(sites.size(), 8u);

  // One delta-fed publish per site; each published snapshot must match the
  // from-scratch build of that epoch's fault world in every plane a query
  // can observe.
  serve::SnapshotBuilder builder(mesh, initial.faults());
  serve::SnapshotStore::Reader reader(builder.store());
  serve::SnapshotScratch scratch;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    builder.inject(sites[i]);
    const std::uint64_t epoch = builder.publish();
    EXPECT_EQ(epoch, i + 1);
    const serve::SnapshotStore::Ref snap = reader.acquire();
    const serve::RoutingSnapshot ref(mesh, builder.state().faults(), epoch, scratch);
    EXPECT_EQ(snap->epoch(), epoch);
    EXPECT_EQ(sorted_rects(snap->blocks()), sorted_rects(ref.blocks()));
    EXPECT_TRUE(snap->blocks() == ref.blocks()) << "epoch " << epoch;
    EXPECT_TRUE(snap->boundary() == ref.boundary()) << "epoch " << epoch;
    const route::QueryView a = snap->query_view();
    const route::QueryView b = ref.query_view();
    EXPECT_EQ(*a.faulty_mask, *b.faulty_mask) << "epoch " << epoch;
    EXPECT_TRUE(obstacles_are_models(a, ref)) << "epoch " << epoch;
    EXPECT_TRUE(obstacles_are_models(b, ref)) << "epoch " << epoch;
    EXPECT_EQ(*a.fb_safety, *b.fb_safety) << "epoch " << epoch;
    EXPECT_EQ(*a.mcc1_safety, *b.mcc1_safety) << "epoch " << epoch;
    EXPECT_EQ(*a.mcc2_safety, *b.mcc2_safety) << "epoch " << epoch;
    core::BitGrid reach_live;
    core::BitGrid reach_ref;
    route::minimal_reachability(a, {1, 1}, reach_live);
    route::minimal_reachability(b, {1, 1}, reach_ref);
    EXPECT_EQ(reach_live, reach_ref) << "epoch " << epoch;
  }
  EXPECT_EQ(builder.world_epoch(), sites.size());
  EXPECT_EQ(builder.stats().published, sites.size());
  EXPECT_EQ(builder.stats().pending_injections, 0u);
}

// ---- Batch answers are bit-identical to single queries --------------------

TEST(QueryServerSession, BatchMatchesSingleQueries) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(11);
  const fault::FaultSet faults = fault::uniform_random_faults(mesh, 24, rng);
  serve::SnapshotBuilder builder(mesh, faults.faults());
  serve::QueryServer server(builder);
  const std::vector<route::QuerySpec> specs = fixed_specs(mesh, 64, 5);

  serve::QueryServer::Session session(server);
  std::vector<cond::Decision> batch_decisions;
  session.decide_batch(specs, batch_decisions);
  std::vector<route::RouteAnswer> batch_routes;
  session.route_batch(specs, batch_routes);

  ASSERT_EQ(batch_decisions.size(), specs.size());
  ASSERT_EQ(batch_routes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(batch_decisions[i], session.decide(specs[i])) << "spec " << i;
    const route::RouteAnswer single = session.route(specs[i]);
    EXPECT_EQ(batch_routes[i].status, single.status) << "spec " << i;
    EXPECT_EQ(batch_routes[i].rung, single.rung) << "spec " << i;
    EXPECT_EQ(batch_routes[i].stats, single.stats) << "spec " << i;
  }
}

// ---- Store retirement -----------------------------------------------------

TEST(SnapshotStore, RetiresUntilReadersRelease) {
  const Mesh2D mesh = Mesh2D::square(16);
  serve::SnapshotBuilder builder(mesh);
  serve::SnapshotStore& store = builder.store();
  EXPECT_EQ(store.current_epoch(), 0u);
  EXPECT_EQ(store.registered_readers(), 0u);

  serve::SnapshotStore::Reader reader(builder.store());
  EXPECT_EQ(store.registered_readers(), 1u);
  {
    const serve::SnapshotStore::Ref held = reader.acquire();
    EXPECT_EQ(held->epoch(), 0u);
    builder.inject({3, 3});
    builder.publish();
    builder.inject({9, 9});
    builder.publish();
    EXPECT_EQ(store.current_epoch(), 2u);
    // Epoch 0 is pinned by `held`; epoch 1 may already be collected.
    EXPECT_GE(store.retired_count(), 1u);
    // A fresh acquire sees the newest epoch while the old Ref stays valid.
    serve::SnapshotStore::Reader other(builder.store());
    EXPECT_EQ(other.acquire()->epoch(), 2u);
    EXPECT_EQ(held->epoch(), 0u);
  }
  // All Refs released: the next publish sweeps the whole history.
  builder.inject({12, 5});
  builder.publish();
  EXPECT_EQ(store.current_epoch(), 3u);
  EXPECT_EQ(store.retired_count(), 0u);
}

// Reclamation under reader churn: readers register, acquire, release, and
// deregister continuously while the writer publishes epochs. The sanitize
// preset (ASan/UBSan) is the real assertion here — a snapshot freed while an
// announced epoch could still reference it is a use-after-free — and at the
// end, with every Ref dropped, one more publish must sweep the history to
// empty (no retired snapshot leaks past its last reader). The writer starts
// only once every churner holds its first Ref, so publishes always overlap
// live readers however the threads get scheduled.
TEST(SnapshotStore, ReclaimsEpochsUnderReaderChurn) {
  const Mesh2D mesh = Mesh2D::square(16);
  serve::SnapshotBuilder builder(mesh);
  serve::SnapshotStore& store = builder.store();

  constexpr int kChurners = 4;
  constexpr int kEpochs = 60;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<int> started{0};
  std::vector<std::thread> churners;
  churners.reserve(kChurners);
  for (int t = 0; t < kChurners; ++t) {
    churners.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 77);
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        // A short-lived Reader: registration churn, not just Ref churn.
        serve::SnapshotStore::Reader reader(store);
        for (int i = 0; i < 8; ++i) {
          const serve::SnapshotStore::Ref ref = reader.acquire();
          if (first) {
            first = false;
            started.fetch_add(1, std::memory_order_release);
          }
          // Touch the snapshot so a premature free is an ASan hit, and
          // hold some Refs across a few publishes.
          ASSERT_LE(ref->epoch(), store.current_epoch());
          ASSERT_EQ(ref->mesh().width(), 16);
          acquires.fetch_add(1, std::memory_order_relaxed);
          if (rng.uniform(0, 3) == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      }
    });
  }

  while (started.load(std::memory_order_acquire) < kChurners) std::this_thread::yield();
  for (int e = 0; e < kEpochs; ++e) {
    builder.inject({static_cast<Dist>(e % 16), static_cast<Dist>((e / 16) % 16)});
    builder.publish();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : churners) th.join();

  EXPECT_EQ(store.current_epoch(), static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(store.registered_readers(), 0u);
  EXPECT_GT(acquires.load(), 0u);
  // Quiescent sweep: nothing pins history anymore.
  builder.inject({15, 15});
  builder.publish();
  EXPECT_EQ(store.retired_count(), 0u);
}

// ---- Line protocol --------------------------------------------------------

TEST(ServeProtocol, HandlesEveryCommandClass) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(3);
  const fault::FaultSet faults = fault::uniform_random_faults(mesh, 20, rng);
  serve::SnapshotBuilder builder(mesh, faults.faults());
  serve::QueryServer server(builder);
  serve::QueryServer::Session session(server);

  bool quit = false;
  EXPECT_EQ(serve::handle_line(session, "", quit), "");
  EXPECT_EQ(serve::handle_line(session, "# comment", quit), "");
  EXPECT_EQ(serve::handle_line(session, "EPOCH", quit), "OK EPOCH 0");
  EXPECT_TRUE(serve::handle_line(session, "DECIDE 2 2 20 21", quit)
                  .starts_with("OK DECIDE "));
  EXPECT_TRUE(serve::handle_line(session, "ROUTE 2 2 20 21\r", quit)
                  .starts_with("OK ROUTE "));
  EXPECT_TRUE(serve::handle_line(session, "INJECT 10 10", quit)
                  .starts_with("OK INJECT epoch=1 changed="));
  EXPECT_EQ(serve::handle_line(session, "EPOCH", quit), "OK EPOCH 1");
  EXPECT_TRUE(serve::handle_line(session, "DECIDE 2 2", quit).starts_with("ERR DECIDE:"));
  EXPECT_TRUE(serve::handle_line(session, "DECIDE 2 2 99 99", quit)
                  .starts_with("ERR DECIDE: coordinate outside"));
  EXPECT_TRUE(serve::handle_line(session, "WAT", quit).starts_with("ERR unknown command"));
  EXPECT_FALSE(quit);
  EXPECT_EQ(serve::handle_line(session, "QUIT", quit), "OK BYE");
  EXPECT_TRUE(quit);
}

TEST(ServeProtocol, StatsJsonRoundTrips) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(3);
  const fault::FaultSet faults = fault::uniform_random_faults(mesh, 20, rng);
  serve::SnapshotBuilder builder(mesh, faults.faults());
  serve::QueryServer server(builder);
  serve::QueryServer::Session session(server);

  bool quit = false;
  (void)serve::handle_line(session, "INJECT 5 5", quit);
  const std::string reply = serve::handle_line(session, "STATS", quit);
  ASSERT_TRUE(reply.starts_with("OK STATS "));
  const json::Value doc = json::parse(std::string_view(reply).substr(9));
  EXPECT_EQ(doc.at("epoch").as_number(), 1.0);
  EXPECT_EQ(doc.at("width").as_number(), 24.0);
  EXPECT_EQ(doc.at("height").as_number(), 24.0);
  EXPECT_EQ(doc.at("published").as_number(), 1.0);
  EXPECT_GE(doc.at("faults").as_number(), 20.0);
  EXPECT_TRUE(doc.has("readers"));
  EXPECT_TRUE(doc.has("strategy"));
  // Windowed fields (DESIGN §14). STATS must NOT close a window — repeated
  // STATS stay byte-stable when nothing else runs.
  EXPECT_TRUE(doc.has("window_ticks"));
  EXPECT_TRUE(doc.has("window_queries"));
  EXPECT_TRUE(doc.has("window_query_p99_us"));
  EXPECT_EQ(serve::handle_line(session, "STATS", quit), reply);
}

// ---- Live observability: METRICS, spans, flight recorder ------------------

TEST(ServeProtocol, MetricsScrapeIsPrometheusTextAndClosesWindows) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(3);
  const fault::FaultSet faults = fault::uniform_random_faults(mesh, 20, rng);
  serve::SnapshotBuilder builder(mesh, faults.faults());
  serve::QueryServer server(builder);
  serve::QueryServer::Session session(server);

  bool quit = false;
  EXPECT_TRUE(serve::handle_line(session, "METRICS now", quit).starts_with("ERR"));
  (void)serve::handle_line(session, "ROUTE 2 2 20 21", quit);
  const std::uint64_t ticks_before = server.windows().ticks();
  const std::string reply = serve::handle_line(session, "METRICS", quit);
  ASSERT_TRUE(reply.starts_with("OK METRICS\n"));
  EXPECT_NE(reply.find("# TYPE meshroute_serve_queries_total counter"),
            std::string::npos);
  EXPECT_NE(reply.find("# TYPE meshroute_serve_query_us histogram"),
            std::string::npos);
  EXPECT_NE(reply.find("meshroute_serve_window_queries_per_s"), std::string::npos);
  EXPECT_NE(reply.find("meshroute_serve_epoch "), std::string::npos);
  EXPECT_TRUE(reply.ends_with("# EOF"));  // run_session appends the newline
  // Every scrape is a window boundary.
  EXPECT_EQ(server.windows().ticks(), ticks_before + 1);
  (void)serve::handle_line(session, "METRICS", quit);
  EXPECT_EQ(server.windows().ticks(), ticks_before + 2);
}

TEST(QueryServer, GuardedBatchesEmitPairedSpansIntoFlightRecorder) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(3);
  const fault::FaultSet faults = fault::uniform_random_faults(mesh, 20, rng);
  serve::SnapshotBuilder builder(mesh, faults.faults());
  serve::ServeConfig cfg;
  cfg.slow_query_us = 1;  // a 128-query batch always clears this bound
  serve::QueryServer server(builder, std::move(cfg));
  serve::QueryServer::Session session(server);

  const std::vector<route::QuerySpec> specs = fixed_specs(mesh, 128, 11);
  std::vector<route::RouteAnswer> answers;
  ASSERT_TRUE(session.route_batch_guarded(specs, answers).admitted);

  // One span chain: admission/acquire/work/reply, each begin paired with an
  // end on the same (track, stage); all on the same span ordinal.
  const std::vector<obs::TraceEvent> events = server.recorder().events();
  std::map<std::pair<std::uint64_t, std::int64_t>, int> open;
  int begins = 0;
  int ends = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::EventKind::SpanBegin) {
      ++begins;
      ++open[{e.track, e.a}];
    }
    if (e.kind == obs::EventKind::SpanEnd) {
      ++ends;
      --open[{e.track, e.a}];
    }
  }
  EXPECT_EQ(begins, 4);
  EXPECT_EQ(ends, 4);
  for (const auto& [key, balance] : open) {
    EXPECT_EQ(balance, 0) << "track=" << key.first << " stage=" << key.second;
  }
  // The slow-query bound retained the whole chain as an exemplar.
  ASSERT_EQ(server.recorder().exemplars().size(), 1u);
  EXPECT_EQ(server.recorder().exemplars()[0].size(), 8u);
}

TEST(QueryServer, InjectAndPublishRecordsEpochTransitions) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(3);
  const fault::FaultSet faults = fault::uniform_random_faults(mesh, 20, rng);
  serve::SnapshotBuilder builder(mesh, faults.faults());
  serve::QueryServer server(builder);

  const serve::QueryServer::InjectResult r = server.inject_and_publish({10, 10});
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_FALSE(r.watchdog);  // no chaos: the publish went through cleanly

  bool saw_publish = false;
  for (const obs::TraceEvent& e : server.recorder().events()) {
    if (e.kind == obs::EventKind::EpochPublish) {
      saw_publish = true;
      EXPECT_EQ(e.a, 1);
      EXPECT_EQ(e.at, (Coord{10, 10}));
    }
    EXPECT_NE(e.kind, obs::EventKind::WatchdogTrip);
  }
  EXPECT_TRUE(saw_publish);
}

TEST(QueryServer, FlightDumpWritesSchemaValidPostmortem) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(3);
  const fault::FaultSet faults = fault::uniform_random_faults(mesh, 20, rng);
  serve::SnapshotBuilder builder(mesh, faults.faults());
  serve::QueryServer server(builder);
  serve::QueryServer::Session session(server);

  bool quit = false;
  (void)serve::handle_line(session, "ROUTE 2 2 20 21", quit);
  (void)server.inject_and_publish({10, 10});

  EXPECT_FALSE(server.dump_flight("unit"));  // no --postmortem path armed
  const std::string path = "flight_unit_test.json";
  server.set_flight_dump(path);
  EXPECT_EQ(server.flight_dump_path(), path);
  ASSERT_TRUE(server.dump_flight("unit"));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value doc = json::parse(buffer.str());
  const json::Value& flight = doc.at("flight");
  EXPECT_EQ(flight.at("reason").as_string(), "unit");
  const double recorded = flight.at("recorded").as_number();
  const double dropped = flight.at("dropped").as_number();
  EXPECT_EQ(static_cast<double>(flight.at("events").as_array().size()) + dropped,
            recorded);
  EXPECT_GT(recorded, 0.0);
}

#if defined(__unix__) || defined(__APPLE__)
// ---- The --obs-port scrape endpoint over a real loopback socket -----------

TEST(ObsHttp, ServesPrometheusScrapeOnEphemeralPort) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(3);
  const fault::FaultSet faults = fault::uniform_random_faults(mesh, 20, rng);
  serve::SnapshotBuilder builder(mesh, faults.faults());
  serve::QueryServer server(builder);
  {
    serve::QueryServer::Session session(server);
    std::vector<route::RouteAnswer> answers;
    (void)session.route_batch_guarded(fixed_specs(mesh, 8, 5), answers);
  }

  serve::ObsHttpServer http(server, /*port=*/0);  // 0 = kernel-picked
  ASSERT_TRUE(http.ok());
  ASSERT_GT(http.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(http.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, request, sizeof(request) - 1, 0), 0);

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    response.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  http.stop();

  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE meshroute_serve_queries_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("# EOF"), std::string::npos);
}

// ---- The serve_tcp pump over a real loopback socket -----------------------

/// The 24x24 world of seed 3 with 20 faults, fresh on every construction, so
/// a TCP run and a run_session run start from the same state.
struct SeededServer {
  const Mesh2D mesh = Mesh2D::square(24);
  serve::SnapshotBuilder builder;
  serve::QueryServer server{builder};

  SeededServer() : builder(mesh, seed_faults(mesh).faults()) {}

  static fault::FaultSet seed_faults(const Mesh2D& mesh) {
    Rng rng(3);
    return fault::uniform_random_faults(mesh, 20, rng);
  }
};

/// serve_tcp(server, port, connections) on its own thread, on a free port
/// found as perfbench's client finds one (bind port 0, read it back). The
/// destructor opens whatever connections a test did not, so serve_tcp
/// returns and its thread joins even after a failed assertion.
class TcpServeThread {
 public:
  TcpServeThread(serve::QueryServer& server, int connections)
      : port_(free_port()), left_(connections) {
    thread_ = std::thread([this, &server, connections] {
      rc_ = serve::serve_tcp(server, port_, connections);
    });
  }
  TcpServeThread(const TcpServeThread&) = delete;
  TcpServeThread& operator=(const TcpServeThread&) = delete;
  ~TcpServeThread() {
    while (left_ > 0) {
      const int fd = connect();
      if (fd >= 0) ::close(fd);
    }
    join();
  }

  /// A connected client socket (-1 if the listener never came up); retries
  /// while serve_tcp is still binding.
  int connect() {
    --left_;
    for (int attempt = 0; attempt < 500; ++attempt) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port_);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
        const timeval timeout{10, 0};  // a wedged pump fails the test, not ctest
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
        return fd;
      }
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  /// serve_tcp's return value, once all its connections have closed.
  int join() {
    if (thread_.joinable()) thread_.join();
    return rc_;
  }

 private:
  static std::uint16_t free_port() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    std::uint16_t port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
    ::close(fd);
    return port;
  }

  std::uint16_t port_;
  int left_;
  int rc_ = -1;
  std::thread thread_;
};

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t w = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (w <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(w));
  }
  return true;
}

/// Everything the server sends until it closes the connection.
std::string read_to_eof(int fd) {
  std::string got;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;) {
    got.append(buf, static_cast<std::size_t>(n));
  }
  return got;
}

/// One connection: send `script` (in one send, or one byte per send), half-
/// close, and return every reply byte up to the server's close.
std::string tcp_exchange(TcpServeThread& tcp, const std::string& script,
                         bool byte_per_send = false) {
  const int fd = tcp.connect();
  if (fd < 0) return "<no connection>";
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (byte_per_send) {
    for (const char c : script) send_all(fd, {&c, 1});
  } else {
    send_all(fd, script);
  }
  ::shutdown(fd, SHUT_WR);
  std::string replies = read_to_eof(fd);
  ::close(fd);
  return replies;
}

std::string run_session_on_fresh_server(const std::string& script) {
  SeededServer world;
  std::istringstream in(script);
  std::ostringstream out;
  serve::run_session(world.server, in, out);
  return out.str();
}

std::string inject_burst(int count, Dist y) {
  std::string lines;
  for (int x = 0; x < count; ++x) {
    lines += "INJECT " + std::to_string(x % 24) + " " + std::to_string(y + x / 24) + "\n";
  }
  return lines;
}

TEST(ServeTcp, PipelinedScriptMatchesRunSession) {
  const std::string script = inject_burst(5, 4) + "DECIDE 2 2 20 21\nROUTE 2 2 20 21\n" +
                             "\n# a comment between bursts\n" + inject_burst(3, 8) +
                             "EPOCH\nINJECT 1\nINJECT 1 1\nINJECT 99 1\nWAT\n" +
                             "ROUTE 0 0 23 23\r\n   \nINJECT\t3 17\n  INJECT 4 17\n" +
                             "DECIDE 1 1 22 22\nEPOCH\n";
  const std::string want = run_session_on_fresh_server(script);
  ASSERT_EQ(std::count(want.begin(), want.end(), '\n'), 20);
  for (const bool byte_per_send : {false, true}) {
    SCOPED_TRACE(byte_per_send ? "one byte per send" : "one send");
    SeededServer world;
    TcpServeThread tcp(world.server, 1);
    EXPECT_EQ(tcp_exchange(tcp, script, byte_per_send), want);
    EXPECT_EQ(tcp.join(), 0);
  }

  // A burst of 32 INJECTs then a DECIDE and a ROUTE, in one client send of
  // under 4 KB (one server read): the burst shares one send, the DECIDE and
  // the ROUTE go out on their own.
  obs::Counter& replies = obs::Registry::global().counter("serve.tcp.replies");
  obs::Counter& writes = obs::Registry::global().counter("serve.tcp.writes");
  const std::int64_t replies0 = replies.value();
  const std::int64_t writes0 = writes.value();
  const std::string burst = inject_burst(32, 2) + "DECIDE 2 2 20 21\nROUTE 2 2 20 21\n";
  ASSERT_LT(burst.size(), 4096u);
  SeededServer world;
  TcpServeThread tcp(world.server, 1);
  EXPECT_EQ(tcp_exchange(tcp, burst), run_session_on_fresh_server(burst));
  ASSERT_EQ(tcp.join(), 0);  // the counters move on the server thread
  EXPECT_EQ(replies.value() - replies0, 34);
  EXPECT_EQ(writes.value() - writes0, 3);
}

TEST(ServeTcp, TearInsideInjectBurstDeliversEarlierReplies) {
  constexpr int kTear = 5;
  SeededServer world;
  world.server.set_serve_chaos(
      chaos::FaultSchedule::parse("tear=" + std::to_string(kTear)));
  TcpServeThread tcp(world.server, 2);
  const std::string burst = inject_burst(10, 4);
  const std::string want = run_session_on_fresh_server(inject_burst(kTear - 1, 4));
  ASSERT_EQ(std::count(want.begin(), want.end(), '\n'), kTear - 1);
  EXPECT_EQ(tcp_exchange(tcp, burst), want);
  // The torn command ran; only its reply was dropped.
  EXPECT_EQ(tcp_exchange(tcp, "EPOCH\n"), "OK EPOCH " + std::to_string(kTear) + "\n");
  EXPECT_EQ(tcp.join(), 0);
}

TEST(ServeTcp, QuitInsideBurst) {
  SeededServer world;
  TcpServeThread tcp(world.server, 2);
  const std::string head = inject_burst(3, 4) + "QUIT\n";
  EXPECT_EQ(tcp_exchange(tcp, head + inject_burst(2, 8) + "EPOCH\n"),
            run_session_on_fresh_server(head));
  EXPECT_EQ(tcp_exchange(tcp, "EPOCH\n"), "OK EPOCH 3\n");
  EXPECT_EQ(tcp.join(), 0);
}

TEST(ServeTcp, PeerClosingMidPipelineKeepsServing) {
  SeededServer world;
  TcpServeThread tcp(world.server, 2);
  // Many replies queued for a peer that closes without reading: the
  // server's sends fail (RST, then EPIPE), which must drop that connection
  // only, not raise SIGPIPE.
  std::string flood;
  for (int i = 0; i < 2000; ++i) flood += "ROUTE 1 1 20 20\n";
  const int fd = tcp.connect();
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(send_all(fd, flood));
  ::close(fd);

  const std::string reply = tcp_exchange(tcp, "DECIDE 2 2 20 21\n");
  EXPECT_TRUE(reply.starts_with("OK DECIDE ")) << reply;
  EXPECT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1);
  EXPECT_EQ(tcp.join(), 0);
}
#endif  // __unix__ || __APPLE__

// ---- Concurrent readers across epoch swaps --------------------------------

// The acceptance property: reader threads batch-query while the writer
// injects and publishes; every batch's answers must be bit-identical to the
// single-threaded answers for the epoch the batch reports, and the epochs a
// session observes must be monotone. Run under the tsan preset to check the
// store's memory ordering as well.
TEST(ServeConcurrency, ReadersConsistentWithSomePublishedEpoch) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(17);
  const fault::FaultSet initial = fault::uniform_random_faults(mesh, 20, rng);
  constexpr int kEpochs = 16;
  constexpr int kThreads = 4;

  std::vector<Coord> sites(kEpochs);
  for (Coord& c : sites) {
    c = {static_cast<Dist>(rng.uniform(0, 23)), static_cast<Dist>(rng.uniform(0, 23))};
  }
  const std::vector<route::QuerySpec> specs = fixed_specs(mesh, 48, 29);

  // Single-threaded oracle: expected decide answers per published epoch.
  std::vector<std::vector<cond::Decision>> expected(kEpochs + 1);
  {
    serve::SnapshotBuilder oracle(mesh, initial.faults());
    serve::QueryServer oracle_server(oracle);
    serve::QueryServer::Session session(oracle_server);
    session.decide_batch(specs, expected[0]);
    for (int e = 1; e <= kEpochs; ++e) {
      oracle.inject(sites[static_cast<std::size_t>(e - 1)]);
      oracle.publish();
      session.decide_batch(specs, expected[static_cast<std::size_t>(e)]);
    }
  }

  serve::SnapshotBuilder builder(mesh, initial.faults());
  serve::QueryServer server(builder);
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> non_monotone{0};
  std::atomic<long> batches{0};

  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      serve::QueryServer::Session session(server);
      std::vector<cond::Decision> got;
      std::uint64_t prev_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        session.decide_batch(specs, got);
        const std::uint64_t e = session.last_epoch();
        if (e < prev_epoch) non_monotone.fetch_add(1, std::memory_order_relaxed);
        prev_epoch = e;
        if (e > kEpochs || got != expected[static_cast<std::size_t>(e)]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (const Coord c : sites) {
    builder.inject(c);
    builder.publish();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Give readers one more window against the final epoch, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(non_monotone.load(), 0);
  EXPECT_GT(batches.load(), 0);
  EXPECT_EQ(builder.store().current_epoch(), static_cast<std::uint64_t>(kEpochs));
}

}  // namespace
}  // namespace meshroute
