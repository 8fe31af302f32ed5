// meshroutectl — command-line driver for the library.
//
//   meshroutectl map    --n 32 --faults 40 --seed 7 [--ppm out.ppm] [--ascii]
//   meshroutectl decide --n 32 --faults 40 --seed 7 --src 2,2 --dst 28,30
//                       [--model fb|mcc] [--segment 1] [--pivot-levels 3]
//                       [--strategy s1|s2|s3|s4]
//   meshroutectl route  --n 32 --faults 40 --seed 7 --src 2,2 --dst 28,30
//                       [--policy boundary|global] [--ppm out.ppm] [--ascii]
//                       [--chaos FILE|SPEC] [--ttl N] [--trace FILE|-]
//   meshroutectl serve  --n 32 --faults 40 --seed 7 [--model fb|mcc]
//                       [--strategy s1|s2|s3|s4] [--segment 5] [--pivot-levels 3]
//                       [--script FILE] [--port P] [--max-conns C]
//                       [--journal FILE] [--queue-depth N] [--max-staleness K]
//                       [--chaos FILE|SPEC] [--obs-port P] [--postmortem FILE]
//                       [--slow-query-us T]
//
// serve runs the epoch-snapshotted query server (src/serve) speaking the
// line protocol of serve/protocol.hpp — DECIDE/ROUTE/INJECT/STATS/HEALTH/
// EPOCH/SHUTDOWN/QUIT — over stdin/stdout, a --script file, or a loopback
// TCP --port. INJECT publishes a new immutable snapshot; reads stay
// lock-free throughout. The resilience knobs (DESIGN §13): --queue-depth
// bounds in-flight reads (over it: BUSY <retry_after_ms>, script sessions
// back off and retry), --max-staleness serves DEGRADED answers when the
// published snapshot lags the world, --journal write-ahead-logs every
// injection and recovers from the log on restart, and --chaos arms the
// serve-layer self-chaos events (bdelay/bstall/pubdrop/shed/tear).
//
// Live observability (DESIGN §14): the METRICS protocol command and the
// --obs-port loopback HTTP endpoint both answer Prometheus text exposition
// (each scrape closes a measurement window, so windowed rates move between
// scrapes); --postmortem arms the flight recorder's dump file, written when
// the builder watchdog trips (bstall chaos) or SHUTDOWN runs;
// --slow-query-us retains the span chains of slow queries as exemplars.
//
// With --chaos, route runs the graceful-degradation ladder against a live
// FaultSchedule (see src/chaos/fault_schedule.hpp for the spec grammar;
// a readable file wins over an inline spec) instead of the frozen-world
// router, printing every rung escalation and rendering the post-script
// world. --ttl caps the ladder's hop budget (0 = auto). --trace captures
// the run's structured event stream (route hops, escalations, safety
// recomputes, chaos epochs) as Chrome trace-event JSON loadable in
// Perfetto; logical clocks make it deterministic under --seed.
//
// Flags take either `--key value` or `--key=value`; `--ascii` is a boolean.
// Every invocation is deterministic under --seed.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "chaos/fault_schedule.hpp"
#include "cond/strategies.hpp"
#include "core/fault_tolerant_mesh.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "info/pivots.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "render/render.hpp"
#include "route/ladder.hpp"
#include "route/path.hpp"
#include "route/query.hpp"
#include "serve/builder.hpp"
#include "serve/obs_http.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace meshroute;

namespace {

struct Options {
  std::string command;
  Dist n = 32;
  std::size_t faults = 0;
  std::uint64_t seed = 1;
  std::optional<Coord> src;
  std::optional<Coord> dst;
  FaultModel model = FaultModel::FaultyBlock;
  Dist segment = 1;
  int pivot_levels = 0;
  std::optional<cond::StrategyId> strategy;
  bool global_info = false;          ///< --policy global: every node knows every block
  std::optional<std::string> ppm;
  bool ascii = false;
  std::optional<std::string> chaos;  ///< FaultSchedule file or inline spec
  int ttl = 0;                       ///< ladder hop budget (0 = auto)
  std::string trace;                 ///< --trace target; "" = off, "-" = stdout
  std::optional<std::string> script; ///< serve: read requests from a file
  std::optional<long> port;          ///< serve: TCP port instead of stdin
  int max_conns = -1;                ///< serve: connections before exiting (-1 = forever)
  std::optional<std::string> journal;///< serve: WAL path (recover + append)
  long queue_depth = 0;              ///< serve: admission capacity (0 = unbounded)
  long max_staleness = 0;            ///< serve: epoch-lag bound (0 = no guard)
  std::optional<long> obs_port;      ///< serve: HTTP metrics port (0 = ephemeral)
  std::optional<std::string> postmortem;  ///< serve: flight-recorder dump file
  long slow_query_us = 0;            ///< serve: span-exemplar threshold (0 = off)
};

Coord parse_coord(const std::string& key, const std::string& s) {
  const auto comma = s.find(',');
  if (comma != std::string::npos) {
    try {
      return Coord{static_cast<Dist>(std::stol(s.substr(0, comma))),
                   static_cast<Dist>(std::stol(s.substr(comma + 1)))};
    } catch (const std::exception&) {
    }
  }
  throw std::invalid_argument(key + " expects 'x,y', got '" + s + "'");
}

long parse_long(const std::string& key, const std::string& s) {
  try {
    std::size_t pos = 0;
    const long v = std::stol(s, &pos);
    if (pos == s.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument(key + " expects an integer, got '" + s + "'");
}

void print_usage(std::ostream& os) {
  os << "usage: meshroutectl <map|decide|route|serve> [flags]\n"
        "commands:\n"
        "  map     build the fault world and render the block map\n"
        "  decide  evaluate the sufficient conditions for a (src, dst) pair\n"
        "  route   walk a packet from --src to --dst\n"
        "  serve   run the epoch-snapshotted query server (DECIDE/ROUTE/INJECT/\n"
        "          STATS/HEALTH/EPOCH/SHUTDOWN/QUIT line protocol on stdin,\n"
        "          --script, or --port)\n"
        "flags (accept both '--key value' and '--key=value'):\n"
        "  --n N                    mesh side                       (default 32)\n"
        "  --faults K               uniform random fault count      (default 0)\n"
        "  --seed S                 RNG seed, decimal or 0x hex     (default 1)\n"
        "  --src x,y                source node (decide/route)\n"
        "  --dst x,y                destination node (decide/route)\n"
        "  --model fb|mcc           fault model for decide          (default fb)\n"
        "  --segment S              boundary segment size (decide)  (default 1)\n"
        "  --pivot-levels L         pivot hierarchy levels (decide) (default 0)\n"
        "  --strategy s1|s2|s3|s4   evaluate one strategy only (decide)\n"
        "  --policy boundary|global information policy for route   (default boundary)\n"
        "  --ppm FILE               render the world (and path) as a PPM image\n"
        "  --ascii                  force the ASCII map even for n > 64\n"
        "  --chaos FILE|SPEC        route: degradation ladder under a fault schedule,\n"
        "                           e.g. --chaos 'inject=3:5,5;lag=4'; serve: arm the\n"
        "                           self-chaos events (bdelay/bstall/pubdrop/shed/tear)\n"
        "  --ttl N                  ladder hop budget with --chaos  (0 = auto)\n"
        "  --trace FILE|-           write the run's event stream as Chrome trace-event\n"
        "                           JSON ('-' = stdout); load the file in Perfetto\n"
        "  --script FILE            serve: read protocol requests from FILE\n"
        "  --port P                 serve: listen on loopback TCP port P\n"
        "  --max-conns C            serve: exit after C connections (default: forever)\n"
        "  --journal FILE           serve: fsync'd injection journal; replayed on start\n"
        "                           (crash recovery), appended to while serving\n"
        "  --queue-depth N          serve: admission capacity; over it reads get\n"
        "                           BUSY <retry_after_ms>          (default: unbounded)\n"
        "  --max-staleness K        serve: answer DEGRADED when the served snapshot\n"
        "                           lags the world by more than K epochs (default: off)\n"
        "  --obs-port P             serve: loopback HTTP endpoint answering every GET\n"
        "                           with Prometheus text metrics (0 = ephemeral port,\n"
        "                           printed on stderr)\n"
        "  --postmortem FILE        serve: arm the flight recorder; dump recent spans\n"
        "                           and epoch events to FILE on watchdog trip/SHUTDOWN\n"
        "  --slow-query-us T        serve: retain span-chain exemplars for queries\n"
        "                           taking >= T microseconds      (default: off)\n"
        "  --help                   print this message and exit\n";
}

/// Key/value parser: every argument is either a boolean flag or a key whose
/// value is attached with '=' or follows as the next argument. A trailing key
/// with no value and an unknown flag are both hard errors (the old `i += 2`
/// loop silently ignored them).
Options parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command (map|decide|route)");
  Options opt;
  opt.command = argv[1];
  if (opt.command != "map" && opt.command != "decide" && opt.command != "route" &&
      opt.command != "serve") {
    throw std::invalid_argument("unknown command '" + opt.command + "'");
  }

  int i = 2;
  const auto next_value = [&](const std::string& key,
                              const std::string& attached) -> std::string {
    if (!attached.empty()) return attached;
    if (i + 1 >= argc) throw std::invalid_argument(key + " is missing its value");
    return argv[++i];
  };

  for (; i < argc; ++i) {
    std::string key = argv[i];
    std::string attached;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      attached = key.substr(eq + 1);
      key = key.substr(0, eq);
      if (attached.empty()) throw std::invalid_argument(key + " is missing its value");
    }

    if (key == "--ascii") {
      if (!attached.empty()) throw std::invalid_argument("--ascii takes no value");
      opt.ascii = true;
    } else if (key == "--n") {
      opt.n = static_cast<Dist>(parse_long(key, next_value(key, attached)));
    } else if (key == "--faults") {
      opt.faults = static_cast<std::size_t>(parse_long(key, next_value(key, attached)));
    } else if (key == "--seed") {
      const std::string v = next_value(key, attached);
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 0);
      if (end == v.c_str() || *end != '\0') {
        throw std::invalid_argument("--seed expects an integer, got '" + v + "'");
      }
    } else if (key == "--src") {
      opt.src = parse_coord(key, next_value(key, attached));
    } else if (key == "--dst") {
      opt.dst = parse_coord(key, next_value(key, attached));
    } else if (key == "--model") {
      const std::string v = next_value(key, attached);
      if (v == "fb") {
        opt.model = FaultModel::FaultyBlock;
      } else if (v == "mcc") {
        opt.model = FaultModel::Mcc;
      } else {
        throw std::invalid_argument("--model expects fb or mcc, got '" + v + "'");
      }
    } else if (key == "--segment") {
      opt.segment = static_cast<Dist>(parse_long(key, next_value(key, attached)));
    } else if (key == "--pivot-levels") {
      opt.pivot_levels = static_cast<int>(parse_long(key, next_value(key, attached)));
    } else if (key == "--strategy") {
      const std::string v = next_value(key, attached);
      if (v == "s1") {
        opt.strategy = cond::StrategyId::S1;
      } else if (v == "s2") {
        opt.strategy = cond::StrategyId::S2;
      } else if (v == "s3") {
        opt.strategy = cond::StrategyId::S3;
      } else if (v == "s4") {
        opt.strategy = cond::StrategyId::S4;
      } else {
        throw std::invalid_argument("--strategy expects s1..s4, got '" + v + "'");
      }
    } else if (key == "--policy") {
      const std::string v = next_value(key, attached);
      if (v == "boundary" || v == "global") {
        opt.global_info = v == "global";
      } else {
        throw std::invalid_argument("--policy expects boundary or global, got '" + v + "'");
      }
    } else if (key == "--ppm") {
      opt.ppm = next_value(key, attached);
    } else if (key == "--chaos") {
      opt.chaos = next_value(key, attached);
    } else if (key == "--ttl") {
      opt.ttl = static_cast<int>(parse_long(key, next_value(key, attached)));
      if (opt.ttl < 0) throw std::invalid_argument("--ttl must be >= 0");
    } else if (key == "--trace") {
      opt.trace = next_value(key, attached);
      if (opt.trace.empty()) throw std::invalid_argument("--trace expects a file name or '-'");
    } else if (key == "--script") {
      opt.script = next_value(key, attached);
    } else if (key == "--port") {
      opt.port = parse_long(key, next_value(key, attached));
      if (*opt.port < 1 || *opt.port > 65535) {
        throw std::invalid_argument("--port expects 1..65535");
      }
    } else if (key == "--max-conns") {
      opt.max_conns = static_cast<int>(parse_long(key, next_value(key, attached)));
      if (opt.max_conns < 1) throw std::invalid_argument("--max-conns must be >= 1");
    } else if (key == "--journal") {
      opt.journal = next_value(key, attached);
      if (opt.journal->empty()) throw std::invalid_argument("--journal expects a file name");
    } else if (key == "--queue-depth") {
      opt.queue_depth = parse_long(key, next_value(key, attached));
      if (opt.queue_depth < 0) throw std::invalid_argument("--queue-depth must be >= 0");
    } else if (key == "--max-staleness") {
      opt.max_staleness = parse_long(key, next_value(key, attached));
      if (opt.max_staleness < 0) throw std::invalid_argument("--max-staleness must be >= 0");
    } else if (key == "--obs-port") {
      opt.obs_port = parse_long(key, next_value(key, attached));
      if (*opt.obs_port < 0 || *opt.obs_port > 65535) {
        throw std::invalid_argument("--obs-port expects 0..65535");
      }
    } else if (key == "--postmortem") {
      opt.postmortem = next_value(key, attached);
      if (opt.postmortem->empty()) {
        throw std::invalid_argument("--postmortem expects a file name");
      }
    } else if (key == "--slow-query-us") {
      opt.slow_query_us = parse_long(key, next_value(key, attached));
      if (opt.slow_query_us < 0) {
        throw std::invalid_argument("--slow-query-us must be >= 0");
      }
    } else {
      throw std::invalid_argument("unknown flag '" + key + "'");
    }
  }
  if (opt.chaos && opt.command != "route" && opt.command != "serve") {
    throw std::invalid_argument("--chaos only applies to the route and serve commands");
  }
  if (opt.ttl != 0 && !opt.chaos) {
    throw std::invalid_argument("--ttl requires --chaos");
  }
  if ((opt.script || opt.port || opt.max_conns != -1) && opt.command != "serve") {
    throw std::invalid_argument("--script/--port/--max-conns only apply to the serve command");
  }
  if ((opt.journal || opt.queue_depth != 0 || opt.max_staleness != 0) &&
      opt.command != "serve") {
    throw std::invalid_argument(
        "--journal/--queue-depth/--max-staleness only apply to the serve command");
  }
  if ((opt.obs_port || opt.postmortem || opt.slow_query_us != 0) &&
      opt.command != "serve") {
    throw std::invalid_argument(
        "--obs-port/--postmortem/--slow-query-us only apply to the serve command");
  }
  if (opt.script && opt.port) {
    throw std::invalid_argument("--script and --port are mutually exclusive");
  }
  if (opt.max_conns != -1 && !opt.port) {
    throw std::invalid_argument("--max-conns requires --port");
  }
  return opt;
}

void save_ppm(const render::Image& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  img.scaled(std::max(1, 512 / std::max<Dist>(1, img.width()))).write_ppm(out);
  std::cout << "wrote " << path << "\n";
}

const char* decision_text(cond::Decision d) {
  switch (d) {
    case cond::Decision::Minimal: return "minimal path guaranteed";
    case cond::Decision::SubMinimal: return "sub-minimal path guaranteed";
    case cond::Decision::Unknown: break;
  }
  return "unknown (sufficient conditions cannot tell)";
}

/// The serve command: seed a fault world, stand up the snapshot store, and
/// speak the line protocol. Replies go to stdout; the world banner goes to
/// stderr so scripted sessions can byte-compare stdout.
int run_serve(const Options& opt) {
  const Mesh2D mesh(opt.n, opt.n);
  Rng rng(opt.seed);
  const fault::FaultSet faults = fault::uniform_random_faults(mesh, opt.faults, rng);
  // With --journal the recovery constructor is the only path: an absent or
  // empty journal is simply a fresh start that begins journaling.
  std::optional<serve::SnapshotBuilder> builder_slot;
  if (opt.journal) {
    builder_slot.emplace(mesh, faults.faults(), *opt.journal,
                         serve::SnapshotBuilder::RecoverFromJournal{});
  } else {
    builder_slot.emplace(mesh, faults.faults());
  }
  serve::SnapshotBuilder& builder = *builder_slot;

  serve::ServeConfig cfg;
  cfg.model = opt.model;
  if (opt.strategy) cfg.strategy = *opt.strategy;
  cfg.strategy_cfg.segment_size = opt.segment;
  if (opt.pivot_levels > 0) {
    cfg.pivots = info::generate_pivots(mesh.bounds(), opt.pivot_levels,
                                       info::PivotPlacement::Random, &rng);
  }
  cfg.resilience.queue_capacity = opt.queue_depth;
  cfg.resilience.max_staleness_epochs = static_cast<std::uint64_t>(opt.max_staleness);
  cfg.slow_query_us = opt.slow_query_us;
  serve::QueryServer server(builder, std::move(cfg));
  if (opt.postmortem) server.set_flight_dump(*opt.postmortem);

  if (opt.chaos) {
    chaos::FaultSchedule sched;
    try {
      if (std::ifstream probe(*opt.chaos); probe.good()) {
        sched = chaos::FaultSchedule::load(*opt.chaos);
      } else {
        sched = chaos::FaultSchedule::parse(*opt.chaos);
      }
    } catch (const std::exception& e) {
      std::cerr << "error: --chaos: " << e.what() << "\n";
      return 2;
    }
    server.set_serve_chaos(sched);
  }

  std::cerr << "serving " << opt.n << "x" << opt.n << " mesh, " << faults.count()
            << " seed faults, epoch " << builder.store().current_epoch();
  if (opt.journal) {
    std::cerr << ", " << builder.stats().recovered_records << " journal records replayed";
  }
  std::cerr << "\n";
  std::optional<serve::ObsHttpServer> obs_http;
  if (opt.obs_port) {
    obs_http.emplace(server, static_cast<std::uint16_t>(*opt.obs_port));
    if (!obs_http->ok()) return 2;
    std::cerr << "obs: metrics on http://127.0.0.1:" << obs_http->port()
              << "/metrics\n";
  }
  if (opt.port) {
    return serve::serve_tcp(server, static_cast<std::uint16_t>(*opt.port), opt.max_conns);
  }
  if (opt.script) {
    std::ifstream in(*opt.script);
    if (!in) {
      std::cerr << "error: cannot open --script file '" << *opt.script << "'\n";
      return 2;
    }
    serve::run_session(server, in, std::cout);
    return 0;
  }
  serve::run_session(server, std::cin, std::cout);
  return 0;
}

int run_command(const Options& opt) {
  if (opt.command == "serve") return run_serve(opt);
  FaultTolerantMesh ftm(opt.n, opt.n);
  Rng rng(opt.seed);
  const auto exclude = [&](Coord c) {
    return (opt.src && c == *opt.src) || (opt.dst && c == *opt.dst);
  };
  const auto faults = fault::uniform_random_faults(ftm.mesh(), opt.faults, rng, exclude);
  ftm.inject_faults(faults.faults());

  std::cout << "mesh " << opt.n << "x" << opt.n << ", " << opt.faults << " faults, "
            << ftm.blocks().block_count() << " blocks ("
            << ftm.blocks().total_disabled() << " disabled nodes), "
            << ftm.mcc(fault::MccKind::TypeOne).components().size() << " type-one MCCs\n";

  const bool draw_ascii = opt.ascii || opt.n <= 64;

  if (opt.command == "map") {
    render::Image img = render::render_blocks(ftm.mesh(), ftm.faults(), ftm.blocks());
    if (opt.ppm) save_ppm(img, *opt.ppm);
    if (draw_ascii) {
      std::cout << render::ascii_map(ftm.mesh(), ftm.faults(), ftm.blocks());
    }
    return 0;
  }

  if (!opt.src || !opt.dst) {
    std::cerr << "error: " << opt.command << " requires --src and --dst\n";
    print_usage(std::cerr);
    return 2;
  }
  const Coord s = *opt.src;
  const Coord d = *opt.dst;

  const cond::StrategyConfig cfg{.segment_size = opt.segment};
  std::vector<Coord> pivots;
  if (opt.pivot_levels > 0) {
    pivots = info::generate_pivots(ftm.mesh().bounds(), opt.pivot_levels,
                                         info::PivotPlacement::Random, &rng);
  }

  // All read-side queries below go through the query API (route/query.hpp)
  // over the facade's view — the same surface the serve layer and the
  // benches use. A null boundary map is global information.
  route::QueryView view = ftm.query_view();
  if (opt.global_info) view.boundary = nullptr;

  if (opt.command == "decide") {
    std::cout << "model: " << to_string(opt.model) << "\n";
    if (opt.strategy) {
      const cond::Decision dec =
          route::decide_strategy(view, s, d, opt.model, *opt.strategy, pivots, cfg);
      std::cout << "decision (" << cond::to_string(*opt.strategy)
                << "): " << decision_text(dec);
    } else {
      // Without --strategy: extensions 1 and 2, then 3 when pivots exist.
      const cond::StrategyId id = pivots.empty() ? cond::StrategyId::S1 : cond::StrategyId::S4;
      const cond::Certificate cert =
          cond::explain_strategy(view.problem(s, d, opt.model), id, cfg, pivots);
      std::cout << "decision: " << decision_text(cert.decision)
                << "\n  method: " << to_string(cert.method);
      if (cert.method != cond::Method::None) std::cout << "\n  via: " << to_string(cert.via);
    }
    std::cout << "\n  ground truth: minimal path "
              << (route::minimal_path_exists(view, s, d) ? "exists" : "does not exist")
              << "\n";
    return 0;
  }

  if (opt.chaos) {
    // Degradation-ladder routing under a live fault schedule.
    chaos::FaultSchedule sched;
    try {
      if (std::ifstream probe(*opt.chaos); probe.good()) {
        sched = chaos::FaultSchedule::load(*opt.chaos);
      } else {
        sched = chaos::FaultSchedule::parse(*opt.chaos);
      }
      sched = sched.materialized(ftm.mesh(), rng);
    } catch (const std::exception& e) {
      std::cerr << "error: --chaos: " << e.what() << "\n";
      return 2;
    }
    const chaos::ChaosEngine engine(ftm.mesh(), faults.faults(), sched);
    std::cout << "chaos: " << sched.entries().size() << " scheduled injections, horizon "
              << engine.horizon() << ", lag " << sched.staleness.base_lag << "+"
              << sched.staleness.per_hop_lag << "/hop\n";

    route::LadderOptions lopts;
    lopts.ttl = opt.ttl;
    const route::LadderResult lr =
        route::route_degradation_ladder(ftm.mesh(), engine, s, d, lopts, &rng);
    for (const route::Escalation& esc : lr.escalations) {
      std::cout << "  rung " << route::to_string(esc.abandoned) << " abandoned at ("
                << esc.at.x << "," << esc.at.y << ") t=" << esc.time << ": "
                << route::to_string(esc.reason) << "\n";
    }
    std::cout << "ladder: " << route::to_string(lr.status) << " on rung "
              << route::to_string(lr.rung) << ", " << lr.path.length() << " hops (Manhattan "
              << manhattan(s, d) << ", " << lr.detours << " detours), hop clock "
              << lopts.start_time << " -> " << lr.end_time << "\n";
    std::cout << "stats: " << lr.stats.hops << " hops, " << lr.stats.detours
              << " detours, " << lr.stats.escalations << " escalations\n";

    // Render the post-script world (every scheduled fault applied).
    const auto final_blocks =
        fault::build_faulty_blocks(ftm.mesh(), engine.final_state().faults());
    if (opt.ppm) {
      render::Image img =
          render::render_blocks(ftm.mesh(), engine.final_state().faults(), final_blocks);
      render::overlay_path(img, lr.path);
      save_ppm(img, *opt.ppm);
    }
    if (draw_ascii) {
      std::cout << render::ascii_map(ftm.mesh(), engine.final_state().faults(), final_blocks,
                                     &lr.path);
    }
    return lr.delivered() ? 0 : 1;
  }

  // route
  const auto r = route::route(view, s, d, &rng);
  if (!r.delivered()) {
    std::cout << "routing failed (" << (r.status == route::RouteStatus::SourceBlocked
                                            ? "endpoint inside a block"
                                            : "stuck: no admissible preferred move")
              << ")\n";
    return 1;
  }
  std::cout << "delivered in " << r.path.length() << " hops (Manhattan "
            << manhattan(s, d) << ", minimal="
            << (route::path_is_minimal(r.path) ? "yes" : "no") << ")\n";
  if (opt.ppm) {
    render::Image img = render::render_blocks(ftm.mesh(), ftm.faults(), ftm.blocks());
    render::overlay_path(img, r.path);
    save_ppm(img, *opt.ppm);
  }
  if (draw_ascii) {
    std::cout << render::ascii_map(ftm.mesh(), ftm.faults(), ftm.blocks(), &r.path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      print_usage(std::cout);
      return 0;
    }
  }
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    print_usage(std::cerr);
    return 2;
  }

  // Install the trace collector before any work so world construction
  // (safety-level recomputes, chaos epochs) is captured along with routing.
  obs::TraceSink trace_sink;
  std::optional<obs::TraceScope> trace_scope;
  if (!opt.trace.empty()) trace_scope.emplace(trace_sink);

  const int rc = run_command(opt);

  if (!opt.trace.empty()) {
    trace_scope.reset();
    if (!obs::write_trace_json(opt.trace, trace_sink)) return 2;
    if (opt.trace != "-") std::cout << "wrote " << opt.trace << "\n";
  }
  return rc;
}
