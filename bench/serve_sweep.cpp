// serve_sweep — sustained-load benchmark for the routing-as-a-service stack
// (src/serve): reader threads batch-querying an epoch-snapshotted world
// while the writer injects faults and publishes new snapshots.
//
// Two modes:
//   * racing (default): readers stream decide/route batches continuously
//     while the writer publishes --rounds epochs. Reports sustained
//     queries/sec and the p99 of serve.staleness_epochs (how many epochs a
//     batch's snapshot lagged the just-published world), plus per-query
//     latency medians as bench_compare kernels.
//   * --deterministic: every round is barrier-synchronized — publish, then
//     answer that round's batch against exactly that epoch, then next round.
//     Aggregate answer counts are pure sums over (epoch, query) pairs for any
//     --threads value; kernel timings stay real wall time (steady_clock ns
//     per batch, divided per query) so the tracked BENCH_serve.json carries
//     gateable medians. --zero-timings additionally zeroes every wall-derived
//     field, making the JSON byte-identical across --threads (the
//     serve_determinism ctest compares --threads=1 against --threads=4 with
//     cmake -E compare_files).
//
// The writer injects one site per round through QueryServer::inject_and_publish
// (the INJECT protocol command's path); per-epoch rebuild latency (build plus
// store swap) lands in serve.rebuild_us and the top-level rebuild_median_us /
// rebuild_p99_us JSON columns.
//
// --json emits the bench_compare kernel schema:
//   {"bench":"serve","n":...,"meta":{...},"kernels":[{"name":"decide_query",
//    "iters":...,"median_us":...},...],"results":{...},"qps":...,
//    "staleness_p99":...,"windowed_queries":...,"windowed_hops_p99":...,
//    "windowed_query_p99_us":...,"wall_ms":...}
//
// Live-windowed observability (DESIGN §14): the sweep drives an
// obs::LiveWindows ring over the global registry — one window per publish
// round (explicit 1'000'000-tick spans in deterministic mode, wall-clock in
// racing mode) — and --windowed=FILE|- dumps the merged ring as the
// obs::write_windowed_json schema bench_compare --metrics diffs. In
// deterministic mode the dump is restricted to {serve.queries, serve.hops}
// (pure workload sums; the wall-time histograms are excluded) so it is
// byte-identical for any --threads value — the serve_windowed_determinism
// ctest compares --threads=1 against --threads=4 byte for byte.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "obs/export.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/query.hpp"
#include "serve/builder.hpp"
#include "serve/server.hpp"

#ifndef MESHROUTE_GIT_REV
#define MESHROUTE_GIT_REV "unknown"
#endif
#ifndef MESHROUTE_BUILD_TYPE
#define MESHROUTE_BUILD_TYPE "unknown"
#endif
#ifndef MESHROUTE_COMPILER
#define MESHROUTE_COMPILER "unknown"
#endif

namespace {

using namespace meshroute;
using Clock = std::chrono::steady_clock;

struct Options {
  Dist n = 96;
  std::size_t faults = 64;
  std::uint64_t seed = 1;
  int rounds = 48;    // publish rounds driven by the writer
  int batch = 192;    // queries per round
  int threads = 4;    // reader threads
  bool deterministic = false;
  bool zero_timings = false;  // zero every wall-derived number (the
                              // determinism byte-compare ctests)
  long shed_capacity = 0;  // admission cap for racing mode (0 = unbounded)
  long deadline_us = 0;    // per-request deadline budget (0 = off)
  std::string json;      // empty = off; "-" = stdout
  std::string metrics;   // empty = off; "-" = stdout
  std::string windowed;  // empty = off; "-" = stdout (window-ring JSON)
};

[[noreturn]] void usage_and_exit() {
  std::cerr
      << "usage: serve_sweep [--n=N] [--faults=K] [--seed=S] [--rounds=R] [--batch=B]\n"
         "                   [--threads=T] [--deterministic]\n"
         "                   [--zero-timings] [--quick]\n"
         "                   [--shed-capacity=N] [--deadline-us=N]\n"
         "                   [--json=FILE|-] [--metrics=FILE|-] [--windowed=FILE|-]\n"
         "  --deterministic  barrier-round mode: answer counts are pure sums over\n"
         "                   (epoch, query) pairs for any --threads value; kernel\n"
         "                   timings stay real wall time unless --zero-timings\n"
         "  --zero-timings   zero every wall-derived field so the JSON is\n"
         "                   byte-identical across --threads (determinism ctests)\n"
         "  --shed-capacity  racing mode: bound in-flight batches; over it the\n"
         "                   admission gate sheds (BUSY) and the reader backs off\n"
         "  --deadline-us    racing mode: per-batch service budget; misses are\n"
         "                   counted (serve.deadline_miss_total), not aborted\n"
         "  --windowed       dump the per-round window ring (write_windowed_json\n"
         "                   schema); deterministic mode restricts it to the\n"
         "                   pure-sum metrics so it is --threads independent\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto num = [&](std::size_t prefix) { return std::stoll(arg.substr(prefix)); };
    try {
      if (arg == "--deterministic") {
        opt.deterministic = true;
      } else if (arg == "--zero-timings") {
        opt.zero_timings = true;
      } else if (arg == "--quick") {
        opt.n = 48;
        opt.faults = 32;
        opt.rounds = 8;
        opt.batch = 48;
      } else if (arg.rfind("--n=", 0) == 0) {
        opt.n = static_cast<Dist>(num(4));
      } else if (arg.rfind("--faults=", 0) == 0) {
        opt.faults = static_cast<std::size_t>(num(9));
      } else if (arg.rfind("--seed=", 0) == 0) {
        opt.seed = static_cast<std::uint64_t>(num(7));
      } else if (arg.rfind("--rounds=", 0) == 0) {
        opt.rounds = static_cast<int>(num(9));
      } else if (arg.rfind("--batch=", 0) == 0) {
        opt.batch = static_cast<int>(num(8));
      } else if (arg.rfind("--threads=", 0) == 0) {
        opt.threads = static_cast<int>(num(10));
      } else if (arg.rfind("--shed-capacity=", 0) == 0) {
        opt.shed_capacity = static_cast<long>(num(16));
        if (opt.shed_capacity < 0) usage_and_exit();
      } else if (arg.rfind("--deadline-us=", 0) == 0) {
        opt.deadline_us = static_cast<long>(num(14));
        if (opt.deadline_us < 0) usage_and_exit();
      } else if (arg.rfind("--json=", 0) == 0) {
        opt.json = arg.substr(7);
        if (opt.json.empty()) usage_and_exit();
      } else if (arg.rfind("--metrics=", 0) == 0) {
        opt.metrics = arg.substr(10);
        if (opt.metrics.empty()) usage_and_exit();
      } else if (arg.rfind("--windowed=", 0) == 0) {
        opt.windowed = arg.substr(11);
        if (opt.windowed.empty()) usage_and_exit();
      } else {
        usage_and_exit();
      }
    } catch (const std::exception&) {
      usage_and_exit();
    }
  }
  if (opt.n < 4 || opt.rounds < 1 || opt.batch < 1 || opt.threads < 1) usage_and_exit();
  return opt;
}

/// Order-independent aggregate over (epoch, query) answers: pure sums, so
/// any partition of the queries over threads reduces to the same totals.
struct Totals {
  std::int64_t queries = 0;
  std::int64_t delivered = 0;
  std::int64_t hops = 0;
  std::int64_t detours = 0;
  std::int64_t escalations = 0;
  std::int64_t minimal = 0;
  std::int64_t sub_minimal = 0;

  Totals& operator+=(const Totals& o) {
    queries += o.queries;
    delivered += o.delivered;
    hops += o.hops;
    detours += o.detours;
    escalations += o.escalations;
    minimal += o.minimal;
    sub_minimal += o.sub_minimal;
    return *this;
  }
};

void tally(const std::vector<cond::Decision>& decisions,
           const std::vector<route::RouteAnswer>& answers, Totals& t) {
  // Per-answer hop distribution: histogram buckets are atomic sums, so the
  // counts are independent of answer order and thread partition — the one
  // windowed histogram a deterministic replay may export.
  static obs::Histogram& hops_hist = obs::Registry::global().histogram("serve.hops");
  t.queries += static_cast<std::int64_t>(answers.size());
  for (const cond::Decision d : decisions) {
    t.minimal += d == cond::Decision::Minimal;
    t.sub_minimal += d == cond::Decision::SubMinimal;
  }
  for (const route::RouteAnswer& a : answers) {
    t.delivered += a.status == route::RouteStatus::Delivered;
    t.hops += a.stats.hops;
    t.detours += a.stats.detours;
    t.escalations += a.stats.escalations;
    hops_hist.observe(a.stats.hops);
  }
}

/// The round's query list: a pure function of (seed, round), independent of
/// thread count. Endpoints may land on faulty nodes — SourceBlocked answers
/// are part of the workload.
std::vector<route::QuerySpec> round_specs(const Options& opt, int round) {
  Rng rng(seed_combine(opt.seed, 0x517EC0DEull + static_cast<std::uint64_t>(round)));
  std::vector<route::QuerySpec> specs(static_cast<std::size_t>(opt.batch));
  for (route::QuerySpec& s : specs) {
    s.src = {static_cast<Dist>(rng.uniform(0, opt.n - 1)),
             static_cast<Dist>(rng.uniform(0, opt.n - 1))};
    s.dst = {static_cast<Dist>(rng.uniform(0, opt.n - 1)),
             static_cast<Dist>(rng.uniform(0, opt.n - 1))};
  }
  return specs;
}

double median_of(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// p99 over an already-sorted-by-median_of vector (nearest-rank).
double p99_of(const std::vector<double>& sorted) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx =
      std::min(sorted.size() - 1, static_cast<std::size_t>(
                                      static_cast<double>(sorted.size()) * 0.99));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  const Mesh2D mesh = Mesh2D::square(opt.n);
  Rng world_rng(opt.seed);
  const fault::FaultSet seed_faults =
      fault::uniform_random_faults(mesh, opt.faults, world_rng);
  serve::SnapshotBuilder builder(mesh, seed_faults.faults());
  serve::ServeConfig server_cfg;
  server_cfg.resilience.queue_capacity = opt.shed_capacity;
  server_cfg.resilience.deadline_us = opt.deadline_us;
  serve::QueryServer server(builder, std::move(server_cfg));

  // The writer's injection sites for epochs 1..rounds, fixed up front so the
  // world's evolution is a pure function of the seed.
  std::vector<Coord> sites(static_cast<std::size_t>(opt.rounds));
  for (Coord& c : sites) {
    c = {static_cast<Dist>(world_rng.uniform(0, opt.n - 1)),
         static_cast<Dist>(world_rng.uniform(0, opt.n - 1))};
  }

  // One measurement window per publish round. Deterministic mode closes each
  // window with a fixed logical span (one "second" per round) so rates and
  // the ring header are pure functions of the workload; racing mode measures
  // wall-clock spans between publishes.
  obs::LiveWindows windows(obs::Registry::global());
  constexpr std::int64_t kRoundTickUs = 1'000'000;

  const int threads = opt.threads;
  std::vector<Totals> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::vector<double>> decide_us(static_cast<std::size_t>(threads));
  std::vector<std::vector<double>> route_us(static_cast<std::size_t>(threads));
  std::vector<std::int64_t> shed_batches(static_cast<std::size_t>(threads), 0);
  std::vector<std::int64_t> admitted_batches(static_cast<std::size_t>(threads), 0);
  const auto t_start = Clock::now();

  if (opt.deterministic) {
    // Barrier rounds: publish, then every answer in the round is computed
    // against exactly that epoch. Totals are partition-independent.
    for (int r = 0; r < opt.rounds; ++r) {
      server.inject_and_publish(sites[static_cast<std::size_t>(r)]);
      const std::vector<route::QuerySpec> specs = round_specs(opt, r);
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          const std::size_t lo = specs.size() * static_cast<std::size_t>(t) /
                                 static_cast<std::size_t>(threads);
          const std::size_t hi = specs.size() * static_cast<std::size_t>(t + 1) /
                                 static_cast<std::size_t>(threads);
          if (lo == hi) return;
          serve::QueryServer::Session session(server);
          std::vector<cond::Decision> decisions;
          std::vector<route::RouteAnswer> answers;
          const std::span<const route::QuerySpec> slice(specs.data() + lo, hi - lo);
          // Real batch wall times (steady_clock ns, divided per query) unless
          // the byte-compare ctests asked for --zero-timings: sub-resolution
          // "0 µs" kernel medians gate nothing (the tracked BENCH_serve.json
          // regression the zeroed-everything era actually shipped).
          const auto t0 = Clock::now();
          session.decide_batch(slice, decisions);
          const auto t1 = Clock::now();
          session.route_batch(slice, answers);
          const auto t2 = Clock::now();
          if (!opt.zero_timings) {
            const double per = 1.0 / static_cast<double>(slice.size());
            decide_us[static_cast<std::size_t>(t)].push_back(
                std::chrono::duration<double, std::micro>(t1 - t0).count() * per);
            route_us[static_cast<std::size_t>(t)].push_back(
                std::chrono::duration<double, std::micro>(t2 - t1).count() * per);
          }
          tally(decisions, answers, per_thread[static_cast<std::size_t>(t)]);
        });
      }
      for (std::thread& th : pool) th.join();
      windows.advance(kRoundTickUs);
    }
  } else {
    // Racing mode: readers stream batches while the writer publishes epochs;
    // staleness is whatever the race produces.
    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    const bool shedding = opt.shed_capacity > 0;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        serve::QueryServer::Session session(server);
        std::vector<cond::Decision> decisions;
        std::vector<route::RouteAnswer> answers;
        int round = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::vector<route::QuerySpec> specs = round_specs(opt, round++);
          const auto t0 = Clock::now();
          if (shedding) {
            // Guarded path: a shed batch is dropped and the reader honors
            // the backoff hint (capped so the bench stays short) — the
            // client half of the BUSY contract.
            const auto g1 = session.decide_batch_guarded(specs, decisions);
            if (!g1.admitted) {
              ++shed_batches[static_cast<std::size_t>(t)];
              std::this_thread::sleep_for(std::chrono::milliseconds(
                  std::min<std::int64_t>(g1.retry_after_ms, 4)));
              continue;
            }
            const auto t1 = Clock::now();
            const auto g2 = session.route_batch_guarded(specs, answers);
            if (!g2.admitted) {
              ++shed_batches[static_cast<std::size_t>(t)];
              std::this_thread::sleep_for(std::chrono::milliseconds(
                  std::min<std::int64_t>(g2.retry_after_ms, 4)));
              continue;
            }
            const auto t2 = Clock::now();
            ++admitted_batches[static_cast<std::size_t>(t)];
            const double per = 1.0 / static_cast<double>(specs.size());
            decide_us[static_cast<std::size_t>(t)].push_back(
                std::chrono::duration<double, std::micro>(t1 - t0).count() * per);
            route_us[static_cast<std::size_t>(t)].push_back(
                std::chrono::duration<double, std::micro>(t2 - t1).count() * per);
            tally(decisions, answers, per_thread[static_cast<std::size_t>(t)]);
            continue;
          }
          session.decide_batch(specs, decisions);
          const auto t1 = Clock::now();
          session.route_batch(specs, answers);
          const auto t2 = Clock::now();
          ++admitted_batches[static_cast<std::size_t>(t)];
          const double per = 1.0 / static_cast<double>(specs.size());
          decide_us[static_cast<std::size_t>(t)].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count() * per);
          route_us[static_cast<std::size_t>(t)].push_back(
              std::chrono::duration<double, std::micro>(t2 - t1).count() * per);
          tally(decisions, answers, per_thread[static_cast<std::size_t>(t)]);
        }
      });
    }
    for (int r = 0; r < opt.rounds; ++r) {
      server.inject_and_publish(sites[static_cast<std::size_t>(r)]);
      windows.advance();
      // Pace the writer so readers interleave with the epoch swaps instead
      // of seeing one final burst.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    // Let readers observe the final world for at least one more batch.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& th : pool) th.join();
  }

  const double wall_ms =
      opt.zero_timings
          ? 0.0
          : std::chrono::duration<double, std::milli>(Clock::now() - t_start).count();

  Totals totals;
  for (const Totals& t : per_thread) totals += t;
  std::vector<double> decide_all;
  std::vector<double> route_all;
  for (int t = 0; t < threads; ++t) {
    decide_all.insert(decide_all.end(), decide_us[static_cast<std::size_t>(t)].begin(),
                      decide_us[static_cast<std::size_t>(t)].end());
    route_all.insert(route_all.end(), route_us[static_cast<std::size_t>(t)].begin(),
                     route_us[static_cast<std::size_t>(t)].end());
  }
  const double decide_median_us = median_of(decide_all);
  const double route_median_us = median_of(route_all);
  const double decide_p99_us = p99_of(decide_all);  // median_of left them sorted
  const double route_p99_us = p99_of(route_all);
  std::int64_t shed_total = 0;
  std::int64_t admitted_total = 0;
  for (int t = 0; t < threads; ++t) {
    shed_total += shed_batches[static_cast<std::size_t>(t)];
    admitted_total += admitted_batches[static_cast<std::size_t>(t)];
  }
  if (opt.deterministic) admitted_total = 0;  // not meaningful in barrier mode
  // Every spec is answered twice per batch iteration (decide + route);
  // Totals::queries counts route answers only, so qps doubles it.
  const double qps = wall_ms > 0.0
                         ? static_cast<double>(2 * totals.queries) / (wall_ms / 1000.0)
                         : 0.0;
  const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
  // Per-epoch rebuild latency, build plus store swap (SnapshotBuilder's
  // serve.rebuild_us), one observation per delta-fed publish.
  const auto rebuild_it = metrics.histograms.find("serve.rebuild_us");
  const double rebuild_median_us =
      !opt.zero_timings && rebuild_it != metrics.histograms.end()
          ? rebuild_it->second.percentile(0.50)
          : 0.0;
  const double rebuild_p99_us =
      !opt.zero_timings && rebuild_it != metrics.histograms.end()
          ? rebuild_it->second.percentile(0.99)
          : 0.0;
  const auto staleness_it = metrics.histograms.find("serve.staleness_epochs");
  // Zeroed in deterministic mode like the other timing-derived numbers: the
  // histogram's observation count scales with --threads, and the percentile
  // interpolation is count-dependent even when every value is zero.
  const double staleness_p99 =
      !opt.deterministic && staleness_it != metrics.histograms.end()
          ? staleness_it->second.percentile(0.99)
          : 0.0;
  // Windowed columns: the newest retained windows merged. Query count and
  // hop p99 are pure workload sums (thread-count independent); the windowed
  // latency p99 is wall-time and zeroed in deterministic mode like the rest.
  const obs::MetricsSnapshot windowed_snap = windows.windowed();
  const auto windowed_p99 = [&](const char* name) {
    const auto it = windowed_snap.histograms.find(name);
    return it == windowed_snap.histograms.end() ? 0.0 : it->second.percentile(0.99);
  };
  const std::int64_t windowed_queries = windows.windowed_count("serve.queries");
  const double windowed_hops_p99 = windowed_p99("serve.hops");
  const double windowed_query_p99_us =
      opt.zero_timings ? 0.0 : windowed_p99("serve.query_us");

  std::printf("serve_sweep: n=%d faults=%zu rounds=%d batch=%d%s\n",
              static_cast<int>(opt.n), opt.faults, opt.rounds, opt.batch,
              opt.deterministic ? " (deterministic)" : "");
  std::printf("  queries: %lld (delivered %lld, minimal %lld, sub-minimal %lld)\n",
              static_cast<long long>(totals.queries),
              static_cast<long long>(totals.delivered),
              static_cast<long long>(totals.minimal),
              static_cast<long long>(totals.sub_minimal));
  std::printf("  hops=%lld detours=%lld escalations=%lld epochs=%llu\n",
              static_cast<long long>(totals.hops),
              static_cast<long long>(totals.detours),
              static_cast<long long>(totals.escalations),
              static_cast<unsigned long long>(builder.store().current_epoch()));
  std::printf("  windowed (last %zu of %llu rounds): queries=%lld hops_p99=%.1f\n",
              windows.retained(), static_cast<unsigned long long>(windows.ticks()),
              static_cast<long long>(windowed_queries), windowed_hops_p99);
  if (!opt.zero_timings) {
    std::printf("  qps=%.0f decide_us=%.3f route_us=%.3f staleness_p99=%.1f epochs\n",
                qps, decide_median_us, route_median_us, staleness_p99);
    std::printf("  admitted=%lld shed=%lld decide_p99_us=%.3f route_p99_us=%.3f\n",
                static_cast<long long>(admitted_total),
                static_cast<long long>(shed_total), decide_p99_us, route_p99_us);
    std::printf("  rebuild_median_us=%.3f rebuild_p99_us=%.3f\n", rebuild_median_us,
                rebuild_p99_us);
  }

  if (!opt.json.empty()) {
    using json::Value;
    Value::Object meta;
    meta["git_rev"] = MESHROUTE_GIT_REV;
    meta["build_type"] = MESHROUTE_BUILD_TYPE;
    meta["compiler"] = MESHROUTE_COMPILER;
    meta["trace_enabled"] = MESHROUTE_TRACE_ENABLED != 0;
    // The active kernel tier: a fixed string for a given build+env, so it
    // survives the byte-compare ctests — and bench_compare refuses to gate
    // serve BENCH files whose tiers differ (check_meta_mismatch coverage).
    meta["simd"] = std::string(core::simd::tier_name(core::simd::active_tier()));
    if (!opt.zero_timings) {
      // Omitted under --zero-timings: the file must be byte-identical
      // across --threads (the serve_determinism ctest).
      meta["threads"] = static_cast<double>(threads);
    }

    Value::Array kernels;
    for (const auto& [kname, med] :
         {std::pair<const char*, double>{"decide_query", decide_median_us},
          std::pair<const char*, double>{"route_query", route_median_us}}) {
      Value::Object k;
      k["name"] = kname;
      k["iters"] = static_cast<double>(totals.queries);
      k["median_us"] = med;
      kernels.emplace_back(std::move(k));
    }

    Value::Object results;
    results["queries"] = static_cast<double>(totals.queries);
    results["delivered"] = static_cast<double>(totals.delivered);
    results["hops"] = static_cast<double>(totals.hops);
    results["detours"] = static_cast<double>(totals.detours);
    results["escalations"] = static_cast<double>(totals.escalations);
    results["minimal"] = static_cast<double>(totals.minimal);
    results["sub_minimal"] = static_cast<double>(totals.sub_minimal);
    results["epochs"] = static_cast<double>(builder.store().current_epoch());
    // Both stay 0 in deterministic mode (barrier rounds never shed), keeping
    // the file byte-identical across --threads.
    results["admitted_batches"] = static_cast<double>(admitted_total);
    results["shed_batches"] = static_cast<double>(shed_total);

    Value::Object doc;
    doc["bench"] = "serve";
    doc["n"] = static_cast<double>(opt.n);
    doc["faults"] = static_cast<double>(opt.faults);
    doc["seed"] = static_cast<double>(opt.seed);
    doc["rounds"] = static_cast<double>(opt.rounds);
    doc["batch"] = static_cast<double>(opt.batch);
    doc["deterministic"] = opt.deterministic;
    doc["meta"] = std::move(meta);
    doc["kernels"] = std::move(kernels);
    doc["results"] = std::move(results);
    doc["qps"] = qps;
    doc["decide_p99_us"] = opt.zero_timings ? 0.0 : decide_p99_us;
    doc["route_p99_us"] = opt.zero_timings ? 0.0 : route_p99_us;
    // Top-level (not kernels[]) on purpose: rebuild latency is tracked for
    // readers of the BENCH file, while the bench_compare median gate
    // sticks to the per-query kernels.
    doc["rebuild_median_us"] = rebuild_median_us;
    doc["rebuild_p99_us"] = rebuild_p99_us;
    doc["staleness_p99"] = staleness_p99;
    doc["windowed_queries"] = static_cast<double>(windowed_queries);
    doc["windowed_hops_p99"] = windowed_hops_p99;
    doc["windowed_query_p99_us"] = windowed_query_p99_us;
    doc["wall_ms"] = wall_ms;

    if (!json::write_output(opt.json, "json", [&](std::ostream& os) {
          os << json::to_string(Value(std::move(doc))) << "\n";
        })) {
      return 1;
    }
  }

  if (!opt.metrics.empty() && !obs::write_metrics_json(opt.metrics, metrics)) return 1;
  if (!opt.windowed.empty()) {
    // Deterministic dumps carry only the pure-sum metrics; the wall-time
    // histograms (serve.query_us, serve.staleness_epochs) would differ per
    // run and across --threads.
    std::vector<std::string> allow;
    if (opt.deterministic) allow = {"serve.hops", "serve.queries"};
    if (!obs::write_windowed_json(opt.windowed, windows, 0, {}, allow)) return 1;
  }
  return 0;
}
