// perfbench: the repo benchmark's measuring binary (run.py builds and runs it).
//
//   perfbench <serve_read|serve_churn|paper_sweep> --seed S --seconds T
//             --trace 0|1 --ctl PATH [--tiny]
//   perfbench first-trial --seed S [--tiny]
//
// Prints one JSON document (metrics with units, provenance, attempted/failed
// counts, the answer digest) as its last stdout line. Untraced runs report
// the end-to-end metrics — both under their workload-specific names
// (route_p50_us, inject_p99_ms, ...) and under the workload-neutral names
// BENCHMARK.json tracks (lat_*, side_*, throughput_per_s) — and traced runs
// the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common/simd.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench <serve_read|serve_churn|paper_sweep|first-trial> --seed S "
               "--seconds T --trace 0|1 --ctl PATH [--tiny]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing workload");
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 0);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = v == "1";
    } else if (key == "--ctl") {
      opt.ctl = v;
    } else {
      usage("unknown flag " + key);
    }
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");
  return opt;
}

/// Traced runs measure every layer. The layers a workload does not run are
/// measured by the other workloads' traced replays at the same seed (for
/// the serve layers with a short TCP phase, for the client layer); those
/// fill only metrics the workload's own replay left unset.
void complete_layers(const Options& opt, Report& rep, bool serve, bool sweep) {
  Report other;
  if (serve) {
    perfbench::serve_churn_tcp(opt, other, 0.1);
    perfbench::serve_churn_replay(opt, other);
  }
  if (sweep) {
    Options traced = opt;
    traced.trace = true;
    perfbench::paper_sweep(traced, other);
  }
  const double nesting = rep.metrics.at("trace.nesting_violations").value +
                         other.metrics.at("trace.nesting_violations").value;
  for (const auto& [name, m] : other.metrics) rep.metrics.try_emplace(name, m);
  for (const auto& [key, v] : other.info) {
    if (key.rfind("nesting.", 0) == 0) rep.info.try_emplace(key, v);
  }
  rep.set("trace.nesting_violations", nesting, "count");
  rep.attempted += other.attempted;
  for (const auto& v : other.violations) rep.fail(v);
  rep.failed += other.failed - other.violations.size();
}

/// Copy the workload-specific metrics under the workload-neutral names
/// BENCHMARK.json tracks: `lat` is the workload's headline operation, `side`
/// its second one, `throughput_per_s` its closed-loop capacity.
void track(Report& rep, const std::string& lat, const std::string& side,
           const std::string& throughput) {
  const auto copy = [&](const std::string& tracked, const std::string& specific) {
    rep.set(tracked, rep.metrics.at(specific).value, rep.metrics.at(specific).unit);
  };
  for (const char* p : {"_p50_us", "_p90_us", "_p99_us"}) {
    copy("lat" + std::string(p), lat + p);
    copy("side" + std::string(p), side + p);
  }
  copy("throughput_per_s", throughput);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.workload == "first-trial") return perfbench::sweep_first_trial(opt);
  if (opt.workload != "paper_sweep" && opt.ctl.empty()) usage("--ctl is required");

  Report rep;
  rep.info["compiler"] = PERFBENCH_COMPILER;
  rep.info["build_type"] = PERFBENCH_BUILD_TYPE;
  rep.info["simd_tier"] =
      meshroute::core::simd::tier_name(meshroute::core::simd::active_tier());
  rep.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  try {
    const bool trace = opt.trace;
    if (opt.workload == "serve_read") {
      perfbench::serve_read_tcp(opt, rep, trace ? 0.3 : 1.0);
      if (trace) {
        perfbench::serve_read_replay(opt, rep);
        complete_layers(opt, rep, true, true);
      } else {
        track(rep, "route", "decide", "read_capacity_qps");
      }
    } else if (opt.workload == "serve_churn") {
      perfbench::serve_churn_tcp(opt, rep, trace ? 0.3 : 1.0);
      if (trace) {
        perfbench::serve_churn_replay(opt, rep);
        complete_layers(opt, rep, false, true);
      } else {
        track(rep, "inject", "decide", "publish_capacity_per_s");
        rep.set("inject_p50_ms", rep.metrics.at("inject_p50_us").value * 1e-3, "ms");
        rep.set("inject_p99_ms", rep.metrics.at("inject_p99_us").value * 1e-3, "ms");
      }
    } else if (opt.workload == "paper_sweep") {
      perfbench::paper_sweep(opt, rep);
      if (trace) {
        complete_layers(opt, rep, true, false);
      } else {
        track(rep, "trial", "make_trial", "sweep_trials_per_s");
      }
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (rep.attempted == 0) {
    std::cerr << "perfbench: nothing was attempted\n";
    return 1;
  }
  rep.set("error_rate", static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
          "ratio");
  std::cout << rep.to_json() << std::endl;
  return 0;
}
