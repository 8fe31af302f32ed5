#include "experiment/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"
#include "experiment/workspace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace meshroute::experiment {
namespace {

/// Parse a non-negative integer flag value; throws on garbage.
int parse_int(const std::string& flag, const char* value) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || v < 0) {
    throw std::invalid_argument(flag + " expects a non-negative integer, got '" + value + "'");
  }
  return static_cast<int>(v);
}

}  // namespace

std::string SweepConfig::usage() {
  return
      "usage: <bench> [--trials=N] [--dests=N] [--n=N] [--seed=S] [--threads=T]\n"
      "               [--json=FILE|-] [--metrics=FILE|-] [--quick]\n"
      "  --trials=N     fault configurations per sweep point   (default 60)\n"
      "  --dests=N      destinations per configuration          (default 40)\n"
      "  --n=N          mesh side                               (default 200)\n"
      "  --seed=S       base seed, decimal or 0x hex            (default 0x5eed2002)\n"
      "  --threads=T    worker threads, 0 = hardware            (default 0)\n"
      "  --json=FILE    structured output; '-' writes the JSON as stdout's last line\n"
      "  --metrics=FILE flat counter/histogram snapshot (obs registry); '-' = stdout\n"
      "  --quick        smoke-test sweep (trials=8, dests=10)\n";
}

std::optional<SweepConfig> SweepConfig::try_parse(int argc, char** argv, std::string* error) {
  SweepConfig cfg;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value_of = [&](std::string_view prefix) -> const char* {
        return arg.compare(0, prefix.size(), prefix) == 0 ? arg.c_str() + prefix.size()
                                                          : nullptr;
      };
      if (const char* v = value_of("--trials=")) {
        cfg.trials = parse_int("--trials", v);
        if (cfg.trials <= 0) throw std::invalid_argument("--trials must be positive");
      } else if (const char* v = value_of("--dests=")) {
        cfg.dests = parse_int("--dests", v);
        if (cfg.dests <= 0) throw std::invalid_argument("--dests must be positive");
      } else if (const char* v = value_of("--n=")) {
        cfg.n = static_cast<Dist>(parse_int("--n", v));
        if (cfg.n < 2) throw std::invalid_argument("--n must be at least 2");
      } else if (const char* v = value_of("--seed=")) {
        char* end = nullptr;
        cfg.seed = std::strtoull(v, &end, 0);  // base 0: decimal and 0x hex
        if (end == v || *end != '\0') {
          throw std::invalid_argument(std::string("--seed expects an integer, got '") + v +
                                      "'");
        }
      } else if (const char* v = value_of("--threads=")) {
        cfg.threads = parse_int("--threads", v);
      } else if (const char* v = value_of("--json=")) {
        if (*v == '\0') throw std::invalid_argument("--json expects a file name or '-'");
        cfg.json_path = v;
      } else if (const char* v = value_of("--metrics=")) {
        if (*v == '\0') throw std::invalid_argument("--metrics expects a file name or '-'");
        cfg.metrics_path = v;
      } else if (arg == "--quick") {
        cfg.quick = true;
        cfg.trials = 8;
        cfg.dests = 10;
      } else {
        throw std::invalid_argument("unknown flag '" + arg + "'");
      }
    }
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
  return cfg;
}

SweepConfig SweepConfig::parse(int argc, char** argv) {
  std::string error;
  if (auto cfg = try_parse(argc, argv, &error)) return *std::move(cfg);
  std::cerr << "error: " << error << "\n" << usage();
  std::exit(2);
}

int SweepConfig::resolved_threads() const {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int SweepConfig::resolved_batch() const { return std::max(1, batch); }

std::string SweepConfig::setup_string() const {
  return "n=" + std::to_string(n) + ", " + std::to_string(trials) + " trials x " +
         std::to_string(dests) + " destinations";
}

SweepResult::SweepResult(std::vector<std::string> columns, std::vector<SweepPoint> points,
                         std::vector<std::vector<analysis::Accumulator>> stats,
                         double wall_ms)
    : columns_(std::move(columns)),
      points_(std::move(points)),
      stats_(std::move(stats)),
      wall_ms_(wall_ms) {}

std::size_t SweepResult::column_index(std::string_view column) const {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] == column) return c;
  }
  throw std::invalid_argument("SweepResult: unknown column '" + std::string(column) + "'");
}

double SweepResult::mean(std::size_t point, std::string_view column) const {
  return stats_.at(point)[column_index(column)].mean();
}

double SweepResult::mean_or(std::size_t point, std::string_view column,
                            double fallback) const {
  const analysis::Accumulator& a = stats_.at(point)[column_index(column)];
  return a.count() > 0 ? a.mean() : fallback;
}

double SweepResult::ci95(std::size_t point, std::string_view column) const {
  return stats_.at(point)[column_index(column)].ci95_half_width();
}

std::int64_t SweepResult::count(std::size_t point, std::string_view column) const {
  return stats_.at(point)[column_index(column)].count();
}

Table SweepResult::table(const std::string& x_name,
                         const std::vector<std::string>& selected,
                         const std::vector<std::string>& headers) const {
  if (!headers.empty() && headers.size() != selected.size()) {
    throw std::invalid_argument("SweepResult::table: headers/selected size mismatch");
  }
  std::vector<std::size_t> indices;
  indices.reserve(selected.size());
  for (const std::string& name : selected) indices.push_back(column_index(name));

  std::vector<std::string> table_columns{x_name};
  for (std::size_t i = 0; i < selected.size(); ++i) {
    table_columns.push_back(headers.empty() ? selected[i] : headers[i]);
  }
  Table t(std::move(table_columns));
  for (std::size_t p = 0; p < points_.size(); ++p) {
    std::vector<double> row{points_[p].x};
    for (const std::size_t c : indices) row.push_back(stats_[p][c].mean());
    t.add_row(row);
  }
  return t;
}

SweepRunner::SweepRunner(SweepConfig config, std::vector<std::string> columns)
    : config_(std::move(config)), columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("SweepRunner: no columns");
}

SweepResult SweepRunner::run(const TrialFn& fn) const {
  return run(fault_count_points(config_.fault_counts), fn);
}

SweepResult SweepRunner::run(std::vector<SweepPoint> points, const TrialFn& fn) const {
  const auto t0 = std::chrono::steady_clock::now();
  for (SweepPoint& p : points) {
    if (p.n == 0) p.n = config_.n;
    if (p.trials <= 0) p.trials = config_.trials;
  }

  struct CellRef {
    std::size_t point;
    int trial;
  };
  std::vector<CellRef> cells;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (int t = 0; t < points[p].trials; ++t) cells.push_back({p, t});
  }

  // Every cell accumulates into its own private row; the pool only ever
  // races on the work-queue cursor.
  std::vector<TrialCounters> raw(cells.size(), TrialCounters(columns_.size()));
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Per-cell wall time is split into the trial/model construction share
  // (whatever make_trial charged to workspace.build_us) and the remainder
  // (routing + oracle evaluation): two steady_clock reads per cell, noise
  // next to a trial's work. Cells are counted too so --metrics always
  // reports how much grid a run covered.
  obs::Counter& cells_ctr = obs::Registry::global().counter("sweep.cells");
  obs::Histogram& build_us_hist = obs::Registry::global().histogram("sweep.build_us");
  obs::Histogram& route_us_hist = obs::Registry::global().histogram("sweep.route_us");

  const auto batch = static_cast<std::size_t>(config_.resolved_batch());
  const auto worker = [&]() {
    TrialWorkspace workspace;
    // Each worker thread collects trace events into its own buffer; the
    // canonical event order is value-based, so the thread assignment of
    // cells never shows in sorted output.
    std::optional<obs::TraceScope> scope;
    if (trace_sink_ != nullptr) scope.emplace(*trace_sink_);
    for (;;) {
      const std::size_t begin = next.fetch_add(batch, std::memory_order_relaxed);
      if (begin >= cells.size()) return;
      const std::size_t end = std::min(cells.size(), begin + batch);
      for (std::size_t i = begin; i < end; ++i) {
        const CellRef& ref = cells[i];
        const SweepPoint& p = points[ref.point];
        Rng rng(cell_seed(config_.seed, p.faults, p.n, ref.trial));
        try {
          workspace.build_us = 0.0;
          const auto c0 = std::chrono::steady_clock::now();
          fn(SweepCell{p, ref.trial, ref.point}, rng, workspace, raw[i]);
          const auto c1 = std::chrono::steady_clock::now();
          cells_ctr.add(1);
          const auto total_us =
              std::chrono::duration_cast<std::chrono::microseconds>(c1 - c0).count();
          const auto build_us = static_cast<std::int64_t>(workspace.build_us);
          build_us_hist.observe(std::min<std::int64_t>(build_us, total_us));
          route_us_hist.observe(std::max<std::int64_t>(total_us - build_us, 0));
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          return;
        }
      }
    }
  };

  const int nthreads = std::max(
      1, std::min(config_.resolved_threads(), static_cast<int>(cells.size())));
  if (nthreads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  // Fixed-order reduction: cells were enumerated grouped by point in trial
  // order, so merging sequentially is identical for every thread count.
  std::vector<std::vector<analysis::Accumulator>> stats(
      points.size(), std::vector<analysis::Accumulator>(columns_.size()));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      stats[cells[i].point][c].merge(raw[i].cell(c));
    }
  }

  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  return SweepResult(columns_, std::move(points), std::move(stats), wall_ms);
}

std::vector<SweepPoint> fault_count_points(const std::vector<std::size_t>& ks) {
  std::vector<SweepPoint> points;
  points.reserve(ks.size());
  for (const std::size_t k : ks) {
    points.push_back(SweepPoint{.x = static_cast<double>(k), .faults = k});
  }
  return points;
}

void write_sweep_json(std::ostream& os, const SweepConfig& config,
                      const std::vector<TaggedTable>& tables, double wall_ms) {
  std::string out;
  out += '[';
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"tag\":";
    json::write_string(out, tables[i].tag);
    out += ",\"n\":" + std::to_string(config.n);
    out += ",\"trials\":" + std::to_string(config.trials);
    out += ",\"dests\":" + std::to_string(config.dests);
    out += ",\"seed\":" + std::to_string(config.seed);
    out += ",\"points\":";
    tables[i].table->append_json_points(out);
    out += ",\"wall_ms\":";
    json::write_number(out, wall_ms);
    out += '}';
  }
  out += ']';
  os << out << "\n";
}

bool write_sweep_json(const SweepConfig& config, const std::vector<TaggedTable>& tables,
                      double wall_ms) {
  if (!config.json_path.empty() &&
      !json::write_output(config.json_path, "json", [&](std::ostream& os) {
        write_sweep_json(os, config, tables, wall_ms);
      })) {
    std::exit(1);
  }
  if (!config.metrics_path.empty() &&
      !obs::write_metrics_json(config.metrics_path, obs::Registry::global().snapshot())) {
    std::exit(1);
  }
  return !config.json_path.empty() || !config.metrics_path.empty();
}

}  // namespace meshroute::experiment
