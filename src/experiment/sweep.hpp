// The parallel, deterministic sweep engine behind every figure/ablation
// bench: the paper's Monte Carlo grid (fault-count k x trial) fanned across
// a fixed-size thread pool.
//
// Determinism contract: results are bit-identical for ANY --threads value
// and ANY worker-claim size (SweepConfig::batch). Two mechanisms guarantee
// it (verified by tests/test_experiment.cpp):
//
//   1. Seed-splitting, never a shared stream. Each (point, trial) cell gets
//      an independent Rng seeded by hashing (base_seed, k, n, trial_index)
//      through SplitMix64 (`cell_seed`), so a cell's draws do not depend on
//      which thread runs it or in what order.
//   2. Fixed-order reduction. Cells accumulate into private
//      analysis::Accumulator rows; after the pool drains, per-point
//      statistics merge in trial order regardless of completion order.
//
// Usage (see bench/fig09_extension1.cpp for the full pattern):
//
//   const auto cfg = experiment::SweepConfig::parse(argc, argv);
//   experiment::SweepRunner runner(cfg, {"safe", "ext1", "existence"});
//   const auto result = runner.run([&](const experiment::SweepCell& cell, Rng& rng,
//                                      experiment::TrialWorkspace& ws,
//                                      experiment::TrialCounters& out) {
//     const auto& trial =
//         experiment::make_trial({.n = cell.n(), .faults = cell.faults()}, rng, ws);
//     for (int s = 0; s < cfg.dests; ++s) out.count(0, ...);
//   });
//
// Each worker thread owns one TrialWorkspace for the whole run, so
// steady-state trials reuse every grid/scratch buffer instead of
// reallocating them per cell (results are unaffected — the workspace path
// is bit-identical to the allocating one).
//   experiment::Table t = result.table("faults", {"safe", "ext1", "existence"});
//   experiment::write_sweep_json(cfg, {{"fig09a", &t}}, result.wall_ms());
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/stats.hpp"
#include "common/coord.hpp"
#include "common/rng.hpp"
#include "experiment/table.hpp"

namespace meshroute::obs {
class TraceSink;
}  // namespace meshroute::obs

namespace meshroute::experiment {

struct TrialWorkspace;

/// Shared bench configuration, parsed from the common flag set:
///   --trials=N --dests=N --n=N --seed=S --threads=T
///   --json=FILE|- --metrics=FILE|- --quick
/// Unknown flags are rejected with a usage message (parse() exits; try_parse
/// reports the error for tests).
struct SweepConfig {
  Dist n = 200;                    ///< mesh side
  int trials = 60;                 ///< fault configurations per sweep point
  int dests = 40;                  ///< destinations per configuration
  std::uint64_t seed = 0x5eed2002; ///< base seed (hex accepted on the flag)
  int threads = 0;                 ///< worker threads; 0 = hardware concurrency
  int batch = 0;                   ///< cells per worker claim (see resolved_batch)
  std::string json_path;           ///< --json target; "" = off, "-" = stdout
  std::string metrics_path;        ///< --metrics target; "" = off, "-" = stdout
  bool quick = false;              ///< --quick given (trials=8, dests=10)
  std::vector<std::size_t> fault_counts;  ///< default k = 10..200 step 10

  SweepConfig() {
    for (std::size_t k = 10; k <= 200; k += 10) fault_counts.push_back(k);
  }

  /// Parse or die: on a bad/unknown flag prints the error and usage to
  /// stderr and exits with status 2.
  [[nodiscard]] static SweepConfig parse(int argc, char** argv);

  /// Parse, reporting failure instead of exiting (for tests).
  [[nodiscard]] static std::optional<SweepConfig> try_parse(int argc, char** argv,
                                                            std::string* error);

  /// The flag synopsis printed on parse errors.
  [[nodiscard]] static std::string usage();

  /// Worker-thread count after resolving 0 to the hardware concurrency.
  [[nodiscard]] int resolved_threads() const;

  /// Worker-claim size: max(1, batch). Results do not depend on it.
  [[nodiscard]] int resolved_batch() const;

  /// "n=200, 60 trials x 40 destinations" — the benches' title suffix.
  [[nodiscard]] std::string setup_string() const;
};

/// One sweep point: the x value recorded in tables plus the per-point trial
/// parameters. `n == 0` / `trials == 0` inherit the config defaults.
struct SweepPoint {
  double x = 0;
  std::size_t faults = 0;
  Dist n = 0;
  int trials = 0;
};

/// Identity of one grid cell, handed to the trial functor.
struct SweepCell {
  SweepPoint point;
  int trial = 0;
  std::size_t point_index = 0;  ///< position of `point` in the sweep's grid

  [[nodiscard]] Dist n() const noexcept { return point.n; }
  [[nodiscard]] std::size_t faults() const noexcept { return point.faults; }
  [[nodiscard]] double x() const noexcept { return point.x; }

  /// Logical trace stream for this cell's events (obs::TraceEvent::track):
  /// unique per (point, trial), never 0 — track 0 stays the global stream.
  [[nodiscard]] std::uint64_t track_id() const noexcept {
    return ((static_cast<std::uint64_t>(point_index) + 1) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(trial));
  }
};

/// The independent seed for a grid cell (SplitMix64 hash chain over base
/// seed, fault count, mesh side, and trial index).
[[nodiscard]] constexpr std::uint64_t cell_seed(std::uint64_t base_seed, std::size_t faults,
                                                Dist n, int trial) noexcept {
  std::uint64_t h = splitmix64(base_seed);
  h = seed_combine(h, static_cast<std::uint64_t>(faults));
  h = seed_combine(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(n)));
  h = seed_combine(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(trial)));
  return h;
}

/// One trial's row of named counters. Columns are fixed by the SweepRunner;
/// a column may stay empty in a given trial (e.g. "no blocks were built"),
/// in which case it simply contributes nothing to that point's statistic.
class TrialCounters {
 public:
  explicit TrialCounters(std::size_t columns) : cells_(columns) {}

  /// Accumulate a measurement into a mean-of-values column.
  void observe(std::size_t column, double value) { cells_.at(column).add(value); }

  /// Accumulate a success/failure into a proportion column.
  void count(std::size_t column, bool success) {
    cells_.at(column).add(success ? 1.0 : 0.0);
  }

  [[nodiscard]] const analysis::Accumulator& cell(std::size_t column) const {
    return cells_.at(column);
  }
  [[nodiscard]] std::size_t columns() const noexcept { return cells_.size(); }

 private:
  std::vector<analysis::Accumulator> cells_;
};

/// Reduced sweep output: per-(point, column) statistics plus wall time.
class SweepResult {
 public:
  SweepResult(std::vector<std::string> columns, std::vector<SweepPoint> points,
              std::vector<std::vector<analysis::Accumulator>> stats, double wall_ms);

  [[nodiscard]] const std::vector<SweepPoint>& points() const noexcept { return points_; }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept { return columns_; }
  [[nodiscard]] double wall_ms() const noexcept { return wall_ms_; }

  /// Mean of a column at a point (0.0 when the column never accumulated).
  [[nodiscard]] double mean(std::size_t point, std::string_view column) const;
  /// Mean, or `fallback` when the column never accumulated at this point.
  [[nodiscard]] double mean_or(std::size_t point, std::string_view column,
                               double fallback) const;
  /// ~95% confidence half-width of the mean.
  [[nodiscard]] double ci95(std::size_t point, std::string_view column) const;
  /// Number of samples the column accumulated at this point.
  [[nodiscard]] std::int64_t count(std::size_t point, std::string_view column) const;

  /// Project into a printable Table: first column `x_name` (the points' x
  /// values), then the selected counter columns. `headers` renames them
  /// (empty = keep internal names; otherwise must match `selected`'s size).
  [[nodiscard]] Table table(const std::string& x_name,
                            const std::vector<std::string>& selected,
                            const std::vector<std::string>& headers = {}) const;

 private:
  [[nodiscard]] std::size_t column_index(std::string_view column) const;

  std::vector<std::string> columns_;
  std::vector<SweepPoint> points_;
  std::vector<std::vector<analysis::Accumulator>> stats_;  // [point][column]
  double wall_ms_ = 0;
};

/// Fans the (point, trial) grid across a fixed-size thread pool and reduces
/// per point in fixed trial order. The trial functor must be thread-safe
/// with respect to its captures (treat captured state as read-only; all
/// mutation goes through the per-cell Rng and TrialCounters).
class SweepRunner {
 public:
  using TrialFn = std::function<void(const SweepCell&, Rng&, TrialWorkspace&, TrialCounters&)>;

  SweepRunner(SweepConfig config, std::vector<std::string> columns);

  /// Run over the default grid: one point per config.fault_counts entry.
  [[nodiscard]] SweepResult run(const TrialFn& fn) const;

  /// Run over a custom point list (mesh-size sweeps, injection-rate sweeps,
  /// reduced k grids, ...).
  [[nodiscard]] SweepResult run(std::vector<SweepPoint> points, const TrialFn& fn) const;

  /// Collect trace events from every worker thread into `sink` (null = off,
  /// the default). The sink must outlive run(). With MESHROUTE_TRACE
  /// compiled out this is accepted but no events arrive.
  void set_trace_sink(obs::TraceSink* sink) noexcept { trace_sink_ = sink; }

  [[nodiscard]] const SweepConfig& config() const noexcept { return config_; }

 private:
  SweepConfig config_;
  std::vector<std::string> columns_;
  obs::TraceSink* trace_sink_ = nullptr;
};

/// Points with x = k for a plain fault-count sweep.
[[nodiscard]] std::vector<SweepPoint> fault_count_points(const std::vector<std::size_t>& ks);

/// One (tag, table) pair of a bench's structured output.
struct TaggedTable {
  std::string tag;
  const Table* table = nullptr;
};

/// Serialize a bench run as a single-line JSON array with one object per
/// table, each `{tag, n, trials, dests, seed, points:[{column: value, ...}],
/// wall_ms}`. Every field except `wall_ms` is deterministic for a given
/// config — byte-identical across `--threads` values.
void write_sweep_json(std::ostream& os, const SweepConfig& config,
                      const std::vector<TaggedTable>& tables, double wall_ms);

/// Honor `config.json_path` AND `config.metrics_path` (a flat obs::Registry
/// snapshot via obs::write_metrics_json), each a json::write_output target.
/// Exits 1 when either file cannot be opened; returns true when either
/// output was written.
bool write_sweep_json(const SweepConfig& config, const std::vector<TaggedTable>& tables,
                      double wall_ms);

}  // namespace meshroute::experiment
