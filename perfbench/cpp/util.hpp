// Shared plumbing of the perfbench binary: clocks, sample statistics, the
// result document, digests, /proc readers, and the generated request streams
// that both the TCP load generator and the in-process replay consume.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/coord.hpp"
#include "common/rng.hpp"
#include "fault/fault_set.hpp"

namespace perfbench {

using meshroute::Coord;
using meshroute::Dist;

/// CLOCK_MONOTONIC in microseconds (the same clock Python's time.monotonic
/// reads, so timestamps can cross the process boundary).
[[nodiscard]] double now_us() noexcept;

/// Block until the monotonic clock reaches `t_us` (absolute; no-op if past).
void sleep_until_us(double t_us) noexcept;

/// Nearest-rank percentile (q in [0, 1]) of `v`; sorts `v` in place. Empty
/// input reads 0.
[[nodiscard]] double percentile(std::vector<double>& v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// The quiet-quartile summary of per-window figures: the lower quartile of
/// figures where lower is better (latency), the upper quartile where higher
/// is better (throughput). On a shared host (a VM among other tenants)
/// contention from outside comes and goes in bursts of seconds that only
/// ever add latency or take throughput; the quiet quartile reads the program's own
/// figure from the less disturbed windows, while a change to the program
/// moves every window. Empty input reads 0.
[[nodiscard]] double quiet_quartile(std::vector<double> per_window, bool higher_is_better);

/// Incremental FNV-1a 64 over reply lines (the answer-stream digest).
class Digest {
 public:
  void add(std::string_view s) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// High-water resident set of a process (`pid` 0 = self), in MiB; 0 when
/// /proc is unreadable.
[[nodiscard]] double vm_hwm_mib(int pid = 0);

/// One named measurement with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one perfbench invocation reports: metrics by name, the attempted/
/// failed request counts, the answer digest, and free-form notes (provenance
/// and the workload-specific end-to-end figures) printed for humans.
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  ///< first few failure descriptions

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::string what);
  /// One-line JSON document: {"metrics":{...},"info":{...},"attempted":...}.
  [[nodiscard]] std::string to_json() const;
};

/// Workload sizes, shared by the load generator and the replay so both see
/// the same world and request stream for a seed. `tiny` shrinks everything
/// for the self-test.
struct ServeShape {
  Dist n = 96;                  ///< mesh side of the served world
  std::size_t faults = 64;      ///< seed faults (uniform, from --seed)
  double read_rate = 5000;      ///< open-loop DECIDE+ROUTE pairs per second
  double inject_rate = 50;      ///< open-loop INJECTs per second (churn)
  double churn_read_rate = 500;  ///< open-loop DECIDE+ROUTE pairs per second (churn)
  int injects_per_life = 200;   ///< churn: server restarted after this many
  int pipeline_depth = 64;      ///< closed-loop requests in flight (at most)
  int setup_launches = 11;      ///< serve_read: server launches for setup_s

  [[nodiscard]] static ServeShape make(bool tiny);
};

/// One generated request: kind, endpoints, and its open-loop due time
/// relative to the phase start.
struct Request {
  enum Kind : std::uint8_t { Decide, Route, Inject } kind = Decide;
  Coord a;
  Coord b;
  double due_us = 0;
};

/// Protocol line for a request (no newline).
[[nodiscard]] std::string request_line(const Request& r);

/// The server's epoch-0 world: `shape.faults` uniform faults drawn from
/// `seed`, exactly as `meshroutectl serve --seed` draws them.
[[nodiscard]] meshroute::fault::FaultSet seed_world(const ServeShape& shape, std::uint64_t seed);

/// serve_read open loop: DECIDE-then-ROUTE pairs with endpoints uniform over
/// the nodes that are not faulty in `world` (the paper's queries have
/// fault-free endpoints), both lines of a pair due together, `pairs` of them
/// at `rate`.
[[nodiscard]] std::vector<Request> read_stream(std::uint64_t seed,
                                               const meshroute::fault::FaultSet& world,
                                               std::size_t pairs, double rate);

/// serve_churn open loop for one server life: `injects` INJECTs at uniform
/// random sites at `inject_rate`, with DECIDE-then-ROUTE pairs (endpoints as
/// in read_stream) at `read_rate` between them.
[[nodiscard]] std::vector<Request> churn_stream(std::uint64_t seed,
                                                const meshroute::fault::FaultSet& world,
                                                int injects, double inject_rate,
                                                double read_rate);

/// Stream seeds derived from the benchmark seed (the server's world uses the
/// benchmark seed itself, exactly as `meshroutectl serve --seed`).
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) noexcept;

/// Mirror of one parsed reply line.
struct Reply {
  bool ok = false;           ///< "OK <kind> ..." with every expected field
  std::string decision;      ///< DECIDE: minimal|sub-minimal|unknown
  std::string status;        ///< ROUTE: delivered|...
  std::string rung;          ///< ROUTE
  int hops = -1;             ///< ROUTE
  std::int64_t epoch = -1;
};
[[nodiscard]] Reply parse_reply(Request::Kind kind, std::string_view line);

}  // namespace perfbench
