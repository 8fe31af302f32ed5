// The three benchmark workloads. Each entry point fills a Report; the
// untraced entry points produce the end-to-end metrics, the traced ones the
// per-layer metrics (METRICS.md lists both, with the layer each one belongs
// to and the end-to-end metric it should move).
#pragma once

#include <cstdint>
#include <string>

#include "util.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;        ///< self-test sizes
  std::string ctl;          ///< path of the meshroutectl binary under test
};

/// serve_read / serve_churn over loopback TCP against `meshroutectl serve`.
/// `fraction` scales the measured phases (the traced run keeps a short TCP
/// phase for the client-side layer numbers).
void serve_read_tcp(const Options& opt, Report& rep, double fraction);
void serve_churn_tcp(const Options& opt, Report& rep, double fraction);

/// Traced in-process replays of the same generated streams on replicas of
/// the same world, with a span around each call into a layer.
void serve_read_replay(const Options& opt, Report& rep);
void serve_churn_replay(const Options& opt, Report& rep);

/// paper_sweep: Fig. 12 through experiment::SweepRunner. Traced mode adds
/// the per-cell layer spans and the from-scratch builder replicas.
void paper_sweep(const Options& opt, Report& rep);

/// Child mode behind paper_sweep's setup_s: run the first Fig. 12 cells and
/// print the monotonic microsecond at which the first trial finished.
int sweep_first_trial(const Options& opt);

}  // namespace perfbench
