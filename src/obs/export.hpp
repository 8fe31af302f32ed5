// Exporters: the canonical event stream as Chrome trace-event JSON (loads
// directly into Perfetto / chrome://tracing) and a registry snapshot as a
// flat metrics JSON document.
//
// Both emitters write keys in a fixed order from deterministically ordered
// inputs, so a seeded run's exports are byte-identical across thread counts
// (modulo genuinely non-deterministic measurements such as wall-time
// histograms). Names and non-integral numbers are written through json
// (common/json.hpp), so both documents parse back through json::parse — a
// ctest smoke and tests/test_obs.cpp hold that door shut.
//
// Schemas:
//   trace:   {"traceEvents":[{"name","cat","ph":"i","s":"t","ts",<logical>,
//             "pid":1,"tid":<track>,"args":{"x","y","a","b"}},...],
//             "displayTimeUnit":"ms","otherData":{"dropped":N}}
//   metrics: {"counters":{name:value,...},
//             "histograms":{name:{"count","sum","p50","p95","p99",
//                                 "buckets":[[lo,hi,count],...]},...}}
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace meshroute::obs {

/// Serialize an already-ordered event list (see TraceSink::sorted_events).
void write_trace_json(std::ostream& os, const std::vector<TraceEvent>& events,
                      std::uint64_t dropped = 0);

/// Convenience: canonical stream of `sink`, with its drop count.
void write_trace_json(std::ostream& os, const TraceSink& sink);

/// Honor a --trace target (json::write_output: "" = no-op, "-" = stdout,
/// else the named file). Returns true when written.
bool write_trace_json(const std::string& path, const TraceSink& sink);

/// Append one histogram object, {"count","sum","p50","p95","p99",
/// "buckets":[[lo,hi,count],...]} with only occupied buckets listed — the
/// shape shared by the metrics and windowed documents.
void write_histogram_json(std::string& out, const HistogramSnapshot& hist);

/// Append a counter value (std::to_string: exact beyond a double's 53 bits).
void write_count(std::string& out, std::int64_t v);

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot);

/// --metrics target semantics, as write_trace_json(path, ...).
bool write_metrics_json(const std::string& path, const MetricsSnapshot& snapshot);

}  // namespace meshroute::obs
