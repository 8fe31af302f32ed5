#include "obs/export.hpp"

#include <ostream>

#include "common/json.hpp"

namespace meshroute::obs {

void write_trace_json(std::ostream& os, const std::vector<TraceEvent>& events,
                      std::uint64_t dropped) {
  std::string out;
  out += "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    json::write_string(out, to_string(e.kind));
    out += ",\"cat\":\"meshroute\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    out += std::to_string(e.time);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(e.track);
    out += ",\"args\":{\"x\":";
    out += std::to_string(e.at.x);
    out += ",\"y\":";
    out += std::to_string(e.at.y);
    out += ",\"a\":";
    out += std::to_string(e.a);
    out += ",\"b\":";
    out += std::to_string(e.b);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":";
  out += std::to_string(dropped);
  out += "}}";
  os << out << "\n";
}

void write_trace_json(std::ostream& os, const TraceSink& sink) {
  write_trace_json(os, sink.sorted_events(), sink.dropped());
}

bool write_trace_json(const std::string& path, const TraceSink& sink) {
  return json::write_output(path, "trace",
                            [&](std::ostream& os) { write_trace_json(os, sink); });
}

void write_histogram_json(std::string& out, const HistogramSnapshot& hist) {
  out += "{\"count\":";
  out += std::to_string(hist.count);
  out += ",\"sum\":";
  out += std::to_string(hist.sum);
  out += ",\"p50\":";
  json::write_number(out, hist.percentile(0.50));
  out += ",\"p95\":";
  json::write_number(out, hist.percentile(0.95));
  out += ",\"p99\":";
  json::write_number(out, hist.percentile(0.99));
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    if (hist.buckets[i] == 0) continue;  // sparse: only occupied buckets
    if (!first) out += ',';
    first = false;
    out += '[';
    out += std::to_string(HistogramSnapshot::bucket_lo(i));
    out += ',';
    out += std::to_string(HistogramSnapshot::bucket_hi(i));
    out += ',';
    out += std::to_string(hist.buckets[i]);
    out += ']';
  }
  out += "]}";
}

void write_count(std::string& out, std::int64_t v) { out += std::to_string(v); }

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":";
  json::write_object(out, snapshot.counters, write_count);
  out += ",\"histograms\":";
  json::write_object(out, snapshot.histograms, write_histogram_json);
  out += '}';
  os << out << "\n";
}

bool write_metrics_json(const std::string& path, const MetricsSnapshot& snapshot) {
  return json::write_output(path, "metrics",
                            [&](std::ostream& os) { write_metrics_json(os, snapshot); });
}

}  // namespace meshroute::obs
