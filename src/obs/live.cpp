#include "obs/live.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <utility>

#include "common/json.hpp"
#include "obs/export.hpp"

namespace meshroute::obs {

namespace {

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Prometheus metric name: prefix + name with '.'/'-' flattened to '_'.
std::string prom_name(std::string_view prefix, std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + name.size());
  out += prefix;
  for (const char c : name) out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

void append_event_json(std::string& out, const TraceEvent& e) {
  out += "{\"name\":";
  json::write_string(out, to_string(e.kind));
  out += ",\"track\":";
  out += std::to_string(e.track);
  out += ",\"time\":";
  out += std::to_string(e.time);
  out += ",\"x\":";
  out += std::to_string(e.at.x);
  out += ",\"y\":";
  out += std::to_string(e.at.y);
  out += ",\"a\":";
  out += std::to_string(e.a);
  out += ",\"b\":";
  out += std::to_string(e.b);
  out += '}';
}

}  // namespace

MetricsSnapshot snapshot_delta(const MetricsSnapshot& cur, const MetricsSnapshot& base) {
  MetricsSnapshot out;
  for (const auto& [name, value] : cur.counters) {
    const auto it = base.counters.find(name);
    out.counters[name] = it == base.counters.end() ? value : value - it->second;
  }
  for (const auto& [name, hist] : cur.histograms) {
    const auto it = base.histograms.find(name);
    if (it == base.histograms.end()) {
      out.histograms[name] = hist;
      continue;
    }
    HistogramSnapshot d = hist;
    d.count -= it->second.count;
    d.sum -= it->second.sum;
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      d.buckets[i] -= it->second.buckets[i];
    }
    out.histograms[name] = d;
  }
  return out;
}

LiveWindows::LiveWindows(Registry& registry, WindowConfig cfg)
    : registry_(registry),
      cfg_(cfg),
      baseline_(registry.snapshot()),
      last_advance_us_(steady_now_us()) {
  if (cfg_.retain == 0) cfg_.retain = 1;
}

void LiveWindows::advance() {
  const std::int64_t now = steady_now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t span = now - last_advance_us_;
  last_advance_us_ = now;
  MetricsSnapshot cur = registry_.snapshot();
  ring_.push_back(WindowDelta{ticks_, span < 0 ? 0 : span, snapshot_delta(cur, baseline_)});
  baseline_ = std::move(cur);
  ++ticks_;
  while (ring_.size() > cfg_.retain) ring_.pop_front();
}

void LiveWindows::advance(std::int64_t span_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_advance_us_ = steady_now_us();
  MetricsSnapshot cur = registry_.snapshot();
  ring_.push_back(WindowDelta{ticks_, span_us, snapshot_delta(cur, baseline_)});
  baseline_ = std::move(cur);
  ++ticks_;
  while (ring_.size() > cfg_.retain) ring_.pop_front();
}

std::uint64_t LiveWindows::ticks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ticks_;
}

std::size_t LiveWindows::retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

MetricsSnapshot LiveWindows::windowed(std::size_t last_n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = last_n == 0 ? ring_.size() : std::min(last_n, ring_.size());
  MetricsSnapshot merged;
  for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i) {
    const MetricsSnapshot& d = ring_[i].delta;
    for (const auto& [name, value] : d.counters) merged.counters[name] += value;
    for (const auto& [name, hist] : d.histograms) merged.histograms[name].merge(hist);
  }
  return merged;
}

std::int64_t LiveWindows::windowed_span_us(std::size_t last_n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = last_n == 0 ? ring_.size() : std::min(last_n, ring_.size());
  std::int64_t span = 0;
  for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i) span += ring_[i].span_us;
  return span;
}

double LiveWindows::rate_per_s(std::string_view counter, std::size_t last_n) const {
  const std::int64_t span = windowed_span_us(last_n);
  if (span <= 0) return 0.0;
  const std::int64_t moved = windowed_count(counter, last_n);
  return static_cast<double>(moved) / (static_cast<double>(span) / 1e6);
}

std::int64_t LiveWindows::windowed_count(std::string_view counter,
                                         std::size_t last_n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = last_n == 0 ? ring_.size() : std::min(last_n, ring_.size());
  std::int64_t moved = 0;
  for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i) {
    const auto it = ring_[i].delta.counters.find(std::string(counter));
    if (it != ring_[i].delta.counters.end()) moved += it->second;
  }
  return moved;
}

std::vector<WindowDelta> LiveWindows::deltas() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot,
                      const std::map<std::string, double>& gauges,
                      std::string_view prefix) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    // Counters get the conventional _total suffix unless the registry name
    // already carries it (serve.shed_total must not become ..._total_total).
    std::string pname = prom_name(prefix, name);
    if (pname.size() < 6 || pname.compare(pname.size() - 6, 6, "_total") != 0) {
      pname += "_total";
    }
    out += "# TYPE " + pname + " counter\n";
    out += pname + ' ' + std::to_string(value) + '\n';
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string pname = prom_name(prefix, name);
    out += "# TYPE " + pname + " histogram\n";
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      if (hist.buckets[i] == 0) continue;  // sparse, but le values stay cumulative
      cumulative += hist.buckets[i];
      out += pname + "_bucket{le=\"" + std::to_string(HistogramSnapshot::bucket_hi(i)) +
             "\"} " + std::to_string(cumulative) + '\n';
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(hist.count) + '\n';
    out += pname + "_sum " + std::to_string(hist.sum) + '\n';
    out += pname + "_count " + std::to_string(hist.count) + '\n';
  }
  for (const auto& [name, value] : gauges) {
    const std::string pname = prom_name(prefix, name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + ' ';
    // Prometheus spells the non-finite values that json writes as null.
    if (std::isfinite(value)) {
      json::write_number(out, value);
    } else {
      out += std::isnan(value) ? "NaN" : value > 0 ? "+Inf" : "-Inf";
    }
    out += '\n';
  }
  out += "# EOF\n";
  os << out;
}

void write_windowed_json(std::ostream& os, const LiveWindows& windows,
                         std::size_t last_n,
                         const std::map<std::string, double>& gauges,
                         const std::vector<std::string>& allow) {
  MetricsSnapshot merged = windows.windowed(last_n);
  if (!allow.empty()) {
    const auto denied = [&](const auto& entry) {
      return std::find(allow.begin(), allow.end(), entry.first) == allow.end();
    };
    std::erase_if(merged.counters, denied);
    std::erase_if(merged.histograms, denied);
  }
  const std::int64_t span_us = windows.windowed_span_us(last_n);

  std::string out;
  out += "{\"windows\":{\"ticks\":";
  out += std::to_string(windows.ticks());
  out += ",\"retained\":";
  out += std::to_string(windows.retained());
  out += ",\"span_us\":";
  out += std::to_string(span_us);
  out += "},\"counters\":";
  json::write_object(out, merged.counters, write_count);
  out += ",\"rates\":";
  json::write_object(out, merged.counters, [&](std::string& o, std::int64_t value) {
    json::write_number(o, span_us > 0 ? static_cast<double>(value) /
                                            (static_cast<double>(span_us) / 1e6)
                                      : 0.0);
  });
  out += ",\"histograms\":";
  json::write_object(out, merged.histograms, write_histogram_json);
  if (!gauges.empty()) {
    out += ",\"gauges\":";
    json::write_object(out, gauges, json::write_number);
  }
  out += '}';
  os << out << "\n";
}

bool write_windowed_json(const std::string& path, const LiveWindows& windows,
                         std::size_t last_n,
                         const std::map<std::string, double>& gauges,
                         const std::vector<std::string>& allow) {
  return json::write_output(path, "windowed", [&](std::ostream& os) {
    write_windowed_json(os, windows, last_n, gauges, allow);
  });
}

const char* to_string(SpanStage stage) noexcept {
  switch (stage) {
    case SpanStage::Admission: return "admission";
    case SpanStage::Acquire: return "acquire";
    case SpanStage::Work: return "work";
    case SpanStage::Reply: return "reply";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity, std::size_t exemplar_capacity)
    : capacity_(capacity ? capacity : 1),
      exemplar_capacity_(exemplar_capacity ? exemplar_capacity : 1) {}

void FlightRecorder::record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recorded_;
  ring_.push_back(event);
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

void FlightRecorder::add_exemplar(std::vector<TraceEvent> chain) {
  std::lock_guard<std::mutex> lock(mutex_);
  exemplars_.push_back(std::move(chain));
  while (exemplars_.size() > exemplar_capacity_) exemplars_.pop_front();
}

std::vector<TraceEvent> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::vector<std::vector<TraceEvent>> FlightRecorder::exemplars() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {exemplars_.begin(), exemplars_.end()};
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void write_flight_json(std::ostream& os, const FlightRecorder& recorder,
                       std::string_view reason) {
  const std::vector<TraceEvent> events = recorder.events();
  const std::vector<std::vector<TraceEvent>> exemplars = recorder.exemplars();

  std::string out;
  out += "{\"flight\":{\"reason\":";
  json::write_string(out, reason);
  out += ",\"recorded\":";
  out += std::to_string(recorder.recorded());
  out += ",\"dropped\":";
  out += std::to_string(recorder.dropped());
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ',';
    append_event_json(out, events[i]);
  }
  out += "],\"exemplars\":[";
  for (std::size_t i = 0; i < exemplars.size(); ++i) {
    if (i != 0) out += ',';
    out += '[';
    for (std::size_t j = 0; j < exemplars[i].size(); ++j) {
      if (j != 0) out += ',';
      append_event_json(out, exemplars[i][j]);
    }
    out += ']';
  }
  out += "]}}";
  os << out << "\n";
}

bool write_flight_json(const std::string& path, const FlightRecorder& recorder,
                       std::string_view reason) {
  return json::write_output(path, "postmortem", [&](std::ostream& os) {
    write_flight_json(os, recorder, reason);
  });
}

}  // namespace meshroute::obs
