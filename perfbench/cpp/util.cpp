#include "util.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>

#include "mesh/mesh2d.hpp"

namespace perfbench {

double now_us() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

void sleep_until_us(double t_us) noexcept {
  if (t_us <= now_us()) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_us / 1e6);
  ts.tv_nsec = static_cast<long>((t_us - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double quiet_quartile(std::vector<double> per_window, bool higher_is_better) {
  return percentile(per_window, higher_is_better ? 0.75 : 0.25);
}

void Digest::add(std::string_view s) noexcept {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  h_ ^= '\n';
  h_ *= 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double vm_hwm_mib(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

void Report::fail(std::string what) {
  ++failed;
  if (violations.size() < 8) violations.push_back(std::move(what));
}

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ",") << json_string(name) << ":{\"value\":" << json_number(m.value)
       << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  os << "},\"info\":{";
  first = true;
  for (const auto& [k, v] : info) {
    os << (first ? "" : ",") << json_string(k) << ":" << json_string(v);
    first = false;
  }
  os << "},\"violations\":[";
  first = true;
  for (const auto& v : violations) {
    os << (first ? "" : ",") << json_string(v);
    first = false;
  }
  os << "],\"attempted\":" << attempted << ",\"failed\":" << failed << "}";
  return os.str();
}

ServeShape ServeShape::make(bool tiny) {
  ServeShape s;
  if (tiny) {
    s.n = 24;
    s.faults = 12;
    s.injects_per_life = 20;
    s.setup_launches = 2;
  }
  return s;
}

std::string request_line(const Request& r) {
  char buf[96];
  switch (r.kind) {
    case Request::Decide:
    case Request::Route:
      std::snprintf(buf, sizeof buf, "%s %d %d %d %d",
                    r.kind == Request::Decide ? "DECIDE" : "ROUTE", r.a.x, r.a.y, r.b.x, r.b.y);
      break;
    case Request::Inject:
      std::snprintf(buf, sizeof buf, "INJECT %d %d", r.a.x, r.a.y);
      break;
  }
  return buf;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  return meshroute::seed_combine(meshroute::splitmix64(seed), salt);
}

namespace {

Coord uniform_node(meshroute::Rng& rng, Dist n) {
  return Coord{static_cast<Dist>(rng.uniform(0, n - 1)), static_cast<Dist>(rng.uniform(0, n - 1))};
}

Coord fault_free_node(meshroute::Rng& rng, const meshroute::fault::FaultSet& world) {
  const Dist n = static_cast<Dist>(world.mask().width());
  for (;;) {
    const Coord c = uniform_node(rng, n);
    if (!world.contains(c)) return c;
  }
}

}  // namespace

meshroute::fault::FaultSet seed_world(const ServeShape& shape, std::uint64_t seed) {
  const meshroute::Mesh2D mesh(shape.n, shape.n);
  meshroute::Rng rng(seed);
  return meshroute::fault::uniform_random_faults(mesh, shape.faults, rng);
}

std::vector<Request> read_stream(std::uint64_t seed, const meshroute::fault::FaultSet& world,
                                 std::size_t pairs, double rate) {
  meshroute::Rng rng(seed);
  std::vector<Request> out;
  out.reserve(2 * pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    const double due = static_cast<double>(i) * 1e6 / rate;
    const Coord s = fault_free_node(rng, world);
    const Coord d = fault_free_node(rng, world);
    out.push_back(Request{Request::Decide, s, d, due});
    out.push_back(Request{Request::Route, s, d, due});
  }
  return out;
}

std::vector<Request> churn_stream(std::uint64_t seed, const meshroute::fault::FaultSet& world,
                                  int injects, double inject_rate, double read_rate) {
  meshroute::Rng rng(seed);
  const Dist n = static_cast<Dist>(world.mask().width());
  std::vector<Request> out;
  const double span_us = static_cast<double>(injects) * 1e6 / inject_rate;
  const auto pairs = static_cast<std::size_t>(span_us * read_rate / 1e6);
  out.reserve(static_cast<std::size_t>(injects) + 2 * pairs);
  // Merge the two fixed-rate schedules; an INJECT due at the same instant as
  // a pair goes first.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < static_cast<std::size_t>(injects) || j < pairs) {
    const double ti = static_cast<double>(i) * 1e6 / inject_rate;
    const double tj = static_cast<double>(j) * 1e6 / read_rate;
    if (i < static_cast<std::size_t>(injects) && (j >= pairs || ti <= tj)) {
      out.push_back(Request{Request::Inject, uniform_node(rng, n), Coord{}, ti});
      ++i;
    } else {
      const Coord s = fault_free_node(rng, world);
      const Coord d = fault_free_node(rng, world);
      out.push_back(Request{Request::Decide, s, d, tj});
      out.push_back(Request{Request::Route, s, d, tj});
      ++j;
    }
  }
  return out;
}

namespace {

/// Value of `key=` in a space-separated reply, or "" when absent.
std::string_view field(std::string_view line, std::string_view key) {
  std::size_t pos = 0;
  while ((pos = line.find(key, pos)) != std::string_view::npos) {
    if ((pos == 0 || line[pos - 1] == ' ') && pos + key.size() < line.size() &&
        line[pos + key.size()] == '=') {
      const std::size_t start = pos + key.size() + 1;
      const std::size_t end = line.find(' ', start);
      return line.substr(start, end == std::string_view::npos ? end : end - start);
    }
    pos += key.size();
  }
  return {};
}

std::int64_t to_int(std::string_view s) {
  if (s.empty()) return -1;
  std::int64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return -1;
    v = v * 10 + (c - '0');
  }
  return v;
}

/// The i-th space-separated token (0-based).
std::string_view token(std::string_view line, int i) {
  std::size_t start = 0;
  for (int k = 0; k < i; ++k) {
    start = line.find(' ', start);
    if (start == std::string_view::npos) return {};
    ++start;
  }
  const std::size_t end = line.find(' ', start);
  return line.substr(start, end == std::string_view::npos ? end : end - start);
}

}  // namespace

Reply parse_reply(Request::Kind kind, std::string_view line) {
  Reply r;
  r.epoch = to_int(field(line, "epoch"));
  switch (kind) {
    case Request::Decide:
      r.decision = std::string(token(line, 2));
      r.ok = line.rfind("OK DECIDE ", 0) == 0 && r.epoch >= 0 &&
             (r.decision == "minimal" || r.decision == "sub-minimal" || r.decision == "unknown");
      break;
    case Request::Route:
      r.status = std::string(token(line, 2));
      r.rung = std::string(field(line, "rung"));
      r.hops = static_cast<int>(to_int(field(line, "hops")));
      r.ok = line.rfind("OK ROUTE ", 0) == 0 && r.epoch >= 0 && r.hops >= 0 && !r.rung.empty();
      break;
    case Request::Inject:
      r.ok = line.rfind("OK INJECT ", 0) == 0 && r.epoch >= 0 &&
             to_int(field(line, "changed")) >= 0;
      break;
  }
  return r;
}

}  // namespace perfbench
