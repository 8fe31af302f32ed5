// trace_check — ctest helper closing the export loop: load an exported
// observability document back through json::parse (common/json.hpp, the
// module the exporters write through) and assert its shape, so a schema
// drift in an exporter fails a test instead of silently breaking downstream
// consumers (Perfetto imports, postmortem tooling). Links only
// meshroute_common.
//
//   trace_check FILE [MIN_EVENTS]
//     Chrome trace-event JSON (--trace): schema per event, plus span
//     pairing — every span_begin must have a matching span_end on the same
//     (tid, stage). Orphan span_end events are tolerated (a bounded ring
//     may truncate the chain's head), orphan span_begin events are not.
//     MIN_EVENTS defaults to 1; a build with MESHROUTE_TRACE=OFF passes 0
//     (the file must still parse, with an empty traceEvents array).
//
//   trace_check --flight FILE [REASON]
//     Flight-recorder postmortem JSON (obs::write_flight_json): the
//     {"flight":{reason,recorded,dropped,events,exemplars}} schema, the
//     ring-accounting invariant events + dropped == recorded, span pairing
//     over the ring events, and — when REASON is given — the dump reason.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/json.hpp"

namespace json = meshroute::json;

namespace {

/// Pairing state for span_begin/span_end events keyed by (track, stage).
/// Returns empty string when consistent, else the failure description.
class SpanPairing {
 public:
  void note(const std::string& name, std::int64_t track, std::int64_t stage) {
    const std::pair<std::int64_t, std::int64_t> key{track, stage};
    if (name == "span_begin") ++open_[key];
    if (name == "span_end") --open_[key];
  }

  [[nodiscard]] std::string verdict() const {
    for (const auto& [key, balance] : open_) {
      // Negative balance = orphan end (ring truncation ate the begin): fine.
      if (balance > 0) {
        return "span_begin without span_end (track=" + std::to_string(key.first) +
               " stage=" + std::to_string(key.second) + ")";
      }
    }
    return "";
  }

 private:
  std::map<std::pair<std::int64_t, std::int64_t>, long> open_;
};

json::Value load(const char* path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + std::string(path) + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return json::parse(buffer.str());
}

/// Shared event-shape check for flight events (ring and exemplar entries).
void check_flight_event(const json::Value& e, SpanPairing& pairing) {
  const std::string& name = e.at("name").as_string();
  const double track = e.at("track").as_number();
  (void)e.at("time").as_number();
  (void)e.at("x").as_number();
  (void)e.at("y").as_number();
  const double a = e.at("a").as_number();
  (void)e.at("b").as_number();
  pairing.note(name, static_cast<std::int64_t>(track), static_cast<std::int64_t>(a));
}

int check_chrome_trace(const char* path, long min_events) {
  const json::Value doc = load(path);
  const auto& events = doc.at("traceEvents").as_array();
  if (static_cast<long>(events.size()) < min_events) {
    std::cerr << "trace_check: expected at least " << min_events << " events, found "
              << events.size() << "\n";
    return 1;
  }
  SpanPairing pairing;
  for (const json::Value& e : events) {
    const std::string& name = e.at("name").as_string();
    (void)e.at("ts").as_number();
    const double tid = e.at("tid").as_number();
    (void)e.at("args").at("x").as_number();
    (void)e.at("args").at("y").as_number();
    const double a = e.at("args").at("a").as_number();
    (void)e.at("args").at("b").as_number();
    pairing.note(name, static_cast<std::int64_t>(tid), static_cast<std::int64_t>(a));
  }
  (void)doc.at("otherData").at("dropped").as_number();
  if (const std::string bad = pairing.verdict(); !bad.empty()) {
    std::cerr << "trace_check: " << bad << "\n";
    return 1;
  }
  std::cout << "trace_check: " << events.size() << " events, schema ok, spans paired\n";
  return 0;
}

int check_flight(const char* path, const char* want_reason) {
  const json::Value doc = load(path);
  const json::Value& flight = doc.at("flight");
  const std::string& reason = flight.at("reason").as_string();
  if (want_reason != nullptr && reason != want_reason) {
    std::cerr << "trace_check: flight reason '" << reason << "', expected '"
              << want_reason << "'\n";
    return 1;
  }
  const auto recorded = static_cast<long>(flight.at("recorded").as_number());
  const auto dropped = static_cast<long>(flight.at("dropped").as_number());
  const auto& events = flight.at("events").as_array();
  if (static_cast<long>(events.size()) + dropped != recorded) {
    std::cerr << "trace_check: ring accounting broken: " << events.size()
              << " events + " << dropped << " dropped != " << recorded
              << " recorded\n";
    return 1;
  }
  SpanPairing pairing;
  for (const json::Value& e : events) check_flight_event(e, pairing);
  std::size_t exemplar_events = 0;
  for (const json::Value& chain : flight.at("exemplars").as_array()) {
    SpanPairing chain_pairing;  // each exemplar is a complete chain by itself
    for (const json::Value& e : chain.as_array()) {
      check_flight_event(e, chain_pairing);
      ++exemplar_events;
    }
    if (const std::string bad = chain_pairing.verdict(); !bad.empty()) {
      std::cerr << "trace_check: exemplar chain: " << bad << "\n";
      return 1;
    }
  }
  if (const std::string bad = pairing.verdict(); !bad.empty()) {
    std::cerr << "trace_check: " << bad << "\n";
    return 1;
  }
  std::cout << "trace_check: flight '" << reason << "': " << events.size()
            << " ring events (" << dropped << " dropped), " << exemplar_events
            << " exemplar events, schema ok, spans paired\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool flight = argc >= 2 && std::string(argv[1]) == "--flight";
  if (flight) {
    if (argc < 3 || argc > 4) {
      std::cerr << "usage: trace_check --flight FILE [REASON]\n";
      return 2;
    }
    try {
      return check_flight(argv[2], argc == 4 ? argv[3] : nullptr);
    } catch (const std::exception& e) {
      std::cerr << "trace_check: " << e.what() << "\n";
      return 1;
    }
  }
  if (argc < 2 || argc > 3) {
    std::cerr << "usage: trace_check FILE [MIN_EVENTS] | trace_check --flight FILE [REASON]\n";
    return 2;
  }
  long min_events = 1;
  if (argc == 3) {
    try {
      min_events = std::stol(argv[2]);
    } catch (const std::exception&) {
      std::cerr << "trace_check: MIN_EVENTS expects an integer, got '" << argv[2] << "'\n";
      return 2;
    }
  }
  try {
    return check_chrome_trace(argv[1], min_events);
  } catch (const std::exception& e) {
    std::cerr << "trace_check: " << e.what() << "\n";
    return 1;
  }
}
