// Test driver for the `bench_smoke` ctest: runs a bench binary with
// `--json=-`, extracts the JSON array it prints as the last line of stdout,
// parses it with json::parse (common/json.hpp), and checks the sweep-output
// schema — every table object carries tag/n/trials/dests/seed/wall_ms and a
// points array with the expected number of entries.
//
// Usage: json_smoke_check <expected_points> <command> [args...]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/json.hpp"

namespace {

[[noreturn]] void fail(const std::string& what) {
  std::cerr << "json_smoke_check: " << what << "\n";
  std::exit(1);
}

std::string shell_quote(const std::string& arg) {
  std::string out = "'";
  for (const char c : arg) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using meshroute::json::Value;
  if (argc < 3) fail("usage: json_smoke_check <expected_points> <command> [args...]");
  const long expected_points = std::strtol(argv[1], nullptr, 10);

  std::string command;
  for (int i = 2; i < argc; ++i) {
    if (i > 2) command += ' ';
    command += shell_quote(argv[i]);
  }

  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) fail("popen failed for: " + command);
  std::string output;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) output.append(buf, got);
  const int status = pclose(pipe);
  if (status != 0) fail("command exited with status " + std::to_string(status));

  // The JSON array is the last line of stdout (tables and CSV precede it).
  std::string json_line;
  std::size_t pos = 0;
  while (pos < output.size()) {
    std::size_t eol = output.find('\n', pos);
    if (eol == std::string::npos) eol = output.size();
    if (eol > pos && output[pos] == '[') json_line = output.substr(pos, eol - pos);
    pos = eol + 1;
  }
  if (json_line.empty()) fail("no line of stdout starts with '['");

  Value root;
  try {
    root = meshroute::json::parse(json_line);
  } catch (const std::exception& e) {
    fail(std::string("JSON does not parse: ") + e.what());
  }
  if (!root.is_array() || root.as_array().empty()) fail("top level is not a non-empty array");

  for (const Value& table : root.as_array()) {
    if (!table.is_object()) fail("table entry is not an object");
    for (const char* key : {"tag", "n", "trials", "dests", "seed", "points", "wall_ms"}) {
      if (!table.has(key)) fail(std::string("table entry missing key '") + key + "'");
    }
    const std::string tag = table.at("tag").as_string();
    const Value& points = table.at("points");
    if (!points.is_array()) fail("'" + tag + "': points is not an array");
    const long n_points = static_cast<long>(points.as_array().size());
    if (n_points != expected_points) {
      fail("'" + tag + "': expected " + std::to_string(expected_points) + " points, got " +
           std::to_string(n_points));
    }
    for (const Value& point : points.as_array()) {
      if (!point.is_object() || point.as_object().empty()) {
        fail("'" + tag + "': point is not a non-empty object");
      }
      for (const auto& [column, value] : point.as_object()) {
        if (!value.is_number()) fail("'" + tag + "': column '" + column + "' is not a number");
      }
    }
  }

  std::cout << "json_smoke_check: OK (" << root.as_array().size() << " table(s), "
            << expected_points << " points each)\n";
  return 0;
}
