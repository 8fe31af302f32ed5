// Compare two microbench JSON files (the schema bench/microbench.cpp emits)
// and fail when any kernel's median regressed beyond a threshold:
//
//   bench_compare OLD.json NEW.json [--threshold=0.10] [--allow-meta-mismatch]
//
// Exit status: 0 when every kernel present in both files satisfies
// new_median <= old_median * (1 + threshold); 1 when at least one kernel
// regressed; 2 on usage/parse errors, and when the two meta blocks disagree
// on a field that makes medians incomparable (trace_enabled, build_type) —
// pass --allow-meta-mismatch to downgrade that to a warning. Kernels present
// in only one file are reported but do not fail the comparison (adding or
// retiring a kernel must not break CI against a stale baseline), and a
// baseline median below the timing-resolution floor (1 ns) is warned about
// and skipped rather than gated — a zeroed or sub-resolution baseline would
// otherwise flag any real rerun as an unbounded regression.
//
// With --metrics the inputs are instead two --metrics snapshots (the
// {"counters":{...},"histograms":{...}} schema obs::write_metrics_json
// emits) OR two windowed documents (obs::write_windowed_json: the same
// counters/histograms plus a {"windows":...} header and "rates"/"gauges"
// maps — the header is echoed and the extra maps diffed when present);
// every counter and histogram count/p50 is diffed side by side. The diff is
// informational — exit is 0 unless the files fail to parse.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace {

using meshroute::json::Value;

[[noreturn]] void usage_and_exit() {
  std::cerr << "usage: bench_compare OLD.json NEW.json [--threshold=0.10]"
               " [--allow-meta-mismatch]\n"
               "       bench_compare --metrics OLD.json NEW.json\n";
  std::exit(2);
}

Value load(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "bench_compare: cannot read " << path << "\n";
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  try {
    return meshroute::json::parse(buffer.str());
  } catch (const std::exception& e) {
    std::cerr << "bench_compare: " << path << ": " << e.what() << "\n";
    std::exit(2);
  }
}

/// Detect the two documents' meta blocks disagreeing on a field that makes
/// their medians incomparable (tracing compiled in, different build type).
/// Returns the number of mismatched fields; a meta-less (older-schema) file
/// still compares. Callers treat a nonzero return as a hard error unless
/// --allow-meta-mismatch downgraded it: a cross-build comparison silently
/// "passing" is worse than no comparison at all.
int count_meta_mismatches(const Value& old_doc, const Value& new_doc,
                          const char* severity) {
  if (!old_doc.has("meta") || !new_doc.has("meta")) return 0;
  const Value& old_meta = old_doc.at("meta");
  const Value& new_meta = new_doc.at("meta");
  int mismatches = 0;
  const auto check = [&](const char* field, auto&& render) {
    if (!old_meta.has(field) || !new_meta.has(field)) return;
    const std::string o = render(old_meta.at(field));
    const std::string n = render(new_meta.at(field));
    if (o != n) {
      ++mismatches;
      std::fprintf(stderr,
                   "bench_compare: %s: meta.%s differs (old=%s, new=%s); "
                   "medians are not comparable across this difference\n",
                   severity, field, o.c_str(), n.c_str());
    }
  };
  check("trace_enabled", [](const Value& v) { return v.as_bool() ? "true" : "false"; });
  check("build_type", [](const Value& v) { return v.as_string(); });
  check("simd", [](const Value& v) { return v.as_string(); });
  return mismatches;
}

/// kernel name -> median_us, from a document's "kernels" array.
std::map<std::string, double> medians(const Value& doc, const std::string& path) {
  std::map<std::string, double> out;
  try {
    for (const Value& k : doc.at("kernels").as_array()) {
      out[k.at("name").as_string()] = k.at("median_us").as_number();
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_compare: " << path << ": unexpected schema: " << e.what() << "\n";
    std::exit(2);
  }
  return out;
}

/// Diff two --metrics snapshots: counters by value, histograms by count and
/// median. Names present in only one file show as "-" on the other side.
int compare_metrics(const std::string& old_path, const std::string& new_path) {
  const Value old_doc = load(old_path);
  const Value new_doc = load(new_path);

  // Windowed documents carry a header describing the measurement ring; echo
  // it so a diff across different window counts is legible.
  const auto window_header = [](const Value& doc, const std::string& path) {
    if (!doc.has("windows")) return;
    const Value& w = doc.at("windows");
    std::printf("%s: windows ticks=%.0f retained=%.0f span_us=%.0f\n", path.c_str(),
                w.at("ticks").as_number(), w.at("retained").as_number(),
                w.at("span_us").as_number());
  };
  window_header(old_doc, old_path);
  window_header(new_doc, new_path);

  const auto number_map = [](const Value& doc, const char* key,
                             const std::string& path) {
    std::map<std::string, double> out;
    if (!doc.has(key)) return out;
    try {
      for (const auto& kv : doc.at(key).as_object()) {
        out[kv.first] = kv.second.as_number();
      }
    } catch (const std::exception& e) {
      std::cerr << "bench_compare: " << path << ": unexpected schema: " << e.what() << "\n";
      std::exit(2);
    }
    return out;
  };

  // One side-by-side table per numeric map. `decimals` renders counters as
  // integers and rates/gauges with fractions.
  const auto diff_table = [](const char* label, int decimals,
                             const std::map<std::string, double>& old_vals,
                             const std::map<std::string, double>& new_vals) {
    std::printf("%-34s %14s %14s %12s\n", label, "old", "new", "delta");
    std::map<std::string, bool> names;
    for (const auto& kv : old_vals) names[kv.first] = true;
    for (const auto& kv : new_vals) names[kv.first] = true;
    for (const auto& kv : names) {
      const std::string& name = kv.first;
      const auto o = old_vals.find(name);
      const auto n = new_vals.find(name);
      if (o == old_vals.end()) {
        std::printf("%-34s %14s %14.*f %12s\n", name.c_str(), "-", decimals, n->second,
                    "new");
      } else if (n == new_vals.end()) {
        std::printf("%-34s %14.*f %14s %12s\n", name.c_str(), decimals, o->second, "-",
                    "gone");
      } else {
        std::printf("%-34s %14.*f %14.*f %+12.*f\n", name.c_str(), decimals, o->second,
                    decimals, n->second, decimals, n->second - o->second);
      }
    }
  };

  if (!old_doc.has("counters") || !new_doc.has("counters")) {
    std::cerr << "bench_compare: --metrics documents must carry a counters map\n";
    std::exit(2);
  }
  diff_table("counter", 0, number_map(old_doc, "counters", old_path),
             number_map(new_doc, "counters", new_path));
  const auto old_rates = number_map(old_doc, "rates", old_path);
  const auto new_rates = number_map(new_doc, "rates", new_path);
  if (!old_rates.empty() || !new_rates.empty()) {
    diff_table("rate_per_s", 3, old_rates, new_rates);
  }
  const auto old_gauges = number_map(old_doc, "gauges", old_path);
  const auto new_gauges = number_map(new_doc, "gauges", new_path);
  if (!old_gauges.empty() || !new_gauges.empty()) {
    diff_table("gauge", 3, old_gauges, new_gauges);
  }

  const auto histograms = [](const Value& doc) {
    std::map<std::string, std::pair<double, double>> out;  // name -> (count, p50)
    if (!doc.has("histograms")) return out;
    for (const auto& kv : doc.at("histograms").as_object()) {
      out[kv.first] = {kv.second.at("count").as_number(), kv.second.at("p50").as_number()};
    }
    return out;
  };
  const auto old_hists = histograms(old_doc);
  const auto new_hists = histograms(new_doc);
  if (!old_hists.empty() || !new_hists.empty()) {
    std::printf("%-34s %14s %14s %12s\n", "histogram", "old n/p50", "new n/p50", "");
    std::map<std::string, bool> hnames;
    for (const auto& kv : old_hists) hnames[kv.first] = true;
    for (const auto& kv : new_hists) hnames[kv.first] = true;
    for (const auto& kv : hnames) {
      const std::string& name = kv.first;
      const auto fmt = [](const std::map<std::string, std::pair<double, double>>& m,
                          const std::string& key) {
        const auto it = m.find(key);
        if (it == m.end()) return std::string("-");
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.0f/%.0f", it->second.first, it->second.second);
        return std::string(buf);
      };
      std::printf("%-34s %14s %14s\n", name.c_str(), fmt(old_hists, name).c_str(),
                  fmt(new_hists, name).c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string old_path;
  std::string new_path;
  double threshold = 0.10;
  bool metrics_mode = false;
  bool allow_meta_mismatch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics") {
      metrics_mode = true;
    } else if (arg == "--allow-meta-mismatch") {
      allow_meta_mismatch = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      try {
        threshold = std::stod(arg.substr(12));
      } catch (const std::exception&) {
        usage_and_exit();
      }
      if (threshold < 0) usage_and_exit();
    } else if (old_path.empty()) {
      old_path = arg;
    } else if (new_path.empty()) {
      new_path = arg;
    } else {
      usage_and_exit();
    }
  }
  if (new_path.empty()) usage_and_exit();
  if (metrics_mode) return compare_metrics(old_path, new_path);

  const Value old_doc = load(old_path);
  const Value new_doc = load(new_path);
  const int meta_mismatches = count_meta_mismatches(
      old_doc, new_doc, allow_meta_mismatch ? "warning" : "error");
  if (meta_mismatches > 0 && !allow_meta_mismatch) {
    std::fprintf(stderr,
                 "bench_compare: refusing to compare across %d meta mismatch(es); "
                 "regenerate the baseline or pass --allow-meta-mismatch\n",
                 meta_mismatches);
    return 2;
  }
  const auto old_medians = medians(old_doc, old_path);
  const auto new_medians = medians(new_doc, new_path);

  // Baselines below the clock's practical resolution carry no information: a
  // 0 µs median (the zeroed-timings serve files of old, or a kernel faster
  // than one steady_clock tick per iteration) would flag ANY nonzero rerun
  // as an unbounded regression. Such kernels are reported as incomparable
  // and never gate.
  constexpr double kMinComparableUs = 1e-3;

  int regressions = 0;
  int incomparable = 0;
  std::printf("%-16s %12s %12s %9s\n", "kernel", "old_us", "new_us", "delta");
  for (const auto& [name, new_us] : new_medians) {
    const auto it = old_medians.find(name);
    if (it == old_medians.end()) {
      std::printf("%-16s %12s %12.3f %9s\n", name.c_str(), "-", new_us, "new");
      continue;
    }
    const double old_us = it->second;
    if (old_us < kMinComparableUs) {
      ++incomparable;
      std::printf("%-16s %12.3f %12.3f %9s\n", name.c_str(), old_us, new_us,
                  "sub-res");
      std::fprintf(stderr,
                   "bench_compare: warning: %s baseline median %.6f us is below "
                   "the %.3f us resolution floor; not comparable — regenerate "
                   "the baseline with real timings\n",
                   name.c_str(), old_us, kMinComparableUs);
      continue;
    }
    const double delta = (new_us - old_us) / old_us;
    const bool regressed = new_us > old_us * (1.0 + threshold);
    std::printf("%-16s %12.3f %12.3f %+8.1f%%%s\n", name.c_str(), old_us, new_us,
                delta * 100.0, regressed ? "  REGRESSION" : "");
    regressions += regressed ? 1 : 0;
  }
  for (const auto& [name, old_us] : old_medians) {
    if (new_medians.find(name) == new_medians.end()) {
      std::printf("%-16s %12.3f %12s %9s\n", name.c_str(), old_us, "-", "gone");
    }
  }

  if (incomparable > 0) {
    std::printf("%d kernel(s) skipped: baseline below timing resolution\n", incomparable);
  }
  if (regressions > 0) {
    std::printf("%d kernel(s) regressed beyond %.0f%%\n", regressions, threshold * 100.0);
    return 1;
  }
  std::printf("no kernel regressed beyond %.0f%%\n", threshold * 100.0);
  return 0;
}
