// Tests for the simulation-trial harness, the table printer, and the
// parallel sweep engine (flag parsing, seed-splitting, the determinism
// contract, and the JSON output).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "experiment/sweep.hpp"
#include "experiment/table.hpp"
#include "experiment/workspace.hpp"

namespace meshroute::experiment {
namespace {

TEST(Trial, SetupMatchesPaperSection5) {
  Rng rng(1);
  const Trial t = make_trial({.n = 50, .faults = 30}, rng);
  EXPECT_EQ(t.mesh.width(), 50);
  EXPECT_EQ(t.source, (Coord{25, 25}));
  EXPECT_EQ(t.faults.count(), 30u);
  // Source outside every block under both models.
  EXPECT_FALSE(t.fb_safety.blocked(t.source));
  EXPECT_FALSE(t.mcc_safety.blocked(t.source));
  // The first-quadrant submesh has the right extent.
  EXPECT_EQ(t.quadrant1_area(), (Rect{26, 49, 26, 49}));
}

TEST(Trial, MasksAreConsistentWithModels) {
  Rng rng(2);
  const Trial t = make_trial({.n = 40, .faults = 60}, rng);
  t.mesh.for_each_node([&](Coord c) {
    EXPECT_EQ(t.fb_safety.blocked(c), t.blocks.is_block_node(c));
    EXPECT_EQ(t.mcc_safety.blocked(c), t.mcc1.is_mcc_node(c));
    if (t.faults.mask()[c]) {
      EXPECT_TRUE(t.fb_safety.blocked(c));
      EXPECT_TRUE(t.mcc_safety.blocked(c));
    }
  });
}

TEST(Trial, ProblemsWireTheRightMasks) {
  Rng rng(3);
  const Trial t = make_trial({.n = 40, .faults = 20}, rng);
  const Coord d{35, 35};
  const auto fb = t.fb_problem(d);
  EXPECT_EQ(fb.safety, &t.fb_safety);
  EXPECT_EQ(fb.source, t.source);
  const auto mcc = t.mcc_problem(d);
  EXPECT_EQ(mcc.safety, &t.mcc_safety);
}

TEST(Trial, CustomSourcePlacement) {
  Rng rng(4);
  const Trial t = make_trial({.n = 30, .faults = 10, .source = Coord{5, 5}}, rng);
  EXPECT_EQ(t.source, (Coord{5, 5}));
  EXPECT_EQ(t.quadrant1_area(), (Rect{6, 29, 6, 29}));
}

TEST(Trial, DeterministicUnderSameSeed) {
  Rng a(77);
  Rng b(77);
  const Trial ta = make_trial({.n = 30, .faults = 25}, a);
  const Trial tb = make_trial({.n = 30, .faults = 25}, b);
  EXPECT_EQ(ta.faults.faults(), tb.faults.faults());
}

TEST(Trial, DestinationSamplingRespectsConstraints) {
  Rng rng(5);
  const Trial t = make_trial({.n = 60, .faults = 80}, rng);
  const Rect area = t.quadrant1_area();
  for (int i = 0; i < 200; ++i) {
    const Coord d = sample_quadrant1_dest(t, rng);
    EXPECT_TRUE(area.contains(d));
    EXPECT_FALSE(t.fb_safety.blocked(d));
    EXPECT_FALSE(t.mcc_safety.blocked(d));
  }
}

TEST(Table, PrintsAlignedRows) {
  Table t({"k", "safe", "ext1"});
  t.add_row({10, 0.97531, 1.0});
  t.add_row({200, 0.6, 0.75});
  std::ostringstream os;
  t.print(os, "demo");
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("0.9753"), std::string::npos);
  EXPECT_NE(out.find("200"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEcho) {
  Table t({"k", "v"});
  t.add_row({1, 0.5});
  std::ostringstream os;
  t.print_csv(os, "fig");
  EXPECT_EQ(os.str(), "tag,k,v\nfig,1,0.5000\n");
}

TEST(Table, RejectsBadShapes) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), std::invalid_argument);
}

std::optional<SweepConfig> parse_flags(std::vector<std::string> args, std::string* error) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return SweepConfig::try_parse(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(SweepConfig, ParsesTheSharedFlagSet) {
  std::string error;
  const auto cfg = parse_flags({"--trials=12", "--dests=7", "--n=64", "--seed=0x5eed2002",
                                "--threads=3", "--json=-"},
                               &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->trials, 12);
  EXPECT_EQ(cfg->dests, 7);
  EXPECT_EQ(cfg->n, 64);
  EXPECT_EQ(cfg->seed, 0x5eed2002ULL);  // hex accepted (base-0 strtoull)
  EXPECT_EQ(cfg->threads, 3);
  EXPECT_EQ(cfg->json_path, "-");
  EXPECT_EQ(cfg->fault_counts.size(), 20u);
}

TEST(SweepConfig, QuickSetsSmokeTestSweep) {
  std::string error;
  const auto cfg = parse_flags({"--quick"}, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_TRUE(cfg->quick);
  EXPECT_EQ(cfg->trials, 8);
  EXPECT_EQ(cfg->dests, 10);
}

TEST(SweepConfig, RejectsUnknownAndMalformedFlags) {
  std::string error;
  EXPECT_FALSE(parse_flags({"--bogus=1"}, &error).has_value());
  EXPECT_NE(error.find("--bogus"), std::string::npos);
  EXPECT_FALSE(parse_flags({"--trials=many"}, &error).has_value());
  EXPECT_FALSE(parse_flags({"--trials=-4"}, &error).has_value());
  EXPECT_FALSE(parse_flags({"--seed=0xnope"}, &error).has_value());
  EXPECT_GE(parse_flags({}, &error)->resolved_threads(), 1);
}

TEST(SweepConfig, ResolvedBatchIsWorkerClaimSize) {
  // The claim size is max(1, batch): no flag sets it and no auto default
  // scales it.
  SweepConfig cfg;
  EXPECT_EQ(cfg.batch, 0);
  EXPECT_EQ(cfg.resolved_batch(), 1);
  for (const int b : {1, 3, 8, 64}) {
    cfg.batch = b;
    EXPECT_EQ(cfg.resolved_batch(), b);
  }
  cfg.batch = -2;
  EXPECT_EQ(cfg.resolved_batch(), 1);

  std::string error;
  EXPECT_FALSE(parse_flags({"--batch=8"}, &error).has_value());
  EXPECT_NE(error.find("unknown flag '--batch=8'"), std::string::npos) << error;
  EXPECT_EQ(SweepConfig::usage().find("--batch"), std::string::npos);
}

TEST(Sweep, CellSeedsPairwiseDistinct) {
  // The full default grid: 20 fault counts x 60 trials, plus a second mesh
  // side to check n participates in the hash.
  std::set<std::uint64_t> seeds;
  std::size_t cells = 0;
  for (const Dist n : {200, 300}) {
    for (std::size_t k = 10; k <= 200; k += 10) {
      for (int trial = 0; trial < 60; ++trial) {
        seeds.insert(cell_seed(0x5eed2002ULL, k, n, trial));
        ++cells;
      }
    }
  }
  EXPECT_EQ(seeds.size(), cells);
  EXPECT_NE(cell_seed(1, 10, 200, 0), cell_seed(2, 10, 200, 0));
}

SweepConfig small_config(int threads) {
  SweepConfig cfg;
  cfg.n = 30;
  cfg.trials = 6;
  cfg.dests = 5;
  cfg.threads = threads;
  cfg.fault_counts = {5, 10};
  return cfg;
}

SweepResult run_small_sweep(int threads) {
  const SweepConfig cfg = small_config(threads);
  const SweepRunner runner(cfg, {"safe", "draw", "hits"});
  return runner.run([&](const SweepCell& cell, Rng& rng, TrialWorkspace& ws,
                        TrialCounters& out) {
    const Trial& trial = make_trial({.n = cell.n(), .faults = cell.faults()}, rng, ws);
    for (int s = 0; s < cfg.dests; ++s) {
      const Coord d = sample_quadrant1_dest(trial, rng);
      out.count(0, !trial.fb_safety.blocked(d));
      out.observe(1, rng.uniform01());
      out.count(2, rng.chance(0.5));
    }
  });
}

TEST(Sweep, BitIdenticalAcrossThreadCounts) {
  const SweepResult serial = run_small_sweep(1);
  const SweepResult pooled = run_small_sweep(8);
  ASSERT_EQ(serial.points().size(), 2u);
  for (std::size_t p = 0; p < serial.points().size(); ++p) {
    for (const char* column : {"safe", "draw", "hits"}) {
      EXPECT_EQ(serial.mean(p, column), pooled.mean(p, column));  // exact, not near
      EXPECT_EQ(serial.ci95(p, column), pooled.ci95(p, column));
      EXPECT_EQ(serial.count(p, column), pooled.count(p, column));
    }
  }

  // And the rendered artifacts are byte-identical.
  const Table ts = serial.table("faults", {"safe", "draw", "hits"});
  const Table tp = pooled.table("faults", {"safe", "draw", "hits"});
  std::ostringstream a;
  std::ostringstream b;
  ts.print_csv(a, "t");
  tp.print_csv(b, "t");
  ts.print_json(a, "t");
  tp.print_json(b, "t");
  EXPECT_EQ(a.str(), b.str());
}

TEST(Sweep, MeanOrCoversColumnsThatNeverAccumulated) {
  SweepConfig cfg = small_config(1);
  cfg.fault_counts = {5};
  const SweepRunner runner(cfg, {"always", "never"});
  const auto result = runner.run(
      [&](const SweepCell&, Rng&, TrialWorkspace&, TrialCounters& out) { out.count(0, true); });
  EXPECT_EQ(result.mean(0, "always"), 1.0);
  EXPECT_EQ(result.count(0, "never"), 0);
  EXPECT_EQ(result.mean(0, "never"), 0.0);
  EXPECT_EQ(result.mean_or(0, "never", 1.0), 1.0);
  EXPECT_THROW((void)result.mean(0, "missing"), std::invalid_argument);
}

TEST(Sweep, JsonRoundTripsTableValues) {
  Table t({"k", "ratio", "count"});
  t.add_row({10, 0.1 + 0.2, 1234567891234.0});  // 0.30000000000000004 must survive
  t.add_row({20, 0.9249999999999999, -0.5});
  std::ostringstream os;
  t.print_json(os, "roundtrip");
  const json::Value v = json::parse(os.str());
  EXPECT_EQ(v.at("tag").as_string(), "roundtrip");
  ASSERT_EQ(v.at("points").as_array().size(), 2u);
  for (std::size_t r = 0; r < t.rows(); ++r) {
    const json::Value& point = v.at("points").as_array()[r];
    for (std::size_t c = 0; c < 3; ++c) {
      const std::string& column = v.at("columns").as_array()[c].as_string();
      EXPECT_EQ(point.at(column).as_number(), t.row(r)[c]);  // exact round-trip
    }
  }
}

TEST(Sweep, WriteSweepJsonEmitsTheSchema) {
  const SweepResult result = run_small_sweep(2);
  const Table t = result.table("faults", {"safe", "draw"});
  std::ostringstream os;
  write_sweep_json(os, small_config(2), {{"unit", &t}}, result.wall_ms());
  const json::Value v = json::parse(os.str());
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 1u);
  const json::Value& entry = v.as_array()[0];
  EXPECT_EQ(entry.at("tag").as_string(), "unit");
  EXPECT_EQ(entry.at("n").as_number(), 30.0);
  EXPECT_EQ(entry.at("trials").as_number(), 6.0);
  EXPECT_EQ(entry.at("dests").as_number(), 5.0);
  EXPECT_TRUE(entry.has("seed"));
  EXPECT_TRUE(entry.has("wall_ms"));
  ASSERT_EQ(entry.at("points").as_array().size(), 2u);
  EXPECT_EQ(entry.at("points").as_array()[0].at("faults").as_number(), 5.0);
}

TEST(Json, ParserHandlesTheBasics) {
  const json::Value v = json::parse(
      R"({"s":"a\"bA","arr":[1,2.5,-3e2,true,false,null],"empty":{}})");
  EXPECT_EQ(v.at("s").as_string(), "a\"bA");
  ASSERT_EQ(v.at("arr").as_array().size(), 6u);
  EXPECT_EQ(v.at("arr").as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(v.at("arr").as_array()[5].is_null());
  EXPECT_TRUE(v.at("empty").as_object().empty());
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("1 2"), std::runtime_error);
}

}  // namespace
}  // namespace meshroute::experiment
