// Unit tests for the core::BitGrid bit-plane primitives plus the
// scalar-vs-bit-plane equivalence suite: the word-parallel block/MCC/safety/
// reachability kernels must reproduce their scalar reference kernels EXACTLY
// — exhaustively on every 3x3 obstacle subset, and on randomized meshes
// whose widths do and do not divide 64 (so edge-word masking and cross-word
// carries are both exercised).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/rng.hpp"
#include "cond/wang.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/safety_level.hpp"
#include "safety_oracle.hpp"

namespace meshroute {
namespace {

using core::BitGrid;

TEST(BitGrid, SetTestResetAndTailInvariant) {
  for (const Dist w : {1, 63, 64, 65, 100, 130}) {
    BitGrid g(w, 3);
    EXPECT_EQ(g.popcount(), 0);
    EXPECT_FALSE(g.any());
    g.set({0, 0});
    g.set({w - 1, 2});
    EXPECT_TRUE(g.test({0, 0}));
    EXPECT_TRUE(g.test({w - 1, 2}));
    if (w > 1) EXPECT_FALSE(g.test({0, 2}));
    EXPECT_EQ(g.popcount(), 2);
    // Tail bits beyond width must stay zero in every row.
    for (Dist y = 0; y < 3; ++y) {
      EXPECT_EQ(g.row(y)[g.words_per_row() - 1] & ~g.tail_mask(), 0u) << "w=" << w;
    }
    g.reset({w - 1, 2});
    EXPECT_FALSE(g.test({w - 1, 2}));
    EXPECT_EQ(g.popcount(), 1);
  }
}

TEST(BitGrid, ResizeReusesAndZeroes) {
  BitGrid g(70, 4);
  g.set({69, 3});
  g.resize(70, 4);
  EXPECT_EQ(g.popcount(), 0);
  g.resize(5, 2);
  EXPECT_EQ(g.width(), 5);
  EXPECT_EQ(g.tail_mask(), 0x1fu);
}

TEST(BitGrid, AssignUnpackRoundtrip) {
  Rng rng(123);
  for (const Dist w : {1, 8, 64, 65, 100, 193}) {
    Grid<bool> g(w, 5, false);
    for (Dist y = 0; y < 5; ++y) {
      for (Dist x = 0; x < w; ++x) g[{x, y}] = rng.uniform01() < 0.3;
    }
    BitGrid plane;
    plane.assign(g);
    for (Dist y = 0; y < 5; ++y) {
      for (Dist x = 0; x < w; ++x) EXPECT_EQ(plane.test({x, y}), (g[{x, y}])) << w;
    }
    EXPECT_EQ(plane.row(0)[plane.words_per_row() - 1] & ~plane.tail_mask(), 0u);
    Grid<bool> back;
    plane.unpack(back);
    EXPECT_EQ(back, g);
  }
}

TEST(BitGrid, TransposeInto) {
  BitGrid g(67, 3);
  g.set({66, 1});
  g.set({0, 2});
  BitGrid t;
  g.transpose_into(t);
  EXPECT_EQ(t.width(), 3);
  EXPECT_EQ(t.height(), 67);
  EXPECT_EQ(t.popcount(), 2);
  EXPECT_TRUE(t.test({1, 66}));
  EXPECT_TRUE(t.test({2, 0}));
}

TEST(BitGrid, ShiftRowsCarryAcrossWords) {
  BitGrid g(130, 1);
  g.set({63, 0});
  g.set({127, 0});
  g.set({129, 0});
  std::vector<std::uint64_t> dst(g.words_per_row());
  core::shift_east_row(g.row(0), dst.data(), g.words_per_row(), g.tail_mask());
  BitGrid e(130, 1);
  e.set({64, 0});
  e.set({128, 0});  // bit 129 shifted off the east edge (tail-masked away)
  EXPECT_EQ(std::vector<std::uint64_t>(e.row(0), e.row(0) + e.words_per_row()), dst);
  core::shift_west_row(g.row(0), dst.data(), g.words_per_row());
  BitGrid w(130, 1);
  w.set({62, 0});
  w.set({126, 0});
  w.set({128, 0});
  EXPECT_EQ(std::vector<std::uint64_t>(w.row(0), w.row(0) + w.words_per_row()), dst);
}

TEST(BitGrid, OccludedFillsMatchScalarScan) {
  // Randomized seeds/allowed rows; compare fill_east/west_row to a direct
  // per-bit propagation.
  Rng rng(77);
  const Dist w = 150;
  for (int it = 0; it < 200; ++it) {
    BitGrid seed(w, 1);
    BitGrid allowed(w, 1);
    for (Dist x = 0; x < w; ++x) {
      if (rng.uniform01() < 0.2) seed.set({x, 0});
      if (rng.uniform01() < 0.6) allowed.set({x, 0});
    }
    std::vector<std::uint64_t> out(seed.words_per_row());
    core::fill_east_row(seed.row(0), allowed.row(0), out.data(), seed.words_per_row());
    std::vector<bool> ref(static_cast<std::size_t>(w), false);
    for (Dist x = 0; x < w; ++x) {
      const bool carried = x > 0 && ref[static_cast<std::size_t>(x) - 1];
      ref[static_cast<std::size_t>(x)] =
          allowed.test({x, 0}) && (seed.test({x, 0}) || carried);
    }
    for (Dist x = 0; x < w; ++x) {
      EXPECT_EQ((out[static_cast<std::size_t>(x) >> 6] >> (x & 63)) & 1, ref[x] ? 1u : 0u);
    }
    core::fill_west_row(seed.row(0), allowed.row(0), out.data(), seed.words_per_row());
    std::vector<bool> refw(static_cast<std::size_t>(w), false);
    for (Dist x = w; x-- > 0;) {
      const bool carried = x + 1 < w && refw[static_cast<std::size_t>(x) + 1];
      refw[static_cast<std::size_t>(x)] =
          allowed.test({x, 0}) && (seed.test({x, 0}) || carried);
    }
    for (Dist x = 0; x < w; ++x) {
      EXPECT_EQ((out[static_cast<std::size_t>(x) >> 6] >> (x & 63)) & 1, refw[x] ? 1u : 0u);
    }
  }
}

TEST(BitGrid, RowRangeOpsCrossWords) {
  BitGrid g(200, 1);
  core::row_range_set(g.row(0), 60, 140);
  EXPECT_EQ(g.popcount(), 81);
  EXPECT_FALSE(g.test({59, 0}));
  EXPECT_TRUE(g.test({60, 0}));
  EXPECT_TRUE(g.test({140, 0}));
  EXPECT_FALSE(g.test({141, 0}));
  EXPECT_EQ(core::row_range_popcount(g.row(0), 0, 199), 81);
  EXPECT_EQ(core::row_range_popcount(g.row(0), 63, 64), 2);
  EXPECT_EQ(core::row_range_popcount(g.row(0), 141, 199), 0);
  EXPECT_EQ(core::row_range_popcount(g.row(0), 100, 100), 1);
}

// --------------------------------------------------------------------------
// Scalar vs bit-plane kernel equivalence.
// --------------------------------------------------------------------------

void expect_blocksets_equal(const Mesh2D& mesh, const fault::BlockSet& a,
                            const fault::BlockSet& b) {
  ASSERT_EQ(a.block_count(), b.block_count());
  for (std::size_t i = 0; i < a.block_count(); ++i) {
    EXPECT_EQ(a.blocks()[i].rect, b.blocks()[i].rect) << i;
    EXPECT_EQ(a.blocks()[i].faulty_count, b.blocks()[i].faulty_count) << i;
    EXPECT_EQ(a.blocks()[i].disabled_count, b.blocks()[i].disabled_count) << i;
  }
  EXPECT_TRUE(a == b);  // the list and the block-node plane
  mesh.for_each_node([&](Coord c) { ASSERT_EQ(a.block_id(c), b.block_id(c)) << c.x << "," << c.y; });
}

// status(c) everywhere plus the component list in order: together the
// partition of the MCC nodes and its row-major numbering.
void expect_mccsets_equal(const Mesh2D& mesh, const fault::MccSet& a, const fault::MccSet& b) {
  mesh.for_each_node([&](Coord c) { ASSERT_EQ(a.status(c), b.status(c)) << c.x << "," << c.y; });
  EXPECT_TRUE(a == b);
  ASSERT_EQ(a.components().size(), b.components().size());
  for (std::size_t i = 0; i < a.components().size(); ++i) {
    EXPECT_EQ(a.components()[i].bbox, b.components()[i].bbox) << i;
    EXPECT_EQ(a.components()[i].size, b.components()[i].size) << i;
    EXPECT_EQ(a.components()[i].faulty_count, b.components()[i].faulty_count) << i;
    EXPECT_EQ(a.components()[i].useless_count, b.components()[i].useless_count) << i;
    EXPECT_EQ(a.components()[i].cant_reach_count, b.components()[i].cant_reach_count) << i;
  }
}

/// All kernels, one fault set: block model, both MCC kinds, safety levels on
/// both obstacle planes, and reachability from every node.
void check_all_kernels(const Mesh2D& mesh, const fault::FaultSet& faults, bool all_sources) {
  fault::BlockSet bs_scalar, bs_bits;
  fault::BlockScratch bscr_scalar, bscr_bits;
  fault::build_faulty_blocks_scalar(mesh, faults, bs_scalar, bscr_scalar);
  fault::build_faulty_blocks_bitplane(mesh, faults, bs_bits, bscr_bits);
  expect_blocksets_equal(mesh, bs_scalar, bs_bits);

  fault::MccScratch mscr_scalar, mscr_bits;
  for (const auto kind : {fault::MccKind::TypeOne, fault::MccKind::TypeTwo}) {
    fault::MccSet mcc_scalar, mcc_bits;
    fault::build_mcc_scalar(mesh, faults, kind, mcc_scalar, mscr_scalar);
    fault::build_mcc_bitplane(mesh, faults, kind, mcc_bits, mscr_bits);
    expect_mccsets_equal(mesh, mcc_scalar, mcc_bits);
  }

  // Safety on the block obstacle plane: the bitplane builder's residual
  // bad_plane must equal the byte mask, and the BitGrid safety kernel must
  // match the scalar sweeps on it.
  const Grid<bool> fb_mask = info::obstacle_mask(mesh, bs_scalar);
  Grid<bool> plane_bytes;
  bscr_bits.bad_plane.unpack(plane_bytes);
  EXPECT_EQ(plane_bytes, fb_mask);
  Grid<info::ExtendedSafetyLevel> s_scalar;
  info::SafetyGrid s_bits;
  info::compute_safety_levels_scalar(mesh, fb_mask, s_scalar);
  info::compute_safety_levels(mesh, bscr_bits.bad_plane, s_bits);
  EXPECT_TRUE(testing_support::SafetyMatchesOracle(s_bits, s_scalar));

  // Reachability oracle on the raw fault mask.
  const core::BitGrid& fplane = faults.mask();
  Grid<bool> fmask;
  fplane.unpack(fmask);
  Grid<bool> r_scalar, r_unpacked;
  core::BitGrid r_bits;
  const auto check_source = [&](Coord s) {
    cond::monotone_reachability_scalar(mesh, fmask, s, r_scalar);
    cond::monotone_reachability(mesh, fplane, s, r_bits);
    r_bits.unpack(r_unpacked);
    ASSERT_EQ(r_scalar, r_unpacked) << "source " << s.x << "," << s.y;
  };
  if (all_sources) {
    mesh.for_each_node(check_source);
  } else {
    check_source({0, 0});
    check_source({mesh.width() - 1, mesh.height() - 1});
    check_source(mesh.center());
  }
}

TEST(BitplaneEquivalence, Exhaustive3x3) {
  // Every one of the 512 obstacle subsets of a 3x3 mesh, reachability from
  // every source: edge conditions cannot hide.
  const Mesh2D mesh(3, 3);
  for (int bits = 0; bits < 512; ++bits) {
    fault::FaultSet fs(mesh);
    for (int i = 0; i < 9; ++i) {
      if ((bits >> i) & 1) fs.add({i % 3, i / 3});
    }
    check_all_kernels(mesh, fs, /*all_sources=*/true);
  }
}

TEST(BitplaneEquivalence, Exhaustive1xN) {
  // Degenerate single-row/column meshes stress the "missing neighbor"
  // edges of every rule.
  for (const auto [w, h] : {std::pair<Dist, Dist>{6, 1}, {1, 6}}) {
    const Mesh2D mesh(w, h);
    const int n = static_cast<int>(w * h);
    for (int bits = 0; bits < (1 << n); ++bits) {
      fault::FaultSet fs(mesh);
      for (int i = 0; i < n; ++i) {
        if ((bits >> i) & 1) fs.add(w == 1 ? Coord{0, i} : Coord{i, 0});
      }
      check_all_kernels(mesh, fs, /*all_sources=*/true);
    }
  }
}

TEST(BitplaneEquivalence, RandomizedMeshes) {
  // Widths chosen to exercise exact-word, one-past-word, and tiny-tail
  // layouts at 1-, 2-, 3- and 5-word rows, plus thin grids on both axes;
  // densities from sparse to heavily faulted.
  Rng rng(0xb17b17);
  const std::pair<Dist, Dist> dims[] = {{64, 64}, {65, 37}, {100, 3}, {3, 100}, {128, 20},
                                        {1, 65},  {65, 1},  {63, 5},  {5, 63},  {127, 3},
                                        {129, 3}, {3, 129}, {300, 7}};
  for (const auto& [w, h] : dims) {
    const Mesh2D mesh(w, h);
    for (const double density : {0.01, 0.05, 0.15, 0.4}) {
      for (int rep = 0; rep < 3; ++rep) {
        fault::FaultSet fs(mesh);
        mesh.for_each_node([&](Coord c) {
          if (rng.uniform01() < density) fs.add(c);
        });
        check_all_kernels(mesh, fs, /*all_sources=*/false);
      }
    }
  }
}

TEST(BitplaneEquivalence, DispatchedEntriesMatchScalar) {
  // The public byte-mask entry points agree with the scalar kernels on a
  // representative mesh — guards the pack/unpack paths around the bit-plane
  // kernels (block build, safety, reach).
  const Mesh2D mesh(80, 60);
  Rng rng(42);
  const fault::FaultSet faults =
      fault::uniform_random_faults(mesh, 120, rng, [](Coord) { return false; });

  fault::BlockSet bs_pub, bs_scalar;
  fault::BlockScratch scr1, scr2;
  fault::build_faulty_blocks(mesh, faults, bs_pub, scr1);
  fault::build_faulty_blocks_scalar(mesh, faults, bs_scalar, scr2);
  expect_blocksets_equal(mesh, bs_scalar, bs_pub);

  const Grid<bool> mask = info::obstacle_mask(mesh, bs_pub);
  info::SafetyGrid s_pub;
  Grid<info::ExtendedSafetyLevel> s_scalar;
  info::compute_safety_levels(mesh, mask, s_pub);
  info::compute_safety_levels_scalar(mesh, mask, s_scalar);
  EXPECT_TRUE(testing_support::SafetyMatchesOracle(s_pub, s_scalar));

  Grid<bool> fault_bytes, r_pub, r_scalar;
  core::BitGrid r_bits;
  faults.mask().unpack(fault_bytes);
  cond::monotone_reachability(mesh, faults.mask(), mesh.center(), r_bits);
  r_bits.unpack(r_pub);
  cond::monotone_reachability_scalar(mesh, fault_bytes, mesh.center(), r_scalar);
  EXPECT_EQ(r_scalar, r_pub);
}

}  // namespace
}  // namespace meshroute
