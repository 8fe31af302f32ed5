// Row-kernel layer invariants (DESIGN §12): scratch reuse across kernel
// calls is invisible, and the kernels keep the tail bits and the kRowPad
// words past the last row zero. Also the exhaustive thin-grid transpose
// sweep (1xN / Nx1 / widths straddling the word boundary) and the row fills
// against per-bit oracles. The kernels' per-cell oracles live in
// tests/test_bitgrid.cpp (BitplaneEquivalence.*).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

namespace meshroute::core {
namespace {

using simd::SweepScratch;
BitGrid random_grid(Dist w, Dist h, double density, Rng& rng) {
  BitGrid g(w, h);
  const auto n = static_cast<std::int64_t>(static_cast<double>(w) * h * density);
  for (std::int64_t i = 0; i < n; ++i) {
    g.set({static_cast<Dist>(rng.uniform(0, w - 1)), static_cast<Dist>(rng.uniform(0, h - 1))});
  }
  return g;
}

/// The dimension sweep of satellite 2: degenerate thin grids plus widths
/// straddling the 64-bit word boundary at both one and two words per row.
const std::vector<std::pair<Dist, Dist>> kEdgeDims = {
    {1, 1},  {1, 7},  {1, 64},  {1, 65},  {7, 1},  {64, 1},  {65, 1},
    {63, 5}, {64, 5}, {65, 5},  {5, 63},  {5, 64}, {5, 65},  {127, 3},
    {128, 3}, {129, 3}, {3, 129}, {80, 40}, {200, 100}, {300, 7}};

// ---------------------------------------------------------------------------
// Transpose: exhaustive per-bit oracle over the edge dimension sweep.
// ---------------------------------------------------------------------------

TEST(Transpose, EdgeDimensionSweepMatchesPerBitOracle) {
  Rng rng(20260809);
  for (const auto& [w, h] : kEdgeDims) {
    for (const double density : {0.002, 0.02, 0.3, 0.97}) {
      const BitGrid g = random_grid(w, h, density, rng);
      BitGrid t;
      g.transpose_into(t);
      ASSERT_EQ(t.width(), h);
      ASSERT_EQ(t.height(), w);
      BitGrid oracle(h, w);
      g.for_each_set([&](Coord c) { oracle.set({c.y, c.x}); });
      EXPECT_EQ(t, oracle) << w << "x" << h << " @ " << density;
    }
  }
}

// One set bit lands in one tile of one byte lane, so every position pins
// that the tile skip visits the lane holding it, in full and short groups
// (kEdgeDims includes the 200x100 grid).
TEST(Transpose, SingleBitAtEveryPositionMatchesOracle) {
  for (const auto& [w, h] : kEdgeDims) {
    BitGrid g(w, h);
    BitGrid t;
    for (Dist y = 0; y < h; ++y) {
      for (Dist x = 0; x < w; ++x) {
        g.set({x, y});
        g.transpose_into(t);
        BitGrid oracle(h, w);
        oracle.set({y, x});
        ASSERT_EQ(t, oracle) << w << "x" << h << " bit " << x << "," << y;
        g.reset({x, y});
      }
    }
  }
}

TEST(Transpose, RoundTripIsIdentity) {
  Rng rng(7);
  for (const auto& [w, h] : kEdgeDims) {
    const BitGrid g = random_grid(w, h, 0.4, rng);
    BitGrid t, back;
    g.transpose_into(t);
    t.transpose_into(back);
    EXPECT_EQ(back, g) << w << "x" << h;
  }
}

TEST(Transpose, FullGridStaysFullAndTailBitsStayZero) {
  for (const auto& [w, h] : kEdgeDims) {
    BitGrid g(w, h);
    for (Dist y = 0; y < h; ++y) row_range_set(g.row(y), 0, w - 1);
    BitGrid t;
    g.transpose_into(t);
    EXPECT_EQ(t.popcount(), static_cast<std::int64_t>(w) * h);
    for (Dist y = 0; y < t.height(); ++y) {
      EXPECT_EQ(t.row(y)[t.words_per_row() - 1] & ~t.tail_mask(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Row fills across the word boundary (satellite 2's fill sweep): the
// sequential-carry row fills against a per-bit walking oracle.
// ---------------------------------------------------------------------------

TEST(RowFills, EdgeWidthsMatchWalkingOracle) {
  Rng rng(99);
  for (const Dist w : {1, 2, 63, 64, 65, 127, 128, 129, 200}) {
    const std::size_t nw = (static_cast<std::size_t>(w) + 63) / 64;
    for (int rep = 0; rep < 50; ++rep) {
      BitGrid allowed_g = random_grid(w, 1, 0.6, rng);
      BitGrid seed_g = random_grid(w, 1, 0.2, rng);
      std::vector<std::uint64_t> out_e(nw), out_w(nw);
      fill_east_row(seed_g.row(0), allowed_g.row(0), out_e.data(), nw);
      fill_west_row(seed_g.row(0), allowed_g.row(0), out_w.data(), nw);
      // Walking oracle: propagate through contiguous allowed runs.
      std::vector<bool> oe(w, false), ow(w, false);
      for (Dist x = 0; x < w; ++x) {
        const bool a = allowed_g.test({x, 0});
        const bool s = seed_g.test({x, 0}) && a;
        oe[x] = a && (s || (x > 0 && oe[x - 1]));
      }
      for (Dist x = w; x-- > 0;) {
        const bool a = allowed_g.test({x, 0});
        const bool s = seed_g.test({x, 0}) && a;
        ow[x] = a && (s || (x + 1 < w && ow[x + 1]));
      }
      for (Dist x = 0; x < w; ++x) {
        EXPECT_EQ((out_e[x >> 6] >> (x & 63)) & 1, oe[x] ? 1u : 0u) << w << " x=" << x;
        EXPECT_EQ((out_w[x >> 6] >> (x & 63)) & 1, ow[x] ? 1u : 0u) << w << " x=" << x;
      }
    }
  }
}

/// One row of `w` columns with the inclusive column ranges set.
std::vector<std::uint64_t> row_of(Dist w, const std::vector<std::pair<Dist, Dist>>& ranges) {
  std::vector<std::uint64_t> r((static_cast<std::size_t>(w) + 63) / 64, 0);
  for (const auto& [x0, x1] : ranges) row_range_set(r.data(), x0, x1);
  return r;
}

// Several seeds in one allowed run: the east fill's carry-add stops at the
// second seed's bit unless the seeds are or-ed back in. Also a run that
// crosses a word boundary and a run that ends at the row's tail bit.
TEST(RowFills, SeveralSeedsInOneRun) {
  struct Case {
    std::vector<std::pair<Dist, Dist>> allowed;
    std::vector<Dist> seeds;
    std::pair<Dist, Dist> east, west;
  };
  for (const Dist w : {64, 65, 200}) {
    std::vector<Case> cases = {
        {{{3, 30}}, {8, 15, 22}, {8, 30}, {3, 22}},
        {{{w - 10, w - 1}}, {w - 8, w - 5, w - 1}, {w - 8, w - 1}, {w - 10, w - 1}},
        {{{w - 10, w - 1}}, {w - 8, w - 5}, {w - 8, w - 1}, {w - 10, w - 5}}};
    if (w > 64) {
      cases.push_back({{{58, w - 1}}, {60, 61, 64}, {60, w - 1}, {58, 64}});
      cases.push_back({{{58, w - 1}}, {59, 62}, {59, w - 1}, {58, 62}});
    }
    for (const Case& c : cases) {
      const std::size_t nw = (static_cast<std::size_t>(w) + 63) / 64;
      const std::vector<std::uint64_t> allowed = row_of(w, c.allowed);
      std::vector<std::uint64_t> seed(nw, 0);
      for (const Dist x : c.seeds) row_range_set(seed.data(), x, x);
      std::vector<std::uint64_t> out_e(nw), out_w(nw);
      fill_east_row(seed.data(), allowed.data(), out_e.data(), nw);
      fill_west_row(seed.data(), allowed.data(), out_w.data(), nw);
      EXPECT_EQ(out_e, row_of(w, {c.east})) << "east, width " << w << ", first seed " << c.seeds[0];
      EXPECT_EQ(out_w, row_of(w, {c.west})) << "west, width " << w << ", first seed " << c.seeds[0];
    }
  }
}

// ---------------------------------------------------------------------------
// Batches of independent planes: one SweepScratch carried through a run of
// kernel calls (as a sweep worker carries its per-thread scratch) must leave
// every plane byte-identical to a fresh-scratch run on that plane.
// ---------------------------------------------------------------------------

TEST(BatchEquivalence, BlockFixpoint) {
  Rng rng(5);
  for (const int lanes : {1, 3, 8, 13}) {
    const Dist w = 80, h = 40;
    std::vector<BitGrid> planes;
    for (int l = 0; l < lanes; ++l) planes.push_back(random_grid(w, h, 0.25, rng));
    std::vector<BitGrid> expect = planes;
    for (BitGrid& e : expect) {
      SweepScratch fresh;
      simd::block_fixpoint(e, fresh);
    }
    SweepScratch shared;
    for (int l = 0; l < lanes; ++l) {
      BitGrid got = planes[static_cast<std::size_t>(l)];
      simd::block_fixpoint(got, shared);
      EXPECT_EQ(got, expect[static_cast<std::size_t>(l)]) << "lanes=" << lanes << " lane=" << l;
    }
  }
}

TEST(BatchEquivalence, MccSweeps) {
  Rng rng(6);
  const Dist w = 100, h = 50;
  const int lanes = 11;
  std::vector<BitGrid> planes;
  for (int l = 0; l < lanes; ++l) planes.push_back(random_grid(w, h, 0.2, rng));
  for (const bool type_one : {false, true}) {
    std::vector<BitGrid> expect_u, expect_c;
    for (const BitGrid& p : planes) {
      SweepScratch fresh;
      BitGrid eu(w, h), ec(w, h);
      simd::mcc_sweeps(p, eu, ec, type_one, fresh);
      expect_u.push_back(std::move(eu));
      expect_c.push_back(std::move(ec));
    }
    SweepScratch shared;
    for (int l = 0; l < lanes; ++l) {
      const auto i = static_cast<std::size_t>(l);
      BitGrid gu(w, h), gc(w, h);
      simd::mcc_sweeps(planes[i], gu, gc, type_one, shared);
      EXPECT_EQ(gu, expect_u[i]) << "t1=" << type_one << " lane=" << l;
      EXPECT_EQ(gc, expect_c[i]) << "t1=" << type_one << " lane=" << l;
    }
  }
}

TEST(BatchEquivalence, ReachFillIncludingBlockedSourceLane) {
  Rng rng(7);
  const Dist w = 90, h = 45;
  const int lanes = 9;
  const Coord src{w / 2, h / 2};
  std::vector<BitGrid> planes;
  for (int l = 0; l < lanes; ++l) {
    BitGrid p = random_grid(w, h, 0.3, rng);
    if (l == 4) p.set(src);  // one lane with a blocked source: empty result
    planes.push_back(std::move(p));
  }
  std::vector<BitGrid> expect(planes.size());
  for (std::size_t l = 0; l < planes.size(); ++l) {
    SweepScratch fresh;
    simd::reach_fill(planes[l], src, expect[l], fresh);
  }
  SweepScratch shared;
  BitGrid got;  // reused across lanes, like the per-thread output planes
  for (int l = 0; l < lanes; ++l) {
    simd::reach_fill(planes[static_cast<std::size_t>(l)], src, got, shared);
    EXPECT_EQ(got, expect[static_cast<std::size_t>(l)]) << "lane=" << l;
    if (l == 4) {
      EXPECT_FALSE(got.any());
    }
  }
}

// ---------------------------------------------------------------------------
// Invariants.
// ---------------------------------------------------------------------------

TEST(SimdInvariants, KernelsPreserveTailBitsAndRowPadding) {
  Rng rng(8);
  SweepScratch scratch;
  // Check via the BitGrid equality operator (compares the full word vector,
  // pad included) against a pristine same-shape grid OR-ed with the kernel
  // result bits.
  for (const auto& [w, h] : kEdgeDims) {
    const BitGrid faults = random_grid(w, h, 0.3, rng);
    BitGrid bad = faults;
    simd::block_fixpoint(bad, scratch);
    BitGrid rebuilt(w, h);
    bad.for_each_set([&](Coord c) { rebuilt.set(c); });
    EXPECT_EQ(bad, rebuilt) << w << "x" << h;
  }
}

}  // namespace
}  // namespace meshroute::core
