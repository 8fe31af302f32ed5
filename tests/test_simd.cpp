// Equivalence gate for the SIMD tier layer (DESIGN §12): every vector tier
// must be BYTE-identical to the pinned scalar kernels,
// including the tail bits and the kRowPad words past the last row. Also the
// exhaustive thin-grid transpose sweep (1xN / Nx1 / widths straddling the
// word boundary) against a per-bit oracle.
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
using simd::Tier;

/// Tiers worth testing on this machine: scalar always, the native tiers only
/// when the CPU provides them (force_tier degrades silently otherwise).
/// Every equivalence/invariant suite below iterates this list, so an AVX-512
/// host automatically byte-checks the native512 kernels too.
std::vector<Tier> testable_tiers() {
  std::vector<Tier> tiers{Tier::Scalar};
  if (simd::native_supported()) tiers.push_back(Tier::Native);
  if (simd::native512_supported()) tiers.push_back(Tier::Native512);
  return tiers;
}

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
    for (const double density : {0.02, 0.3, 0.97}) {
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

// ---------------------------------------------------------------------------
// Tier equivalence: scalar vs native vs native512, byte-identical outputs.
// ---------------------------------------------------------------------------

class TierRestorer {
 public:
  TierRestorer() : saved_(simd::active_tier()) {}
  ~TierRestorer() { simd::force_tier(saved_); }

 private:
  Tier saved_;
};

TEST(TierEquivalence, BlockFixpoint) {
  TierRestorer restore;
  Rng rng(1);
  SweepScratch scratch;
  for (const auto& [w, h] : kEdgeDims) {
    for (const double density : {0.05, 0.25, 0.6}) {
      const BitGrid faults = random_grid(w, h, density, rng);
      BitGrid ref;
      bool first = true;
      for (const Tier t : testable_tiers()) {
        simd::force_tier(t);
        BitGrid bad = faults;
        simd::block_fixpoint(bad, scratch);
        if (first) {
          ref = bad;
          first = false;
        } else {
          EXPECT_EQ(bad, ref) << simd::tier_name(t) << " " << w << "x" << h << " @ " << density;
        }
      }
    }
  }
}

TEST(TierEquivalence, MccSweeps) {
  TierRestorer restore;
  Rng rng(2);
  SweepScratch scratch;
  for (const auto& [w, h] : kEdgeDims) {
    const BitGrid faults = random_grid(w, h, 0.2, rng);
    for (const bool type_one : {false, true}) {
      BitGrid ref_u, ref_c;
      bool first = true;
      for (const Tier t : testable_tiers()) {
        simd::force_tier(t);
        BitGrid useless(w, h), cant(w, h);
        simd::mcc_sweeps(faults, useless, cant, type_one, scratch);
        if (first) {
          ref_u = useless;
          ref_c = cant;
          first = false;
        } else {
          EXPECT_EQ(useless, ref_u) << simd::tier_name(t) << " " << w << "x" << h;
          EXPECT_EQ(cant, ref_c) << simd::tier_name(t) << " " << w << "x" << h;
        }
      }
    }
  }
}

TEST(TierEquivalence, ReachFill) {
  TierRestorer restore;
  Rng rng(3);
  SweepScratch scratch;
  for (const auto& [w, h] : kEdgeDims) {
    const BitGrid blocked = random_grid(w, h, 0.25, rng);
    const std::vector<Coord> sources = {
        {0, 0}, {w - 1, h - 1}, {w / 2, h / 2}, {w - 1, 0}, {0, h - 1}};
    for (const Coord src : sources) {
      BitGrid ref;
      bool first = true;
      for (const Tier t : testable_tiers()) {
        simd::force_tier(t);
        BitGrid out;
        simd::reach_fill(blocked, src, out, scratch);
        if (first) {
          ref = out;
          first = false;
        } else {
          EXPECT_EQ(out, ref) << simd::tier_name(t) << " " << w << "x" << h << " src=" << src.x
                              << "," << src.y;
        }
      }
    }
  }
}

TEST(TierEquivalence, SafetyFill) {
  TierRestorer restore;
  Rng rng(4);
  SweepScratch scratch;
  for (const auto& [w, h] : kEdgeDims) {
    for (const double density : {0.0, 0.15, 0.8}) {
      const BitGrid obstacles = random_grid(w, h, density, rng);
      const std::size_t cells = static_cast<std::size_t>(w) * static_cast<std::size_t>(h) * 4;
      std::vector<std::int32_t> ref(cells), got(cells);
      bool first = true;
      for (const Tier t : testable_tiers()) {
        simd::force_tier(t);
        std::vector<std::int32_t>& dst = first ? ref : got;
        std::fill(dst.begin(), dst.end(), -12345);
        simd::safety_fill(obstacles, dst.data(), scratch);
        if (!first) {
          EXPECT_EQ(got, ref) << simd::tier_name(t) << " " << w << "x" << h << " @ " << density;
        }
        first = false;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batches of independent planes: one SweepScratch carried through a run of
// kernel calls (as a sweep worker carries its per-thread scratch) must leave
// every plane byte-identical to a fresh-scratch scalar run on that plane.
// ---------------------------------------------------------------------------

TEST(BatchEquivalence, BlockFixpoint) {
  TierRestorer restore;
  Rng rng(5);
  for (const int lanes : {1, 3, 8, 13}) {
    const Dist w = 80, h = 40;
    std::vector<BitGrid> planes;
    for (int l = 0; l < lanes; ++l) planes.push_back(random_grid(w, h, 0.25, rng));
    simd::force_tier(Tier::Scalar);
    std::vector<BitGrid> expect = planes;
    for (BitGrid& e : expect) {
      SweepScratch fresh;
      simd::block_fixpoint(e, fresh);
    }
    for (const Tier t : testable_tiers()) {
      simd::force_tier(t);
      SweepScratch shared;
      for (int l = 0; l < lanes; ++l) {
        BitGrid got = planes[static_cast<std::size_t>(l)];
        simd::block_fixpoint(got, shared);
        EXPECT_EQ(got, expect[static_cast<std::size_t>(l)])
            << simd::tier_name(t) << " lanes=" << lanes << " lane=" << l;
      }
    }
  }
}

TEST(BatchEquivalence, MccSweeps) {
  TierRestorer restore;
  Rng rng(6);
  const Dist w = 100, h = 50;
  const int lanes = 11;
  std::vector<BitGrid> planes;
  for (int l = 0; l < lanes; ++l) planes.push_back(random_grid(w, h, 0.2, rng));
  for (const bool type_one : {false, true}) {
    simd::force_tier(Tier::Scalar);
    std::vector<BitGrid> expect_u, expect_c;
    for (const BitGrid& p : planes) {
      SweepScratch fresh;
      BitGrid eu(w, h), ec(w, h);
      simd::mcc_sweeps(p, eu, ec, type_one, fresh);
      expect_u.push_back(std::move(eu));
      expect_c.push_back(std::move(ec));
    }
    for (const Tier t : testable_tiers()) {
      simd::force_tier(t);
      SweepScratch shared;
      for (int l = 0; l < lanes; ++l) {
        const auto i = static_cast<std::size_t>(l);
        BitGrid gu(w, h), gc(w, h);
        simd::mcc_sweeps(planes[i], gu, gc, type_one, shared);
        EXPECT_EQ(gu, expect_u[i]) << simd::tier_name(t) << " t1=" << type_one << " lane=" << l;
        EXPECT_EQ(gc, expect_c[i]) << simd::tier_name(t) << " t1=" << type_one << " lane=" << l;
      }
    }
  }
}

TEST(BatchEquivalence, ReachFillIncludingBlockedSourceLane) {
  TierRestorer restore;
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
  simd::force_tier(Tier::Scalar);
  std::vector<BitGrid> expect(planes.size());
  for (std::size_t l = 0; l < planes.size(); ++l) {
    SweepScratch fresh;
    simd::reach_fill(planes[l], src, expect[l], fresh);
  }
  for (const Tier t : testable_tiers()) {
    simd::force_tier(t);
    SweepScratch shared;
    BitGrid got;  // reused across lanes, like the per-thread output planes
    for (int l = 0; l < lanes; ++l) {
      simd::reach_fill(planes[static_cast<std::size_t>(l)], src, got, shared);
      EXPECT_EQ(got, expect[static_cast<std::size_t>(l)]) << simd::tier_name(t) << " lane=" << l;
      if (l == 4) {
        EXPECT_FALSE(got.any());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Invariants and dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ForceTierRoundTripsAndDegrades) {
  TierRestorer restore;
  EXPECT_EQ(simd::force_tier(Tier::Scalar), Tier::Scalar);
  EXPECT_EQ(simd::active_tier(), Tier::Scalar);
  const Tier native = simd::force_tier(Tier::Native);
  EXPECT_EQ(native, simd::native_supported() ? Tier::Native : Tier::Scalar);
  EXPECT_EQ(simd::active_tier(), native);
  // Native512 degrades down the ladder: AVX-512 host -> Native512, AVX2-only
  // host -> Native, neither -> Scalar. Never an unsupported tier.
  const Tier native512 = simd::force_tier(Tier::Native512);
  if (simd::native512_supported()) {
    EXPECT_EQ(native512, Tier::Native512);
  } else {
    EXPECT_EQ(native512, native);
  }
  EXPECT_EQ(simd::active_tier(), native512);
  EXPECT_STREQ(simd::tier_name(Tier::Scalar), "scalar");
  EXPECT_STREQ(simd::tier_name(Tier::Native), "native");
  EXPECT_STREQ(simd::tier_name(Tier::Native512), "native512");
}

TEST(SimdInvariants, KernelsPreserveTailBitsAndRowPadding) {
  TierRestorer restore;
  Rng rng(8);
  SweepScratch scratch;
  // Tail/pad preservation is what the blend-stores exist for; check via the
  // BitGrid equality operator (compares the full word vector, pad included)
  // against a pristine same-shape grid OR-ed with the kernel result bits.
  for (const auto& [w, h] : kEdgeDims) {
    const BitGrid faults = random_grid(w, h, 0.3, rng);
    for (const Tier t : testable_tiers()) {
      simd::force_tier(t);
      BitGrid bad = faults;
      simd::block_fixpoint(bad, scratch);
      BitGrid rebuilt(w, h);
      bad.for_each_set([&](Coord c) { rebuilt.set(c); });
      EXPECT_EQ(bad, rebuilt) << simd::tier_name(t) << " " << w << "x" << h;
    }
  }
}

}  // namespace
}  // namespace meshroute::core
