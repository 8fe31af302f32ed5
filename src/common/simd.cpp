#include "common/simd.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <cstdlib>
#include <string_view>

// The native tiers exist only on x86, where __builtin_cpu_supports picks
// them at runtime; every other build runs the scalar tier.
#if defined(__x86_64__) || defined(__i386__)
#define MESHROUTE_HAVE_NATIVE 1
#endif

namespace meshroute::core::simd {

// ===========================================================================
// Tier resolution
// ===========================================================================

namespace {

/// The best tier this process can actually run — the bottom of every forced
/// tier's degradation ladder.
Tier best_tier() noexcept {
  if (native512_supported()) return Tier::Native512;
  if (native_supported()) return Tier::Native;
  return Tier::Scalar;
}

Tier resolve_tier() noexcept {
  if (const char* env = std::getenv("MESHROUTE_SIMD")) {
    const std::string_view v(env);
    if (v == "scalar") return Tier::Scalar;
    if (v == "native") return native_supported() ? Tier::Native : Tier::Scalar;
    if (v == "native512") return best_tier();
  }
  return best_tier();
}

Tier& tier_state() noexcept {
  static Tier t = resolve_tier();
  return t;
}

}  // namespace

const char* tier_name(Tier t) noexcept {
  switch (t) {
    case Tier::Scalar: return "scalar";
    case Tier::Native: return "native";
    case Tier::Native512: return "native512";
  }
  return "?";
}

bool native_supported() noexcept {
#if defined(MESHROUTE_HAVE_NATIVE)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool native512_supported() noexcept {
#if defined(MESHROUTE_HAVE_NATIVE)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

Tier active_tier() noexcept { return tier_state(); }

Tier force_tier(Tier t) noexcept {
  if (t == Tier::Native512 && !native512_supported()) t = Tier::Native;
  if (t == Tier::Native && !native_supported()) t = Tier::Scalar;
  tier_state() = t;
  return t;
}

namespace {

// ===========================================================================
// Shared pieces (tier-independent)
// ===========================================================================

/// Dirty-row Gauss-Seidel driver shared by all fixpoint tiers: every row
/// starts dirty; sweeping a changed row re-marks only its two neighbors (its
/// own vertical-eligibility mask did not change, so a swept row is at its
/// local fixpoint until a neighbor moves). Any processing order reaches the
/// same (unique, monotone) fixpoint; this one processes ascending with
/// immediate revisits inside a word and an outer rescan for backward marks.
template <typename SweepFn>
void run_dirty_fixpoint(Dist h, std::vector<std::uint64_t>& dirty, SweepFn&& sweep) {
  if (h <= 0) return;
  const std::size_t nb = (static_cast<std::size_t>(h) + 63) / 64;
  dirty.assign(nb, ~std::uint64_t{0});
  if (static_cast<std::size_t>(h) % 64 != 0) {
    dirty[nb - 1] = ~std::uint64_t{0} >> (64 - static_cast<std::size_t>(h) % 64);
  }
  bool pending = true;
  while (pending) {
    pending = false;
    for (std::size_t i = 0; i < nb; ++i) {
      while (dirty[i] != 0) {
        const int b = std::countr_zero(dirty[i]);
        dirty[i] &= dirty[i] - 1;
        const Dist y = static_cast<Dist>(i * 64 + static_cast<std::size_t>(b));
        if (sweep(y)) {
          if (y > 0) dirty[static_cast<std::size_t>(y - 1) >> 6] |= std::uint64_t{1} << ((y - 1) & 63);
          if (y + 1 < h) dirty[static_cast<std::size_t>(y + 1) >> 6] |= std::uint64_t{1} << ((y + 1) & 63);
        }
      }
    }
    for (std::size_t i = 0; i < nb; ++i) pending = pending || dirty[i] != 0;
  }
}

/// Reachability side masks: ME keeps bits x >= sx, MW keeps x <= sx (both
/// include the source column; nothing propagates across it because the
/// adjacent bit is outside the mask).
void build_side_masks(std::size_t nw, std::uint64_t tail, std::size_t sx,
                      std::vector<std::uint64_t>& me, std::vector<std::uint64_t>& mw) {
  me.assign(nw, 0);
  mw.assign(nw, 0);
  const std::size_t sj = sx / 64;
  for (std::size_t j = 0; j < nw; ++j) {
    if (j > sj) me[j] = ~std::uint64_t{0};
    if (j < sj) mw[j] = ~std::uint64_t{0};
  }
  me[sj] = ~std::uint64_t{0} << (sx % 64);
  mw[sj] = ~std::uint64_t{0} >> (63 - sx % 64);
  if (nw > 0) {
    me[nw - 1] &= tail;
    mw[nw - 1] &= tail;
  }
}

// ===========================================================================
// Scalar tier: the PR-5 single-word-lane kernels, verbatim. These are the
// pinned oracles the vector tiers are equivalence-tested against, the
// MESHROUTE_SIMD=scalar escape hatch, and the tier a CPU without AVX2 runs.
// ===========================================================================

bool block_sweep_row_scalar(BitGrid& bad, Dist y, std::uint64_t* vmask, std::uint64_t* seed,
                            std::uint64_t* fill) {
  const Dist h = bad.height();
  const std::size_t nw = bad.words_per_row();
  const std::uint64_t tail = bad.tail_mask();
  std::uint64_t* r = bad.row(y);
  const std::uint64_t* up = y + 1 < h ? bad.row(y + 1) : nullptr;
  const std::uint64_t* dn = y > 0 ? bad.row(y - 1) : nullptr;
  for (std::size_t j = 0; j < nw; ++j) {
    vmask[j] = (up != nullptr ? up[j] : 0) | (dn != nullptr ? dn[j] : 0);
  }
  shift_east_row(r, seed, nw, tail);
  fill_east_row(seed, vmask, fill, nw);
  shift_west_row(r, seed, nw);
  fill_west_row(seed, vmask, seed, nw);
  bool changed = false;
  for (std::size_t j = 0; j < nw; ++j) {
    const std::uint64_t add = (fill[j] | seed[j]) & ~r[j];
    if (add != 0) {
      r[j] |= add;
      changed = true;
    }
  }
  return changed;
}

void block_fixpoint_scalar(BitGrid& bad, SweepScratch& s) {
  const std::size_t nw = bad.words_per_row();
  s.row_a.resize(nw);
  s.row_b.resize(nw);
  s.row_c.resize(nw);
  run_dirty_fixpoint(bad.height(), s.dirty, [&](Dist y) {
    return block_sweep_row_scalar(bad, y, s.row_a.data(), s.row_b.data(), s.row_c.data());
  });
}

void mcc_sweeps_scalar(const BitGrid& fp, BitGrid& up, BitGrid& cp, bool type_one,
                       SweepScratch& s) {
  const Dist h = fp.height();
  const std::size_t nw = fp.words_per_row();
  const std::uint64_t tail = fp.tail_mask();
  s.row_a.resize(nw);
  s.row_b.resize(nw);
  std::uint64_t* amask = s.row_a.data();
  std::uint64_t* seed = s.row_b.data();
  for (Dist y = h - 1; y-- > 0;) {  // useless: rows h-2 .. 0
    const std::uint64_t* f_above = fp.row(y + 1);
    const std::uint64_t* u_above = up.row(y + 1);
    const std::uint64_t* f_row = fp.row(y);
    std::uint64_t* u_row = up.row(y);
    for (std::size_t j = 0; j < nw; ++j) amask[j] = (f_above[j] | u_above[j]) & ~f_row[j];
    if (type_one) {  // east trigger: labels spread west through eligible cells
      shift_west_row(f_row, seed, nw);
      fill_west_row(seed, amask, u_row, nw);
    } else {  // west trigger: labels spread east
      shift_east_row(f_row, seed, nw, tail);
      fill_east_row(seed, amask, u_row, nw);
    }
  }
  for (Dist y = 1; y < h; ++y) {  // can't-reach: rows 1 .. h-1
    const std::uint64_t* f_below = fp.row(y - 1);
    const std::uint64_t* c_below = cp.row(y - 1);
    const std::uint64_t* f_row = fp.row(y);
    std::uint64_t* c_row = cp.row(y);
    for (std::size_t j = 0; j < nw; ++j) amask[j] = (f_below[j] | c_below[j]) & ~f_row[j];
    if (type_one) {  // west trigger: labels spread east
      shift_east_row(f_row, seed, nw, tail);
      fill_east_row(seed, amask, c_row, nw);
    } else {  // east trigger: labels spread west
      shift_west_row(f_row, seed, nw);
      fill_west_row(seed, amask, c_row, nw);
    }
  }
}

void reach_fill_scalar(const BitGrid& blocked, Coord source, BitGrid& out, SweepScratch& s) {
  out.resize(blocked.width(), blocked.height());
  if (source.x < 0 || source.x >= blocked.width() || source.y < 0 || source.y >= blocked.height() ||
      blocked.test(source)) {
    return;
  }
  const std::size_t nw = blocked.words_per_row();
  const Dist h = blocked.height();
  build_side_masks(nw, blocked.tail_mask(), static_cast<std::size_t>(source.x), s.row_a, s.row_b);
  const std::uint64_t* me = s.row_a.data();
  const std::uint64_t* mw = s.row_b.data();
  s.row_c.resize(nw);
  s.row_d.resize(nw);
  std::uint64_t* allowed = s.row_c.data();
  std::uint64_t* seed = s.row_d.data();

  const auto sweep_row = [&](std::uint64_t* r, const std::uint64_t* b, const std::uint64_t* prev) {
    for (std::size_t j = 0; j < nw; ++j) {
      allowed[j] = ~b[j] & me[j];
      seed[j] = prev[j] & allowed[j];
    }
    fill_east_row(seed, allowed, r, nw);
    for (std::size_t j = 0; j < nw; ++j) {
      allowed[j] = ~b[j] & mw[j];
      seed[j] = prev[j] & allowed[j];
    }
    fill_west_row(seed, allowed, seed, nw);
    for (std::size_t j = 0; j < nw; ++j) r[j] |= seed[j];
  };

  out.set(source);
  sweep_row(out.row(source.y), blocked.row(source.y), out.row(source.y));
  for (Dist y = source.y + 1; y < h; ++y) sweep_row(out.row(y), blocked.row(y), out.row(y - 1));
  for (Dist y = source.y; y-- > 0;) sweep_row(out.row(y), blocked.row(y), out.row(y + 1));
}

void safety_fill_scalar(const BitGrid& obstacles, std::int32_t* aos, SweepScratch& s) {
  const Dist w = obstacles.width();
  const Dist h = obstacles.height();
  const std::size_t nw = obstacles.words_per_row();
  const auto sw = static_cast<std::size_t>(w);
  // AoS field offsets within one cell: [e, s, w, n] (layout asserted by the
  // info-layer caller).
  for (Dist y = 0; y < h; ++y) {
    std::int32_t* row = aos + static_cast<std::size_t>(y) * sw * 4;
    Dist prev = -1;
    BitGrid::for_each_set_in_row(obstacles.row(y), nw, [&](Dist o) {
      if (prev < 0) {
        for (Dist x = 0; x <= o; ++x) row[x * 4 + 2] = kInfiniteDistance;
      } else {
        for (Dist x = prev + 1; x <= o; ++x) row[x * 4 + 2] = x - prev - 1;
      }
      for (Dist x = prev < 0 ? 0 : prev; x < o; ++x) row[x * 4 + 0] = o - x - 1;
      prev = o;
    });
    if (prev < 0) {
      for (Dist x = 0; x < w; ++x) {
        row[x * 4 + 2] = kInfiniteDistance;
        row[x * 4 + 0] = kInfiniteDistance;
      }
    } else {
      for (Dist x = prev + 1; x < w; ++x) row[x * 4 + 2] = x - prev - 1;
      for (Dist x = prev; x < w; ++x) row[x * 4 + 0] = kInfiniteDistance;
    }
  }
  // N/S: per-column "row of the nearest obstacle so far" counters, sentinels
  // chosen so min() clamps obstacle-free columns to exactly infinity.
  s.col_c.assign(sw, -kInfiniteDistance - 1);
  for (Dist y = 0; y < h; ++y) {  // south: ascending, nearest obstacle below
    std::int32_t* row = aos + static_cast<std::size_t>(y) * sw * 4;
    const std::int32_t* last = s.col_c.data();
    for (Dist x = 0; x < w; ++x) row[x * 4 + 1] = std::min(y - last[x] - 1, kInfiniteDistance);
    BitGrid::for_each_set_in_row(obstacles.row(y), nw,
                                 [&](Dist x) { s.col_c[static_cast<std::size_t>(x)] = y; });
  }
  s.col_c.assign(sw, h + kInfiniteDistance);
  for (Dist y = h; y-- > 0;) {  // north: descending, nearest obstacle above
    std::int32_t* row = aos + static_cast<std::size_t>(y) * sw * 4;
    const std::int32_t* next = s.col_c.data();
    for (Dist x = 0; x < w; ++x) row[x * 4 + 3] = std::min(next[x] - y - 1, kInfiniteDistance);
    BitGrid::for_each_set_in_row(obstacles.row(y), nw,
                                 [&](Dist x) { s.col_c[static_cast<std::size_t>(x)] = y; });
  }
}

#if defined(MESHROUTE_HAVE_NATIVE)
// ===========================================================================
// Vector kernels (GCC vector extensions). Everything below is written once
// as [[gnu::always_inline]] helpers and instantiated only inside the
// __attribute__((target("avx2"))) and target("avx512f") wrappers at the end,
// so the compiler emits two ISA-specific copies of the same code (function
// multiversioning by hand). Nothing here runs at the baseline ISA: there
// the scalar kernels above are the faster ones (DESIGN §12).
// ===========================================================================

typedef std::uint64_t u64x4 __attribute__((vector_size(32)));
typedef std::int64_t i64x4 __attribute__((vector_size(32)));
typedef std::int32_t i32x8 __attribute__((vector_size(32)));

// Unaligned load/store through memcpy — lowered to the target's unaligned
// vector moves once inlined.
template <typename V, typename T>
[[gnu::always_inline]] inline V loadu(const T* p) noexcept {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}
template <typename V, typename T>
[[gnu::always_inline]] inline void storeu(T* p, V v) noexcept {
  std::memcpy(p, &v, sizeof(V));
}

// Whole-word shifts across the 4 lanes of a row chunk (lane 0 = westmost).
[[gnu::always_inline]] inline u64x4 prev_word(u64x4 v) noexcept {
  const u64x4 z{};
  return __builtin_shufflevector(z, v, 3, 4, 5, 6);
}
[[gnu::always_inline]] inline u64x4 prev_word2(u64x4 v) noexcept {
  const u64x4 z{};
  return __builtin_shufflevector(z, v, 2, 3, 4, 5);
}
[[gnu::always_inline]] inline u64x4 next_word(u64x4 v) noexcept {
  const u64x4 z{};
  return __builtin_shufflevector(v, z, 1, 2, 3, 4);
}
[[gnu::always_inline]] inline u64x4 next_word2(u64x4 v) noexcept {
  const u64x4 z{};
  return __builtin_shufflevector(v, z, 2, 3, 4, 5);
}

[[gnu::always_inline]] inline bool any4(u64x4 v) noexcept {
  return ((v[0] | v[1]) | (v[2] | v[3])) != 0;
}

/// Valid-bit mask of a row chunk: full words below nw, the tail mask at word
/// nw-1, zero beyond (loads may touch the next row / the allocation pad).
[[gnu::always_inline]] inline u64x4 valid_mask4(std::size_t nw, std::uint64_t tail) noexcept {
  u64x4 m{};
  for (std::size_t j = 0; j < 4; ++j) {
    if (j + 1 < nw) {
      m[j] = ~std::uint64_t{0};
    } else if (j + 1 == nw) {
      m[j] = tail;
    }
  }
  return m;
}

[[gnu::always_inline]] inline u64x4 shift_east4(u64x4 v, u64x4 valid) noexcept {
  return ((v << 1) | (prev_word(v) >> 63)) & valid;
}
[[gnu::always_inline]] inline u64x4 shift_west4(u64x4 v) noexcept {
  return (v >> 1) | (next_word(v) << 63);
}

// Lanewise Kogge-Stone occluded fills (6 doubling steps per 64-bit lane).
#define MESHROUTE_KS_STEPS(gen, pro, op)                                                     \
  gen |= pro & (gen op 1);                                                                   \
  pro &= pro op 1;                                                                           \
  gen |= pro & (gen op 2);                                                                   \
  pro &= pro op 2;                                                                           \
  gen |= pro & (gen op 4);                                                                   \
  pro &= pro op 4;                                                                           \
  gen |= pro & (gen op 8);                                                                   \
  pro &= pro op 8;                                                                           \
  gen |= pro & (gen op 16);                                                                  \
  pro &= pro op 16;                                                                          \
  gen |= pro & (gen op 32)

template <typename V>
[[gnu::always_inline]] inline V ks_east(V gen, V pro) noexcept {
  MESHROUTE_KS_STEPS(gen, pro, <<);
  return gen;
}
template <typename V>
[[gnu::always_inline]] inline V ks_west(V gen, V pro) noexcept {
  MESHROUTE_KS_STEPS(gen, pro, >>);
  return gen;
}

/// Whole-row occluded fill east in one u64x4: lanewise Kogge-Stone plus a
/// word-granularity carry chain resolved as a second, 4-lane Kogge-Stone —
/// `e` is each word's fill-from-bit-0 (what a carry entering the word adds)
/// and the arithmetic-shift sign masks are the gen/propagate word bits.
[[gnu::always_inline]] inline u64x4 fill_east4(u64x4 seed, u64x4 allowed) noexcept {
  const u64x4 f0 = ks_east(seed & allowed, allowed);
  const u64x4 one = {1, 1, 1, 1};
  const u64x4 e = ks_east(allowed & one, allowed);
  // gm/pm: all-ones per lane whose word generates / propagates a carry east
  // (bit 63 of fill / entry-fill set). 0 - (x >> 63) broadcasts the bit.
  const u64x4 gm = u64x4{} - (f0 >> 63);
  const u64x4 pm = u64x4{} - (e >> 63);
  u64x4 g = gm | (pm & prev_word(gm));
  const u64x4 p = pm & prev_word(pm);
  g |= p & prev_word2(g);
  return f0 | (e & prev_word(g));
}

[[gnu::always_inline]] inline u64x4 fill_west4(u64x4 seed, u64x4 allowed) noexcept {
  const u64x4 f0 = ks_west(seed & allowed, allowed);
  constexpr std::uint64_t kMsb = std::uint64_t{1} << 63;
  const u64x4 msb = {kMsb, kMsb, kMsb, kMsb};
  const u64x4 e = ks_west(allowed & msb, allowed);
  const u64x4 gm = u64x4{} - (f0 & 1);
  const u64x4 pm = u64x4{} - (e & 1);
  u64x4 g = gm | (pm & next_word(gm));
  const u64x4 p = pm & next_word(pm);
  g |= p & next_word2(g);
  return f0 | (e & next_word(g));
}

// ---------------------------------------------------------------------------
// block_fixpoint: rows <= 256 wide ride the whole-row u64x4 path; wider
// meshes fall back to the scalar row sweep under the same dirty-row driver.
// ---------------------------------------------------------------------------

[[gnu::always_inline]] inline void block_fixpoint_vec(BitGrid& bad, SweepScratch& s) {
  const Dist h = bad.height();
  const std::size_t nw = bad.words_per_row();
  if (nw == 0 || h == 0) return;
  if (nw > 4) {
    block_fixpoint_scalar(bad, s);
    return;
  }
  const u64x4 valid = valid_mask4(nw, bad.tail_mask());
  run_dirty_fixpoint(h, s.dirty, [&](Dist y) {
    std::uint64_t* rp = bad.row(y);
    const u64x4 orig = loadu<u64x4>(rp);
    const u64x4 r = orig & valid;
    u64x4 vm{};
    if (y + 1 < h) vm = loadu<u64x4>(bad.row(y + 1));
    if (y > 0) vm |= loadu<u64x4>(bad.row(y - 1));
    vm &= valid;
    const u64x4 fe = fill_east4(shift_east4(r, valid), vm);
    const u64x4 fw = fill_west4(shift_west4(r), vm);
    const u64x4 add = (fe | fw) & ~r;
    if (!any4(add)) return false;
    storeu(rp, orig | add);  // OR-store: lanes past nw stay untouched
    return true;
  });
}

// ---------------------------------------------------------------------------
// mcc_sweeps
// ---------------------------------------------------------------------------

[[gnu::always_inline]] inline void mcc_sweeps_vec(const BitGrid& fp, BitGrid& up, BitGrid& cp,
                                                  bool type_one, SweepScratch& s) {
  const Dist h = fp.height();
  const std::size_t nw = fp.words_per_row();
  if (nw == 0 || h == 0) return;
  if (nw > 4) {
    mcc_sweeps_scalar(fp, up, cp, type_one, s);
    return;
  }
  const u64x4 valid = valid_mask4(nw, fp.tail_mask());
  // Blend-stores replace the valid lanes, preserving words that belong to
  // the adjacent row / the allocation pad. Written out inline: a lambda
  // taking a u64x4 parameter would not inherit the caller's target ISA, and
  // the un-inlined -O0 call would cross a vector-ABI boundary.
  for (Dist y = h - 1; y-- > 0;) {  // useless: rows h-2 .. 0
    const u64x4 fa = loadu<u64x4>(fp.row(y + 1)) & valid;
    const u64x4 ua = loadu<u64x4>(up.row(y + 1)) & valid;
    const u64x4 fr = loadu<u64x4>(fp.row(y)) & valid;
    const u64x4 amask = (fa | ua) & ~fr;
    const u64x4 fill = type_one ? fill_west4(shift_west4(fr), amask)
                                : fill_east4(shift_east4(fr, valid), amask);
    std::uint64_t* p = up.row(y);
    storeu(p, (loadu<u64x4>(p) & ~valid) | fill);
  }
  for (Dist y = 1; y < h; ++y) {  // can't-reach: rows 1 .. h-1
    const u64x4 fb = loadu<u64x4>(fp.row(y - 1)) & valid;
    const u64x4 cb = loadu<u64x4>(cp.row(y - 1)) & valid;
    const u64x4 fr = loadu<u64x4>(fp.row(y)) & valid;
    const u64x4 amask = (fb | cb) & ~fr;
    const u64x4 fill = type_one ? fill_east4(shift_east4(fr, valid), amask)
                                : fill_west4(shift_west4(fr), amask);
    std::uint64_t* p = cp.row(y);
    storeu(p, (loadu<u64x4>(p) & ~valid) | fill);
  }
}

// ---------------------------------------------------------------------------
// reach_fill
// ---------------------------------------------------------------------------

[[gnu::always_inline]] inline void reach_fill_vec(const BitGrid& blocked, Coord source,
                                                  BitGrid& out, SweepScratch& s) {
  out.resize(blocked.width(), blocked.height());
  if (source.x < 0 || source.x >= blocked.width() || source.y < 0 || source.y >= blocked.height() ||
      blocked.test(source)) {
    return;
  }
  const std::size_t nw = blocked.words_per_row();
  if (nw > 4) {
    // Re-run from scratch on the scalar row path (out is already resized;
    // reach_fill_scalar resizes again, which is a cheap re-zero).
    reach_fill_scalar(blocked, source, out, s);
    return;
  }
  const Dist h = blocked.height();
  const u64x4 valid = valid_mask4(nw, blocked.tail_mask());
  build_side_masks(nw, blocked.tail_mask(), static_cast<std::size_t>(source.x), s.row_a, s.row_b);
  u64x4 me{}, mw{};
  for (std::size_t j = 0; j < nw; ++j) {
    me[j] = s.row_a[j];
    mw[j] = s.row_b[j];
  }
  const auto sweep_row = [&](std::uint64_t* rp, const std::uint64_t* bp,
                             const std::uint64_t* prevp) {
    const u64x4 b = loadu<u64x4>(bp);
    u64x4 allowed = ~b & me;
    u64x4 seed = loadu<u64x4>(prevp) & allowed;
    const u64x4 fe = fill_east4(seed, allowed);
    allowed = ~b & mw;
    // Reload prev: on the source row it aliases the output row mid-update,
    // matching the scalar kernel's sequencing exactly (the overlap is the
    // already-seeded source column, so the result is identical either way).
    seed = loadu<u64x4>(prevp) & allowed;
    const u64x4 fw = fill_west4(seed, allowed);
    storeu(rp, (loadu<u64x4>(rp) & ~valid) | fe | fw);
  };
  out.set(source);
  sweep_row(out.row(source.y), blocked.row(source.y), out.row(source.y));
  for (Dist y = source.y + 1; y < h; ++y) sweep_row(out.row(y), blocked.row(y), out.row(y - 1));
  for (Dist y = source.y; y-- > 0;) sweep_row(out.row(y), blocked.row(y), out.row(y + 1));
}

/// E/W safety segment ramps for one row, written to planar int32 buffers.
/// Values between consecutive obstacles are pure functions of the obstacle
/// positions (see compute_safety_levels docs); identical to the AoS version
/// in PR 5 but targeting dense per-field rows the interleave step consumes.
void safety_ew_row(const std::uint64_t* orow, std::size_t nw, Dist w, std::int32_t* e_buf,
                   std::int32_t* w_buf) {
  Dist prev = -1;
  BitGrid::for_each_set_in_row(orow, nw, [&](Dist o) {
    if (prev < 0) {
      for (Dist x = 0; x <= o; ++x) w_buf[x] = kInfiniteDistance;
    } else {
      for (Dist x = prev + 1; x <= o; ++x) w_buf[x] = x - prev - 1;
    }
    for (Dist x = prev < 0 ? 0 : prev; x < o; ++x) e_buf[x] = o - x - 1;
    prev = o;
  });
  if (prev < 0) {
    for (Dist x = 0; x < w; ++x) {
      w_buf[x] = kInfiniteDistance;
      e_buf[x] = kInfiniteDistance;
    }
  } else {
    for (Dist x = prev + 1; x < w; ++x) w_buf[x] = x - prev - 1;
    for (Dist x = prev; x < w; ++x) e_buf[x] = kInfiniteDistance;
  }
}

// ---------------------------------------------------------------------------
// safety_fill: fused single AoS traversal. A descending pass materializes
// the N recurrence into a planar int32 grid; the ascending pass computes
// E/W (segment ramps into planar row buffers) and S (vector column
// recurrence) and interleaves all four into the AoS output row in one go —
// the AoS plane is streamed once instead of three times.
// ---------------------------------------------------------------------------

[[gnu::always_inline]] inline void safety_pass_recurrence(std::int32_t* dst,
                                                          const std::int32_t* counters, Dist y,
                                                          bool descending, Dist w) noexcept {
  // south (ascending): v = min(y - last - 1, INF); north: v = min(next - y - 1, INF)
  const i32x8 yv = descending ? i32x8{} + (-y - 1) : i32x8{} + (y - 1);
  const i32x8 inf = i32x8{} + kInfiniteDistance;
  Dist x = 0;
  for (; x + 8 <= w; x += 8) {
    const i32x8 c = loadu<i32x8>(counters + x);
    i32x8 v = descending ? c + yv : yv - c;
    v = v > inf ? inf : v;  // ternary on vectors = lanewise blend
    storeu(dst + x, v);
  }
  for (; x < w; ++x) {
    const std::int32_t v = descending ? counters[x] - y - 1 : y - counters[x] - 1;
    dst[x] = std::min(v, kInfiniteDistance);
  }
}

[[gnu::always_inline]] inline void safety_fill_vec(const BitGrid& obstacles, std::int32_t* aos,
                                                   SweepScratch& s) {
  const Dist w = obstacles.width();
  const Dist h = obstacles.height();
  const std::size_t nw = obstacles.words_per_row();
  if (w <= 0 || h <= 0) return;
  const auto sw = static_cast<std::size_t>(w);
  const std::size_t pw = (sw + 15) & ~std::size_t{7};  // padded row for vector tails
  s.col_a.resize(pw);
  s.col_b.resize(pw);
  s.col_c.resize(pw);
  s.plane.resize(sw * static_cast<std::size_t>(h) + 8);
  std::int32_t* e_buf = s.col_a.data();
  std::int32_t* w_buf = s.col_b.data();
  std::int32_t* counters = s.col_c.data();

  // Pass 1 (descending): N values into the planar grid.
  std::fill(counters, counters + pw, h + kInfiniteDistance);
  for (Dist y = h; y-- > 0;) {
    safety_pass_recurrence(s.plane.data() + static_cast<std::size_t>(y) * sw, counters, y,
                           /*descending=*/true, w);
    BitGrid::for_each_set_in_row(obstacles.row(y), nw, [&](Dist x) { counters[x] = y; });
  }

  // Pass 2 (ascending): E/W ramps + S recurrence + 4x8 interleave into AoS.
  std::fill(counters, counters + pw, -kInfiniteDistance - 1);
  for (Dist y = 0; y < h; ++y) {
    safety_ew_row(obstacles.row(y), nw, w, e_buf, w_buf);
    std::int32_t* out_row = aos + static_cast<std::size_t>(y) * sw * 4;
    const std::int32_t* n_row = s.plane.data() + static_cast<std::size_t>(y) * sw;
    const i32x8 yv = i32x8{} + (y - 1);
    const i32x8 inf = i32x8{} + kInfiniteDistance;
    Dist x = 0;
    for (; x + 8 <= w; x += 8) {
      const i32x8 e8 = loadu<i32x8>(e_buf + x);
      const i32x8 w8 = loadu<i32x8>(w_buf + x);
      const i32x8 c8 = loadu<i32x8>(counters + x);
      i32x8 s8 = yv - c8;
      s8 = s8 > inf ? inf : s8;
      const i32x8 n8 = loadu<i32x8>(n_row + x);
      // 4x8 transpose-interleave: (E,S,W,N) lanes -> contiguous AoS cells.
      const i32x8 es_lo = __builtin_shufflevector(e8, s8, 0, 8, 1, 9, 2, 10, 3, 11);
      const i32x8 es_hi = __builtin_shufflevector(e8, s8, 4, 12, 5, 13, 6, 14, 7, 15);
      const i32x8 wn_lo = __builtin_shufflevector(w8, n8, 0, 8, 1, 9, 2, 10, 3, 11);
      const i32x8 wn_hi = __builtin_shufflevector(w8, n8, 4, 12, 5, 13, 6, 14, 7, 15);
      std::int32_t* o = out_row + static_cast<std::size_t>(x) * 4;
      storeu(o + 0, __builtin_shufflevector(es_lo, wn_lo, 0, 1, 8, 9, 2, 3, 10, 11));
      storeu(o + 8, __builtin_shufflevector(es_lo, wn_lo, 4, 5, 12, 13, 6, 7, 14, 15));
      storeu(o + 16, __builtin_shufflevector(es_hi, wn_hi, 0, 1, 8, 9, 2, 3, 10, 11));
      storeu(o + 24, __builtin_shufflevector(es_hi, wn_hi, 4, 5, 12, 13, 6, 7, 14, 15));
    }
    for (; x < w; ++x) {
      std::int32_t* o = out_row + static_cast<std::size_t>(x) * 4;
      o[0] = e_buf[x];
      o[1] = std::min(y - counters[x] - 1, kInfiniteDistance);
      o[2] = w_buf[x];
      o[3] = n_row[x];
    }
    BitGrid::for_each_set_in_row(obstacles.row(y), nw, [&](Dist x2) { counters[x2] = y; });
  }
}

// ===========================================================================
// Tier instantiation: Native under target(avx2), Native512 under
// target(avx512f).
// ===========================================================================

#define MESHROUTE_TARGET_AVX2 __attribute__((target("avx2")))
MESHROUTE_TARGET_AVX2 void block_fixpoint_native(BitGrid& bad, SweepScratch& s) {
  block_fixpoint_vec(bad, s);
}
MESHROUTE_TARGET_AVX2 void mcc_sweeps_native(const BitGrid& fp, BitGrid& up, BitGrid& cp, bool t1,
                                             SweepScratch& s) {
  mcc_sweeps_vec(fp, up, cp, t1, s);
}
MESHROUTE_TARGET_AVX2 void reach_fill_native(const BitGrid& b, Coord src, BitGrid& out,
                                             SweepScratch& s) {
  reach_fill_vec(b, src, out, s);
}
MESHROUTE_TARGET_AVX2 void safety_fill_native(const BitGrid& o, std::int32_t* aos,
                                              SweepScratch& s) {
  safety_fill_vec(o, aos, s);
}

// The AVX-512 tier re-instantiates the identical source once more under
// target("avx512f") (which implies AVX2 on GCC, so the u64x4/i32x8 paths
// still lower natively, with the EVEX encodings and register file).
// Selected at runtime only when __builtin_cpu_supports("avx512f") agrees
// (simd.hpp tier ladder).
#define MESHROUTE_TARGET_AVX512 __attribute__((target("avx512f")))
MESHROUTE_TARGET_AVX512 void block_fixpoint_native512(BitGrid& bad, SweepScratch& s) {
  block_fixpoint_vec(bad, s);
}
MESHROUTE_TARGET_AVX512 void mcc_sweeps_native512(const BitGrid& fp, BitGrid& up, BitGrid& cp,
                                                  bool t1, SweepScratch& s) {
  mcc_sweeps_vec(fp, up, cp, t1, s);
}
MESHROUTE_TARGET_AVX512 void reach_fill_native512(const BitGrid& b, Coord src, BitGrid& out,
                                                  SweepScratch& s) {
  reach_fill_vec(b, src, out, s);
}
MESHROUTE_TARGET_AVX512 void safety_fill_native512(const BitGrid& o, std::int32_t* aos,
                                                   SweepScratch& s) {
  safety_fill_vec(o, aos, s);
}
#endif

}  // namespace

// ===========================================================================
// Public dispatch
// ===========================================================================

#if defined(MESHROUTE_HAVE_NATIVE)
#define MESHROUTE_DISPATCH(fn, ...)                            \
  switch (tier_state()) {                                      \
    case Tier::Native: return fn##_native(__VA_ARGS__);        \
    case Tier::Native512: return fn##_native512(__VA_ARGS__);  \
    case Tier::Scalar: break;                                  \
  }                                                            \
  return fn##_scalar(__VA_ARGS__)
#else
#define MESHROUTE_DISPATCH(fn, ...) return fn##_scalar(__VA_ARGS__)
#endif

void block_fixpoint(BitGrid& bad, SweepScratch& scratch) {
  MESHROUTE_DISPATCH(block_fixpoint, bad, scratch);
}
void mcc_sweeps(const BitGrid& fault, BitGrid& useless, BitGrid& cant, bool type_one,
                SweepScratch& scratch) {
  MESHROUTE_DISPATCH(mcc_sweeps, fault, useless, cant, type_one, scratch);
}
void reach_fill(const BitGrid& blocked, Coord source, BitGrid& out, SweepScratch& scratch) {
  MESHROUTE_DISPATCH(reach_fill, blocked, source, out, scratch);
}
void safety_fill(const BitGrid& obstacles, std::int32_t* aos, SweepScratch& scratch) {
  MESHROUTE_DISPATCH(safety_fill, obstacles, aos, scratch);
}

}  // namespace meshroute::core::simd
