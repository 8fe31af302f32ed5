#include "common/simd.hpp"

#include <bit>

namespace meshroute::core::simd {

namespace {

/// Dirty-row Gauss-Seidel driver for the block fixpoint: every row
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

bool block_sweep_row(BitGrid& bad, Dist y, std::uint64_t* vmask, std::uint64_t* seed,
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

}  // namespace

void block_fixpoint(BitGrid& bad, SweepScratch& s) {
  const std::size_t nw = bad.words_per_row();
  s.row_a.resize(nw);
  s.row_b.resize(nw);
  s.row_c.resize(nw);
  run_dirty_fixpoint(bad.height(), s.dirty, [&](Dist y) {
    return block_sweep_row(bad, y, s.row_a.data(), s.row_b.data(), s.row_c.data());
  });
}

void mcc_sweeps(const BitGrid& fp, BitGrid& up, BitGrid& cp, bool type_one, SweepScratch& s) {
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

void reach_fill(const BitGrid& blocked, Coord source, BitGrid& out, SweepScratch& s) {
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

}  // namespace meshroute::core::simd
