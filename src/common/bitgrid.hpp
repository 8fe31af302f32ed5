// Bit-plane representation of a boolean node grid: one uint64_t word per 64
// columns, row-major, with word-parallel row operations. The trial hot path
// (block/MCC fixpoints, the reachability oracle) runs on these planes — a
// dense-grid fixpoint step touches width/64 words per row instead of width
// bytes, and directional run propagation collapses to occluded fills (a
// carry-add toward the east, Kogge-Stone doubling toward the west).
// Extended safety levels are read off a plane and its transpose by the
// next/previous-set-bit scans below (info/safety_level.hpp).
//
// Layout invariants (DESIGN §10):
//   * bit x of word row[x / 64] is column x (LSB = west, MSB = east, so a
//     left shift moves bits EAST and a right shift moves them WEST);
//   * every row owns words_per_row() words; the unused high bits of the last
//     word ("tail") are ZERO. Every member op and row helper preserves this —
//     it is what makes whole-row popcounts/or/and and the fills edge-exact.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/coord.hpp"
#include "common/grid.hpp"

namespace meshroute::core {

/// Dense bit plane over [0,width) x [0,height), value-semantic like Grid<T>.
class BitGrid {
 public:
  BitGrid() = default;
  BitGrid(Dist width, Dist height) { resize(width, height); }

  /// Extra zero words allocated past the last row so SIMD kernels may issue
  /// full-vector loads/stores at any in-row word index. The padding is part
  /// of the tail-bit invariant: it is zero after resize() and every kernel's
  /// masked tail store preserves it (asserted by tests/test_simd.cpp).
  static constexpr std::size_t kRowPad = 7;

  /// Rebind to new dimensions and zero every bit; reuses capacity, so
  /// steady-state reshapes to the same size allocate nothing.
  void resize(Dist width, Dist height) {
    assert(width >= 0 && height >= 0);
    width_ = width;
    height_ = height;
    wpr_ = (static_cast<std::size_t>(width) + 63) / 64;
    const int tail_bits = static_cast<int>(static_cast<std::size_t>(width) - 64 * (wpr_ - 1));
    tail_ = width == 0 ? 0 : (tail_bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail_bits) - 1);
    words_.assign(wpr_ * static_cast<std::size_t>(height) + kRowPad, 0);
  }

  [[nodiscard]] Dist width() const noexcept { return width_; }
  [[nodiscard]] Dist height() const noexcept { return height_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept { return wpr_; }
  /// Valid-bit mask of the last word of every row.
  [[nodiscard]] std::uint64_t tail_mask() const noexcept { return tail_; }

  void clear() { std::memset(words_.data(), 0, words_.size() * sizeof(std::uint64_t)); }

  [[nodiscard]] bool test(Coord c) const noexcept {
    assert(in_bounds(c));
    return (row(c.y)[static_cast<std::size_t>(c.x) >> 6] >> (c.x & 63)) & 1;
  }
  void set(Coord c) noexcept {
    assert(in_bounds(c));
    row(c.y)[static_cast<std::size_t>(c.x) >> 6] |= std::uint64_t{1} << (c.x & 63);
  }
  void reset(Coord c) noexcept {
    assert(in_bounds(c));
    row(c.y)[static_cast<std::size_t>(c.x) >> 6] &= ~(std::uint64_t{1} << (c.x & 63));
  }

  /// Read-only cell access with the same spelling as Grid<bool>.
  [[nodiscard]] bool operator[](Coord c) const noexcept { return test(c); }

  [[nodiscard]] bool in_bounds(Coord c) const noexcept {
    return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
  }

  [[nodiscard]] std::uint64_t* row(Dist y) noexcept {
    assert(y >= 0 && y < height_);
    return words_.data() + static_cast<std::size_t>(y) * wpr_;
  }
  [[nodiscard]] const std::uint64_t* row(Dist y) const noexcept {
    assert(y >= 0 && y < height_);
    return words_.data() + static_cast<std::size_t>(y) * wpr_;
  }

  [[nodiscard]] std::int64_t popcount() const noexcept {
    std::int64_t n = 0;
    for (const std::uint64_t w : words_) n += std::popcount(w);
    return n;
  }
  [[nodiscard]] bool any() const noexcept {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Pack a byte grid (any nonzero byte reads as true). Resizes to match.
  void assign(const Grid<bool>& g);
  /// Unpack into a byte grid of 0/1 cells (resized on dimension mismatch).
  void unpack(Grid<bool>& g) const;
  /// out[{y, x}] = (*this)[{x, y}]; out is resized to (height, width).
  void transpose_into(BitGrid& out) const;

  /// Visit set bits of one row word array in ascending x. `fn(Dist x)`.
  template <typename Fn>
  static void for_each_set_in_row(const std::uint64_t* r, std::size_t nw, Fn&& fn) {
    for (std::size_t j = 0; j < nw; ++j) {
      std::uint64_t m = r[j];
      while (m != 0) {
        const int b = std::countr_zero(m);
        fn(static_cast<Dist>(j * 64 + static_cast<std::size_t>(b)));
        m &= m - 1;
      }
    }
  }

  /// Visit every set bit in row-major order. `fn(Coord)`.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (Dist y = 0; y < height_; ++y) {
      for_each_set_in_row(row(y), wpr_, [&](Dist x) { fn(Coord{x, y}); });
    }
  }

  friend bool operator==(const BitGrid&, const BitGrid&) = default;

 private:
  Dist width_ = 0;
  Dist height_ = 0;
  std::size_t wpr_ = 0;
  std::uint64_t tail_ = 0;
  std::vector<std::uint64_t> words_;
};

// ---------------------------------------------------------------------------
// Word-row helpers. All take word arrays of length `nw` whose tail bits are
// zero and preserve that invariant (shift_east_row masks with `tail`).
// `dst` may alias `src`/`seed`, never `allowed`.
// ---------------------------------------------------------------------------

/// dst = src shifted one column EAST (x+1), carrying across word boundaries.
inline void shift_east_row(const std::uint64_t* src, std::uint64_t* dst, std::size_t nw,
                           std::uint64_t tail) noexcept {
  for (std::size_t j = nw; j-- > 0;) {
    dst[j] = (src[j] << 1) | (j > 0 ? src[j - 1] >> 63 : 0);
  }
  if (nw > 0) dst[nw - 1] &= tail;
}

/// dst = src shifted one column WEST (x-1), carrying across word boundaries.
inline void shift_west_row(const std::uint64_t* src, std::uint64_t* dst,
                           std::size_t nw) noexcept {
  for (std::size_t j = 0; j < nw; ++j) {
    dst[j] = (src[j] >> 1) | (j + 1 < nw ? src[j + 1] << 63 : 0);
  }
}

/// Kogge-Stone occluded fill within one word, toward the LSB (west).
[[nodiscard]] inline std::uint64_t word_fill_west(std::uint64_t gen, std::uint64_t pro) noexcept {
  gen |= pro & (gen >> 1);
  pro &= pro >> 1;
  gen |= pro & (gen >> 2);
  pro &= pro >> 2;
  gen |= pro & (gen >> 4);
  pro &= pro >> 4;
  gen |= pro & (gen >> 8);
  pro &= pro >> 8;
  gen |= pro & (gen >> 16);
  pro &= pro >> 16;
  gen |= pro & (gen >> 32);
  return gen;
}

/// out = every bit of `allowed` reachable from seed & allowed by repeated
/// +x steps through contiguous allowed bits (seeds outside `allowed` are
/// dropped). Carry-add form: adding the seeds g to the allowed runs a
/// carries from each seed to the end of its run, so ((a + g) ^ a) & a is
/// every run bit at or east of its run's first seed, except that a second
/// seed in the same run absorbs the carry and clears its own bit; `| g`
/// puts those bits back. The run's last bit carries into the next word.
inline void fill_east_row(const std::uint64_t* seed, const std::uint64_t* allowed,
                          std::uint64_t* out, std::size_t nw) noexcept {
  std::uint64_t carry = 0;
  for (std::size_t j = 0; j < nw; ++j) {
    const std::uint64_t a = allowed[j];
    const std::uint64_t g = (seed[j] | carry) & a;
    const std::uint64_t f = (((a + g) ^ a) & a) | g;
    out[j] = f;
    carry = f >> 63;
  }
}

/// Mirror of fill_east_row: repeated -x steps, carry toward the west. A
/// word with no seed and no carry fills nothing and skips the doubling.
inline void fill_west_row(const std::uint64_t* seed, const std::uint64_t* allowed,
                          std::uint64_t* out, std::size_t nw) noexcept {
  std::uint64_t carry = 0;
  for (std::size_t j = nw; j-- > 0;) {
    const std::uint64_t g = (seed[j] | carry) & allowed[j];
    if (g == 0) {
      out[j] = 0;
      carry = 0;
      continue;
    }
    const std::uint64_t f = word_fill_west(g, allowed[j]);
    out[j] = f;
    carry = (f & 1) << 63;
  }
}

/// Population count of row bits x in [x0, x1] (inclusive).
[[nodiscard]] inline std::int64_t row_range_popcount(const std::uint64_t* r, Dist x0,
                                                     Dist x1) noexcept {
  if (x1 < x0) return 0;
  const std::size_t j0 = static_cast<std::size_t>(x0) >> 6;
  const std::size_t j1 = static_cast<std::size_t>(x1) >> 6;
  const std::uint64_t lo = ~std::uint64_t{0} << (x0 & 63);
  const std::uint64_t hi = ~std::uint64_t{0} >> (63 - (x1 & 63));
  if (j0 == j1) return std::popcount(r[j0] & lo & hi);
  std::int64_t n = std::popcount(r[j0] & lo) + std::popcount(r[j1] & hi);
  for (std::size_t j = j0 + 1; j < j1; ++j) n += std::popcount(r[j]);
  return n;
}

/// Index of the first set bit at or after `x` in a row of `nw` words, or -1
/// when there is none (x may be past the row). Scans only from x's word on.
[[nodiscard]] inline Dist row_next_set(const std::uint64_t* r, std::size_t nw, Dist x) noexcept {
  std::size_t j = static_cast<std::size_t>(x) >> 6;
  if (j >= nw) return -1;
  std::uint64_t m = r[j] & (~std::uint64_t{0} << (x & 63));
  while (m == 0) {
    if (++j == nw) return -1;
    m = r[j];
  }
  return static_cast<Dist>(j * 64 + static_cast<std::size_t>(std::countr_zero(m)));
}

/// Index of the last set bit at or before `x` in a row, or -1 when there is
/// none (x may be -1). Scans only from x's word down.
[[nodiscard]] inline Dist row_prev_set(const std::uint64_t* r, Dist x) noexcept {
  if (x < 0) return -1;
  std::size_t j = static_cast<std::size_t>(x) >> 6;
  std::uint64_t m = r[j] & (~std::uint64_t{0} >> (63 - (x & 63)));
  while (m == 0) {
    if (j-- == 0) return -1;
    m = r[j];
  }
  return static_cast<Dist>(j * 64 + 63 - static_cast<std::size_t>(std::countl_zero(m)));
}

/// Set row bits x in [x0, x1] (inclusive).
inline void row_range_set(std::uint64_t* r, Dist x0, Dist x1) noexcept {
  if (x1 < x0) return;
  const std::size_t j0 = static_cast<std::size_t>(x0) >> 6;
  const std::size_t j1 = static_cast<std::size_t>(x1) >> 6;
  const std::uint64_t lo = ~std::uint64_t{0} << (x0 & 63);
  const std::uint64_t hi = ~std::uint64_t{0} >> (63 - (x1 & 63));
  if (j0 == j1) {
    r[j0] |= lo & hi;
    return;
  }
  r[j0] |= lo;
  for (std::size_t j = j0 + 1; j < j1; ++j) r[j] = ~std::uint64_t{0};
  r[j1] |= hi;
}

}  // namespace meshroute::core
