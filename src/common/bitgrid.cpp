#include "common/bitgrid.hpp"

namespace meshroute::core {
namespace {

constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;

/// Collapse 8 bytes (loaded little-endian into `v`) to 8 bits: bit i of the
/// result is 1 iff byte i of `v` is nonzero. The multiply gathers one bit
/// per byte into the top byte; the partial-product positions are pairwise
/// distinct, so no carries corrupt the gather.
[[nodiscard]] std::uint64_t pack8(std::uint64_t v) noexcept {
  const std::uint64_t nonzero = (((v & kLow7) + kLow7) | v) & ~kLow7;  // bit7 per nonzero byte
  return ((nonzero >> 7) * 0x0102040810204080ULL) >> 56;
}

/// Spread 8 bits to 8 bytes of 0x00/0x01 (inverse of pack8 for 0/1 bytes).
[[nodiscard]] std::uint64_t spread8(std::uint64_t bits) noexcept {
  const std::uint64_t placed = (bits * kLowBits) & 0x8040201008040201ULL;
  return (((placed & kLow7) + kLow7) | placed) >> 7 & kLowBits;
}

}  // namespace

void BitGrid::assign(const Grid<bool>& g) {
  resize(g.width(), g.height());
  const std::uint8_t* cells = g.data().data();
  const auto w = static_cast<std::size_t>(width_);
  for (Dist y = 0; y < height_; ++y) {
    const std::uint8_t* src = cells + static_cast<std::size_t>(y) * w;
    std::uint64_t* dst = row(y);
    std::size_t x = 0;
    for (; x + 8 <= w; x += 8) {
      std::uint64_t chunk;
      std::memcpy(&chunk, src + x, 8);
      dst[x >> 6] |= pack8(chunk) << (x & 63);
    }
    for (; x < w; ++x) {
      if (src[x] != 0) dst[x >> 6] |= std::uint64_t{1} << (x & 63);
    }
  }
}

void BitGrid::unpack(Grid<bool>& g) const {
  if (g.width() != width_ || g.height() != height_) {
    g = Grid<bool>(width_, height_, false);
  }
  std::uint8_t* cells = g.data().data();
  const auto w = static_cast<std::size_t>(width_);
  for (Dist y = 0; y < height_; ++y) {
    const std::uint64_t* src = row(y);
    std::uint8_t* dst = cells + static_cast<std::size_t>(y) * w;
    std::size_t x = 0;
    for (; x + 8 <= w; x += 8) {
      const std::uint64_t bytes = spread8((src[x >> 6] >> (x & 63)) & 0xFF);
      std::memcpy(dst + x, &bytes, 8);
    }
    for (; x < w; ++x) {
      dst[x] = static_cast<std::uint8_t>((src[x >> 6] >> (x & 63)) & 1);
    }
  }
}

namespace {

/// Transpose an 8x8 bit matrix packed row-per-byte into one uint64 (bit j of
/// byte i -> bit i of byte j). Three delta-swap rounds (Hacker's Delight 7-3).
[[nodiscard]] std::uint64_t transpose8x8(std::uint64_t x) noexcept {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

}  // namespace

void BitGrid::transpose_into(BitGrid& out) const {
  out.resize(height_, width_);
  // Cache-tiled 8x8-block transpose over groups of 8 source rows x 64
  // columns. A group ORs its <= 8 source words first and visits only the
  // non-zero byte lanes of that OR: each gathers byte lane `xb` of the rows
  // into one uint64, bit-transposes it, and ORs its non-zero result bytes
  // into output rows x at byte position y/8. An empty tile costs nothing
  // past the OR, so a sparse plane skips almost all of them and a dense one
  // does the full gather plus one OR per word. Short groups (height % 8)
  // gather fewer rows, and zero source tail bits leave every lane past the
  // width empty, so output tail bits stay zero.
  const std::size_t out_wpr = out.wpr_;
  for (Dist y0 = 0; y0 < height_; y0 += 8) {
    const int rows = static_cast<int>(height_ - y0 < 8 ? height_ - y0 : 8);
    const std::uint64_t* src = row(y0);
    const std::size_t out_word = static_cast<std::size_t>(y0) >> 6;
    const int out_shift = static_cast<int>(y0 & 63);  // multiple of 8
    for (std::size_t j = 0; j < wpr_; ++j) {
      std::uint64_t lanes = 0;
      for (int r = 0; r < rows; ++r) lanes |= src[static_cast<std::size_t>(r) * wpr_ + j];
      while (lanes != 0) {
        const int xb = std::countr_zero(lanes) & ~7;
        lanes &= ~(std::uint64_t{0xFF} << xb);
        std::uint64_t block = 0;
        for (int r = 0; r < rows; ++r) {
          block |= ((src[static_cast<std::size_t>(r) * wpr_ + j] >> xb) & 0xFF) << (8 * r);
        }
        std::uint64_t t = transpose8x8(block);
        const std::size_t x_base = j * 64 + static_cast<std::size_t>(xb);
        while (t != 0) {
          const int c = std::countr_zero(t) >> 3;
          out.words_[(x_base + static_cast<std::size_t>(c)) * out_wpr + out_word] |=
              ((t >> (8 * c)) & 0xFF) << out_shift;
          t &= ~(std::uint64_t{0xFF} << (8 * c));
        }
      }
    }
  }
}

}  // namespace meshroute::core
