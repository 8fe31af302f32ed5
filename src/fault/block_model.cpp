#include "fault/block_model.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <stdexcept>

namespace meshroute::fault {

namespace {

/// True when `c` must become disabled: at least one bad (faulty/disabled)
/// neighbor in the x dimension AND at least one in the y dimension
/// ("two or more ... in different dimensions", Definition 1).
bool disable_condition(const Mesh2D& mesh, const Grid<bool>& bad, Coord c) {
  const auto bad_at = [&](Coord v) { return mesh.in_bounds(v) && bad[v]; };
  const bool horiz = bad_at(neighbor(c, Direction::East)) || bad_at(neighbor(c, Direction::West));
  const bool vert = bad_at(neighbor(c, Direction::North)) || bad_at(neighbor(c, Direction::South));
  return horiz && vert;
}

/// Worklist propagation of the disable rule over an initial bad mask.
/// Mutates `bad` to its fixed point. `seeds` are bad nodes covering every
/// recent addition to the mask: a node can only newly satisfy the disable
/// condition next to a bad node, so examining the seeds' neighbors finds
/// every initially-qualifying node without an O(area) scan. The worklist is
/// a plain vector used as a stack — the fixed point is order-independent.
void propagate_disable(const Mesh2D& mesh, Grid<bool>& bad, std::vector<Coord>& work,
                       std::span<const Coord> seeds) {
  work.clear();
  const auto push_candidates_around = [&](Coord c) {
    for (const Direction d : kAllDirections) {
      const Coord v = neighbor(c, d);
      if (mesh.in_bounds(v) && !bad[v] && disable_condition(mesh, bad, v)) work.push_back(v);
    }
  };
  for (const Coord s : seeds) push_candidates_around(s);
  while (!work.empty()) {
    const Coord c = work.back();
    work.pop_back();
    if (bad[c] || !disable_condition(mesh, bad, c)) continue;
    bad[c] = true;
    push_candidates_around(c);
  }
}

/// 4-connected components of the bad mask; bounding boxes into `boxes`.
/// Components are discovered in row-major order of their first node, which
/// fixes the eventual block ordering.
void component_boxes(const Mesh2D& mesh, const Grid<bool>& bad, Grid<bool>& seen,
                     std::vector<Coord>& frontier, std::vector<Rect>& boxes) {
  if (seen.width() != mesh.width() || seen.height() != mesh.height()) {
    seen = Grid<bool>(mesh.width(), mesh.height(), false);
  } else {
    seen.fill(false);
  }
  boxes.clear();
  mesh.for_each_node([&](Coord start) {
    if (!bad[start] || seen[start]) return;
    Rect box = rect_at(start);
    frontier.clear();
    frontier.push_back(start);
    seen[start] = true;
    while (!frontier.empty()) {
      const Coord c = frontier.back();
      frontier.pop_back();
      box = box.united(c);
      for (const Direction d : kAllDirections) {
        const Coord v = neighbor(c, d);
        if (mesh.in_bounds(v) && bad[v] && !seen[v]) {
          seen[v] = true;
          frontier.push_back(v);
        }
      }
    }
    boxes.push_back(box);
  });
}

/// Merge overlapping rectangles into their unions until pairwise disjoint.
/// The scalar oracle's merge: compare every pair and restart after each
/// merge. A merged box keeps the slot of its lower index.
void merge_overlapping(std::vector<Rect>& boxes) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < boxes.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < boxes.size() && !changed; ++j) {
        if (boxes[i].overlaps(boxes[j])) {
          boxes[i] = boxes[i].united(boxes[j]);
          boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
        }
      }
    }
  }
}

/// Last column of the run of set bits that starts at `x0`. Tail bits are
/// zero, so a run ends at the row's end at the latest.
Dist run_last(const std::uint64_t* r, std::size_t nw, Dist x0) noexcept {
  std::size_t j = static_cast<std::size_t>(x0) >> 6;
  std::uint64_t m = ~r[j] & (~std::uint64_t{0} << (x0 & 63));
  while (m == 0) {
    if (++j == nw) return static_cast<Dist>(nw * 64) - 1;
    m = ~r[j];
  }
  return static_cast<Dist>(j * 64 + static_cast<std::size_t>(std::countr_zero(m))) - 1;
}

/// The block whose first row is the run [x0, x1] of row y0: it grows into
/// later rows while column x0 stays set. Throws std::logic_error unless every
/// row of it is exactly [x0, x1] with clear side cells and the rows before
/// and after it are clear over [x0 - 1, x1 + 1].
FaultyBlock read_block(const core::BitGrid& bad, const core::BitGrid& faults, Dist x0, Dist x1,
                       Dist y0) {
  Dist y1 = y0;
  while (y1 + 1 < bad.height() && bad.test({x0, y1 + 1})) ++y1;
  FaultyBlock blk{Rect{x0, x1, y0, y1}, 0, 0};
  const Dist lo = std::max<Dist>(x0 - 1, 0);
  const Dist hi = std::min<Dist>(x1 + 1, bad.width() - 1);
  const std::int64_t len = x1 - x0 + 1;
  const auto clear = [&](Dist y) {
    return y < 0 || y >= bad.height() || core::row_range_popcount(bad.row(y), lo, hi) == 0;
  };
  bool ok = clear(y0 - 1) && clear(y1 + 1);
  for (Dist y = y0; ok && y <= y1; ++y) {
    ok = core::row_range_popcount(bad.row(y), x0, x1) == len &&
         core::row_range_popcount(bad.row(y), lo, hi) == len;
    blk.faulty_count += static_cast<std::int32_t>(core::row_range_popcount(faults.row(y), x0, x1));
  }
  if (!ok) {
    throw std::logic_error("read_fixpoint_blocks: not a separated rectangle at " +
                           blk.rect.to_string());
  }
  blk.disabled_count = static_cast<std::int32_t>(blk.rect.area()) - blk.faulty_count;
  return blk;
}

}  // namespace

// A run opens a block when the cell of row y - 1 in its first column is
// clear; any other run continues a block opened in an earlier row, which
// read_block has checked.
// Blocks therefore come out in row-major order of their first node.
void detail::read_fixpoint_blocks(const core::BitGrid& bad, const core::BitGrid& faults,
                                  std::vector<FaultyBlock>& out) {
  const std::size_t nw = bad.words_per_row();
  out.clear();
  for (Dist y = 0; y < bad.height(); ++y) {
    const std::uint64_t* r = bad.row(y);
    for (Dist x0 = core::row_next_set(r, nw, 0); x0 >= 0;) {
      const Dist x1 = run_last(r, nw, x0);
      if (y == 0 || !bad.test({x0, y - 1})) out.push_back(read_block(bad, faults, x0, x1, y));
      x0 = core::row_next_set(r, nw, x1 + 1);
    }
  }
}

Grid<NodeLabel> disable_labeling_fixed_point(const Mesh2D& mesh, const FaultSet& faults) {
  Grid<bool> bad;
  faults.mask().unpack(bad);
  std::vector<Coord> work;
  propagate_disable(mesh, bad, work, faults.faults());
  Grid<NodeLabel> labels(mesh.width(), mesh.height(), NodeLabel::Enabled);
  mesh.for_each_node([&](Coord c) {
    if (faults.contains(c)) {
      labels[c] = NodeLabel::Faulty;
    } else if (bad[c]) {
      labels[c] = NodeLabel::Disabled;
    }
  });
  return labels;
}

BlockSet::BlockSet(const Mesh2D& mesh, std::vector<FaultyBlock> blocks)
    : blocks_(std::move(blocks)) {
  paint(mesh);
}

void BlockSet::assign(const Mesh2D& mesh, const std::vector<FaultyBlock>& blocks) {
  blocks_ = blocks;
  paint(mesh);
}

void BlockSet::paint(const Mesh2D& mesh) {
  for (const FaultyBlock& b : blocks_) {
    if (!mesh.bounds().contains(b.rect)) {
      throw std::invalid_argument("BlockSet: block outside mesh " + b.rect.to_string());
    }
  }
  plane_.resize(mesh.width(), mesh.height());
  for (const FaultyBlock& b : blocks_) {
    const Rect& r = b.rect;
    for (Dist y = r.ymin; y <= r.ymax; ++y) {
      if (core::row_range_popcount(plane_.row(y), r.xmin, r.xmax) != 0) {
        throw std::invalid_argument("BlockSet: overlapping blocks");
      }
      core::row_range_set(plane_.row(y), r.xmin, r.xmax);
    }
  }
}

std::int32_t BlockSet::block_id(Coord c) const noexcept {
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].rect.contains(c)) return static_cast<std::int32_t>(b);
  }
  return kNoBlock;
}

std::int64_t BlockSet::total_disabled() const noexcept {
  return std::accumulate(blocks_.begin(), blocks_.end(), std::int64_t{0},
                         [](std::int64_t acc, const FaultyBlock& b) {
                           return acc + b.disabled_count;
                         });
}

std::int64_t BlockSet::total_faulty() const noexcept {
  return std::accumulate(blocks_.begin(), blocks_.end(), std::int64_t{0},
                         [](std::int64_t acc, const FaultyBlock& b) {
                           return acc + b.faulty_count;
                         });
}

BlockSet build_faulty_blocks(const Mesh2D& mesh, const FaultSet& faults) {
  BlockSet out;
  BlockScratch scratch;
  build_faulty_blocks(mesh, faults, out, scratch);
  return out;
}

void build_faulty_blocks(const Mesh2D& mesh, const FaultSet& faults, BlockSet& out,
                         BlockScratch& scratch) {
  build_faulty_blocks_bitplane(mesh, faults, out, scratch);
}

void build_faulty_blocks_scalar(const Mesh2D& mesh, const FaultSet& faults, BlockSet& out,
                                BlockScratch& scratch) {
  Grid<bool>& bad = scratch.bad;
  faults.mask().unpack(bad);
  // Alternate labeling and rectangular closure until the bad set is stable.
  // With scattered faults the first pass already yields disjoint rectangles
  // and the loop exits after one verification round. Each propagation is
  // seeded by the nodes added since the last fixed point (the faults on
  // round one, the closure-grown cells afterwards).
  scratch.grown.assign(faults.faults().begin(), faults.faults().end());
  while (true) {
    propagate_disable(mesh, bad, scratch.work, scratch.grown);
    component_boxes(mesh, bad, scratch.seen, scratch.frontier, scratch.boxes);
    merge_overlapping(scratch.boxes);
    scratch.grown.clear();
    for (const Rect& r : scratch.boxes) {
      for (Dist y = r.ymin; y <= r.ymax; ++y) {
        for (Dist x = r.xmin; x <= r.xmax; ++x) {
          if (!bad[{x, y}]) {
            bad[{x, y}] = true;
            scratch.grown.push_back({x, y});
          }
        }
      }
    }
    if (scratch.grown.empty()) break;
  }

  std::vector<FaultyBlock>& blocks = scratch.blocks;
  blocks.clear();
  blocks.reserve(scratch.boxes.size());
  for (const Rect& r : scratch.boxes) {
    FaultyBlock blk{r, 0, 0};
    for (Dist y = r.ymin; y <= r.ymax; ++y) {
      for (Dist x = r.xmin; x <= r.xmax; ++x) {
        if (faults.contains({x, y})) {
          ++blk.faulty_count;
        } else {
          ++blk.disabled_count;
        }
      }
    }
    blocks.push_back(blk);
  }

  scratch.bad_plane.assign(bad);
  out.assign(mesh, blocks);
}

void build_faulty_blocks_bitplane(const Mesh2D& mesh, const FaultSet& faults, BlockSet& out,
                                  BlockScratch& scratch) {
  if (faults.width() != mesh.width() || faults.height() != mesh.height()) {
    throw std::invalid_argument("build_faulty_blocks: fault set and mesh differ in size");
  }
  core::BitGrid& bad = scratch.bad_plane;
  bad = faults.mask();

  core::simd::block_fixpoint(bad, scratch.simd);
  detail::read_fixpoint_blocks(bad, faults.mask(), scratch.blocks);
  out.assign(mesh, scratch.blocks);
}

}  // namespace meshroute::fault
