#include "fault/block_model.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

namespace meshroute::fault {

// Every merge is forced (two overlapping groups share a group in any
// disjoint result), so the final partition is unique and equals the
// quadratic merge_overlapping's. A round's unions can overlap boxes their
// parts did not, hence the rounds.
void detail::merge_overlapping_boxes(std::vector<Rect>& boxes, BlockScratch& scratch) {
  std::vector<std::int32_t>& order = scratch.merge_order;
  std::vector<std::int32_t>& parent = scratch.merge_parent;
  std::vector<Rect>& merged = scratch.merged;
  const auto find = [&](std::int32_t i) {
    while (parent[static_cast<std::size_t>(i)] != i) {
      std::int32_t& p = parent[static_cast<std::size_t>(i)];
      p = parent[static_cast<std::size_t>(p)];
      i = p;
    }
    return i;
  };
  while (true) {
    const auto n = static_cast<std::int32_t>(boxes.size());
    order.resize(boxes.size());
    parent.resize(boxes.size());
    std::iota(order.begin(), order.end(), 0);
    std::iota(parent.begin(), parent.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
      return boxes[static_cast<std::size_t>(a)].xmin < boxes[static_cast<std::size_t>(b)].xmin;
    });
    bool any = false;
    for (std::int32_t a = 0; a < n; ++a) {
      const std::int32_t ia = order[static_cast<std::size_t>(a)];
      const Rect& ra = boxes[static_cast<std::size_t>(ia)];
      for (std::int32_t b = a + 1; b < n; ++b) {
        const std::int32_t ib = order[static_cast<std::size_t>(b)];
        const Rect& rb = boxes[static_cast<std::size_t>(ib)];
        if (rb.xmin > ra.xmax) break;
        if (rb.ymin > ra.ymax || ra.ymin > rb.ymax) continue;
        const std::int32_t x = find(ia);
        const std::int32_t y = find(ib);
        if (x != y) parent[static_cast<std::size_t>(std::max(x, y))] = std::min(x, y);
        any = true;
      }
    }
    if (!any) return;
    // Roots are each group's smallest index, so a group's slot is taken
    // when the scan meets its root, before any other member.
    merged.clear();
    for (std::int32_t i = 0; i < n; ++i) {
      const std::int32_t root = find(i);
      const Rect& r = boxes[static_cast<std::size_t>(i)];
      if (root == i) {
        order[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(merged.size());
        merged.push_back(r);
      } else {
        Rect& m = merged[static_cast<std::size_t>(order[static_cast<std::size_t>(root)])];
        m = m.united(r);
      }
    }
    boxes.swap(merged);
  }
}

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

/// The tail of the bit-plane builder: assumes scratch.bad_plane already sits
/// at the disable fixed point of the faults in `fplane`. Runs the
/// rectangular closure to stability (re-running the fixed point whenever a
/// box grew) and assembles `out`.
void finish_blocks_from_fixpoint(const Mesh2D& mesh, const core::BitGrid& fplane, BlockSet& out,
                                 BlockScratch& scratch) {
  core::BitGrid& bad = scratch.bad_plane;

  while (true) {
    scratch.cc.build(bad);
    scratch.boxes.clear();
    for (const std::int32_t root : scratch.cc.order) {
      scratch.boxes.push_back(scratch.cc.box[static_cast<std::size_t>(root)]);
    }
    detail::merge_overlapping_boxes(scratch.boxes, scratch);
    bool grew = false;
    for (const Rect& r : scratch.boxes) {
      const auto area = static_cast<std::int64_t>(r.width()) * r.height();
      std::int64_t present = 0;
      for (Dist y = r.ymin; y <= r.ymax; ++y) {
        present += core::row_range_popcount(bad.row(y), r.xmin, r.xmax);
      }
      if (present == area) continue;
      grew = true;
      for (Dist y = r.ymin; y <= r.ymax; ++y) {
        core::row_range_set(bad.row(y), r.xmin, r.xmax);
      }
    }
    if (!grew) break;
    core::simd::block_fixpoint(bad, scratch.simd);
  }

  std::vector<FaultyBlock>& blocks = scratch.blocks;
  blocks.clear();
  blocks.reserve(scratch.boxes.size());
  for (const Rect& r : scratch.boxes) {
    FaultyBlock blk{r, 0, 0};
    for (Dist y = r.ymin; y <= r.ymax; ++y) {
      blk.faulty_count +=
          static_cast<std::int32_t>(core::row_range_popcount(fplane.row(y), r.xmin, r.xmax));
    }
    blk.disabled_count =
        static_cast<std::int32_t>(static_cast<std::int64_t>(r.width()) * r.height()) -
        blk.faulty_count;
    blocks.push_back(blk);
  }

  out.assign(mesh, blocks);
}

}  // namespace

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

  // Reach the disable fixed point word-parallel, then run the shared closure
  // tail (which alternates closure and fixed point until stable — the same
  // loop as the scalar builder).
  core::simd::block_fixpoint(bad, scratch.simd);
  finish_blocks_from_fixpoint(mesh, faults.mask(), out, scratch);
}

}  // namespace meshroute::fault
