#include "dynamic/dynamic_state.hpp"

#include <algorithm>
#include <bit>

namespace meshroute::dynamic {
namespace {

/// Definition 1's disable test against the block nodes found so far.
bool disable_condition(const Mesh2D& mesh, const info::SafetyGrid& bad, Coord c) {
  const auto bad_at = [&](Coord v) { return mesh.in_bounds(v) && bad.blocked(v); };
  const bool horiz = bad_at(neighbor(c, Direction::East)) || bad_at(neighbor(c, Direction::West));
  const bool vert = bad_at(neighbor(c, Direction::North)) || bad_at(neighbor(c, Direction::South));
  return horiz && vert;
}

/// The block list's order: by (ymin, xmin), the order in which
/// build_faulty_blocks discovers its components.
bool before(const fault::FaultyBlock& a, const fault::FaultyBlock& b) noexcept {
  return a.rect.ymin != b.rect.ymin ? a.rect.ymin < b.rect.ymin : a.rect.xmin < b.rect.xmin;
}

}  // namespace

DynamicMeshState::DynamicMeshState(Mesh2D mesh)
    : mesh_(mesh),
      faults_(mesh_),
      safety_(mesh_.width(), mesh_.height()),
      boundary_(std::make_shared<const info::BoundaryInfoMap>(mesh_, fault::BlockSet(mesh_, {}))),
      seen_(mesh_.width(), mesh_.height()) {
  for (MccLabels& m : mcc_) {
    m.useless.resize(mesh_.width(), mesh_.height());
    m.cant_reach.resize(mesh_.width(), mesh_.height());
    m.safety = info::SafetyGrid(mesh_.width(), mesh_.height());
  }
}

DynamicMeshState::DynamicMeshState(Mesh2D mesh, std::span<const Coord> faults)
    : DynamicMeshState(mesh) {
  for (const Coord c : faults) (void)inject(c, /*update_runs=*/false);
  boundary_ = std::make_shared<const info::BoundaryInfoMap>(
      mesh_, fault::BlockSet(blocks_, safety_.row_plane()));
}

void DynamicMeshState::propagate_from(std::vector<Coord>& changed, std::size_t first) {
  // The disable rule is monotone, so seeding the worklist with the enabled
  // neighbors of the changed cells reaches exactly the global fixed point.
  // disable_work_ is a FIFO queue read from `head`.
  disable_work_.clear();
  for (std::size_t i = first; i < changed.size(); ++i) {
    for (const Coord v : mesh_.neighbors(changed[i])) {
      if (!safety_.blocked(v)) disable_work_.push_back(v);
    }
  }
  for (std::size_t head = 0; head < disable_work_.size(); ++head) {
    const Coord c = disable_work_[head];
    if (safety_.blocked(c) || !disable_condition(mesh_, safety_, c)) continue;
    safety_.add_obstacle(c);
    changed.push_back(c);
    for (const Coord v : mesh_.neighbors(c)) {
      if (!safety_.blocked(v)) disable_work_.push_back(v);
    }
  }
}

std::int32_t DynamicMeshState::rebuild_block_around(std::vector<Coord>& changed,
                                                   UpdateStats& stats) {
  // Bounding box of the (single) component containing the changed cells.
  // The search list doubles as the queue and as the record of the `seen_`
  // bits to clear, so the search costs the component, not the mesh.
  Rect box;
  component_.clear();
  for (const Coord c : changed) {
    if (!seen_.test(c)) {
      seen_.set(c);
      component_.push_back(c);
    }
  }
  for (std::size_t i = 0; i < component_.size(); ++i) {
    const Coord c = component_[i];
    box = box.united(c);
    for (const Coord v : mesh_.neighbors(c)) {
      if (safety_.blocked(v) && !seen_.test(v)) {
        seen_.set(v);
        component_.push_back(v);
      }
    }
  }
  for (const Coord c : component_) seen_.reset(c);

  // Absorb overlapped blocks, fill to the rectangle, re-propagate; repeat
  // until stable (the incremental version of the scalar builder's closure).
  // The absorbed blocks stay in the list until the box is final.
  absorbed_.clear();
  bool grew = true;
  while (grew) {
    grew = false;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      const auto id = static_cast<std::int32_t>(i);
      if (blocks_[i].rect.overlaps(box) &&
          std::find(absorbed_.begin(), absorbed_.end(), id) == absorbed_.end()) {
        box = box.united(blocks_[i].rect);
        absorbed_.push_back(id);
        ++stats.absorbed_blocks;
        grew = true;
      }
    }
    const std::size_t filled = changed.size();
    for (Dist y = box.ymin; y <= box.ymax; ++y) {
      for (Dist x = box.xmin; x <= box.xmax; ++x) {
        if (!safety_.blocked({x, y})) {
          safety_.add_obstacle({x, y});
          changed.push_back({x, y});
        }
      }
    }
    if (changed.size() != filled) {
      grew = true;
      const std::size_t cascaded = changed.size();
      propagate_from(changed, filled);
      for (std::size_t i = cascaded; i < changed.size(); ++i) box = box.united(changed[i]);
    }
  }
  stats.relabeled_nodes += static_cast<std::int64_t>(changed.size());

  // Every old fault in the box lies in an absorbed block, so the grown
  // block holds their faults plus the injected one.
  std::sort(absorbed_.begin(), absorbed_.end());
  fault::FaultyBlock grown{box, 1, 0};
  std::size_t kept = 0;
  for (std::size_t i = 0, a = 0; i < blocks_.size(); ++i) {
    if (a < absorbed_.size() && static_cast<std::size_t>(absorbed_[a]) == i) {
      grown.faulty_count += blocks_[i].faulty_count;
      ++a;
    } else {
      blocks_[kept++] = blocks_[i];
    }
  }
  blocks_.resize(kept);
  grown.disabled_count = static_cast<std::int32_t>(box.area()) - grown.faulty_count;
  const auto at = blocks_.insert(std::upper_bound(blocks_.begin(), blocks_.end(), grown, before),
                                 grown);
  return static_cast<std::int32_t>(at - blocks_.begin());
}

void DynamicMeshState::update_mcc(Coord c) {
  using fault::mcc_status::kCantReach;
  using fault::mcc_status::kUseless;
  for (const fault::MccKind kind : {fault::MccKind::TypeOne, fault::MccKind::TypeTwo}) {
    MccLabels& m = mcc_[static_cast<std::size_t>(kind)];
    // c leaves its labels for the fault set; it stays a member of both
    // "faulty or labeled" sets, so no label is lost.
    m.useless.reset(c);
    m.cant_reach.reset(c);
    m.safety.add_obstacle(c);
    const auto propagate = [&](std::uint8_t flag, core::BitGrid& plane) {
      const auto member = [&](Coord v) { return faults_.contains(v) || plane.test(v); };
      const auto label = [&](Coord v) {
        plane.set(v);
        m.safety.add_obstacle(v);
      };
      fault::propagate_mcc_label(mesh_, fault::mcc_trigger_dirs(kind, flag), {&c, 1}, mcc_work_,
                                 member, label);
    };
    propagate(kUseless, m.useless);
    propagate(kCantReach, m.cant_reach);
  }
}

void DynamicMeshState::count_lines(const std::vector<Coord>& changed, UpdateStats& stats) {
  // The levels are read off the obstacle bits, which the disable rule and
  // the rectangle fill set cell by cell. The dirty-line bitsets only count
  // the distinct rows and columns whose levels moved.
  row_dirty_.assign((static_cast<std::size_t>(mesh_.height()) + 63) / 64, 0);
  col_dirty_.assign((static_cast<std::size_t>(mesh_.width()) + 63) / 64, 0);
  for (const Coord c : changed) {
    row_dirty_[static_cast<std::size_t>(c.y) >> 6] |= std::uint64_t{1} << (c.y & 63);
    col_dirty_[static_cast<std::size_t>(c.x) >> 6] |= std::uint64_t{1} << (c.x & 63);
  }
  for (const std::uint64_t m : row_dirty_) stats.rows_resweeped += std::popcount(m);
  for (const std::uint64_t m : col_dirty_) stats.cols_resweeped += std::popcount(m);
}

UpdateStats DynamicMeshState::inject_fault(Coord c) { return inject(c, /*update_runs=*/true); }

UpdateStats DynamicMeshState::inject(Coord c, bool update_runs) {
  UpdateStats stats;
  changed_.clear();
  if (faults_.contains(c)) return stats;
  faults_.add(c);
  update_mcc(c);
  if (safety_.blocked(c)) {
    // A disabled block node turns faulty: no rect and no run changes.
    for (fault::FaultyBlock& b : blocks_) {
      if (b.rect.contains(c)) {
        ++b.faulty_count;
        --b.disabled_count;
        break;
      }
    }
    return stats;
  }

  safety_.add_obstacle(c);
  changed_.push_back(c);
  propagate_from(changed_, 0);
  const std::int32_t added = rebuild_block_around(changed_, stats);
  if (update_runs) {
    boundary_ = std::make_shared<const info::BoundaryInfoMap>(boundary_->updated(
        blocks_, added, absorbed_, safety_.row_plane(), safety_.col_plane()));
  }
  count_lines(changed_, stats);
  return stats;
}

}  // namespace meshroute::dynamic
