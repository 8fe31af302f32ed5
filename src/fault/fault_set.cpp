#include "fault/fault_set.hpp"

#include <stdexcept>

namespace meshroute::fault {

void FaultSet::reset(const Mesh2D& mesh) {
  // resize() re-zeroes the whole plane, so a moved-from set (dimensions
  // kept, storage gone) comes back whole.
  mask_.resize(mesh.width(), mesh.height());
  faults_.clear();
}

void FaultSet::add(Coord c) {
  if (!mask_.in_bounds(c)) throw std::out_of_range("FaultSet::add " + to_string(c));
  if (mask_.test(c)) return;
  mask_.set(c);
  faults_.push_back(c);
}

FaultSet uniform_random_faults(const Mesh2D& mesh, std::size_t k, Rng& rng,
                               const CoordPredicate& exclude) {
  FaultSet fs;
  SampleScratch scratch;
  uniform_random_faults(mesh, k, rng, exclude, fs, scratch);
  return fs;
}

void uniform_random_faults(const Mesh2D& mesh, std::size_t k, Rng& rng,
                           const CoordPredicate& exclude, FaultSet& out,
                           SampleScratch& scratch) {
  std::vector<Coord>& eligible = scratch.eligible;
  eligible.clear();
  eligible.reserve(mesh.node_count());
  mesh.for_each_node([&](Coord c) {
    if (!exclude || !exclude(c)) eligible.push_back(c);
  });
  if (k > eligible.size()) {
    throw std::invalid_argument("uniform_random_faults: k exceeds eligible node count");
  }
  out.reset(mesh);
  rng.sample_distinct(static_cast<std::int64_t>(eligible.size()), static_cast<std::int64_t>(k),
                      scratch.pool, scratch.picks);
  for (const auto idx : scratch.picks) out.add(eligible[static_cast<std::size_t>(idx)]);
}

void uniform_random_faults(const Mesh2D& mesh, std::size_t k, Rng& rng, Coord excluded,
                           FaultSet& out, SampleScratch& scratch) {
  const auto w = static_cast<std::int64_t>(mesh.width());
  const auto total = static_cast<std::int64_t>(mesh.node_count());
  // Row-major index of the hole; an out-of-mesh excluded coord means no hole,
  // matching a predicate that never fires.
  const std::int64_t hole =
      mesh.in_bounds(excluded) ? static_cast<std::int64_t>(excluded.y) * w + excluded.x : total;
  const std::int64_t n = hole < total ? total - 1 : total;
  if (static_cast<std::int64_t>(k) > n) {
    throw std::invalid_argument("uniform_random_faults: k exceeds eligible node count");
  }
  out.reset(mesh);
  rng.sample_distinct_sparse(n, static_cast<std::int64_t>(k), scratch.sparse, scratch.picks);
  for (const auto idx : scratch.picks) {
    // eligible[idx] of the predicate overload = row-major node idx, skipping
    // the hole.
    const std::int64_t m = idx < hole ? idx : idx + 1;
    out.add({static_cast<Dist>(m % w), static_cast<Dist>(m / w)});
  }
}

FaultSet clustered_faults(const Mesh2D& mesh, std::size_t clusters, std::size_t cluster_size,
                          Rng& rng, const CoordPredicate& exclude) {
  FaultSet fs(mesh);
  const auto eligible = [&](Coord c) {
    return mesh.in_bounds(c) && !fs.contains(c) && (!exclude || !exclude(c));
  };
  for (std::size_t ci = 0; ci < clusters; ++ci) {
    Coord cur{static_cast<Dist>(rng.uniform(0, mesh.width() - 1)),
              static_cast<Dist>(rng.uniform(0, mesh.height() - 1))};
    std::size_t placed = 0;
    std::size_t attempts = 0;
    const std::size_t max_attempts = cluster_size * 64 + 256;
    while (placed < cluster_size && attempts++ < max_attempts) {
      if (eligible(cur)) {
        fs.add(cur);
        ++placed;
      }
      const auto d = kAllDirections[static_cast<std::size_t>(rng.uniform(0, 3))];
      const Coord next = neighbor(cur, d);
      if (mesh.in_bounds(next)) cur = next;
    }
  }
  return fs;
}

FaultSet rectangle_faults(const Mesh2D& mesh, const Rect& r) {
  if (!mesh.bounds().contains(r)) {
    throw std::out_of_range("rectangle_faults: rect outside mesh " + r.to_string());
  }
  FaultSet fs(mesh);
  for (Dist y = r.ymin; y <= r.ymax; ++y) {
    for (Dist x = r.xmin; x <= r.xmax; ++x) fs.add({x, y});
  }
  return fs;
}

}  // namespace meshroute::fault
