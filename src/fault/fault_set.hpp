// Fault injection: which nodes of the mesh are dead. Fault sets are plain
// data — the fault *models* (faulty blocks, MCCs) are derived views built by
// block_model.hpp and mcc_model.hpp.
#pragma once

#include <functional>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"
#include "common/rng.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::fault {

/// A set of faulty nodes over a fixed mesh: the list in insertion order
/// plus a bit plane of the same nodes, so membership is one bit test and
/// the bit-plane builders read the plane as it stands.
class FaultSet {
 public:
  /// Empty set over an empty mesh; reset() before use.
  FaultSet() = default;

  explicit FaultSet(const Mesh2D& mesh) : mask_(mesh.width(), mesh.height()) {}

  /// Empty the set and rebind it to `mesh`, reusing the plane's storage
  /// (the workspace reset path).
  void reset(const Mesh2D& mesh);

  /// Mark `c` faulty. Idempotent; out-of-range coordinates throw.
  void add(Coord c);

  [[nodiscard]] bool contains(Coord c) const noexcept {
    return mask_.in_bounds(c) && mask_.test(c);
  }

  [[nodiscard]] std::size_t count() const noexcept { return faults_.size(); }
  [[nodiscard]] const std::vector<Coord>& faults() const noexcept { return faults_; }
  /// The faulty nodes as a plane over the mesh.
  [[nodiscard]] const core::BitGrid& mask() const noexcept { return mask_; }

  [[nodiscard]] Dist width() const noexcept { return mask_.width(); }
  [[nodiscard]] Dist height() const noexcept { return mask_.height(); }

 private:
  core::BitGrid mask_;
  std::vector<Coord> faults_;
};

/// Node predicate used to keep designated nodes (e.g. the source) fault-free.
using CoordPredicate = std::function<bool(Coord)>;

/// Reusable buffers for the in-place sampling path (one per worker thread).
struct SampleScratch {
  std::vector<Coord> eligible;
  std::vector<std::int64_t> pool;
  std::vector<std::int64_t> picks;
  SparseSampleScratch sparse;
};

/// `k` distinct faulty nodes sampled uniformly from the mesh (the paper's
/// "randomly generated faults"), skipping nodes where `exclude` is true.
/// Throws if fewer than `k` eligible nodes exist.
[[nodiscard]] FaultSet uniform_random_faults(const Mesh2D& mesh, std::size_t k, Rng& rng,
                                             const CoordPredicate& exclude = nullptr);

/// In-place overload: writes the sample into `out` reusing its storage and
/// `scratch`'s buffers. Draws the exact same RNG sequence as the allocating
/// overload (which delegates here), so results are bit-identical.
void uniform_random_faults(const Mesh2D& mesh, std::size_t k, Rng& rng,
                           const CoordPredicate& exclude, FaultSet& out,
                           SampleScratch& scratch);

/// Single-excluded-node fast path (the make_trial hot loop: everything but
/// the source is eligible): O(k) per call via the sparse Fisher-Yates,
/// mapping picks over the one-hole row-major index space instead of
/// materializing the eligible list. Draws the exact same RNG sequence and
/// produces the exact same FaultSet as the predicate overload with
/// `exclude = (c == excluded)` — asserted by tests/test_fault_set.cpp.
void uniform_random_faults(const Mesh2D& mesh, std::size_t k, Rng& rng, Coord excluded,
                           FaultSet& out, SampleScratch& scratch);

/// Clustered faults: `clusters` seed points, each growing `cluster_size`
/// faults by a random walk around the seed. Produces the large irregular
/// fault regions that stress block/MCC construction in tests; not used by
/// the paper's own experiments.
[[nodiscard]] FaultSet clustered_faults(const Mesh2D& mesh, std::size_t clusters,
                                        std::size_t cluster_size, Rng& rng,
                                        const CoordPredicate& exclude = nullptr);

/// Faults forming the exact rectangle `r` (every node inside faulty).
/// Deterministic fixture for unit tests.
[[nodiscard]] FaultSet rectangle_faults(const Mesh2D& mesh, const Rect& r);

}  // namespace meshroute::fault
