// Grid-level sweep kernels under core::BitGrid (DESIGN §12): the fault-model
// fixpoints and the reachability oracle, written once as word-scalar row
// loops (one uint64 lane = 64 columns at a time). Extended safety levels need
// no kernel: info::SafetyGrid reads them off the obstacle plane and its
// transpose.
//
// There is one source and no dispatch. The per-cell `*_scalar` builders in
// fault/, cond/ and info/ are the independent test oracles these kernels are
// pinned to (tests/test_bitgrid.cpp, tests/test_simd.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"

namespace meshroute::core::simd {

/// Provenance remnant: the benches record `tier_name(active_tier())` as
/// their `meta.simd` / `simd_tier` field. There is one kernel source, so the
/// answer is always "scalar".
enum class Tier : std::uint8_t { Scalar };

[[nodiscard]] constexpr const char* tier_name(Tier /*t*/) noexcept { return "scalar"; }
[[nodiscard]] constexpr Tier active_tier() noexcept { return Tier::Scalar; }

/// Reusable per-thread buffers for the row kernels. All vectors are plain
/// uint64 storage, resized (and retained) by the kernels themselves.
struct SweepScratch {
  std::vector<std::uint64_t> row_a;   ///< row buffer (vmask/allowed)
  std::vector<std::uint64_t> row_b;   ///< row buffer (seeds)
  std::vector<std::uint64_t> row_c;   ///< row buffer (fills)
  std::vector<std::uint64_t> row_d;   ///< row buffer (side masks)
  std::vector<std::uint64_t> dirty;   ///< dirty-row bitset for the fixpoint
};

// ---------------------------------------------------------------------------
// Kernels (one BitGrid each). Every one is equivalence-tested against its
// per-cell `*_scalar` oracle.
// ---------------------------------------------------------------------------

/// Definition 1's disable rule driven to its (unique, monotone) fixpoint in
/// place: a cell turns bad when it has a bad horizontal AND a bad vertical
/// neighbor. Dirty-row Gauss-Seidel: every row starts dirty, a changed row
/// re-marks only its two neighbors, and converged regions are never swept
/// again — the bulk of the old alternating full passes was verification.
void block_fixpoint(BitGrid& bad, SweepScratch& scratch);

/// Definition 2's two directed monotone closures ("useless" / "can't
/// reach"): single descending/ascending row sweeps with an occluded fill per
/// row. `useless` and `cant` must be pre-sized to `fault`'s dimensions and
/// zero; TypeTwo swaps the within-row fill direction.
void mcc_sweeps(const BitGrid& fault, BitGrid& useless, BitGrid& cant, bool type_one,
                SweepScratch& scratch);

/// Four-quadrant monotone reachability from `source` avoiding `blocked`;
/// `out` is resized and fully overwritten.
void reach_fill(const BitGrid& blocked, Coord source, BitGrid& out, SweepScratch& scratch);

}  // namespace meshroute::core::simd
