// SIMD tier layer under core::BitGrid (DESIGN §12): the grid-level sweep
// kernels behind the fault-model fixpoints, the reachability oracle, and the
// safety-level fill, each available in three tiers selected once per process:
//
//   * Scalar    — the PR-5 word-loop kernels (one uint64 lane at a time).
//     The equivalence oracle for the other tiers, the MESHROUTE_SIMD=scalar
//     escape hatch, and what every CPU without AVX2 (or a non-x86 build)
//     runs.
//   * Native    — one vector source written against GCC vector extensions
//     (u64x4 / i32x8 lanes), instantiated under
//     __attribute__((target("avx2"))) and selected at runtime only when
//     __builtin_cpu_supports("avx2") says so.
//   * Native512 — the same source once more under target("avx512f").
//     Selected only when __builtin_cpu_supports("avx512f") agrees.
//
// Tier resolution: the MESHROUTE_SIMD environment variable ("scalar",
// "native", "native512") forces a tier; otherwise the best one the CPU
// supports runs. A forced "native512"/"native" silently degrades down the
// native512 → native → scalar ladder when unsupported, so the dispatch
// ctests can run the same command line everywhere. force_tier() overrides
// both for in-process tests.
//
// All tiers produce BIT-IDENTICAL fixpoints (tests/test_simd.cpp and the
// simd_dispatch ctest assert byte equality); only throughput differs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/coord.hpp"

namespace meshroute::core::simd {

enum class Tier : std::uint8_t { Scalar, Native, Native512 };

/// Stable lowercase tier name ("scalar"/"native"/"native512") — the value
/// the MESHROUTE_SIMD env var accepts and the benches' meta.simd field
/// records.
[[nodiscard]] const char* tier_name(Tier t) noexcept;

/// True on an x86 build running on a CPU with AVX2.
[[nodiscard]] bool native_supported() noexcept;
/// True on an x86 build running on a CPU with AVX-512F.
[[nodiscard]] bool native512_supported() noexcept;

/// The tier the kernels below dispatch to. Resolved once from the
/// MESHROUTE_SIMD env var / CPU probe; force_tier() overrides it.
[[nodiscard]] Tier active_tier() noexcept;

/// Test hook: pin the dispatch to `t` (degrading down the
/// Native512→Native→Scalar ladder when unsupported) for the rest of the
/// process, returning the tier actually installed. Not thread-safe against
/// concurrent kernel calls.
Tier force_tier(Tier t) noexcept;

/// Reusable per-thread buffers for the row kernels. All vectors are plain
/// uint64/int32 storage, resized (and retained) by the kernels themselves.
struct SweepScratch {
  std::vector<std::uint64_t> row_a;   ///< row buffer (vmask/allowed)
  std::vector<std::uint64_t> row_b;   ///< row buffer (seeds)
  std::vector<std::uint64_t> row_c;   ///< row buffer (fills)
  std::vector<std::uint64_t> row_d;   ///< row buffer (side masks)
  std::vector<std::uint64_t> dirty;   ///< dirty-row bitset for the fixpoint
  std::vector<std::int32_t> col_a;    ///< safety planar row buffers (e)
  std::vector<std::int32_t> col_b;    ///< (w)
  std::vector<std::int32_t> col_c;    ///< (s) + south counters
  std::vector<std::int32_t> col_d;    ///< north counters
  std::vector<std::int32_t> plane;    ///< safety planar N grid (w*h int32)
};

// ---------------------------------------------------------------------------
// Single-lane kernels (one BitGrid). Semantics are pinned by the scalar
// implementations in simd.cpp; all tiers are equivalence-tested against them.
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

/// The extended-safety fill: for every node the (E, S, W, N) distances to
/// the nearest obstacle along its row/column, written into an
/// ExtendedSafetyLevel AoS grid (`aos` = 4 int32 per cell, row-major, E S W
/// N field order — static_asserted by the caller). E/W are per-row obstacle
/// segment ramps; N/S are planar column recurrences riding the same vector
/// row path (8 int32 lanes per op) instead of per-column scalar counters.
void safety_fill(const BitGrid& obstacles, std::int32_t* aos, SweepScratch& scratch);

}  // namespace meshroute::core::simd
