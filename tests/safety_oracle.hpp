// Shared check for the tests that pin info::SafetyGrid to an oracle: every
// node, every direction, read through both get() and operator[], against the
// per-node tuples of compute_safety_levels_scalar (or of the distributed
// protocol); and for the obstacle set a SafetyGrid holds, blocked() at every
// node against a byte mask. Each reports the first mismatch.
#pragma once

#include <gtest/gtest.h>

#include "common/grid.hpp"
#include "info/safety_level.hpp"

namespace meshroute::testing_support {

/// `got` equals `want` at every node and direction. Nodes where `skip` is
/// set (e.g. block nodes, which the distributed protocol leaves at the
/// default tuple) are not compared.
inline ::testing::AssertionResult SafetyMatchesOracle(
    const info::SafetyGrid& got, const Grid<info::ExtendedSafetyLevel>& want,
    const Grid<bool>* skip = nullptr) {
  if (got.width() != want.width() || got.height() != want.height()) {
    return ::testing::AssertionFailure()
           << "dimensions " << got.width() << "x" << got.height() << " vs oracle "
           << want.width() << "x" << want.height();
  }
  for (Dist y = 0; y < want.height(); ++y) {
    for (Dist x = 0; x < want.width(); ++x) {
      const Coord c{x, y};
      if (skip != nullptr && (*skip)[c]) continue;
      const info::ExtendedSafetyLevel tuple = got[c];
      for (const Direction d : kAllDirections) {
        const Dist expected = want[c].get(d);
        if (got.get(c, d) != expected || tuple.get(d) != expected) {
          return ::testing::AssertionFailure()
                 << to_string(c) << " " << to_string(d) << ": get " << got.get(c, d)
                 << ", operator[] " << tuple.get(d) << ", oracle " << expected;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// `got.blocked(c)` equals `want[c]` at every node (`want` is typically
/// info::obstacle_mask of the blocks or MCCs the grid was built from).
inline ::testing::AssertionResult ObstaclesMatchMask(const info::SafetyGrid& got,
                                                     const Grid<bool>& want) {
  if (got.width() != want.width() || got.height() != want.height()) {
    return ::testing::AssertionFailure()
           << "dimensions " << got.width() << "x" << got.height() << " vs mask "
           << want.width() << "x" << want.height();
  }
  for (Dist y = 0; y < want.height(); ++y) {
    for (Dist x = 0; x < want.width(); ++x) {
      const Coord c{x, y};
      if (got.blocked(c) != want[c]) {
        return ::testing::AssertionFailure() << to_string(c) << ": blocked " << got.blocked(c)
                                             << ", mask " << want[c];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace meshroute::testing_support
