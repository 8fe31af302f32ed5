// Online reconfiguration: the paper's information model is incremental —
// "when a disturbance occurs, only those affected nodes update their
// information". This example injects faults one at a time into a live
// 64 x 64 mesh, reports how much work each disturbance costs (nodes
// relabeled, safety-grid lines re-swept — versus the 64 x 2 = 128 lines a
// full rebuild would sweep), and shows a fixed source/destination pair's
// routability decision degrade and recover routes as the fault pattern
// grows around it.
//
// Run:  ./build/examples/online_reconfiguration
#include <iostream>

#include "cond/conditions.hpp"
#include "cond/wang.hpp"
#include "dynamic/dynamic_state.hpp"
#include "fault/block_model.hpp"
#include "experiment/table.hpp"

using namespace meshroute;

int main() {
  constexpr Dist kSide = 64;
  const Mesh2D mesh = Mesh2D::square(kSide);
  dynamic::DynamicMeshState state(mesh);
  Rng rng(64);

  const Coord src{8, 8};
  const Coord dst{55, 52};

  experiment::Table table({"event", "relabeled", "absorbed", "rows_swept", "cols_swept",
                           "blocks", "safe", "minimal_exists"});
  std::int64_t total_lines = 0;
  int events = 0;
  for (int i = 0; i < 220; ++i) {
    const Coord f{static_cast<Dist>(rng.uniform(0, kSide - 1)),
                  static_cast<Dist>(rng.uniform(0, kSide - 1))};
    if (f == src || f == dst) continue;
    const auto stats = state.inject_fault(f);
    total_lines += stats.rows_resweeped + stats.cols_resweeped;
    ++events;

    if (events % 20 != 0) continue;
    const cond::RoutingProblem p{&mesh, &state.safety(), src, dst};
    // The oracle runs over a from-scratch block mask.
    const Grid<bool> mask =
        info::obstacle_mask(mesh, fault::build_faulty_blocks(mesh, state.faults()));
    table.add_row({static_cast<double>(events), static_cast<double>(stats.relabeled_nodes),
                   static_cast<double>(stats.absorbed_blocks),
                   static_cast<double>(stats.rows_resweeped),
                   static_cast<double>(stats.cols_resweeped),
                   static_cast<double>(state.blocks().size()),
                   cond::source_safe(p) ? 1.0 : 0.0,
                   cond::monotone_path_exists(mesh, mask, src, dst) ? 1.0 : 0.0});
  }

  table.print(std::cout, "Online reconfiguration on a 64x64 mesh (every 20th event shown)");
  std::cout << "\nTotal safety-grid lines re-swept over " << events << " disturbances: "
            << total_lines << " — a full rebuild per disturbance would have swept "
            << static_cast<std::int64_t>(events) * 2 * kSide << " lines ("
            << (static_cast<double>(events) * 2 * kSide) / static_cast<double>(total_lines)
            << "x more).\n"
            << "The incremental state is asserted equal to a from-scratch rebuild after\n"
            << "every injection in the test-suite (tests/test_dynamic.cpp).\n";
  return 0;
}
