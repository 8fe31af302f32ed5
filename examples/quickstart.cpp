// Quickstart: the five-minute tour of the library.
//
//   1. Build a mesh and inject faults.
//   2. Inspect the derived fault models (faulty blocks, MCCs).
//   3. Read a node's extended safety level.
//   4. Ask the sufficient conditions whether minimal routing is guaranteed.
//   5. Route a packet with Wu's protocol and print the walk.
//
// Run:  ./build/examples/quickstart
#include <iostream>
#include <string>

#include "core/fault_tolerant_mesh.hpp"
#include "route/path.hpp"

using namespace meshroute;

namespace {

/// ASCII rendering: '#' faulty, 'o' disabled (block), '*' path, '.' free.
void render(const FaultTolerantMesh& ftm, const route::Path& path) {
  Grid<char> canvas(ftm.mesh().width(), ftm.mesh().height(), '.');
  ftm.mesh().for_each_node([&](Coord c) {
    if (ftm.faults().contains(c)) {
      canvas[c] = '#';
    } else if (ftm.blocks().is_block_node(c)) {
      canvas[c] = 'o';
    }
  });
  for (const Coord c : path.hops) canvas[c] = '*';
  if (!path.hops.empty()) {
    canvas[path.source()] = 'S';
    canvas[path.destination()] = 'D';
  }
  // Print with y growing upward, as in the paper's figures.
  for (Dist y = ftm.mesh().height() - 1; y >= 0; --y) {
    std::string line;
    for (Dist x = 0; x < ftm.mesh().width(); ++x) line += canvas[{x, y}];
    std::cout << "  " << line << "\n";
  }
}

}  // namespace

int main() {
  // 1. A 20x20 mesh with a cluster of faults forming one block, plus a
  //    stray fault.
  FaultTolerantMesh ftm(20, 20);
  const std::vector<Coord> faults{{8, 8}, {8, 9}, {9, 9}, {10, 9}, {7, 10}, {9, 11}, {14, 4}};
  ftm.inject_faults(faults);

  // 2. Fault models.
  std::cout << "faulty blocks (Definition 1):\n";
  for (const auto& b : ftm.blocks().blocks()) {
    std::cout << "  " << b.rect.to_string() << "  faulty=" << b.faulty_count
              << " disabled=" << b.disabled_count << "\n";
  }
  const fault::MccSet& type_one = ftm.mcc(fault::MccKind::TypeOne);
  std::cout << "type-one MCCs (Definition 2): " << type_one.components().size()
            << " components, " << type_one.total_disabled()
            << " disabled nodes (vs " << ftm.blocks().total_disabled()
            << " under the block model)\n\n";

  // 3. Extended safety level of the source. Every read goes through the
  //    facade's query view.
  const route::QueryView view = ftm.query_view();
  const Coord src{2, 2};
  const Coord dst{16, 17};
  const auto& level = view.safety(FaultModel::FaultyBlock, Quadrant::I)[src];
  const auto show = [](Dist v) {
    return is_infinite(v) ? std::string("inf") : std::to_string(v);
  };
  std::cout << "extended safety level of " << to_string(src) << ": (E=" << show(level.e)
            << ", S=" << show(level.s) << ", W=" << show(level.w) << ", N=" << show(level.n)
            << ")\n";

  // 4. Decision at the source (Definition 3 + extensions 1 and 2).
  const auto decision = route::decide_strategy(view, src, dst, FaultModel::FaultyBlock,
                                               cond::StrategyId::S1, {}, {.segment_size = 1});
  std::cout << "decision for " << to_string(src) << " -> " << to_string(dst) << ": "
            << (decision == cond::Decision::Minimal
                    ? "minimal path guaranteed"
                    : decision == cond::Decision::SubMinimal ? "sub-minimal path guaranteed"
                                                             : "unknown")
            << "\n";
  std::cout << "ground truth: minimal path "
            << (route::minimal_path_exists(view, src, dst) ? "exists" : "does not exist") << "\n\n";

  // 5. Route with node-local boundary information only.
  const auto result = route::route(view, src, dst);
  if (result.delivered()) {
    std::cout << "routed in " << result.path.length() << " hops (Manhattan distance "
              << manhattan(src, dst) << ", minimal="
              << (route::path_is_minimal(result.path) ? "yes" : "no") << "):\n";
    render(ftm, result.path);
  } else {
    std::cout << "routing failed\n";
  }
  return 0;
}
