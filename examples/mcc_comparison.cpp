// Fault-model comparison on the paper's own running example (Figure 1): the
// eight faults that form the faulty block [2:6, 3:6], its type-one and
// type-two MCC refinements, the per-node dual status pairs the paper lists,
// and a routing instance where the MCC model certifies a minimal path that
// the coarser block model cannot.
//
// Run:  ./build/examples/mcc_comparison
#include <iostream>
#include <string>

#include "cond/conditions.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/safety_level.hpp"
#include "mesh/mesh2d.hpp"

using namespace meshroute;

namespace {

void render_block(const Mesh2D& mesh, const fault::FaultSet& faults,
                  const fault::BlockSet& blocks) {
  for (Dist y = mesh.height() - 1; y >= 0; --y) {
    std::string line;
    for (Dist x = 0; x < mesh.width(); ++x) {
      const Coord c{x, y};
      line += faults.contains(c) ? '#' : blocks.is_block_node(c) ? 'o' : '.';
    }
    std::cout << "  " << line << "\n";
  }
}

void render_mcc(const Mesh2D& mesh, const fault::MccSet& mcc) {
  for (Dist y = mesh.height() - 1; y >= 0; --y) {
    std::string line;
    for (Dist x = 0; x < mesh.width(); ++x) {
      const auto s = mcc.status({x, y});
      char ch = '.';
      if (s & fault::mcc_status::kFaulty) {
        ch = '#';
      } else if ((s & fault::mcc_status::kUseless) && (s & fault::mcc_status::kCantReach)) {
        ch = 'b';  // both
      } else if (s & fault::mcc_status::kUseless) {
        ch = 'u';
      } else if (s & fault::mcc_status::kCantReach) {
        ch = 'c';
      }
      line += ch;
    }
    std::cout << "  " << line << "\n";
  }
}

std::string status_name(const fault::MccSet& mcc, Coord c) {
  return mcc.is_mcc_node(c) ? "disabled" : "fault-free";
}

}  // namespace

int main() {
  const Mesh2D mesh(10, 10);
  fault::FaultSet faults(mesh);
  // Figure 1 (a)'s eight faults.
  for (const Coord f : {Coord{3, 3}, Coord{3, 4}, Coord{4, 4}, Coord{5, 4}, Coord{6, 4},
                        Coord{2, 5}, Coord{5, 5}, Coord{3, 6}}) {
    faults.add(f);
  }

  const auto blocks = fault::build_faulty_blocks(mesh, faults);
  const auto mcc = fault::build_mcc_model(mesh, faults);

  std::cout << "Figure 1 (a) — faulty block (" << blocks.blocks()[0].rect.to_string()
            << ", # = faulty, o = disabled):\n";
  render_block(mesh, faults, blocks);

  std::cout << "\nFigure 1 (b) — type-one MCC (quadrant I/III; u = useless, c = can't-reach, "
               "b = both):\n";
  render_mcc(mesh, mcc.type_one);

  std::cout << "\nFigure 1 (c) — type-two MCC (quadrant II/IV):\n";
  render_mcc(mesh, mcc.type_two);

  std::cout << "\nDual status (status1, status2) of the paper's sample nodes:\n";
  for (const Coord c : {Coord{4, 3}, Coord{2, 6}, Coord{4, 5}, Coord{2, 3}}) {
    std::cout << "  " << to_string(c) << ": (" << status_name(mcc.type_one, c) << ", "
              << status_name(mcc.type_two, c) << ")\n";
  }
  std::cout << "  note: the paper lists (4,3) as (fault-free, fault-free), but its north\n"
               "  (4,4) and west (3,3) neighbors are both faulty, so Definition 2's\n"
               "  quadrant-II mirror labels it useless — we follow the definition.\n";

  std::cout << "\ndisabled-node counts: block model " << blocks.total_disabled()
            << ", type-one MCC " << mcc.type_one.total_disabled() << ", type-two MCC "
            << mcc.type_two.total_disabled() << "\n";

  // A source/destination pair where only the MCC refinement certifies.
  const Grid<bool> fb_mask = info::obstacle_mask(mesh, blocks);
  const Grid<bool> mcc_mask = info::obstacle_mask(mesh, mcc.type_one);
  const auto fb_safety = info::compute_safety_levels(mesh, fb_mask);
  const auto mcc_safety = info::compute_safety_levels(mesh, mcc_mask);

  int fb_only = 0;
  int mcc_only = 0;
  int both = 0;
  mesh.for_each_node([&](Coord s) {
    mesh.for_each_node([&](Coord d) {
      if (s == d || fb_mask[s] || fb_mask[d] || mcc_mask[s] || mcc_mask[d]) return;
      if (quadrant_of(s, d) != Quadrant::I) return;
      const cond::RoutingProblem pf{&mesh, &fb_safety, s, d};
      const cond::RoutingProblem pm{&mesh, &mcc_safety, s, d};
      const bool f = cond::source_safe(pf);
      const bool m = cond::source_safe(pm);
      fb_only += f && !m;
      mcc_only += m && !f;
      both += f && m;
    });
  });
  std::cout << "\nsafe (s, d) pairs in quadrant-I orientation: both models " << both
            << ", MCC only " << mcc_only << ", block only " << fb_only
            << "  (the refinement only ever adds certificates)\n";
  return 0;
}
