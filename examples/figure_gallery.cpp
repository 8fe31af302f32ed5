// Figure gallery: regenerates the paper's illustrative figures as PPM images
// from a live configuration — Figure 1's faulty block and both MCC
// labelings, a Wu-protocol route around blocks (the Figure 2/3 geometry),
// and an extended-safety-level heatmap. Images land in ./figures/.
//
// Run:  ./build/examples/figure_gallery
#include <filesystem>
#include <fstream>
#include <iostream>

#include "fault/fault_set.hpp"
#include "core/fault_tolerant_mesh.hpp"
#include "render/render.hpp"

using namespace meshroute;

namespace {

void save(const render::Image& img, const std::string& name, int scale) {
  std::filesystem::create_directories("figures");
  const std::string path = "figures/" + name + ".ppm";
  std::ofstream out(path, std::ios::binary);
  img.scaled(scale).write_ppm(out);
  std::cout << "  wrote " << path << "\n";
}

}  // namespace

int main() {
  // Figure 1: the paper's eight-fault example.
  {
    const Mesh2D mesh(10, 10);
    fault::FaultSet fs(mesh);
    for (const Coord f : {Coord{3, 3}, Coord{3, 4}, Coord{4, 4}, Coord{5, 4}, Coord{6, 4},
                          Coord{2, 5}, Coord{5, 5}, Coord{3, 6}}) {
      fs.add(f);
    }
    const auto blocks = fault::build_faulty_blocks(mesh, fs);
    const auto mcc = fault::build_mcc_model(mesh, fs);
    std::cout << "Figure 1 (a)-(c):\n";
    save(render::render_blocks(mesh, fs, blocks), "fig1a_faulty_block", 24);
    save(render::render_mcc(mesh, mcc.type_one), "fig1b_type_one_mcc", 24);
    save(render::render_mcc(mesh, mcc.type_two), "fig1c_type_two_mcc", 24);
  }

  // A routed packet skirting two blocks (the composite-barrier geometry).
  {
    FaultTolerantMesh ftm(24, 24);
    for (Dist x = 5; x <= 8; ++x)
      for (Dist y = 5; y <= 7; ++y) ftm.inject_fault({x, y});
    for (Dist x = 10; x <= 13; ++x)
      for (Dist y = 12; y <= 15; ++y) ftm.inject_fault({x, y});
    const auto r = route::route(ftm.query_view(), {2, 2}, {12, 21});
    std::cout << "Wu-protocol route (" << (r.delivered() ? "delivered" : "failed")
              << ", length " << r.path.length() << "):\n";
    render::Image img =
        render::render_blocks(ftm.mesh(), ftm.faults(), ftm.blocks());
    render::overlay_path(img, r.path);
    save(img, "route_around_blocks", 12);
    std::cout << render::ascii_map(ftm.mesh(), ftm.faults(), ftm.blocks(), &r.path);
  }

  // Safety-level heatmap (E direction) for a random configuration.
  {
    FaultTolerantMesh ftm(64, 64);
    Rng rng(11);
    const auto fs = fault::uniform_random_faults(ftm.mesh(), 60, rng);
    ftm.inject_faults(fs.faults());
    const auto& safety = ftm.query_view().safety(FaultModel::FaultyBlock, Quadrant::I);
    std::cout << "Safety heatmap:\n";
    save(render::render_safety(ftm.mesh(), safety, Direction::East), "safety_east", 6);
  }

  std::cout << "Done. View the .ppm files with any image viewer.\n";
  return 0;
}
