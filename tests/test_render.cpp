// Tests for the figure-rendering module.
#include <gtest/gtest.h>

#include "fault/fault_set.hpp"
#include "render/render.hpp"
#include "route/query.hpp"

namespace meshroute::render {
namespace {

TEST(Image, SetGetAndBounds) {
  Image img(4, 3);
  EXPECT_EQ(img.get({0, 0}), palette::kFree);
  img.set({2, 1}, palette::kFaulty);
  EXPECT_EQ(img.get({2, 1}), palette::kFaulty);
  EXPECT_THROW(img.set({4, 0}, palette::kFree), std::out_of_range);
}

TEST(Image, PpmFormatAndOrientation) {
  Image img(2, 2);
  img.set({0, 1}, Rgb{255, 0, 0});  // top-left in mesh coords
  const std::string ppm = img.to_ppm();
  // Header then 12 raw bytes.
  const std::string header = "P6\n2 2\n255\n";
  ASSERT_EQ(ppm.substr(0, header.size()), header);
  ASSERT_EQ(ppm.size(), header.size() + 12);
  // First written pixel row is mesh y=1 (flipped): pixel (0,1) comes first.
  EXPECT_EQ(static_cast<unsigned char>(ppm[header.size() + 0]), 255);
  EXPECT_EQ(static_cast<unsigned char>(ppm[header.size() + 1]), 0);
  // Bottom-right pixel (1,0) is the default fill.
  EXPECT_EQ(static_cast<unsigned char>(ppm[header.size() + 9]), palette::kFree.r);
}

TEST(Image, ScaledReplicatesPixels) {
  Image img(2, 1);
  img.set({1, 0}, palette::kPath);
  const Image big = img.scaled(3);
  EXPECT_EQ(big.width(), 6);
  EXPECT_EQ(big.height(), 3);
  EXPECT_EQ(big.get({0, 0}), palette::kFree);
  EXPECT_EQ(big.get({3, 0}), palette::kPath);
  EXPECT_EQ(big.get({5, 2}), palette::kPath);
  EXPECT_THROW((void)img.scaled(0), std::invalid_argument);
}

TEST(Render, BlockMapColors) {
  const Mesh2D mesh(8, 8);
  fault::FaultSet fs(mesh);
  fs.add({3, 3});
  fs.add({4, 4});  // merges into a block with two disabled nodes
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const Image img = render_blocks(mesh, fs, blocks);
  EXPECT_EQ(img.get({3, 3}), palette::kFaulty);
  EXPECT_EQ(img.get({3, 4}), palette::kDisabled);
  EXPECT_EQ(img.get({0, 0}), palette::kFree);
}

TEST(Render, MccMapColors) {
  const Mesh2D mesh(8, 8);
  fault::FaultSet fs(mesh);
  fs.add({4, 5});
  fs.add({5, 4});
  const auto mcc = fault::build_mcc(mesh, fs, fault::MccKind::TypeOne);
  const Image img = render_mcc(mesh, mcc);
  EXPECT_EQ(img.get({4, 5}), palette::kFaulty);
  EXPECT_EQ(img.get({4, 4}), palette::kUseless);
  EXPECT_EQ(img.get({5, 5}), palette::kCantReach);
  EXPECT_EQ(img.get({0, 0}), palette::kFree);
}

TEST(Render, SafetyHeatmapShadesByDistance) {
  const Mesh2D mesh(10, 10);
  Grid<bool> obstacles(10, 10, false);
  obstacles[{5, 5}] = true;
  const auto safety = info::compute_safety_levels(mesh, obstacles);
  const Image img = render_safety(mesh, safety, Direction::East);
  // Nodes off the obstacle row have infinite E: white.
  EXPECT_EQ(img.get({2, 2}), (Rgb{255, 255, 255}));
  // Adjacent-west node has E=0: the darkest shade.
  const Rgb near = img.get({4, 5});
  const Rgb far = img.get({0, 5});
  EXPECT_LT(near.g, far.g);
}

TEST(Render, OverlayAndAscii) {
  const Mesh2D mesh(6, 6);
  fault::FaultSet fs(mesh);
  fs.add({3, 3});
  const auto blocks = fault::build_faulty_blocks(mesh, fs);
  const info::BoundaryInfoMap boundary(mesh, blocks);
  const route::QueryView view{.mesh = &mesh, .blocks = &blocks, .boundary = &boundary};
  const auto r = route::route(view, {0, 0}, {5, 5});
  ASSERT_TRUE(r.delivered());

  Image img = render_blocks(mesh, fs, blocks);
  overlay_path(img, r.path);
  EXPECT_EQ(img.get({0, 0}), palette::kEndpoint);
  EXPECT_EQ(img.get({5, 5}), palette::kEndpoint);

  const std::string ascii = ascii_map(mesh, fs, blocks, &r.path);
  EXPECT_NE(ascii.find('S'), std::string::npos);
  EXPECT_NE(ascii.find('D'), std::string::npos);
  EXPECT_NE(ascii.find('#'), std::string::npos);
  EXPECT_NE(ascii.find('*'), std::string::npos);
  // 6 rows of 6 chars + newlines.
  EXPECT_EQ(ascii.size(), 42u);
  // y grows upward: 'D' (at y=5) appears in the FIRST line.
  EXPECT_LT(ascii.find('D'), 7u);
}

}  // namespace
}  // namespace meshroute::render
