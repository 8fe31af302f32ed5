#include "render/render.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace meshroute::render {

Image::Image(Dist width, Dist height, Rgb fill) : pixels_(width, height, fill) {}

Image Image::scaled(int factor) const {
  if (factor < 1) throw std::invalid_argument("Image::scaled: factor must be >= 1");
  Image out(width() * factor, height() * factor);
  for (Dist y = 0; y < height(); ++y) {
    for (Dist x = 0; x < width(); ++x) {
      const Rgb c = pixels_[{x, y}];
      for (int dy = 0; dy < factor; ++dy) {
        for (int dx = 0; dx < factor; ++dx) {
          out.set({x * factor + dx, y * factor + dy}, c);
        }
      }
    }
  }
  return out;
}

void Image::write_ppm(std::ostream& os) const {
  os << "P6\n" << width() << " " << height() << "\n255\n";
  // PPM rows go top to bottom; mesh y grows north, so flip.
  for (Dist y = height() - 1; y >= 0; --y) {
    for (Dist x = 0; x < width(); ++x) {
      const Rgb c = pixels_[{x, y}];
      os.put(static_cast<char>(c.r));
      os.put(static_cast<char>(c.g));
      os.put(static_cast<char>(c.b));
    }
  }
}

std::string Image::to_ppm() const {
  std::ostringstream os;
  write_ppm(os);
  return os.str();
}

Image render_blocks(const Mesh2D& mesh, const fault::FaultSet& faults,
                    const fault::BlockSet& blocks) {
  Image img(mesh.width(), mesh.height());
  mesh.for_each_node([&](Coord c) {
    if (faults.contains(c)) {
      img.set(c, palette::kFaulty);
    } else if (blocks.is_block_node(c)) {
      img.set(c, palette::kDisabled);
    }
  });
  return img;
}

Image render_mcc(const Mesh2D& mesh, const fault::MccSet& mcc) {
  using namespace fault::mcc_status;
  Image img(mesh.width(), mesh.height());
  mesh.for_each_node([&](Coord c) {
    const auto s = mcc.status(c);
    if (s & kFaulty) {
      img.set(c, palette::kFaulty);
    } else if ((s & kUseless) && (s & kCantReach)) {
      img.set(c, palette::kBoth);
    } else if (s & kUseless) {
      img.set(c, palette::kUseless);
    } else if (s & kCantReach) {
      img.set(c, palette::kCantReach);
    }
  });
  return img;
}

Image render_safety(const Mesh2D& mesh, const info::SafetyGrid& safety, Direction direction) {
  // Normalize finite levels against the largest finite level present.
  Dist max_finite = 1;
  mesh.for_each_node([&](Coord c) {
    const Dist v = safety.get(c, direction);
    if (!is_infinite(v)) max_finite = std::max(max_finite, v);
  });
  Image img(mesh.width(), mesh.height());
  mesh.for_each_node([&](Coord c) {
    const Dist v = safety.get(c, direction);
    if (is_infinite(v)) {
      img.set(c, Rgb{255, 255, 255});
    } else {
      // 0 -> dark red, max_finite -> pale.
      const double t = static_cast<double>(v) / static_cast<double>(max_finite);
      const auto shade = static_cast<std::uint8_t>(60 + t * 180);
      img.set(c, Rgb{static_cast<std::uint8_t>(200 - t * 60), shade, shade});
    }
  });
  return img;
}

void overlay_path(Image& image, const route::Path& path) {
  for (const Coord c : path.hops) image.set(c, palette::kPath);
  if (!path.hops.empty()) {
    image.set(path.source(), palette::kEndpoint);
    image.set(path.destination(), palette::kEndpoint);
  }
}

std::string ascii_map(const Mesh2D& mesh, const fault::FaultSet& faults,
                      const fault::BlockSet& blocks, const route::Path* path) {
  Grid<char> canvas(mesh.width(), mesh.height(), '.');
  mesh.for_each_node([&](Coord c) {
    if (faults.contains(c)) {
      canvas[c] = '#';
    } else if (blocks.is_block_node(c)) {
      canvas[c] = 'o';
    }
  });
  if (path != nullptr && !path->hops.empty()) {
    for (const Coord c : path->hops) canvas[c] = '*';
    canvas[path->source()] = 'S';
    canvas[path->destination()] = 'D';
  }
  std::string out;
  out.reserve(static_cast<std::size_t>(mesh.width() + 1) *
              static_cast<std::size_t>(mesh.height()));
  for (Dist y = mesh.height() - 1; y >= 0; --y) {
    for (Dist x = 0; x < mesh.width(); ++x) out += canvas[{x, y}];
    out += '\n';
  }
  return out;
}

}  // namespace meshroute::render
