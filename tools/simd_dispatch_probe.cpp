// Runtime-dispatch equivalence probe (the simd_dispatch ctest): run the
// production kernel entry points once under whatever tier the MESHROUTE_SIMD
// environment variable selects, and write a canonical digest of every
// fixpoint to --out=FILE. The ctest runs this binary once per tier (scalar /
// native / native512) and asserts the files are byte-identical — the output
// deliberately never mentions the tier, only the results. The probe exits 1
// when the forced tier is supported on this CPU but a different one is
// active, so a broken tier mapping cannot pass by comparing a tier with
// itself.
//
//   simd_dispatch_probe --out=FILE [--seed=S]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitgrid.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "cond/wang.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "fault/mcc_model.hpp"
#include "info/safety_level.hpp"

namespace {

using namespace meshroute;

/// FNV-1a over an explicit byte stream; structures feed their cells in a
/// canonical order so padding and container layout never leak into a digest.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

std::uint64_t digest_bits(const Mesh2D& mesh, const core::BitGrid& g) {
  Digest d;
  mesh.for_each_node([&](Coord c) { d.add(g.test(c) ? 1 : 0); });
  return d.h;
}

std::uint64_t digest_blocks(const Mesh2D& mesh, const fault::BlockSet& bs) {
  Digest d;
  d.add(bs.block_count());
  for (const auto& b : bs.blocks()) {
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(b.rect.xmin)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(b.rect.ymin)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(b.rect.xmax)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(b.rect.ymax)));
    d.add(b.faulty_count);
    d.add(b.disabled_count);
  }
  mesh.for_each_node([&](Coord c) {
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(bs.label(c))));
  });
  return d.h;
}

std::uint64_t digest_mcc(const Mesh2D& mesh, const fault::MccSet& ms) {
  Digest d;
  d.add(ms.components().size());
  mesh.for_each_node([&](Coord c) {
    d.add(static_cast<std::uint64_t>(ms.status(c)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(ms.component_id(c))));
  });
  return d.h;
}

std::uint64_t digest_safety(const Mesh2D& mesh, const info::SafetyGrid& sg) {
  Digest d;
  mesh.for_each_node([&](Coord c) {
    const auto& lv = sg[c];
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(lv.e)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(lv.s)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(lv.w)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(lv.n)));
  });
  return d.h;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::uint64_t seed = 0xd15a7c4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7), nullptr, 0);
    } else {
      std::cerr << "usage: simd_dispatch_probe --out=FILE [--seed=S]\n";
      return 2;
    }
  }
  if (out_path.empty()) {
    std::cerr << "simd_dispatch_probe: --out=FILE is required\n";
    return 2;
  }
  if (const char* env = std::getenv("MESHROUTE_SIMD")) {
    namespace simd = core::simd;
    const std::string_view want(env);
    const bool supported = want == "scalar" || (want == "native" && simd::native_supported()) ||
                           (want == "native512" && simd::native512_supported());
    const char* active = simd::tier_name(simd::active_tier());
    if (supported && want != active) {
      std::cerr << "simd_dispatch_probe: MESHROUTE_SIMD=" << want
                << " is supported here but the active tier is " << active << "\n";
      return 1;
    }
  }
  std::ofstream os(out_path, std::ios::trunc);
  if (!os) {
    std::cerr << "simd_dispatch_probe: cannot write " << out_path << "\n";
    return 1;
  }

  // Odd dimensions on purpose: width 97 exercises a partial tail word, 61
  // rows exercise the transpose tiling remainder.
  const Mesh2D mesh(97, 61);
  const Coord source = mesh.center();
  Rng rng(seed);
  const fault::FaultSet faults = fault::uniform_random_faults(
      mesh, mesh.node_count() / 12, rng, [&](Coord c) { return c == source; });

  char line[64];
  const auto emit = [&](const char* name, std::uint64_t h) {
    std::snprintf(line, sizeof line, "%-16s %016llx\n", name,
                  static_cast<unsigned long long>(h));
    os << line;
  };

  const fault::BlockSet blocks = fault::build_faulty_blocks(mesh, faults);
  emit("blocks", digest_blocks(mesh, blocks));
  const fault::MccSet mcc1 = fault::build_mcc(mesh, faults, fault::MccKind::TypeOne);
  emit("mcc1", digest_mcc(mesh, mcc1));
  const fault::MccSet mcc2 = fault::build_mcc(mesh, faults, fault::MccKind::TypeTwo);
  emit("mcc2", digest_mcc(mesh, mcc2));

  core::BitGrid fplane(mesh.width(), mesh.height());
  for (const Coord f : faults.faults()) fplane.set(f);
  info::SafetyGrid safety;
  info::compute_safety_levels(mesh, fplane, safety);
  emit("safety", digest_safety(mesh, safety));
  core::BitGrid reach;
  cond::monotone_reachability(mesh, fplane, source, reach);
  emit("reach", digest_bits(mesh, reach));

  return 0;
}
