#include "chaos/chaos_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace meshroute::chaos {
namespace {

constexpr std::int64_t kNeverBad = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kAlwaysBad = std::numeric_limits<std::int64_t>::min();

std::vector<Rect> sorted_blocks(const dynamic::DynamicMeshState& state) {
  std::vector<Rect> blocks;
  for (const fault::FaultyBlock& b : state.blocks()) blocks.push_back(b.rect);
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

}  // namespace

ChaosEngine::ChaosEngine(const Mesh2D& mesh, std::span<const Coord> initial_faults,
                         FaultSchedule schedule)
    : mesh_(mesh),
      schedule_(std::move(schedule)),
      state_(mesh),
      bad_since_(mesh.width(), mesh.height(), kNeverBad) {
  if (schedule_.rand_count() > 0) {
    throw std::invalid_argument(
        "ChaosEngine: schedule has a pending rand directive; materialize it first");
  }
  // Stamp the injection's epoch delta: inject_fault reports the exact set of
  // nodes that flipped from good to bad (the injected node, disable-rule
  // casualties, absorbed-block interiors), so each stamp is O(|delta|)
  // instead of a whole-mesh mask scan. Every node turns bad in exactly one
  // delta, so the stamps match the scan's first-flip semantics.
  const auto stamp_delta = [&](std::int64_t since) {
    for (const Coord c : state_.last_changed()) bad_since_[c] = since;
  };

  for (const Coord c : initial_faults) {
    if (!mesh_.in_bounds(c)) {
      throw std::invalid_argument("ChaosEngine: initial fault out of bounds");
    }
    state_.inject_fault(c);
    stamp_delta(kAlwaysBad);
  }
  epochs_.push_back(Epoch{kAlwaysBad, Coord{0, 0}, sorted_blocks(state_)});

  for (const TimedFault& entry : schedule_.entries()) {
    if (!mesh_.in_bounds(entry.node)) {
      throw std::invalid_argument("ChaosEngine: scheduled fault out of bounds");
    }
    if (state_.safety().blocked(entry.node)) continue;  // already bad: no-op, no epoch
    const dynamic::UpdateStats u = state_.inject_fault(entry.node);
    ++replay_.injections_applied;
    replay_.update.relabeled_nodes += u.relabeled_nodes;
    replay_.update.absorbed_blocks += u.absorbed_blocks;
    replay_.update.rows_resweeped += u.rows_resweeped;
    replay_.update.cols_resweeped += u.cols_resweeped;
    stamp_delta(entry.time);
    epochs_.push_back(Epoch{entry.time, entry.node, sorted_blocks(state_)});
    MESHROUTE_TRACE_EVENT(obs::EventKind::ChaosInjection, 0, entry.time, entry.node,
                          static_cast<std::int64_t>(epochs_.size()) - 1,
                          static_cast<std::int64_t>(epochs_.back().blocks.size()));
  }
  static obs::Counter& injections_ctr =
      obs::Registry::global().counter("chaos.injections_applied");
  injections_ctr.add(replay_.injections_applied);
}

bool ChaosEngine::truly_bad(Coord c, std::int64_t time) const {
  if (!bad_since_.in_bounds(c)) return true;
  return bad_since_[c] <= time;
}

std::size_t ChaosEngine::true_epoch(std::int64_t time) const {
  std::size_t idx = 0;
  while (idx + 1 < epochs_.size() && epochs_[idx + 1].time <= time) ++idx;
  return idx;
}

std::size_t ChaosEngine::believed_epoch(Coord at, std::int64_t time) const {
  // Consistent prefix: a node's picture advances one whole epoch at a time,
  // each once the injection's announcement has had lag(at, site) ticks to
  // reach it. Stopping at the FIRST unlearned epoch keeps belief a prefix of
  // the truth even when a far injection's news outruns a near one's.
  std::size_t idx = 0;
  while (idx + 1 < epochs_.size()) {
    const Epoch& next = epochs_[idx + 1];
    if (next.time + schedule_.staleness.lag(at, next.site) > time) break;
    ++idx;
  }
  return idx;
}

void ChaosEngine::believed_blocks(Coord at, std::int64_t time, std::vector<Rect>& out) const {
  out = epochs_[believed_epoch(at, time)].blocks;
}

bool ChaosEngine::is_stale(Coord at, std::int64_t time) const {
  return believed_epoch(at, time) != true_epoch(time);
}

const std::vector<Rect>& ChaosEngine::blocks_at(std::int64_t time) const {
  return epochs_[true_epoch(time)].blocks;
}

std::int64_t ChaosEngine::bad_since(Coord c) const { return bad_since_.at(c); }

std::int64_t ChaosEngine::horizon() const noexcept {
  return epochs_.size() > 1 ? epochs_.back().time : 0;
}

}  // namespace meshroute::chaos
