// Serial online-training oracle shared by the tests: one sample at a time
// on the canonical tiles -- no worker clones, no windowed schedule -- the
// reference SystemSimulator::train_pass must match bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "esam/arch/system.hpp"

namespace esam::oracle {

/// Trains `trainer` (bound to sim.tiles()) on `inputs`/`labels`: walks each
/// sample down the cascade, stages every plastic hidden tile's resolved
/// winners from inside the walk (tiles ascending), then the teacher's
/// (winner, label), and commits every `k` samples plus once for a partial
/// tail. Returns the samples whose pre-update winner was the label.
inline std::size_t serial_train(arch::SystemSimulator& sim,
                                learning::OnlineTrainer& trainer,
                                const std::vector<util::BitVec>& inputs,
                                const std::vector<std::uint8_t>& labels,
                                std::size_t k) {
  std::vector<arch::Tile>& tiles = sim.tiles();
  const std::size_t last = tiles.size() - 1;
  util::BitVec handoff;
  std::vector<std::size_t> winners;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::size_t winner = arch::walk_cascade(
        tiles, inputs[i], handoff, {},
        [&](std::size_t t, const arch::Tile& tile) {
          if (t == last || !trainer.tile_plastic(t)) return;
          trainer.rule(t)->resolve_forward(tile, winners);
          trainer.stage_hidden(t, tile.last_input(), winners);
        });
    trainer.stage_label(tiles[last].last_input(), winner, labels[i]);
    if (winner == labels[i]) ++hits;
    if ((i + 1) % k == 0) trainer.commit_pending();
  }
  if (inputs.size() % k != 0) trainer.commit_pending();
  return hits;
}

}  // namespace esam::oracle
