// The three workloads. Each fills `report` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run, args.trace) and
// counts every output check it makes.
#pragma once

#include "common.hpp"

namespace perfbench {

/// First-time `esam report` / `esam sweep-cells`: cold TrainedModel::create
/// (no cache) and a single-stream evaluation of every cell.
void cold_report(const Args& args, Report& report);

/// `esam serve --checkpoint`: checkpoint load, 2-worker server, open-loop
/// Poisson load at 10k/20k/40k req/s and a saturating window.
void serve_open(const Args& args, Report& report);

/// `esam fleet`: warm TrainedModel::create from a prepared BNN cache, then
/// FleetSimulator::run over 128 dies on 2 workers.
void fleet_adapt(const Args& args, Report& report);

}  // namespace perfbench
