// Regenerates the sec. 4.4.1 online-learning comparison: the cost of
// updating one column of synaptic weights (one post-synaptic neuron) via the
// transposable multiport cells versus the row-sweeping 6T baseline -- the
// 26.0x (read) / 19.5x (write) headline -- plus an end-to-end STDP run
// through the functional macros.
//
// Usage: bench_online_learning [--smoke] [--json PATH]
//   --json writes the k-step delayed-update sweep (modelled,
//   machine-independent) for the benchmark-regression gate
//   (scripts/check_bench.py).
#include <chrono>
#include <string>

#include "bench_common.hpp"
#include "esam/arch/system.hpp"
#include "esam/data/drift.hpp"
#include "esam/learning/online_learner.hpp"
#include "esam/nn/bnn.hpp"
#include "esam/sram/macro.hpp"
#include "esam/tech/calibration.hpp"
#include "esam/util/rng.hpp"

using namespace esam;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, "bench_online_learning [--smoke] [--json PATH]");
  const bool smoke = args.smoke;
  const std::string& json_path = args.json_path;
  bench::print_setup_header("Section 4.4.1: online-learning column updates");

  const auto& t = tech::imec3nm();
  namespace calib = tech::calib;

  util::Table table("Column read/write via the RW port (128x128 array)");
  table.header({"cell", "column read [ns]", "column write [ns]",
                "column RMW energy [pJ]", "accesses", "read gain",
                "write gain"});

  // Baselines per the paper's arithmetic: the read gain is referenced to
  // the full 2x128-cycle baseline update (257.8 ns); the write gain to a
  // write-only baseline of 128 row writes at the 1RW+4R system clock.
  const sram::SramMacro base_macro(
      t, sram::BitcellSpec::of(sram::CellKind::k1RW), {}, t.vprech_nominal);
  const double base_update_ns =
      util::in_nanoseconds(base_macro.column_update_cost().time);
  const double base_write_ns = calib::kBaselineColumnWriteOnlyNs;
  for (sram::CellKind kind : sram::kAllCellKinds) {
    const sram::SramTimingModel m(t, sram::BitcellSpec::of(kind), {},
                                  t.vprech_nominal);
    const auto rd = m.line_read();
    const auto wr = m.line_write();
    const std::size_t accesses =
        kind == sram::CellKind::k1RW ? 2 * 128 : 2 * 4;
    const bool is_base = kind == sram::CellKind::k1RW;
    table.row({std::string(sram::to_string(kind)),
               util::fmt("%.2f", util::in_nanoseconds(rd.time)),
               util::fmt("%.2f", util::in_nanoseconds(wr.time)),
               util::fmt("%.2f", util::in_picojoules(rd.energy + wr.energy)),
               util::fmt("2 x %zu", accesses / 2),
               is_base ? "1.0x (ref)"
                       : util::fmt("%.1fx", base_update_ns /
                                                util::in_nanoseconds(rd.time)),
               is_base ? "1.0x (ref)"
                       : util::fmt("%.1fx",
                                   base_write_ns /
                                       util::in_nanoseconds(wr.time))});
  }
  table.note(util::fmt(
      "paper: 6T baseline 2 x 128 cycles = %.1f ns, %.0f pJ; 1RW+4R column "
      "read %.1f ns (%.1fx less), write %.2f ns (%.1fx less)",
      calib::kBaselineColumnUpdateNs, calib::kBaselineColumnUpdatePj,
      calib::kProposedColumnReadNs, calib::kColumnReadGain,
      calib::kProposedColumnWriteNs, calib::kColumnWriteGain));
  table.print();
  std::printf("\n");

  // End-to-end: run the same stochastic-STDP schedule through a 1RW+4R tile
  // and a 6T tile and compare the measured learning cost.
  util::Table e2e("End-to-end stochastic STDP (128 inputs, 16 neurons, "
                  "256 column updates)");
  e2e.header({"cell", "learning time [us]", "learning energy [pJ]",
              "time vs 6T"});
  double base_time_us = 0.0;
  for (sram::CellKind kind : {sram::CellKind::k1RW, sram::CellKind::k1RW4R}) {
    arch::TileConfig cfg;
    cfg.inputs = 128;
    cfg.outputs = 16;
    cfg.cell = kind;
    arch::Tile tile(t, cfg);
    nn::SnnLayer layer;
    layer.weight_rows.assign(128, util::BitVec(16));
    layer.thresholds.assign(16, 0);
    layer.readout_offsets.assign(16, 0.0f);
    tile.load_layer(layer);

    learning::OnlineLearner learner(tile, {.p_potentiation = 0.2,
                                           .p_depression = 0.05,
                                           .seed = 42});
    util::Rng rng(7);
    for (int update = 0; update < 256; ++update) {
      util::BitVec pre(128);
      for (std::size_t i = 0; i < 128; ++i) {
        if (rng.bernoulli(0.2)) pre.set(i);
      }
      learner.reward(update % 16, pre);
    }
    const double time_us = util::in_microseconds(learner.stats().time);
    if (kind == sram::CellKind::k1RW) base_time_us = time_us;
    e2e.row({std::string(sram::to_string(kind)),
             util::fmt("%.2f", time_us),
             util::fmt("%.1f", util::in_picojoules(learner.stats().energy)),
             util::fmt("%.1fx faster", base_time_us / time_us)});
  }
  e2e.print();
  std::printf("\n");

  // System level: the same comparison at Fig. 8 scale, through
  // SystemSimulator::run_online on the paper-shaped 768:256:256:256:10
  // network (random weights -- the update cost does not depend on them),
  // with *pipeline-wide* plasticity: hidden tiles run the unsupervised
  // WTA-STDP rule next to the output teacher, so every cascaded tile pays
  // column RMWs through its own transposed ports.
  const std::size_t n_samples = smoke ? 16 : 64;
  util::Table sys(util::fmt("System-level online training "
                            "(768:256:256:256:10, %zu samples, 1 epoch, "
                            "hidden wta-stdp k=2)",
                            n_samples));
  sys.header({"cell", "updates (hidden+out)", "learn time [us]",
              "per update [ns]", "learn energy [pJ]", "train fwd [pJ]",
              "energy/inf incl. learning [pJ]", "time vs 6T"});
  double base_update_time_us = 0.0;
  for (sram::CellKind kind : {sram::CellKind::k1RW, sram::CellKind::k1RW4R}) {
    util::Rng rng(21);
    nn::BnnNetwork bnn({768, 256, 256, 256, 10}, rng);
    arch::SystemConfig hw;
    hw.cell = kind;
    arch::SystemSimulator sim(t, nn::SnnNetwork::from_bnn(bnn), hw);

    std::vector<util::BitVec> inputs;
    std::vector<std::uint8_t> labels;
    for (std::size_t i = 0; i < n_samples; ++i) {
      util::BitVec v(768);
      for (std::size_t k = 0; k < 768; ++k) {
        if (rng.bernoulli(0.19)) v.set(k);
      }
      inputs.push_back(std::move(v));
      labels.push_back(static_cast<std::uint8_t>(i % 10));
    }

    arch::OnlineTrainConfig cfg;
    cfg.epochs = 1;
    cfg.trainer.stdp = {.p_potentiation = 0.2, .p_depression = 0.05,
                        .seed = 42};
    cfg.trainer.hidden_rule = learning::HiddenRule::kWtaStdp;
    cfg.trainer.wta_k = 2;
    cfg.threads = 0;
    const arch::OnlineRunResult r = sim.run_online(inputs, labels, cfg);

    std::uint64_t hidden_updates = 0;
    for (std::size_t tl = 0; tl + 1 < r.tile_learning.size(); ++tl) {
      hidden_updates += r.tile_learning[tl].column_updates;
    }
    const double time_us = util::in_microseconds(r.learning.time);
    const double per_update_ns =
        1e3 * time_us / static_cast<double>(r.learning.column_updates);
    if (kind == sram::CellKind::k1RW) base_update_time_us = time_us;
    sys.row({std::string(sram::to_string(kind)),
             util::fmt("%llu (%llu+%llu)",
                       static_cast<unsigned long long>(
                           r.learning.column_updates),
                       static_cast<unsigned long long>(hidden_updates),
                       static_cast<unsigned long long>(
                           r.tile_learning.back().column_updates)),
             util::fmt("%.2f", time_us),
             util::fmt("%.1f", per_update_ns),
             util::fmt("%.1f", util::in_picojoules(r.learning.energy)),
             util::fmt("%.0f",
                       util::in_picojoules(r.train_ledger.total_energy())),
             util::fmt("%.0f",
                       util::in_picojoules(r.final_eval.energy_per_inference)),
             kind == sram::CellKind::k1RW
                 ? "1.0x (ref)"
                 : util::fmt("%.1fx faster", base_update_time_us / time_us)});
  }
  sys.note("both cells run the identical update schedule (same seeds, same "
           "winners); the gap is the transposed-port column RMW vs the 6T "
           "row sweep (sec. 4.4.1) surviving at full system scale");
  sys.note("hidden tiles update through their own transposed ports "
           "(wta-stdp); 'train fwd' is the metered energy of the serial "
           "training-phase forward passes");
  sys.print();
  std::printf("\n");

  // k-step delayed updates: the same Fig. 8-scale training run with the
  // commit window swept over k. Weights freeze within a window, so repeated
  // events on one column coalesce into a single read-modify-write at
  // commit -- the modelled ns per staged update is the serial-vs-batched
  // training-throughput gap the regression gate tracks (k=1 is the serial
  // reference, bit-identical to the immediate-update path).
  struct KPoint {
    std::size_t k = 1;
    arch::OnlineRunResult r;
    double ns_per_update = 0.0;
    double wall_ns_per_update = 0.0;
  };
  std::vector<KPoint> kpoints;
  {
    const std::size_t n = smoke ? 64 : 256;
    util::Rng rng(21);
    nn::BnnNetwork bnn({768, 256, 256, 256, 10}, rng);
    const nn::SnnNetwork net = nn::SnnNetwork::from_bnn(bnn);
    std::vector<util::BitVec> inputs;
    std::vector<std::uint8_t> labels;
    for (std::size_t i = 0; i < n; ++i) {
      util::BitVec v(768);
      for (std::size_t b = 0; b < 768; ++b) {
        if (rng.bernoulli(0.19)) v.set(b);
      }
      inputs.push_back(std::move(v));
      labels.push_back(static_cast<std::uint8_t>(i % 10));
    }

    util::Table ksweep(util::fmt(
        "k-step delayed updates (768:256:256:256:10, %zu samples, 1 epoch, "
        "hidden wta-stdp k=2)",
        n));
    ksweep.header({"k", "accuracy [%]", "updates", "RMWs", "coalesce",
                   "train time [us]", "ns/update", "vs k=1"});
    const std::size_t ks[] = {1, 4, 16, 64};
    double base_ns_per_update = 0.0;
    for (const std::size_t k : ks) {
      arch::SystemSimulator sim(t, net, {});
      arch::OnlineTrainConfig cfg;
      cfg.epochs = 1;
      cfg.trainer.stdp = {.p_potentiation = 0.2, .p_depression = 0.05,
                          .seed = 42};
      cfg.trainer.hidden_rule = learning::HiddenRule::kWtaStdp;
      cfg.trainer.wta_k = 2;
      cfg.threads = 0;
      cfg.update_interval = k;
      const auto start = std::chrono::steady_clock::now();
      KPoint p;
      p.k = k;
      p.r = sim.run_online(inputs, labels, cfg);
      const double wall_ns =
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
      const auto updates =
          static_cast<double>(p.r.learning.column_updates);
      p.ns_per_update = util::in_nanoseconds(p.r.train_time) / updates;
      p.wall_ns_per_update = wall_ns / updates;
      if (k == 1) base_ns_per_update = p.ns_per_update;
      ksweep.row(
          {util::fmt("%zu", k),
           util::fmt("%.1f", 100.0 * p.r.epochs.back().eval_accuracy),
           util::fmt("%llu", static_cast<unsigned long long>(
                                 p.r.learning.column_updates)),
           util::fmt("%llu", static_cast<unsigned long long>(
                                 p.r.learning.column_rmws)),
           util::fmt("%.2fx", updates / static_cast<double>(
                                            p.r.learning.column_rmws)),
           util::fmt("%.2f", util::in_microseconds(p.r.train_time)),
           util::fmt("%.1f", p.ns_per_update),
           util::fmt("%.2fx", base_ns_per_update / p.ns_per_update)});
      kpoints.push_back(std::move(p));
    }
    ksweep.note("'coalesce' = staged updates per physical column RMW; the "
                "learning energy scales with the RMWs. 'train time' is the "
                "modelled training wall: pipelined forward cycles plus the "
                "per-window commit drain (serial RMW chain at k=1, longest "
                "per-macro RMW queue at k>1 -- each macro column group "
                "drains through its own RW port)");
    ksweep.note("accuracy moves with k because a window trains on the "
                "weights frozen at its start (k-step-stale gradients); the "
                "sweep is the throughput-vs-freshness trade-off");
    ksweep.print();
    std::printf("\n");
  }

  // Sensitivity sweep: how much of the drift recovery comes from the hidden
  // WTA-STDP rule, and how it depends on the winner count (wta_k) and the
  // hidden learning rates. Prototype-pattern scenario (no BNN training):
  // deploy a 256:64:10 classifier by learning its empty output layer from
  // scratch, snapshot the deployed weights, permute half the input
  // positions, then recover once per grid point -- every point restarts
  // from the *same* deployed snapshot, so the rows are comparable.
  {
    constexpr std::size_t kIn = 256, kHid = 64, kCls = 10;
    const std::size_t n = smoke ? 60 : 240;
    const std::size_t recover_epochs = smoke ? 1 : 2;

    util::Rng rng(2026);
    std::vector<util::BitVec> protos;
    for (std::size_t c = 0; c < kCls; ++c) {
      util::BitVec p(kIn);
      for (std::size_t i = 0; i < kIn; ++i) {
        if (rng.bernoulli(0.25)) p.set(i);
      }
      protos.push_back(std::move(p));
    }
    std::vector<util::BitVec> inputs;
    std::vector<std::uint8_t> labels;
    for (std::size_t i = 0; i < n; ++i) {
      const auto cls = static_cast<std::size_t>(rng.uniform_index(kCls));
      util::BitVec s = protos[cls];
      for (std::size_t k = 0; k < s.size(); ++k) {
        if (rng.bernoulli(0.04)) s.set(k, !s.test(k));
      }
      inputs.push_back(std::move(s));
      labels.push_back(static_cast<std::uint8_t>(cls));
    }

    // Fixed random hidden projection + empty output layer, then learn the
    // task online (from-scratch operating point, output teacher only).
    nn::SnnLayer hidden_layer;
    hidden_layer.weight_rows.assign(kIn, util::BitVec(kHid));
    for (auto& row : hidden_layer.weight_rows) {
      for (std::size_t j = 0; j < kHid; ++j) {
        if (rng.bernoulli(0.5)) row.set(j);
      }
    }
    hidden_layer.thresholds.assign(kHid, 4);
    hidden_layer.readout_offsets.assign(kHid, 0.0f);
    nn::SnnLayer output_layer;
    output_layer.weight_rows.assign(kHid, util::BitVec(kCls));
    output_layer.thresholds.assign(kCls, 0);
    output_layer.readout_offsets.assign(kCls, 0.0f);
    arch::SystemSimulator deploy_sim(
        t,
        nn::SnnNetwork::from_layers(
            {std::move(hidden_layer), std::move(output_layer)}),
        {});
    arch::OnlineTrainConfig deploy_cfg;
    deploy_cfg.epochs = smoke ? 1 : 2;
    deploy_cfg.trainer.stdp = {.p_potentiation = 0.35, .p_depression = 0.12,
                               .seed = 99};
    deploy_cfg.trainer.update_on_correct = true;
    deploy_cfg.threads = 0;
    deploy_sim.run_online(inputs, labels, deploy_cfg);
    const nn::SnnNetwork deployed = deploy_sim.export_network();

    const data::DriftGenerator drift(kIn, 0.5, 7);
    const std::vector<util::BitVec> drifted = drift.apply_all(inputs);

    struct GridPoint {
      learning::HiddenRule rule;
      std::size_t wta_k;
      double rate_scale;  ///< scales the hidden STDP rates (base 0.1/0.025)
    };
    std::vector<GridPoint> grid{{learning::HiddenRule::kNone, 1, 1.0}};
    const std::vector<std::size_t> ks = smoke
                                            ? std::vector<std::size_t>{1, 2}
                                            : std::vector<std::size_t>{1, 2, 4};
    const std::vector<double> scales =
        smoke ? std::vector<double>{1.0} : std::vector<double>{0.5, 1.0, 2.0};
    for (std::size_t k : ks) {
      for (double s : scales) {
        grid.push_back({learning::HiddenRule::kWtaStdp, k, s});
      }
    }

    util::Table sweep(util::fmt(
        "Drift-recovery sensitivity: hidden rule x wta-k x rate scale "
        "(256:64:10, %zu samples, %zu epochs, half the inputs permuted)",
        n, recover_epochs));
    sweep.header({"hidden rule", "wta-k", "rate scale", "drifted [%]",
                  "recovered [%]", "updates (hidden+out)",
                  "learn energy [pJ]"});
    for (const GridPoint& g : grid) {
      arch::SystemSimulator sim(t, deployed, {});
      arch::OnlineTrainConfig cfg;
      cfg.epochs = recover_epochs;
      cfg.trainer.stdp = {.p_potentiation = 0.35, .p_depression = 0.12,
                          .seed = 99};
      cfg.trainer.update_on_correct = true;
      cfg.trainer.hidden_rule = g.rule;
      cfg.trainer.wta_k = g.wta_k;
      cfg.trainer.hidden_stdp = learning::StdpConfig{
          .p_potentiation = 0.1 * g.rate_scale,
          .p_depression = 0.025 * g.rate_scale,
          .seed = 99};
      cfg.threads = 0;
      const arch::OnlineRunResult r = sim.run_online(drifted, labels, cfg);

      std::uint64_t hidden_updates = 0;
      for (std::size_t tl = 0; tl + 1 < r.tile_learning.size(); ++tl) {
        hidden_updates += r.tile_learning[tl].column_updates;
      }
      const bool none = g.rule == learning::HiddenRule::kNone;
      sweep.row({none ? "none (teacher only)" : "wta-stdp",
                 none ? "-" : util::fmt("%zu", g.wta_k),
                 none ? "-" : util::fmt("%.1fx", g.rate_scale),
                 util::fmt("%.1f", 100.0 * r.initial_accuracy),
                 util::fmt("%.1f", 100.0 * r.epochs.back().eval_accuracy),
                 util::fmt("%llu+%llu",
                           static_cast<unsigned long long>(hidden_updates),
                           static_cast<unsigned long long>(
                               r.tile_learning.back().column_updates)),
                 util::fmt("%.1f", util::in_picojoules(r.learning.energy))});
    }
    sweep.note("every grid point restarts from the same deployed snapshot; "
               "'drifted' is the pre-recovery accuracy on the permuted "
               "inputs (identical across rows by construction)");
    sweep.note("rate scale multiplies the hidden STDP base rates "
               "(p_pot 0.10, p_dep 0.025); the output teacher's rates are "
               "held fixed");
    sweep.print();
  }

  if (!json_path.empty()) {
    // Every metric is modelled (machine-independent), gated exactly by
    // check_bench.py. The gated ratio compares the serial (k=1) modelled
    // per-update cost against the widest commit window; host wall-clock
    // figures go under "info" and are never gated.
    bench::BenchJson json{"online_learning", smoke};
    for (const KPoint& p : kpoints) {
      const std::string k = "k" + std::to_string(p.k);
      json.metrics.insert(
          json.metrics.end(),
          {{k + ".accuracy", p.r.epochs.back().eval_accuracy},
           {k + ".column_updates",
            static_cast<double>(p.r.learning.column_updates)},
           {k + ".column_rmws", static_cast<double>(p.r.learning.column_rmws)},
           {k + ".train_cycles",
            static_cast<double>(p.r.epochs.back().train_cycles)},
           {k + ".train_time_us", util::in_microseconds(p.r.train_time)},
           {k + ".learning_energy_pj",
            util::in_picojoules(p.r.learning.energy)},
           {k + ".ns_per_update", p.ns_per_update}});
      json.info.emplace_back(k + ".host_wall_ns_per_update",
                             p.wall_ns_per_update);
    }
    json.ratios = {{"serial_over_batched_ns_per_update",
                    kpoints.front().ns_per_update /
                        kpoints.back().ns_per_update}};
    if (!json.write(json_path)) return 1;
  }
  return 0;
}
