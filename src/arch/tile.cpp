#include "esam/arch/tile.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "esam/tech/calibration.hpp"
#include "esam/util/simd.hpp"

namespace esam::arch {
namespace {

/// Energy of latching one row bit into the per-port output register that
/// feeds the neuron array (fitted jointly with the system anchors).
constexpr double kPortLatchEnergyPerBitFj = 0.75;
/// Row-decoder + RWL-driver energy per granted read, beyond the array-access
/// energy the Fig. 7 model accounts for.
constexpr double kRowDecodeDriveEnergyFj = 35.0;
/// Macro control / timing-generation energy per array with >= 1 grant in a
/// cycle.
constexpr double kMacroControlEnergyFj = 150.0;
/// Inter-tile binary-pulse fabric: energy per transmitted spike.
constexpr double kFabricEnergyPerSpikeFj = 6.0;

/// a = op(a, b) over every count; a's histograms grow to fit b's.
template <typename Op>
void fold_counts(TileStats& a, const TileStats& b, Op op) {
  for (std::uint64_t TileStats::*m :
       {&TileStats::busy_cycles, &TileStats::spikes_served,
        &TileStats::inferences, &TileStats::row_reads,
        &TileStats::input_spikes, &TileStats::active_row_group_cycles}) {
    a.*m = op(a.*m, b.*m);
  }
  for (std::vector<std::uint64_t> TileStats::*h :
       {&TileStats::arbiter_cycles, &TileStats::grant_cycles,
        &TileStats::row_group_grants}) {
    std::vector<std::uint64_t>& x = a.*h;
    const std::vector<std::uint64_t>& y = b.*h;
    if (x.size() < y.size()) x.resize(y.size(), 0);
    for (std::size_t i = 0; i < y.size(); ++i) x[i] = op(x[i], y[i]);
  }
}

}  // namespace

TileStats& TileStats::operator+=(const TileStats& o) {
  fold_counts(*this, o, std::plus<>{});
  return *this;
}

TileStats operator-(TileStats a, const TileStats& b) {
  fold_counts(a, b, std::minus<>{});
  return a;
}

Tile::Tile(const TechnologyParams& tech, TileConfig cfg)
    : tech_(&tech),
      cfg_(cfg),
      row_groups_((cfg.inputs + cfg.max_array_dim - 1) / cfg.max_array_dim),
      col_groups_((cfg.outputs + cfg.max_array_dim - 1) / cfg.max_array_dim),
      arbiter_model_(tech, cfg.max_array_dim,
                     std::max<std::size_t>(
                         sram::BitcellSpec::of(cfg.cell).read_ports, 1),
                     cfg.topology),
      neuron_model_(tech, cfg.neuron,
                    std::max<std::size_t>(
                        sram::BitcellSpec::of(cfg.cell).read_ports, 1)),
      output_spikes_(cfg.outputs),
      last_input_(cfg.inputs) {
  if (cfg_.inputs == 0 || cfg_.outputs == 0) {
    throw std::invalid_argument("Tile: inputs/outputs must be > 0");
  }
  cfg_.neuron.validate();
  const auto spec = sram::BitcellSpec::of(cfg_.cell);
  const std::size_t ports = std::max<std::size_t>(spec.read_ports, 1);
  macros_.reserve(row_groups_ * col_groups_);
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    for (std::size_t cg = 0; cg < col_groups_; ++cg) {
      macros_.emplace_back(
          tech, spec,
          sram::ArrayGeometry{array_rows(rg), array_cols(cg), cfg_.col_mux},
          cfg_.vprech);
    }
    arbiters_.emplace_back(array_rows(rg), ports);
  }
  vmem_.assign(cfg_.outputs, 0);
  vth_.assign(cfg_.outputs, 0);
  readout_offsets_.assign(cfg_.outputs, 0.0f);
  fire_vmem_.assign(cfg_.outputs, 0);
  ones_scratch_.assign(cfg_.outputs, 0);
  grant_scratch_.rows.reserve(ports);
  input_slice_scratch_.reserve(row_groups_);
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    input_slice_scratch_.emplace_back(array_rows(rg));
  }

  // The burst has a closed form when Vmem starts from zero and no partial
  // sum of +-1 terms (|sum| <= fan-in) can reach a saturation rail.
  const auto fan_in = static_cast<std::int64_t>(cfg_.inputs);
  closed_form_ = !cfg_.carry_membrane && fan_in <= cfg_.neuron.vmem_max() &&
                 -fan_in >= cfg_.neuron.vmem_min();
  rg_words_ = (cfg_.max_array_dim + 63) / 64;
  column_stride_ = row_groups_ * rg_words_;
  columns_.assign(cfg_.outputs * column_stride_, 0);
  column_stamps_.assign(macros_.size(), 0);
  input_words_.assign(column_stride_, 0);
  row_group_spikes_.assign(row_groups_, 0);

  // Unit energies of the counted events (see price).
  row_read_extra_.reserve(col_groups_);
  for (std::size_t cg = 0; cg < col_groups_; ++cg) {
    const double bits = static_cast<double>(array_cols(cg));
    row_read_extra_.push_back(util::femtojoules(
        kRowDecodeDriveEnergyFj + kPortLatchEnergyPerBitFj * bits));
  }
  macro_control_energy_ = util::femtojoules(kMacroControlEnergyFj *
                                            static_cast<double>(col_groups_));
  arb_ports_ = ports;
  arb_cycle_energy_.reserve((cfg_.max_array_dim + 1) * (ports + 1));
  for (std::size_t pending = 0; pending <= cfg_.max_array_dim; ++pending) {
    for (std::size_t g = 0; g <= ports; ++g) {
      arb_cycle_energy_.push_back(arbiter_model_.cycle_energy(pending, g));
    }
  }
  accumulate_energy_.reserve(row_groups_ * ports + 1);
  for (std::size_t g = 0; g <= row_groups_ * ports; ++g) {
    accumulate_energy_.push_back(neuron_model_.accumulate_energy(g) *
                                 static_cast<double>(cfg_.outputs));
  }
  compare_energy_total_ =
      neuron_model_.compare_energy() * static_cast<double>(cfg_.outputs);
  stats_.arbiter_cycles.assign(arb_cycle_energy_.size(), 0);
  stats_.grant_cycles.assign(accumulate_energy_.size(), 0);
  stats_.row_group_grants.assign(row_groups_, 0);
}

std::size_t Tile::array_rows(std::size_t row_group) const {
  const std::size_t begin = row_group * cfg_.max_array_dim;
  return std::min(cfg_.max_array_dim, cfg_.inputs - begin);
}

std::size_t Tile::array_cols(std::size_t col_group) const {
  const std::size_t begin = col_group * cfg_.max_array_dim;
  return std::min(cfg_.max_array_dim, cfg_.outputs - begin);
}

void Tile::load_layer(const nn::SnnLayer& layer) {
  if (layer.in_features() != cfg_.inputs ||
      layer.out_features() != cfg_.outputs ||
      layer.readout_offsets.size() != cfg_.outputs) {
    throw std::invalid_argument("Tile::load_layer: shape mismatch");
  }
  for (const BitVec& row : layer.weight_rows) {
    if (row.size() != cfg_.outputs) {
      throw std::invalid_argument("Tile::load_layer: weight row width");
    }
  }
  for (const std::int32_t vth : layer.thresholds) {
    if (!cfg_.neuron.vth_fits(vth)) {
      throw std::invalid_argument(
          "Tile::load_layer: Vth does not fit the t-bit register");
    }
  }
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    for (std::size_t cg = 0; cg < col_groups_; ++cg) {
      sram::SramMacro& m = macros_[rg * col_groups_ + cg];
      const std::size_t row0 = rg * cfg_.max_array_dim;
      const std::size_t col0 = cg * cfg_.max_array_dim;
      std::vector<BitVec> rows(m.geometry().rows, BitVec(m.geometry().cols));
      for (std::size_t r = 0; r < m.geometry().rows; ++r) {
        layer.weight_rows[row0 + r].slice_into(col0, rows[r]);
      }
      m.load(rows);
    }
  }
  vth_ = layer.thresholds;
  readout_offsets_ = layer.readout_offsets;
}

EnergyLedger Tile::price(const TileStats& counts) const {
  using util::EnergyCategory;
  const auto times = [](Energy unit, std::uint64_t n) {
    return unit * static_cast<double>(n);
  };
  EnergyLedger ledger;
  // Each grant reads one row of every column group: the array access plus
  // the decoder/driver and port latch. at() rejects another tile's counts.
  for (std::size_t rg = 0; rg < counts.row_group_grants.size(); ++rg) {
    for (std::size_t cg = 0; cg < col_groups_; ++cg) {
      ledger.add(EnergyCategory::kSramRead,
                 times(macro(rg, cg).inference_read_energy() +
                           row_read_extra_[cg],
                       counts.row_group_grants[rg]));
    }
  }
  for (std::size_t i = 0; i < counts.arbiter_cycles.size(); ++i) {
    ledger.add(EnergyCategory::kArbiter,
               times(arb_cycle_energy_.at(i), counts.arbiter_cycles[i]));
  }
  for (std::size_t g = 0; g < counts.grant_cycles.size(); ++g) {
    ledger.add(EnergyCategory::kNeuron,
               times(accumulate_energy_.at(g), counts.grant_cycles[g]));
  }
  ledger.add(EnergyCategory::kNeuron,
             times(compare_energy_total_, counts.inferences));
  ledger.add(EnergyCategory::kClock,
             times(macro_control_energy_, counts.active_row_group_cycles));
  ledger.add(EnergyCategory::kFabric,
             util::femtojoules(kFabricEnergyPerSpikeFj *
                               static_cast<double>(counts.input_spikes)));
  return ledger;
}

void Tile::attach_ledger(EnergyLedger* ledger) {
  ledger_.ledger = ledger;
  if (ledger != nullptr) latched_ = stats_;
}

void Tile::latch(const BitVec& input_spikes) {
  if (busy_) throw std::logic_error("Tile::start_inference: tile is busy");
  if (output_ready_) {
    throw std::logic_error(
        "Tile::start_inference: previous output not yet taken");
  }
  if (input_spikes.size() != cfg_.inputs) {
    throw std::invalid_argument("Tile::start_inference: spike width mismatch");
  }
  last_input_.assign(input_spikes);
  // Word-packed per-row-group slices of the tile-wide vector (a funnel
  // shift per word, not a per-bit test() loop).
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    input_spikes.slice_into(rg * cfg_.max_array_dim, input_slice_scratch_[rg]);
  }
  if (!cfg_.carry_membrane) std::fill(vmem_.begin(), vmem_.end(), 0);
  if (ledger_.ledger != nullptr) latched_ = stats_;
  // Received as parallel binary pulses over the fabric.
  stats_.input_spikes += input_spikes.count();
}

void Tile::start_inference(const BitVec& input_spikes) {
  latch(input_spikes);
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    arbiters_[rg].reset();
    arbiters_[rg].request(input_slice_scratch_[rg]);
  }
  busy_ = true;
}

void Tile::step() {
  if (!busy_) return;
  ++stats_.busy_cycles;

  // Every granted row read contributes +1 to the columns whose stored bit
  // is 1 and -1 to the rest, and each grant touches every column group;
  // with ones[j] = granted rows whose bit at neuron j's column is set, the
  // per-cycle delta is 2*ones[j] - total_grants. A granted row r is bit r
  // of every column's words, read from the macros in place.
  std::fill(ones_scratch_.begin(), ones_scratch_.end(), 0);
  std::size_t total_grants = 0;
  bool all_empty = true;

  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    arbiter::MultiPortArbiter& arb = arbiters_[rg];
    const std::size_t pending_before = arb.pending();
    if (pending_before == 0) continue;
    arb.arbitrate_into(grant_scratch_);
    const arbiter::GrantSet& grants = grant_scratch_;
    const std::size_t granted = grants.rows.size();
    ++stats_.arbiter_cycles[pending_before * (arb_ports_ + 1) + granted];
    total_grants += granted;
    stats_.spikes_served += granted;
    stats_.row_group_grants[rg] += granted;
    if (granted > 0) ++stats_.active_row_group_cycles;
    if (!grants.r_empty_after) all_empty = false;

    for (const std::size_t row : grants.rows) {
      const std::size_t word = row >> 6;
      const unsigned shift = row & 63;
      for (std::size_t cg = 0; cg < col_groups_; ++cg) {
        const sram::SramMacro& m = macros_[rg * col_groups_ + cg];
        ++stats_.row_reads;
        std::int32_t* ones = ones_scratch_.data() + cg * cfg_.max_array_dim;
        for (std::size_t c = 0; c < m.geometry().cols; ++c) {
          const std::uint64_t w = m.column_words(c)[word];
          ones[c] += static_cast<std::int32_t>((w >> shift) & 1u);
        }
      }
    }
  }

  if (total_grants > 0) {
    // Each cycle's sum saturates at the Vmem rails before the next cycle's.
    const auto grants32 = static_cast<std::int32_t>(total_grants);
    const std::int32_t lo = cfg_.neuron.vmem_min();
    const std::int32_t hi = cfg_.neuron.vmem_max();
    for (std::size_t j = 0; j < cfg_.outputs; ++j) {
      const std::int32_t delta = 2 * ones_scratch_[j] - grants32;
      vmem_[j] = std::clamp(vmem_[j] + delta, lo, hi);
    }
    ++stats_.grant_cycles[total_grants];
  }

  if (all_empty) fire_phase();
}

std::uint64_t Tile::run_inference(const BitVec& input_spikes) {
  if (closed_form_) {
    latch(input_spikes);
    return closed_form_burst();
  }
  start_inference(input_spikes);
  std::uint64_t cycles = 0;
  while (busy()) {
    step();
    check_cycle_limit(++cycles, kMaxBurstCycles,
                      "Tile::run_inference: burst cycle limit exceeded "
                      "(pipeline deadlock)");
  }
  return cycles;
}

void Tile::refresh_columns() {
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    for (std::size_t cg = 0; cg < col_groups_; ++cg) {
      const std::size_t mi = rg * col_groups_ + cg;
      const sram::SramMacro& m = macros_[mi];
      if (column_stamps_[mi] == m.stamp()) continue;
      column_stamps_[mi] = m.stamp();
      const std::size_t words = m.column_word_count();
      for (std::size_t c = 0; c < m.geometry().cols; ++c) {
        const std::size_t j = cg * cfg_.max_array_dim + c;
        const std::uint64_t* src = m.column_words(c);
        std::copy(src, src + words,
                  columns_.data() + j * column_stride_ + rg * rg_words_);
      }
    }
  }
}

std::uint64_t Tile::closed_form_burst() {
  refresh_columns();

  // Vmem: each served spike adds +1 where its row stores a 1 and -1
  // elsewhere, so after the burst vmem_j = 2 * |in & col_j| - |in|, in any
  // grant order (no partial sum saturates, see closed_form_).
  std::size_t total = 0;
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    const BitVec& slice = input_slice_scratch_[rg];
    std::copy(slice.words().begin(), slice.words().end(),
              input_words_.data() + rg * rg_words_);
    row_group_spikes_[rg] = slice.count();
    total += row_group_spikes_[rg];
  }
  const util::simd::Kernels& kern = util::simd::active();
  const auto total32 = static_cast<std::int32_t>(total);
  for (std::size_t j = 0; j < cfg_.outputs; ++j) {
    const auto ones = static_cast<std::int32_t>(
        kern.and_count(input_words_.data(),
                       columns_.data() + j * column_stride_, column_stride_));
    vmem_[j] = 2 * ones - total32;
  }

  // Events: each row-group arbiter grants min(pending, ports) rows per
  // cycle until it drains, so the counts step() would record follow from
  // the per-row-group spike counts alone. The tile fires on the cycle its
  // slowest row group drains, or on the first cycle when no spike came.
  const std::size_t p = arb_ports_;
  std::size_t cycles = 1;
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    const std::size_t s = row_group_spikes_[rg];
    cycles = std::max(cycles, (s + p - 1) / p);
    stats_.row_group_grants[rg] += s;
  }
  for (std::size_t c = 0; c < cycles; ++c) {
    std::size_t grants = 0;
    for (std::size_t rg = 0; rg < row_groups_; ++rg) {
      const std::size_t s = row_group_spikes_[rg];
      if (s <= c * p) continue;
      const std::size_t pending = s - c * p;
      const std::size_t g = std::min(p, pending);
      ++stats_.arbiter_cycles[pending * (p + 1) + g];
      ++stats_.active_row_group_cycles;
      grants += g;
    }
    if (grants > 0) ++stats_.grant_cycles[grants];
  }
  stats_.busy_cycles += cycles;
  stats_.spikes_served += total;
  stats_.row_reads += total * col_groups_;
  fire_phase();
  return cycles;
}

void Tile::fire_phase() {
  // R_empty: every neuron compares Vmem >= Vth; firing neurons raise their
  // request bits and reset. The pre-reset membrane is snapshotted first so
  // learning observers can rank the fired columns (reusing fixed storage).
  fire_vmem_ = vmem_;
  output_spikes_.clear();
  if (!cfg_.is_output_layer) {  // readout tiles expose Vmem instead
    for (std::size_t j = 0; j < cfg_.outputs; ++j) {
      if (vmem_[j] >= vth_[j]) {
        output_spikes_.set(j);
        vmem_[j] = 0;
      }
    }
  }
  busy_ = false;
  output_ready_ = true;
  ++stats_.inferences;
  if (ledger_.ledger != nullptr) *ledger_.ledger += price(stats_ - latched_);
}

void Tile::take_output_into(BitVec& out) {
  if (!output_ready_) throw std::logic_error("Tile::take_output: no output");
  if (cfg_.is_output_layer) {
    throw std::logic_error("Tile::take_output: output layer exposes Vmem");
  }
  output_ready_ = false;
  out = output_spikes_;
}

BitVec Tile::take_output() {
  BitVec out;
  take_output_into(out);
  return out;
}

std::size_t Tile::winner() const {
  std::size_t best = 0;
  float best_score = 0.0f;
  for (std::size_t j = 0; j < cfg_.outputs; ++j) {
    const float score =
        static_cast<float>(vmem_[j]) - readout_offsets_[j];
    if (j == 0 || score > best_score) {
      best = j;
      best_score = score;
    }
  }
  return best;
}

void Tile::consume_output() {
  if (!output_ready_) throw std::logic_error("Tile::consume_output: no output");
  output_ready_ = false;
}

void Tile::adjust_readout_offset(std::size_t neuron, float delta) {
  readout_offsets_.at(neuron) += delta;
}

void Tile::copy_column_from(const Tile& src, std::size_t j) {
  if (src.cfg_.inputs != cfg_.inputs || src.cfg_.outputs != cfg_.outputs ||
      src.cfg_.max_array_dim != cfg_.max_array_dim) {
    throw std::invalid_argument("Tile::copy_column_from: shape mismatch");
  }
  if (j >= cfg_.outputs) {
    throw std::out_of_range("Tile::copy_column_from: column out of range");
  }
  const std::size_t cg = j / cfg_.max_array_dim;
  const std::size_t local_col = j % cfg_.max_array_dim;
  // Mirror the *observable* column: read_column applies src's fault mask,
  // so a clone with an identical fault map ends up observationally
  // identical even where stuck cells diverge from what was written.
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    macro(rg, cg).write_column(local_col,
                               src.macro(rg, cg).read_column(local_col));
  }
  readout_offsets_.at(j) = src.readout_offsets_.at(j);
}

void Tile::reset_membranes() { std::fill(vmem_.begin(), vmem_.end(), 0); }

std::size_t Tile::pending_requests() const {
  std::size_t n = 0;
  for (const auto& arb : arbiters_) n += arb.pending();
  return n;
}

Time Tile::clock_period() const {
  const std::size_t idx = sram::index_of(cfg_.cell);
  const double arb_ns = tech::calib::kTable2ArbiterNs[idx];
  const double sram_neuron_ns = tech::calib::kTable2SramNeuronNs[idx];
  return util::nanoseconds(std::max(arb_ns, sram_neuron_ns) *
                           cfg_.clock_derate);
}

Area Tile::array_area() const {
  Area total{};
  for (const auto& m : macros_) total += m.timing().array_area();
  return total;
}

Area Tile::arbiter_area() const {
  return arbiter_model_.area() * static_cast<double>(row_groups_);
}

Area Tile::neuron_area() const {
  return neuron_model_.area_per_neuron() * static_cast<double>(cfg_.outputs);
}

Area Tile::area() const {
  return array_area() + arbiter_area() + neuron_area();
}

Power Tile::leakage() const {
  Power total{};
  for (const auto& m : macros_) total += m.timing().leakage();
  total += arbiter_model_.leakage() * static_cast<double>(row_groups_);
  total +=
      neuron_model_.leakage_per_neuron() * static_cast<double>(cfg_.outputs);
  return total;
}

std::size_t Tile::flop_count() const {
  const std::size_t ports =
      std::max<std::size_t>(sram::BitcellSpec::of(cfg_.cell).read_ports, 1);
  const std::size_t neuron_bits =
      cfg_.outputs * (cfg_.neuron.vmem_bits + cfg_.neuron.vth_bits + 2);
  const std::size_t arbiter_bits = cfg_.inputs;  // request registers
  // One port-output register per column group per port.
  const std::size_t port_regs = col_groups_ * cfg_.max_array_dim * ports;
  return neuron_bits + arbiter_bits + port_regs;
}

nn::SnnLayer Tile::export_layer() const {
  nn::SnnLayer layer;
  layer.weight_rows.assign(cfg_.inputs, BitVec(cfg_.outputs));
  for (std::size_t rg = 0; rg < row_groups_; ++rg) {
    for (std::size_t cg = 0; cg < col_groups_; ++cg) {
      const sram::SramMacro& m = macros_[rg * col_groups_ + cg];
      const std::size_t row0 = rg * cfg_.max_array_dim;
      const std::size_t col0 = cg * cfg_.max_array_dim;
      for (std::size_t c = 0; c < m.geometry().cols; ++c) {
        // read_column applies the stuck-at masks, so the export is what an
        // inference would actually observe on a faulty array.
        m.read_column(c).for_each_set([&](std::size_t r) {
          layer.weight_rows[row0 + r].set(col0 + c);
        });
      }
    }
  }
  layer.thresholds = vth_;
  layer.readout_offsets = readout_offsets_;
  return layer;
}

sram::SramMacro& Tile::macro(std::size_t row_group, std::size_t col_group) {
  return macros_.at(row_group * col_groups_ + col_group);
}

const sram::SramMacro& Tile::macro(std::size_t row_group,
                                   std::size_t col_group) const {
  return macros_.at(row_group * col_groups_ + col_group);
}

}  // namespace esam::arch
