// esam -- command-line front end to the ESAM reproduction.
//
// The CLI is a verb registry: every subcommand is a VerbDef row binding a
// name to a handler, a positional-argument spec and the exact set of options
// it accepts (drawn from one shared OptionDef table, so a flag means the
// same thing everywhere it is legal). `esam help` and `esam help <verb>` are
// generated from the same tables -- the usage text cannot drift from the
// parser.
//
//   esam info                         technology + cell variant summary
//   esam report [options]             train/load the model, run the system,
//                                     print the Fig. 8 / Table 3 metrics
//   esam sweep-cells [options]        all five cells side by side (Fig. 8)
//   esam sweep-vprech                 the Fig. 7 precharge-voltage study
//   esam learn                        sec. 4.4.1 learning-cost comparison
//   esam checkpoint save|load|info F  persist / redeploy / inspect weights
//   esam checkpoint diff A B          per-layer weight diff + lineage check
//   esam serve [options]              in-process inference-server demo
//   esam fleet [options]              fleet-scale multi-device simulation
//   esam help [verb]                  generated usage
#include <atomic>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "esam/arch/trace.hpp"
#include "esam/core/esam.hpp"
#include "esam/fleet/fleet.hpp"
#include "esam/io/checkpoint.hpp"
#include "esam/learning/online_learner.hpp"
#include "esam/serve/server.hpp"
#include "esam/sram/timing.hpp"
#include "esam/util/parallel.hpp"
#include "esam/util/parse.hpp"
#include "esam/util/simd.hpp"
#include "esam/util/table.hpp"

using namespace esam;

namespace {

// ---------------------------------------------------------------------------
// Option registry: one definition per flag, shared by every verb that
// accepts it. Verbs opt into flags by OptId; anything else is rejected with
// a pointer at `esam help <verb>`.

enum class OptId {
  kCell,
  kVprech,
  kInferences,
  kTrace,
  kLowPower,
  kThreads,
  kLearn,
  kEpochs,
  kDrift,
  kHiddenRule,
  kWtaK,
  kHoldout,
  kUpdateInterval,
  kNote,
  kCheckpoint,
  kClients,
  kRequests,
  kWorkers,
  kMaxBatch,
  kMaxDelayUs,
  kAdapt,
  kAdaptBatch,
  kSimd,
  kDevices,
  kDefectRate,
  kSigma,
  kSeed,
};

struct OptionDef {
  OptId id;
  const char* flag;
  const char* value;  ///< metavariable, nullptr for boolean flags
  const char* help;
};

const OptionDef kOptionTable[] = {
    {OptId::kCell, "--cell", "NAME",
     "1RW | 1RW+1R | 1RW+2R | 1RW+3R | 1RW+4R (default 1RW+4R)"},
    {OptId::kVprech, "--vprech", "MV",
     "precharge voltage in millivolts (default 500)"},
    {OptId::kInferences, "--inferences", "N",
     "test inferences to stream (default 500, 0 = all)"},
    {OptId::kTrace, "--trace", "FILE.vcd",
     "write a pipeline activity trace (runs the cycle-by-cycle lockstep "
     "engine; results are bit-identical)"},
    {OptId::kLowPower, "--low-power", nullptr,
     "use the HVT 500 mV operating point"},
    {OptId::kThreads, "--threads", "N",
     "host threads sharding the simulation (0 = all cores, default 1); "
     "modelled output does not depend on it"},
    {OptId::kLearn, "--learn", nullptr,
     "drift the inputs and adapt the deployed weights in the field"},
    {OptId::kEpochs, "--epochs", "N",
     "train/eval rounds for --learn (default 2)"},
    {OptId::kDrift, "--drift", "F",
     "fraction of input positions permuted by the drift, in [0, 1] "
     "(default 0.25)"},
    {OptId::kHiddenRule, "--hidden-rule", "NAME",
     "hidden-tile plasticity: none | wta-stdp (default none; the output "
     "tile always runs the supervised teacher)"},
    {OptId::kWtaK, "--wta-k", "N",
     "winning columns per inference for wta-stdp (default 1)"},
    {OptId::kHoldout, "--holdout", "F",
     "hold out this fraction of the samples as a separate eval stream, "
     "in [0, 1) (default 0 = eval on the training stream)"},
    {OptId::kUpdateInterval, "--update-interval", "K",
     "k-step delayed updates: commit staged column updates every K "
     "training samples (default 1 = immediate updates)"},
    {OptId::kNote, "--note", "TEXT",
     "free-form note stored in the checkpoint metadata"},
    {OptId::kCheckpoint, "--checkpoint", "FILE",
     "serve this checkpoint instead of training/loading the model"},
    {OptId::kClients, "--clients", "N",
     "concurrent client threads (default 4)"},
    {OptId::kRequests, "--requests", "N",
     "requests per client (0 = split the test stream round-robin)"},
    {OptId::kWorkers, "--workers", "N",
     "server worker threads, each with its own pipeline (default 2)"},
    {OptId::kMaxBatch, "--max-batch", "N",
     "dispatch a batch once this many requests are queued (default 16)"},
    {OptId::kMaxDelayUs, "--max-delay-us", "F",
     "latency budget: dispatch a partial batch once its oldest request "
     "waited this long (default 200)"},
    {OptId::kAdapt, "--adapt", nullptr,
     "background adaptation: train on labeled requests and publish new "
     "checkpoints while serving"},
    {OptId::kAdaptBatch, "--adapt-batch", "N",
     "labeled samples per adaptation round (default 32)"},
    {OptId::kSimd, "--simd", "NAME",
     "kernel backend: scalar | avx2 | neon (default: best available; the "
     "ESAM_SIMD env var sets the same thing)"},
    {OptId::kDevices, "--devices", "N",
     "simulated dies in the fleet (default 16)"},
    {OptId::kDefectRate, "--defect-rate", "F",
     "per-bitcell stuck-at probability per die, in [0, 1] (default 1e-3)"},
    {OptId::kSigma, "--sigma", "F",
     "process-variation sigma fraction per die, in [0, 1] (default 0.04)"},
    {OptId::kSeed, "--seed", "N",
     "fleet base seed; per-die streams are splitmix64-derived from it "
     "(default 2026)"},
};

const OptionDef* find_option(const std::string& flag) {
  for (const OptionDef& o : kOptionTable) {
    if (flag == o.flag) return &o;
  }
  return nullptr;
}

/// Parsed values of every option (each verb reads only the ones it allows).
struct CliOptions {
  sram::CellKind cell = sram::CellKind::k1RW4R;
  double vprech_mv = 500.0;
  std::size_t inferences = 500;
  std::string trace_path;
  bool low_power = false;
  std::size_t threads = 1;
  bool learn = false;
  std::size_t epochs = 2;
  double drift = 0.25;
  learning::HiddenRule hidden_rule = learning::HiddenRule::kNone;
  std::size_t wta_k = 1;
  double holdout = 0.0;
  std::size_t update_interval = 1;
  std::string note;
  std::string checkpoint_path;
  std::size_t clients = 4;
  std::size_t requests = 0;
  std::size_t workers = 2;
  std::size_t max_batch = 16;
  double max_delay_us = 200.0;
  bool adapt = false;
  std::size_t adapt_batch = 32;
  std::size_t devices = 16;
  double defect_rate = 1e-3;
  double sigma = 0.04;
  std::size_t seed = 2026;
};

std::optional<sram::CellKind> parse_cell(const std::string& name) {
  for (sram::CellKind k : sram::kAllCellKinds) {
    if (name == sram::to_string(k)) return k;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Verb registry.

struct VerbDef {
  const char* name;
  const char* positional_usage;  ///< e.g. "save|load|info FILE", "" for none
  const char* summary;           ///< one-liner for `esam help`
  const char* description;       ///< body of `esam help <verb>`
  std::size_t min_positionals;
  std::size_t max_positionals;
  std::initializer_list<OptId> options;
  int (*handler)(const CliOptions&, const std::vector<std::string>&);
};

// Handlers (defined below the registry helpers).
int cmd_info(const CliOptions&, const std::vector<std::string>&);
int cmd_report(const CliOptions&, const std::vector<std::string>&);
int cmd_sweep_cells(const CliOptions&, const std::vector<std::string>&);
int cmd_sweep_vprech(const CliOptions&, const std::vector<std::string>&);
int cmd_learn(const CliOptions&, const std::vector<std::string>&);
int cmd_checkpoint(const CliOptions&, const std::vector<std::string>&);
int cmd_serve(const CliOptions&, const std::vector<std::string>&);
int cmd_fleet(const CliOptions&, const std::vector<std::string>&);
int cmd_help(const CliOptions&, const std::vector<std::string>&);

const VerbDef kVerbs[] = {
    {"info", "", "technology + cell variant summary",
     "Prints the 3nm technology parameters (nominal and low-power nodes)\n"
     "and the five bitcell variants' area/timing/port characteristics.",
     0, 0, {}, cmd_info},
    {"report", "",
     "train/load the model, run the system, print the Fig. 8 metrics",
     "Trains the BNN (or loads the cached model), deploys it on the selected\n"
     "cell/voltage configuration and streams test inferences through the\n"
     "cycle-accurate pipeline (the fast software-pipelined engine; --trace\n"
     "runs the lockstep engine instead, with identical results). With\n"
     "--learn it instead runs the online-learning scenario: drift the\n"
     "inputs, adapt the deployed weights in the field, report accuracy\n"
     "recovery and the update cost.",
     0, 0,
     {OptId::kCell, OptId::kVprech, OptId::kInferences, OptId::kTrace,
      OptId::kLowPower, OptId::kThreads, OptId::kLearn,
      OptId::kEpochs, OptId::kDrift, OptId::kHiddenRule, OptId::kWtaK,
      OptId::kHoldout, OptId::kUpdateInterval, OptId::kSimd},
     cmd_report},
    {"sweep-cells", "", "all five cells side by side (Fig. 8)",
     "Evaluates the same trained model on every bitcell variant and prints\n"
     "the Fig. 8 comparison table.",
     0, 0,
     {OptId::kVprech, OptId::kInferences, OptId::kThreads, OptId::kSimd},
     cmd_sweep_cells},
    {"sweep-vprech", "", "the Fig. 7 precharge-voltage study",
     "Analytic per-op access time/energy across precharge voltages and read\n"
     "port counts; no model or pipeline is built.",
     0, 0, {}, cmd_sweep_vprech},
    {"learn", "", "sec. 4.4.1 column-update cost comparison",
     "Analytic read-modify-write cost of one column update per cell variant\n"
     "vs the 6T baseline; no model or pipeline is built.",
     0, 0, {}, cmd_learn},
    {"checkpoint", "save|load|info FILE | diff FILE FILE",
     "persist, redeploy, inspect or compare deployed weights",
     "save FILE  trains (or loads the cached) model, optionally adapts it in\n"
     "           the field first (--learn and its knobs), then snapshots the\n"
     "           live SRAM weights into FILE (--note attaches metadata).\n"
     "load FILE  deploys FILE into freshly built hardware -- no retraining --\n"
     "           and evaluates it on the standard test stream.\n"
     "info FILE  prints the checkpoint metadata and shape without building\n"
     "           any hardware.\n"
     "diff A B   compares two checkpoints layer by layer (weight bits that\n"
     "           differ) and verifies the lineage link: does B record A's\n"
     "           content CRC as its parent?",
     2, 3,
     {OptId::kCell, OptId::kVprech, OptId::kLowPower, OptId::kInferences,
      OptId::kThreads, OptId::kLearn, OptId::kEpochs,
      OptId::kDrift, OptId::kHiddenRule, OptId::kWtaK, OptId::kHoldout,
      OptId::kUpdateInterval, OptId::kNote, OptId::kSimd},
     cmd_checkpoint},
    {"serve", "", "in-process inference-server demo",
     "Deploys a model (--checkpoint FILE, or the trained/cached model) into\n"
     "a serve::InferenceServer and drives it with concurrent client threads\n"
     "submitting test images. Requests are dynamically batched: a batch\n"
     "dispatches when it reaches --max-batch requests or when its oldest\n"
     "request has waited --max-delay-us, whichever comes first. Without\n"
     "--adapt the served predictions are checked bit-identical against an\n"
     "offline run of the same checkpoint. With --adapt, labeled requests\n"
     "train a background model copy that is atomically republished while\n"
     "serving continues.",
     0, 0,
     {OptId::kCell, OptId::kVprech, OptId::kLowPower, OptId::kInferences,
      OptId::kCheckpoint, OptId::kClients, OptId::kRequests, OptId::kWorkers,
      OptId::kMaxBatch, OptId::kMaxDelayUs, OptId::kAdapt, OptId::kAdaptBatch,
      OptId::kUpdateInterval, OptId::kHiddenRule, OptId::kWtaK, OptId::kSimd},
     cmd_serve},
    {"fleet", "", "fleet-scale multi-device simulation",
     "Trains (or loads the cached) model once and deploys it onto --devices\n"
     "simulated dies. Each die draws its own splitmix64-derived Monte-Carlo\n"
     "streams from --seed: a process-variation corner (--sigma), a stuck-at\n"
     "fault map (--defect-rate) and an input-drift trajectory (--drift).\n"
     "Every die runs its shard of the test stream (--inferences samples,\n"
     "wrapping around the shared stream), then adapts in the field through\n"
     "the per-tile rule engine (--epochs rounds, --update-interval commit\n"
     "window). The fleet report aggregates\n"
     "timing yield, functional yield and accuracy/energy distributions\n"
     "(min/p50/p99.7) across dies. --workers fans device simulation out\n"
     "over a host worker pool; reports are bit-identical for any worker\n"
     "count.",
     0, 0,
     {OptId::kDevices, OptId::kWorkers, OptId::kInferences, OptId::kCell,
      OptId::kVprech, OptId::kLowPower, OptId::kEpochs,
      OptId::kUpdateInterval, OptId::kDrift, OptId::kDefectRate,
      OptId::kSigma, OptId::kSeed, OptId::kHiddenRule, OptId::kWtaK,
      OptId::kSimd},
     cmd_fleet},
    {"help", "[verb]", "this overview, or one verb's options",
     "Prints the verb table, or the usage, description and accepted options\n"
     "of a single verb. All of it is generated from the same registry the\n"
     "parser uses.",
     0, 1, {}, cmd_help},
};

const VerbDef* find_verb(const std::string& name) {
  for (const VerbDef& v : kVerbs) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

bool verb_allows(const VerbDef& verb, OptId id) {
  for (OptId o : verb.options) {
    if (o == id) return true;
  }
  return false;
}

void print_verb_usage_line(const VerbDef& verb, std::FILE* out) {
  std::fprintf(out, "usage: esam %s%s%s%s\n", verb.name,
               verb.positional_usage[0] != '\0' ? " " : "",
               verb.positional_usage,
               verb.options.size() != 0 ? " [options]" : "");
}

int help_overview(std::FILE* out) {
  std::fprintf(out, "usage: esam <verb> [options]\n\nverbs:\n");
  for (const VerbDef& v : kVerbs) {
    std::string head = v.name;
    if (v.positional_usage[0] != '\0') {
      head += ' ';
      head += v.positional_usage;
    }
    std::fprintf(out, "  %-26s %s\n", head.c_str(), v.summary);
  }
  std::fprintf(out, "\nrun 'esam help <verb>' for per-verb options\n");
  return out == stderr ? 2 : 0;
}

int help_verb(const VerbDef& verb, std::FILE* out) {
  print_verb_usage_line(verb, out);
  std::fprintf(out, "\n%s\n", verb.description);
  if (verb.options.size() != 0) {
    std::fprintf(out, "\noptions:\n");
    for (OptId id : verb.options) {
      for (const OptionDef& o : kOptionTable) {
        if (o.id != id) continue;
        std::string head = o.flag;
        if (o.value != nullptr) {
          head += ' ';
          head += o.value;
        }
        std::fprintf(out, "  %-20s %s\n", head.c_str(), o.help);
      }
    }
    std::fprintf(out,
                 "\nnumeric flags take plain non-negative numbers "
                 "(e.g. --threads 4, --drift 0.25)\n");
  }
  return out == stderr ? 2 : 0;
}

// ---------------------------------------------------------------------------
// Option parsing: one strict table-driven pass, scoped to the verb's
// accepted set. Numeric flags reject signs, garbage and overflow instead of
// the atoll-style silent wrap ("--threads -1" used to become SIZE_MAX).

struct ParsedArgs {
  CliOptions opt;
  std::vector<std::string> positionals;
};

std::optional<ParsedArgs> parse_args(const VerbDef& verb, int argc,
                                     char** argv, int first) {
  ParsedArgs out;
  CliOptions& opt = out.opt;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out.positionals.push_back(arg);
      continue;
    }
    const OptionDef* def = find_option(arg);
    if (def == nullptr || !verb_allows(verb, def->id)) {
      std::fprintf(stderr,
                   "esam: unknown option '%s' for verb '%s' "
                   "(see 'esam help %s')\n",
                   arg.c_str(), verb.name, verb.name);
      return std::nullopt;
    }
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "esam: %s expects a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    auto need_size = [&](std::size_t& dst) -> bool {
      const char* v = need_value();
      if (v == nullptr) return false;
      const auto parsed = util::parse_size(v);
      if (!parsed) {
        std::fprintf(stderr,
                     "esam: %s expects a non-negative integer, got '%s'\n",
                     arg.c_str(), v);
        return false;
      }
      dst = *parsed;
      return true;
    };
    auto need_double = [&](double& dst, double lo, double hi) -> bool {
      const char* v = need_value();
      if (v == nullptr) return false;
      const auto parsed = util::parse_double(v);
      if (!parsed || *parsed < lo || *parsed > hi) {
        std::fprintf(stderr,
                     "esam: %s expects a number in [%g, %g], got '%s'\n",
                     arg.c_str(), lo, hi, v);
        return false;
      }
      dst = *parsed;
      return true;
    };
    auto need_string = [&](std::string& dst) -> bool {
      const char* v = need_value();
      if (v == nullptr) return false;
      dst = v;
      return true;
    };
    switch (def->id) {
      case OptId::kCell: {
        const char* v = need_value();
        if (v == nullptr) return std::nullopt;
        const auto cell = parse_cell(v);
        if (!cell) {
          std::fprintf(stderr, "unknown cell '%s'\n", v);
          return std::nullopt;
        }
        opt.cell = *cell;
        break;
      }
      case OptId::kVprech:
        if (!need_double(opt.vprech_mv, 1.0, 10000.0)) return std::nullopt;
        break;
      case OptId::kInferences:
        if (!need_size(opt.inferences)) return std::nullopt;
        break;
      case OptId::kTrace:
        if (!need_string(opt.trace_path)) return std::nullopt;
        break;
      case OptId::kLowPower:
        opt.low_power = true;
        break;
      case OptId::kThreads:
        if (!need_size(opt.threads)) return std::nullopt;
        break;
      case OptId::kLearn:
        opt.learn = true;
        break;
      case OptId::kEpochs:
        if (!need_size(opt.epochs)) return std::nullopt;
        if (opt.epochs == 0) {
          std::fprintf(stderr, "esam: --epochs must be >= 1\n");
          return std::nullopt;
        }
        break;
      case OptId::kDrift:
        if (!need_double(opt.drift, 0.0, 1.0)) return std::nullopt;
        break;
      case OptId::kHiddenRule: {
        const char* v = need_value();
        if (v == nullptr) return std::nullopt;
        const auto rule = learning::parse_hidden_rule(v);
        if (!rule) {
          std::fprintf(stderr,
                       "esam: unknown hidden rule '%s' (none | wta-stdp)\n",
                       v);
          return std::nullopt;
        }
        opt.hidden_rule = *rule;
        break;
      }
      case OptId::kWtaK:
        if (!need_size(opt.wta_k)) return std::nullopt;
        if (opt.wta_k == 0) {
          std::fprintf(stderr, "esam: --wta-k must be >= 1\n");
          return std::nullopt;
        }
        break;
      case OptId::kHoldout:
        if (!need_double(opt.holdout, 0.0, 0.99)) return std::nullopt;
        break;
      case OptId::kUpdateInterval:
        if (!need_size(opt.update_interval)) return std::nullopt;
        if (opt.update_interval == 0) {
          std::fprintf(stderr, "esam: --update-interval must be >= 1\n");
          return std::nullopt;
        }
        break;
      case OptId::kNote:
        if (!need_string(opt.note)) return std::nullopt;
        break;
      case OptId::kCheckpoint:
        if (!need_string(opt.checkpoint_path)) return std::nullopt;
        break;
      case OptId::kClients:
        if (!need_size(opt.clients)) return std::nullopt;
        break;
      case OptId::kRequests:
        if (!need_size(opt.requests)) return std::nullopt;
        break;
      case OptId::kWorkers:
        if (!need_size(opt.workers)) return std::nullopt;
        break;
      case OptId::kMaxBatch:
        if (!need_size(opt.max_batch)) return std::nullopt;
        break;
      case OptId::kMaxDelayUs:
        if (!need_double(opt.max_delay_us, 0.0, 1e9)) return std::nullopt;
        break;
      case OptId::kAdapt:
        opt.adapt = true;
        break;
      case OptId::kAdaptBatch:
        if (!need_size(opt.adapt_batch)) return std::nullopt;
        break;
      case OptId::kSimd: {
        const char* v = need_value();
        if (v == nullptr) return std::nullopt;
        const auto backend = util::simd::parse_backend(v);
        if (!backend) {
          std::fprintf(stderr,
                       "esam: unknown SIMD backend '%s' "
                       "(scalar | avx2 | neon)\n",
                       v);
          return std::nullopt;
        }
        // Applied immediately: the backend is process-wide kernel dispatch,
        // not per-run state.
        if (!util::simd::set_active_backend(*backend)) {
          std::fprintf(stderr,
                       "esam: SIMD backend '%s' is not available on this "
                       "host (see 'esam info')\n",
                       v);
          return std::nullopt;
        }
        break;
      }
      case OptId::kDevices:
        if (!need_size(opt.devices)) return std::nullopt;
        if (opt.devices == 0) {
          std::fprintf(stderr, "esam: --devices must be >= 1\n");
          return std::nullopt;
        }
        break;
      case OptId::kDefectRate:
        if (!need_double(opt.defect_rate, 0.0, 1.0)) return std::nullopt;
        break;
      case OptId::kSigma:
        if (!need_double(opt.sigma, 0.0, 1.0)) return std::nullopt;
        break;
      case OptId::kSeed:
        if (!need_size(opt.seed)) return std::nullopt;
        break;
    }
  }
  if (out.positionals.size() < verb.min_positionals ||
      out.positionals.size() > verb.max_positionals) {
    print_verb_usage_line(verb, stderr);
    return std::nullopt;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared handler plumbing.

const tech::TechnologyParams& node_of(const CliOptions& opt) {
  return opt.low_power ? tech::imec3nm_low_power() : tech::imec3nm();
}

arch::SystemConfig hw_of(const CliOptions& opt) {
  arch::SystemConfig hw;
  hw.cell = opt.cell;
  hw.vprech = opt.low_power ? node_of(opt).vprech_nominal
                            : util::millivolts(opt.vprech_mv);
  hw.clock_derate = opt.low_power ? 2.5 : 1.0;
  return hw;
}

core::TrainedModel load_model() {
  core::ModelConfig mc;
  mc.verbose = true;
  return core::TrainedModel::create(mc);
}

/// The standard evaluation stream: same source/seed/size as the default
/// ModelConfig, so a redeployed checkpoint is measured against the same test
/// set its model was evaluated on (the training half is not needed).
data::PreparedDataset load_eval_stream() {
  core::ModelConfig mc;
  return data::load_default_split(0, mc.n_test, mc.data_seed).test;
}

core::OnlineOptions online_options(const CliOptions& opt) {
  core::OnlineOptions oo;
  oo.max_inferences = opt.inferences;
  oo.epochs = opt.epochs;
  oo.drift_fraction = opt.drift;
  oo.trainer.hidden_rule = opt.hidden_rule;
  oo.trainer.wta_k = opt.wta_k;
  oo.holdout_fraction = opt.holdout;
  oo.update_interval = opt.update_interval;
  oo.run = {.num_threads = opt.threads};
  return oo;
}

std::string shape_string(const std::vector<std::size_t>& shape) {
  std::string s;
  for (std::size_t d : shape) {
    if (!s.empty()) s += ':';
    s += std::to_string(d);
  }
  return s;
}

void print_checkpoint_info(const std::string& path,
                           const io::Checkpoint& ckpt) {
  std::uint64_t weight_bits = 0;
  std::size_t neurons = 0;
  for (const nn::SnnLayer& l : ckpt.network.layers()) {
    weight_bits += l.in_features() * l.out_features();
    neurons += l.out_features();
  }
  util::Table table("checkpoint: " + path);
  table.header({"field", "value"});
  table.row(
      {"format version", util::fmt("%u", io::Checkpoint::kFormatVersion)});
  table.row({"layers", util::fmt("%zu", ckpt.network.layers().size())});
  table.row({"shape", shape_string(ckpt.shape())});
  table.row({"neurons", util::fmt("%zu", neurons)});
  table.row(
      {"synapses",
       util::fmt("%llu", static_cast<unsigned long long>(weight_bits))});
  table.row({"file bytes", util::fmt("%zu", ckpt.encode().size())});
  if (ckpt.meta.created_unix != 0) {
    const auto t = static_cast<std::time_t>(ckpt.meta.created_unix);
    char buf[64] = {0};
    std::tm tm_utc{};
    if (gmtime_r(&t, &tm_utc) != nullptr) {
      std::strftime(buf, sizeof buf, "%Y-%m-%d %H:%M:%S UTC", &tm_utc);
    }
    table.row({"created", buf});
  }
  table.row({"source", ckpt.meta.source.empty() ? "-" : ckpt.meta.source});
  table.row({"note", ckpt.meta.note.empty() ? "-" : ckpt.meta.note});
  table.row({"content CRC-32", util::fmt("%08x", ckpt.content_crc())});
  table.row({"parent CRC-32",
             ckpt.meta.parent_crc == 0
                 ? std::string("- (no recorded parent)")
                 : util::fmt("%08x", ckpt.meta.parent_crc)});
  table.print();
}

/// `esam checkpoint diff A B`: per-layer weight diff plus the lineage
/// verdict (does B record A's content CRC as its parent?).
int cmd_checkpoint_diff(const std::string& path_a, const std::string& path_b) {
  const io::Checkpoint a = io::Checkpoint::load(path_a);
  const io::Checkpoint b = io::Checkpoint::load(path_b);
  if (a.shape() != b.shape()) {
    std::fprintf(stderr,
                 "esam: checkpoint shapes differ (%s vs %s); no weight "
                 "diff is defined\n",
                 shape_string(a.shape()).c_str(),
                 shape_string(b.shape()).c_str());
    return 1;
  }

  util::Table table("checkpoint diff: " + path_a + " -> " + path_b);
  table.header({"layer", "shape", "weight bits differing"});
  std::uint64_t total = 0;
  const auto& la = a.network.layers();
  const auto& lb = b.network.layers();
  for (std::size_t i = 0; i < la.size(); ++i) {
    const std::size_t d = nn::weight_diff_count(la[i], lb[i]);
    total += d;
    table.row({util::fmt("%zu", i),
               util::fmt("%zu x %zu", la[i].in_features(),
                         la[i].out_features()),
               util::fmt("%zu", d)});
  }
  table.row({"total", shape_string(a.shape()),
             util::fmt("%llu", static_cast<unsigned long long>(total))});
  table.print();

  const std::uint32_t a_crc = a.content_crc();
  if (b.meta.parent_crc == 0) {
    std::printf("lineage: %s records no parent\n", path_b.c_str());
  } else if (b.meta.parent_crc == a_crc) {
    std::printf("lineage: MATCH -- %s is a child of %s (parent CRC %08x)\n",
                path_b.c_str(), path_a.c_str(), a_crc);
  } else {
    std::printf(
        "lineage: MISMATCH -- %s records parent CRC %08x, but %s has "
        "content CRC %08x\n",
        path_b.c_str(), b.meta.parent_crc, path_a.c_str(), a_crc);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Verb handlers. Existing verbs keep their exact behavior and flags.

int cmd_info(const CliOptions&, const std::vector<std::string>&) {
  namespace simd = util::simd;
  std::string available;
  for (simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (!simd::available(b)) continue;
    if (!available.empty()) available += ' ';
    available += simd::backend_name(b);
  }
  std::printf(
      "SIMD kernel backend: %s (available: %s; override with ESAM_SIMD or "
      "--simd)\n\n",
      simd::active_backend_name(), available.c_str());
  for (const tech::TechnologyParams* t :
       {&tech::imec3nm(), &tech::imec3nm_low_power()}) {
    util::Table table(std::string("technology: ") + t->name);
    table.header({"parameter", "value"});
    table.row({"VDD", util::to_string(t->vdd)});
    table.row({"Vprech (nominal)", util::to_string(t->vprech_nominal)});
    table.row({"Vth", util::to_string(t->vth)});
    table.row({"FO4", util::to_string(t->fo4_delay)});
    table.row({"cell leakage", util::to_string(t->cell_leakage)});
    table.print();
    std::printf("\n");
  }
  util::Table cells("bitcell variants (128x128 arrays, Vprech 500 mV)");
  cells.header({"cell", "area [um^2]", "transistors", "read ports",
                "clock [ns]", "required VWD [mV]"});
  for (sram::CellKind k : sram::kAllCellKinds) {
    const sram::BitcellSpec spec = sram::BitcellSpec::of(k);
    const sram::SramTimingModel m(tech::imec3nm(), spec, {},
                                  util::millivolts(500.0));
    const std::size_t idx = sram::index_of(k);
    cells.row({std::string(sram::to_string(k)),
               util::fmt("%.5f", spec.area_um2()),
               util::fmt("%zu", spec.transistor_count),
               util::fmt("%zu", spec.read_ports),
               util::fmt("%.2f",
                         std::max(tech::calib::kTable2ArbiterNs[idx],
                                  tech::calib::kTable2SramNeuronNs[idx])),
               util::fmt("%.0f", util::in_millivolts(m.required_vwd()))});
  }
  cells.print();
  return 0;
}

/// `report --learn`: the online-learning scenario at system scale -- drift
/// the test inputs, adapt the output layer in the field, report accuracy
/// recovery and the hardware cost of the column updates.
int cmd_learn_online(const CliOptions& opt) {
  if (!opt.trace_path.empty()) {
    std::fprintf(stderr,
                 "esam: --trace is not supported in --learn mode (train and "
                 "eval phases have no single cycle order); ignoring it\n");
  }
  const core::TrainedModel model = load_model();
  core::EsamSystem system(model, hw_of(opt), node_of(opt));
  system.learn_online(online_options(opt)).print();
  return 0;
}

int cmd_report(const CliOptions& opt, const std::vector<std::string>&) {
  if (opt.learn) return cmd_learn_online(opt);
  const core::TrainedModel model = load_model();
  const tech::TechnologyParams& node = node_of(opt);
  arch::SystemSimulator sim(node, model.snn, hw_of(opt));

  std::size_t n = std::min(opt.inferences, model.data.test.size());
  if (n == 0) n = model.data.test.size();
  std::vector<util::BitVec> inputs(model.data.test.spikes.begin(),
                                   model.data.test.spikes.begin() +
                                       static_cast<std::ptrdiff_t>(n));
  std::vector<std::uint8_t> labels(model.data.test.labels.begin(),
                                   model.data.test.labels.begin() +
                                       static_cast<std::ptrdiff_t>(n));

  std::unique_ptr<arch::VcdTraceWriter> tracer;
  if (!opt.trace_path.empty()) {
    tracer = std::make_unique<arch::VcdTraceWriter>(opt.trace_path);
  }
  // A trace needs the lockstep engine (one well-defined cycle order), which
  // run() selects for an observer; everything else goes through the batched
  // fast engine, which shards over --threads and is bit-identical to it.
  const arch::RunResult r =
      tracer == nullptr
          ? sim.run_batched(inputs, &labels, {.num_threads = opt.threads})
          : sim.run(inputs, &labels, tracer.get());

  util::Table table(std::string("esam report -- ") +
                    std::string(sram::to_string(opt.cell)) + " @ " +
                    node.name);
  table.header({"metric", "value"});
  table.row({"clock", util::to_string(sim.clock_frequency())});
  table.row({"throughput",
             util::fmt("%.1f MInf/s", r.throughput_inf_per_s / 1e6)});
  table.row({"energy / inference",
             util::to_string(r.energy_per_inference)});
  table.row({"power", util::to_string(r.average_power)});
  table.row({"area", util::to_string(sim.area().total)});
  table.row({"accuracy", util::fmt("%.2f %%", 100.0 * r.accuracy)});
  table.row({"cycles / inference",
             util::fmt("%.1f", r.avg_cycles_per_inference)});
  table.row({"simulator",
             util::fmt("%zu threads", r.threads)});
  for (int c = 0; c < static_cast<int>(util::EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<util::EnergyCategory>(c);
    table.row({"  energy: " + std::string(util::to_string(cat)),
               util::fmt("%.1f pJ/inf",
                         util::in_picojoules(r.ledger.energy(cat)) /
                             static_cast<double>(n))});
  }
  table.print();
  if (tracer) {
    std::printf("pipeline trace written to %s (%llu cycles)\n",
                opt.trace_path.c_str(),
                static_cast<unsigned long long>(tracer->cycles_written()));
  }
  return 0;
}

int cmd_sweep_cells(const CliOptions& opt, const std::vector<std::string>&) {
  const core::TrainedModel model = load_model();
  util::Table table("cell sweep (Fig. 8)");
  table.header({"cell", "clock [MHz]", "thr [MInf/s]", "energy [pJ/Inf]",
                "power [mW]", "area [um^2]"});
  for (sram::CellKind k : sram::kAllCellKinds) {
    arch::SystemConfig hw;
    hw.cell = k;
    hw.vprech = util::millivolts(opt.vprech_mv);
    core::EsamSystem system(model, hw);
    const core::SystemReport r =
        system.evaluate(opt.inferences, {.num_threads = opt.threads});
    table.row({r.cell, util::fmt("%.0f", r.clock_mhz),
               util::fmt("%.1f", r.throughput_minf_per_s),
               util::fmt("%.0f", r.energy_per_inf_pj),
               util::fmt("%.1f", r.power_mw),
               util::fmt("%.0f", r.area_um2)});
  }
  table.print();
  return 0;
}

int cmd_sweep_vprech(const CliOptions&, const std::vector<std::string>&) {
  util::Table table("Vprech sweep, per-op access time/energy (Fig. 7)");
  table.header({"Vprech [mV]", "1 port", "2 ports", "3 ports", "4 ports"});
  for (double v : {400.0, 500.0, 600.0, 700.0}) {
    std::vector<std::string> row{util::fmt("%.0f", v)};
    for (std::size_t p = 1; p <= 4; ++p) {
      const sram::SramTimingModel m(
          tech::imec3nm(), sram::BitcellSpec::of(sram::kAllCellKinds[p]), {},
          util::millivolts(v));
      row.push_back(util::fmt(
          "%.0fps/%.0ffJ",
          util::in_picoseconds(m.average_access_time_full_utilization()),
          util::in_femtojoules(m.average_access_energy_full_utilization())));
    }
    table.row(std::move(row));
  }
  table.print();
  return 0;
}

int cmd_learn(const CliOptions&, const std::vector<std::string>&) {
  util::Table table("column-update cost (sec. 4.4.1)");
  table.header({"cell", "column read [ns]", "column write [ns]",
                "vs 6T baseline"});
  for (sram::CellKind k : sram::kAllCellKinds) {
    const sram::SramTimingModel m(tech::imec3nm(), sram::BitcellSpec::of(k),
                                  {}, util::millivolts(500.0));
    const double rd = util::in_nanoseconds(m.line_read().time);
    const double wr = util::in_nanoseconds(m.line_write().time);
    table.row({std::string(sram::to_string(k)), util::fmt("%.2f", rd),
               util::fmt("%.2f", wr),
               k == sram::CellKind::k1RW
                   ? "1.0x (2 x 128 cycles)"
                   : util::fmt("%.1fx faster RMW",
                               tech::calib::kBaselineColumnUpdateNs /
                                   (rd + wr))});
  }
  table.print();
  return 0;
}

int cmd_checkpoint(const CliOptions& opt,
                   const std::vector<std::string>& pos) {
  const std::string& sub = pos[0];
  const std::string& path = pos[1];
  if (sub == "diff") {
    if (pos.size() != 3) {
      std::fprintf(stderr, "usage: esam checkpoint diff FILE FILE\n");
      return 2;
    }
    return cmd_checkpoint_diff(pos[1], pos[2]);
  }
  if (pos.size() != 2) {
    std::fprintf(stderr, "usage: esam checkpoint %s FILE\n", sub.c_str());
    return 2;
  }
  if (sub == "info") {
    print_checkpoint_info(path, io::Checkpoint::load(path));
    return 0;
  }
  if (sub == "save") {
    const core::TrainedModel model = load_model();
    core::EsamSystem system(model, hw_of(opt), node_of(opt));
    if (opt.learn) {
      // Adapt in the field first, then persist what the SRAM actually
      // holds: the checkpoint captures the adapted weights.
      system.learn_online(online_options(opt)).print();
    }
    io::CheckpointMeta meta;
    meta.source = opt.learn ? "esam checkpoint save --learn"
                            : "esam checkpoint save";
    meta.note = opt.note;
    meta.created_unix = static_cast<std::uint64_t>(std::time(nullptr));
    const io::Checkpoint ckpt = system.make_checkpoint(std::move(meta));
    ckpt.save(path);
    print_checkpoint_info(path, ckpt);
    return 0;
  }
  if (sub == "load") {
    const io::Checkpoint ckpt = io::Checkpoint::load(path);
    print_checkpoint_info(path, ckpt);
    core::EsamSystem system(ckpt, hw_of(opt), node_of(opt));
    const data::PreparedDataset eval = load_eval_stream();
    system.attach_test_data(eval);
    system.evaluate(opt.inferences, {.num_threads = opt.threads}).print();
    return 0;
  }
  std::fprintf(stderr,
               "esam: unknown checkpoint subcommand '%s' "
               "(save | load | info | diff)\n",
               sub.c_str());
  return 2;
}

int cmd_serve(const CliOptions& opt, const std::vector<std::string>&) {
  const tech::TechnologyParams& node = node_of(opt);
  const arch::SystemConfig hw = hw_of(opt);

  // The deployed model: an explicit checkpoint, or the trained/cached one.
  io::Checkpoint ckpt;
  std::optional<core::TrainedModel> model;
  if (!opt.checkpoint_path.empty()) {
    ckpt = io::Checkpoint::load(opt.checkpoint_path);
  } else {
    model = load_model();
    io::CheckpointMeta meta;
    meta.source = "esam serve (trained in-process)";
    ckpt = io::Checkpoint::from_network(model->snn, std::move(meta));
  }

  const data::PreparedDataset eval =
      model ? model->data.test : load_eval_stream();
  if (ckpt.network.layers().front().in_features() !=
      eval.spikes.front().size()) {
    std::fprintf(stderr,
                 "esam: checkpoint input width %zu does not match the "
                 "test stream (%zu)\n",
                 ckpt.network.layers().front().in_features(),
                 eval.spikes.front().size());
    return 1;
  }
  std::size_t n = std::min(opt.inferences, eval.size());
  if (n == 0) n = eval.size();

  // Offline reference on the very same checkpoint: the determinism yardstick
  // for the served stream (only meaningful while the weights stay fixed).
  arch::SystemSimulator ref_sim(node, ckpt.network, hw);
  const std::vector<util::BitVec> ref_inputs(
      eval.spikes.begin(),
      eval.spikes.begin() + static_cast<std::ptrdiff_t>(n));
  const std::vector<std::uint8_t> ref_labels(
      eval.labels.begin(),
      eval.labels.begin() + static_cast<std::ptrdiff_t>(n));
  const arch::RunResult ref = ref_sim.run(ref_inputs, &ref_labels);

  serve::ServerConfig scfg;
  scfg.num_workers = opt.workers;
  scfg.max_batch = opt.max_batch;
  scfg.max_delay_us = opt.max_delay_us;
  scfg.adapt = opt.adapt;
  scfg.adapt_batch = opt.adapt_batch;
  scfg.update_interval = opt.update_interval;
  // Fine-tuning operating point: gentle rates so adaptation nudges the
  // deployed structure instead of erasing it.
  scfg.trainer.stdp = learning::fine_tune_stdp(99);
  scfg.trainer.hidden_rule = opt.hidden_rule;
  scfg.trainer.wta_k = opt.wta_k;

  serve::InferenceServer server(node, hw, ckpt, scfg);
  server.start();

  const std::size_t clients = std::max<std::size_t>(1, opt.clients);
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> correct{0};
  std::atomic<std::size_t> total{0};
  // One worker per client, so the clients submit concurrently.
  util::parallel_for(clients, clients, [&](std::size_t, std::size_t c) {
    std::vector<std::pair<std::size_t,
                          std::future<serve::InferenceResult>>> futs;
    for (std::size_t j = 0;; ++j) {
      std::size_t idx = c + j * clients;
      if (opt.requests > 0) {
        if (j >= opt.requests) break;
        idx %= n;
      } else if (idx >= n) {
        break;
      }
      futs.emplace_back(
          idx, server.submit(eval.spikes[idx], c,
                             opt.adapt ? std::optional<std::uint8_t>(
                                             eval.labels[idx])
                                       : std::nullopt));
    }
    for (auto& [idx, fut] : futs) {
      const serve::InferenceResult r = fut.get();
      ++total;
      if (r.prediction == eval.labels[idx]) ++correct;
      // Bit-exactness only holds while the model is not republished
      // under adaptation.
      if (!opt.adapt && r.prediction != ref.predictions[idx]) ++mismatches;
    }
  });
  server.stop();

  const serve::ServerStats stats = server.stats();
  util::Table table("esam serve -- " +
                    std::string(sram::to_string(opt.cell)) + " @ " +
                    node.name);
  table.header({"metric", "value"});
  table.row({"requests served", util::fmt("%llu",
             static_cast<unsigned long long>(stats.requests_served))});
  table.row({"batches", util::fmt("%llu (%llu full, %llu deadline)",
             static_cast<unsigned long long>(stats.batches_dispatched),
             static_cast<unsigned long long>(stats.full_dispatches),
             static_cast<unsigned long long>(stats.deadline_dispatches))});
  table.row({"workers x max-batch",
             util::fmt("%zu x %zu, %.0f us budget", scfg.num_workers,
                       scfg.max_batch, scfg.max_delay_us)});
  table.row({"served accuracy",
             util::fmt("%.2f %%", total == 0 ? 0.0
                                             : 100.0 * static_cast<double>(
                                                           correct.load()) /
                                                   static_cast<double>(
                                                       total.load()))});
  table.row({"offline accuracy (reference)",
             util::fmt("%.2f %%", 100.0 * ref.accuracy)});
  table.row({"modeled energy (served)",
             util::to_string(stats.ledger.total_energy())});
  table.row({"model version", util::fmt("%llu",
             static_cast<unsigned long long>(server.model_version()))});
  if (opt.adapt) {
    table.row({"checkpoints published", util::fmt("%llu",
               static_cast<unsigned long long>(stats.checkpoints_published))});
    table.row({"adapt samples", util::fmt("%llu",
               static_cast<unsigned long long>(stats.adapt_samples))});
  } else {
    table.row({"determinism vs offline",
               mismatches == 0
                   ? std::string("bit-identical (") +
                         util::fmt("%zu/%zu)", total.load(), total.load())
                   : util::fmt("%zu MISMATCHES", mismatches.load())});
  }
  table.print();

  util::Table per_client("per-client accounting");
  per_client.header({"client", "requests", "avg wait [us]", "p50 wait [us]",
                     "p99 wait [us]", "avg latency [ns]", "energy [pJ]"});
  for (const auto& [id, c] : stats.clients) {
    const double reqs = static_cast<double>(c.requests);
    per_client.row({util::fmt("%llu", static_cast<unsigned long long>(id)),
                    util::fmt("%llu",
                              static_cast<unsigned long long>(c.requests)),
                    util::fmt("%.1f", c.queue_wait_us / reqs),
                    util::fmt("%.1f", c.queue_wait_p50_us),
                    util::fmt("%.1f", c.queue_wait_p99_us),
                    util::fmt("%.1f", c.modeled_latency_ns / reqs),
                    util::fmt("%.1f", c.modeled_energy_pj)});
  }
  per_client.print();

  if (!opt.adapt && mismatches != 0) return 1;
  return 0;
}

int cmd_fleet(const CliOptions& opt, const std::vector<std::string>&) {
  const core::TrainedModel model = load_model();

  fleet::FleetConfig fc;
  fc.devices = opt.devices;
  fc.workers = opt.workers;
  fc.shard_inferences = opt.inferences;
  fc.adapt_epochs = opt.epochs;
  fc.update_interval = opt.update_interval;
  fc.accuracy_floor = 0.5;
  fc.device.variation_sigma = opt.sigma;
  fc.device.defect_rate = opt.defect_rate;
  fc.device.drift_fraction = opt.drift;
  fc.device.seed = opt.seed;
  fc.hw = hw_of(opt);
  fc.trainer.hidden_rule = opt.hidden_rule;
  fc.trainer.wta_k = opt.wta_k;

  const fleet::FleetSimulator fsim(model.snn, model.data.test, node_of(opt),
                                   fc);
  const std::size_t shard =
      fc.shard_inferences == 0 || fc.shard_inferences > model.data.test.size()
          ? model.data.test.size()
          : fc.shard_inferences;
  std::printf("\nsimulating %zu dies (%zu-sample shards, %zu adaptation "
              "epoch(s), %zu worker(s))...\n\n",
              fc.devices, shard, fc.adapt_epochs, fc.workers);
  fsim.run().print();
  return 0;
}

int cmd_help(const CliOptions&, const std::vector<std::string>& pos) {
  if (pos.empty()) return help_overview(stdout);
  const VerbDef* verb = find_verb(pos[0]);
  if (verb == nullptr) {
    std::fprintf(stderr, "esam: unknown verb '%s'\n", pos[0].c_str());
    return help_overview(stderr);
  }
  return help_verb(*verb, stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return help_overview(stderr);
  const std::string name = argv[1];
  if (name == "--help" || name == "-h") return help_overview(stdout);
  const VerbDef* verb = find_verb(name);
  if (verb == nullptr) {
    std::fprintf(stderr, "esam: unknown verb '%s'\n", name.c_str());
    return help_overview(stderr);
  }
  const auto parsed = parse_args(*verb, argc, argv, 2);
  if (!parsed) return 2;
  try {
    return verb->handler(parsed->opt, parsed->positionals);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esam: %s\n", e.what());
    return 1;
  }
}
