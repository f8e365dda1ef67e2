// Tests for the versioned checkpoint format and the symmetric deployment
// facade: a save/load round trip must reproduce the adapted network byte for
// byte (including fault-masked weight read-back), damaged files must be
// rejected with CheckpointError instead of deploying garbage, and
// import_network/deploy must reject shape mismatches and thresholds that do
// not fit the hardware without touching the live weights.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "esam/arch/system.hpp"
#include "esam/core/esam.hpp"
#include "esam/io/checkpoint.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::io {
namespace {

nn::SnnNetwork random_snn(const std::vector<std::size_t>& shape,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  nn::BnnNetwork bnn(shape, rng);
  for (auto& l : bnn.layers()) {
    for (auto& b : l.bias) b = static_cast<float>(rng.uniform(-5.0, 5.0));
  }
  return nn::SnnNetwork::from_bnn(bnn);
}

std::vector<util::BitVec> random_inputs(std::size_t n, std::size_t width,
                                        std::uint64_t seed,
                                        double density = 0.25) {
  util::Rng rng(seed);
  std::vector<util::BitVec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::BitVec v(width);
    for (std::size_t k = 0; k < width; ++k) {
      if (rng.bernoulli(density)) v.set(k);
    }
    out.push_back(std::move(v));
  }
  return out;
}

/// Bit-exact network equality: weight rows, thresholds and the IEEE-754
/// readout-offset patterns must all match.
void expect_network_identical(const nn::SnnNetwork& a,
                              const nn::SnnNetwork& b) {
  ASSERT_EQ(a.layers().size(), b.layers().size());
  for (std::size_t l = 0; l < a.layers().size(); ++l) {
    const nn::SnnLayer& la = a.layers()[l];
    const nn::SnnLayer& lb = b.layers()[l];
    EXPECT_EQ(la.weight_rows, lb.weight_rows) << "layer " << l;
    EXPECT_EQ(la.thresholds, lb.thresholds) << "layer " << l;
    ASSERT_EQ(la.readout_offsets.size(), lb.readout_offsets.size());
    for (std::size_t j = 0; j < la.readout_offsets.size(); ++j) {
      EXPECT_EQ(la.readout_offsets[j], lb.readout_offsets[j])
          << "layer " << l << " offset " << j;
    }
  }
}

std::size_t network_weight_diff(const nn::SnnNetwork& a,
                                const nn::SnnNetwork& b) {
  std::size_t n = 0;
  for (std::size_t l = 0; l < a.layers().size(); ++l) {
    n += nn::weight_diff_count(a.layers()[l], b.layers()[l]);
  }
  return n;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(Checkpoint, EncodeDecodeRoundTripIsByteExact) {
  Checkpoint ckpt = Checkpoint::from_network(
      random_snn({96, 64, 32, 7}, 301),
      {.source = "unit-test",
       .note = "round trip",
       .created_unix = 1700000000});
  const std::vector<std::uint8_t> bytes = ckpt.encode();
  const Checkpoint back = Checkpoint::decode(bytes);

  expect_network_identical(ckpt.network, back.network);
  EXPECT_EQ(back.meta.source, "unit-test");
  EXPECT_EQ(back.meta.note, "round trip");
  EXPECT_EQ(back.meta.created_unix, 1700000000u);
  // Re-encoding the decoded checkpoint reproduces the exact same bytes.
  EXPECT_EQ(back.encode(), bytes);
}

TEST(Checkpoint, SaveLoadRoundTripThroughFile) {
  const std::string path = temp_path("ckpt_roundtrip.esam");
  const Checkpoint ckpt = Checkpoint::from_network(
      random_snn({64, 48, 5}, 302),
      {.source = "file-test", .note = "", .created_unix = 0});
  ckpt.save(path);
  const Checkpoint back = Checkpoint::load(path);
  expect_network_identical(ckpt.network, back.network);
  EXPECT_EQ(back.encode(), ckpt.encode());
  std::remove(path.c_str());
}

TEST(Checkpoint, AdaptedWeightsRoundTripThroughHardware) {
  // Adapt weights in the field, persist, redeploy on fresh hardware: the
  // reloaded system must serve the adapted weights bit for bit.
  const nn::SnnNetwork snn = random_snn({64, 32, 10}, 303);
  arch::SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(40, 64, 304);
  std::vector<std::uint8_t> labels;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    labels.push_back(static_cast<std::uint8_t>(i % 10));
  }
  arch::OnlineTrainConfig cfg;
  cfg.epochs = 1;
  cfg.trainer.stdp = {.p_potentiation = 0.3, .p_depression = 0.1, .seed = 11};
  sim.run_online(inputs, labels, cfg);

  const nn::SnnNetwork adapted = sim.export_network();
  EXPECT_GT(network_weight_diff(snn, adapted), 0u);

  const std::string path = temp_path("ckpt_adapted.esam");
  Checkpoint::from_network(adapted).save(path);
  const Checkpoint back = Checkpoint::load(path);
  expect_network_identical(adapted, back.network);

  // Deploy into a fresh simulator built from the *original* weights: after
  // import_network the live SRAM must read back the adapted state.
  arch::SystemSimulator fresh(tech::imec3nm(), snn, {});
  fresh.import_network(back.network);
  expect_network_identical(adapted, fresh.export_network());

  // And the two pipelines agree on every prediction.
  const auto probe = random_inputs(24, 64, 305);
  EXPECT_EQ(sim.run(probe).predictions, fresh.run(probe).predictions);
  std::remove(path.c_str());
}

TEST(Checkpoint, CapturesFaultMaskedWeights) {
  // Stuck bitcells mask what the macros read back; the checkpoint must
  // capture the *observable* weights, and they survive the round trip.
  const nn::SnnNetwork snn = random_snn({96, 64, 7}, 306);
  arch::SystemSimulator sim(tech::imec3nm(), snn, {});

  sram::SramMacro& macro = sim.tiles()[0].macro(0, 0);
  sram::FaultMap map(macro.geometry().rows, macro.geometry().cols);
  util::Rng rng(307);
  for (std::size_t i = 0; i < map.stuck_at_zero.size(); ++i) {
    if (rng.bernoulli(0.01)) map.stuck_at_zero.set(i);
    if (rng.bernoulli(0.01) && !map.stuck_at_zero.test(i)) {
      map.stuck_at_one.set(i);
    }
  }
  macro.apply_faults(map);

  const nn::SnnNetwork masked = sim.export_network();
  EXPECT_GT(network_weight_diff(snn, masked), 0u);

  const Checkpoint back = Checkpoint::decode(
      Checkpoint::from_network(masked).encode());
  expect_network_identical(masked, back.network);
}

TEST(Checkpoint, RejectsCorruptedHeaderAndPayload) {
  const Checkpoint ckpt =
      Checkpoint::from_network(random_snn({64, 32, 5}, 308));
  const std::vector<std::uint8_t> good = ckpt.encode();

  {  // bad magic
    auto bad = good;
    bad[0] ^= 0xff;
    EXPECT_THROW((void)Checkpoint::decode(bad), CheckpointError);
  }
  {  // unsupported format version
    auto bad = good;
    bad[8] += 1;
    EXPECT_THROW((void)Checkpoint::decode(bad), CheckpointError);
  }
  {  // truncated payload
    auto bad = good;
    bad.resize(bad.size() - 1);
    EXPECT_THROW((void)Checkpoint::decode(bad), CheckpointError);
  }
  {  // shorter than the header
    EXPECT_THROW(
        (void)Checkpoint::decode(std::vector<std::uint8_t>(16, 0)),
        CheckpointError);
  }
  {  // payload bit flip -> CRC mismatch
    auto bad = good;
    bad[40] ^= 0x01;
    EXPECT_THROW((void)Checkpoint::decode(bad), CheckpointError);
  }
  {  // trailing garbage
    auto bad = good;
    bad.push_back(0);
    EXPECT_THROW((void)Checkpoint::decode(bad), CheckpointError);
  }
  // The pristine bytes still decode (the corruptions above were the only
  // problem).
  EXPECT_NO_THROW((void)Checkpoint::decode(good));
}

TEST(Checkpoint, RejectsTruncatedAndMissingFiles) {
  EXPECT_THROW((void)Checkpoint::load("/nonexistent/ckpt.esam"),
               CheckpointError);

  const std::string path = temp_path("ckpt_truncated.esam");
  const Checkpoint ckpt =
      Checkpoint::from_network(random_snn({64, 32, 5}, 309));
  const std::vector<std::uint8_t> bytes = ckpt.encode();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
    std::fclose(f);
  }
  EXPECT_THROW((void)Checkpoint::load(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, ImportRejectsShapeMismatchWithoutMutating) {
  const nn::SnnNetwork snn = random_snn({96, 64, 32, 7}, 310);
  arch::SystemSimulator sim(tech::imec3nm(), snn, {});
  const std::vector<std::uint8_t> before =
      io::Checkpoint::from_network(sim.export_network()).encode();

  // Wrong layer count.
  EXPECT_THROW(sim.import_network(random_snn({96, 64, 7}, 311)),
               std::invalid_argument);
  // Right depth, wrong width.
  EXPECT_THROW(sim.import_network(random_snn({96, 64, 16, 7}, 312)),
               std::invalid_argument);

  // The rejection happened before any tile was touched.
  EXPECT_EQ(io::Checkpoint::from_network(sim.export_network()).encode(),
            before);
}

TEST(Checkpoint, ImportRejectsOversizedThresholdWithoutMutating) {
  const nn::SnnNetwork snn = random_snn({16, 8, 4}, 314);
  arch::SystemSimulator sim(tech::imec3nm(), snn, {});
  const nn::SnnNetwork before = sim.export_network();

  // Layer 0 of the rejected network differs from the deployed one, so a
  // partial import would show; layer 1 holds a threshold past the 12-bit
  // Vth register.
  std::vector<nn::SnnLayer> layers = random_snn({16, 8, 4}, 315).layers();
  ASSERT_NE(layers[0].weight_rows, before.layers()[0].weight_rows);
  layers[1].thresholds[0] = 5000;
  const nn::SnnNetwork rejected = nn::SnnNetwork::from_layers(layers);

  EXPECT_THROW(sim.import_network(rejected), std::invalid_argument);
  expect_network_identical(sim.export_network(), before);
}

TEST(Checkpoint, EsamSystemDeploymentFacade) {
  const nn::SnnNetwork snn = random_snn({96, 64, 10}, 313);
  const Checkpoint ckpt = Checkpoint::from_network(snn);

  arch::SystemConfig hw;
  core::EsamSystem system(ckpt, hw);
  expect_network_identical(system.deployed_network(), snn);
  EXPECT_FALSE(system.has_test_data());

  // No evaluation stream attached yet: evaluate must refuse, not crash.
  EXPECT_THROW((void)system.evaluate(8), std::logic_error);

  data::PreparedDataset test;
  test.spikes = random_inputs(20, 96, 314);
  for (std::size_t i = 0; i < test.spikes.size(); ++i) {
    test.labels.push_back(static_cast<std::uint8_t>(i % 10));
  }
  test.source = "unit-test";
  system.attach_test_data(test);
  EXPECT_TRUE(system.has_test_data());
  const core::SystemReport report = system.evaluate(20);
  EXPECT_EQ(report.inferences, 20u);

  // deploy() with a matching shape swaps the weights...
  const nn::SnnNetwork other = random_snn({96, 64, 10}, 315);
  system.deploy(Checkpoint::from_network(other));
  expect_network_identical(system.deployed_network(), other);
  expect_network_identical(system.make_checkpoint().network, other);

  // ...and rejects a mismatched one, keeping the current deployment.
  EXPECT_THROW(system.deploy(Checkpoint::from_network(
                   random_snn({96, 32, 10}, 316))),
               std::invalid_argument);
  expect_network_identical(system.deployed_network(), other);

  // make_checkpoint -> deploy on a *fresh* system closes the loop.
  core::EsamSystem redeployed(system.make_checkpoint(), hw);
  expect_network_identical(redeployed.deployed_network(), other);

  // Mismatched spike width is rejected at attach time.
  data::PreparedDataset narrow;
  narrow.spikes = random_inputs(4, 64, 317);
  narrow.labels.assign(4, 0);
  EXPECT_THROW(system.attach_test_data(narrow), std::invalid_argument);
}

// --- lineage ---------------------------------------------------------------

TEST(Checkpoint, LineageParentCrcRoundTrips) {
  const nn::SnnNetwork snn = random_snn({64, 32, 5}, 318);
  const Checkpoint parent = Checkpoint::from_network(snn);
  const Checkpoint child = Checkpoint::from_network(
      snn, {.source = "adapt", .note = "", .created_unix = 1700000001,
            .parent_crc = parent.content_crc()});

  const Checkpoint back = Checkpoint::decode(child.encode());
  EXPECT_EQ(back.meta.parent_crc, parent.content_crc());

  // The lineage field is part of the content identity: two checkpoints with
  // the same weights but different parents are different artifacts.
  const Checkpoint other = Checkpoint::from_network(
      snn, {.source = "adapt", .note = "", .created_unix = 1700000001,
            .parent_crc = parent.content_crc() ^ 1u});
  EXPECT_NE(child.content_crc(), other.content_crc());

  const std::string path = temp_path("ckpt_lineage.esam");
  child.save(path);
  EXPECT_EQ(Checkpoint::load(path).meta.parent_crc, parent.content_crc());
  std::remove(path.c_str());
}

TEST(Checkpoint, LineageV1FilesLoadWithZeroParent) {
  // Down-convert a v2 encoding by hand: version 1, the 4 parent-CRC bytes
  // removed from the meta block (empty source/note put them at payload
  // offset 16 -> file offset 48), payload size shrunk and the payload CRC
  // recomputed. The decoder must accept it and report no parent.
  const Checkpoint ckpt =
      Checkpoint::from_network(random_snn({64, 32, 5}, 319));
  std::vector<std::uint8_t> bytes = ckpt.encode();

  bytes[8] = 1;  // format version (little-endian u32)
  bytes.erase(bytes.begin() + 48, bytes.begin() + 52);
  std::uint64_t payload_size = 0;
  for (int i = 0; i < 8; ++i) {
    payload_size |= static_cast<std::uint64_t>(bytes[16 + i]) << (8 * i);
  }
  payload_size -= 4;
  for (int i = 0; i < 8; ++i) {
    bytes[16 + i] = static_cast<std::uint8_t>(payload_size >> (8 * i));
  }
  const std::uint32_t crc = crc32(bytes.data() + 32, bytes.size() - 32);
  for (int i = 0; i < 4; ++i) {
    bytes[24 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }

  const Checkpoint back = Checkpoint::decode(bytes);
  EXPECT_EQ(back.meta.parent_crc, 0u);
  expect_network_identical(ckpt.network, back.network);
}

TEST(Checkpoint, CorruptedLineageFieldRejected) {
  // A bit flip inside the parent-CRC field (file offset 48 with empty
  // source/note) must fail the payload CRC like any other damage -- a
  // forged lineage cannot slip through decode.
  const Checkpoint ckpt = Checkpoint::from_network(
      random_snn({64, 32, 5}, 320),
      {.source = "", .note = "", .created_unix = 0, .parent_crc = 0xabcd});
  std::vector<std::uint8_t> bytes = ckpt.encode();
  bytes[48] ^= 0x01;
  EXPECT_THROW((void)Checkpoint::decode(bytes), CheckpointError);
}

TEST(Checkpoint, MakeCheckpointStampsDeployedParent) {
  const Checkpoint a = Checkpoint::from_network(random_snn({96, 64, 10}, 321));
  core::EsamSystem system(a, {});
  EXPECT_EQ(system.parent_crc(), a.content_crc());
  EXPECT_EQ(system.make_checkpoint().meta.parent_crc, a.content_crc());

  // Redeploying moves the lineage root; the chain survives a save/load hop.
  const Checkpoint b = Checkpoint::from_network(random_snn({96, 64, 10}, 322));
  system.deploy(b);
  const Checkpoint child = system.make_checkpoint();
  EXPECT_EQ(child.meta.parent_crc, b.content_crc());
  const Checkpoint grandchild =
      core::EsamSystem(Checkpoint::decode(child.encode()), {})
          .make_checkpoint();
  EXPECT_EQ(grandchild.meta.parent_crc, child.content_crc());
}

}  // namespace
}  // namespace esam::io
