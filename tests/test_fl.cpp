// Unit tests for semcache::fl — transaction buffers, delta compression
// round-trips and error bounds, sync messages, replica consistency, and
// version tracking.
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "common/check.hpp"
#include "fl/buffer.hpp"
#include "fl/compressor.hpp"
#include "fl/sync.hpp"
#include "nn/layers.hpp"

namespace semcache::fl {
namespace {

semantic::Sample sample(int tag) {
  return {{tag, tag + 1}, {tag + 2, tag + 3}};
}

TEST(Buffer, TriggersAfterThreshold) {
  DomainBuffer buf(3, 10);
  EXPECT_FALSE(buf.ready());
  buf.add(sample(0), 1.0);
  buf.add(sample(1), 1.0);
  EXPECT_FALSE(buf.ready());
  buf.add(sample(2), 1.0);
  EXPECT_TRUE(buf.ready());
  EXPECT_EQ(buf.size(), 3u);
}

TEST(Buffer, ConsumeReArmsButKeepsSamples) {
  DomainBuffer buf(2, 10);
  buf.add(sample(0), 1.0);
  buf.add(sample(1), 1.0);
  EXPECT_TRUE(buf.ready());
  buf.consume();
  EXPECT_FALSE(buf.ready());
  EXPECT_EQ(buf.size(), 2u);  // samples retained as training data
  buf.add(sample(2), 1.0);
  buf.add(sample(3), 1.0);
  EXPECT_TRUE(buf.ready());
  EXPECT_EQ(buf.size(), 4u);
}

TEST(Buffer, RingCapacityDropsOldest) {
  DomainBuffer buf(1, 3);
  for (int i = 0; i < 5; ++i) buf.add(sample(i), 1.0);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.samples()[0].surface[0], 2);  // 0 and 1 dropped
  EXPECT_EQ(buf.total_added(), 5u);
}

TEST(Buffer, MeanMismatch) {
  DomainBuffer buf(1, 10);
  buf.add(sample(0), 2.0);
  buf.add(sample(1), 4.0);
  EXPECT_DOUBLE_EQ(buf.mean_mismatch(), 3.0);
  buf.clear();
  EXPECT_DOUBLE_EQ(buf.mean_mismatch(), 0.0);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(Buffer, ValidatesConfig) {
  EXPECT_THROW(DomainBuffer(0, 10), Error);
  EXPECT_THROW(DomainBuffer(5, 4), Error);
}

std::vector<float> random_delta(std::size_t n, Rng& rng, double scale = 0.1) {
  std::vector<float> d(n);
  for (auto& x : d) x = static_cast<float>(rng.gaussian(0.0, scale));
  return d;
}

TEST(Compressor, DenseFloat32IsLossless) {
  Rng rng(1);
  const auto delta = random_delta(200, rng);
  DeltaCompressor comp({1.0, 32});
  EXPECT_EQ(comp.decompress(comp.compress(delta)), delta);
}

TEST(Compressor, TopKKeepsLargestMagnitudes) {
  std::vector<float> delta = {0.01f, -5.0f, 0.02f, 3.0f, 0.0f, -0.5f};
  DeltaCompressor comp({2.0 / 6.0, 32});
  const auto out = comp.decompress(comp.compress(delta));
  EXPECT_FLOAT_EQ(out[1], -5.0f);
  EXPECT_FLOAT_EQ(out[3], 3.0f);
  for (const std::size_t zeroed : {0u, 2u, 4u, 5u}) {
    EXPECT_FLOAT_EQ(out[zeroed], 0.0f);
  }
}

TEST(Compressor, Int8QuantizationErrorBounded) {
  Rng rng(2);
  const auto delta = random_delta(500, rng);
  DeltaCompressor comp({1.0, 8});
  const auto out = comp.decompress(comp.compress(delta));
  float max_abs = 0.0f;
  for (const float d : delta) max_abs = std::max(max_abs, std::abs(d));
  const float step = max_abs / 127.0f;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    EXPECT_NEAR(out[i], delta[i], step * 0.51f);
  }
}

TEST(Compressor, Int16TighterThanInt8) {
  Rng rng(3);
  const auto delta = random_delta(500, rng);
  auto err = [&](unsigned bits) {
    DeltaCompressor comp({1.0, bits});
    const auto out = comp.decompress(comp.compress(delta));
    double e = 0.0;
    for (std::size_t i = 0; i < delta.size(); ++i) {
      e += std::abs(static_cast<double>(out[i]) - delta[i]);
    }
    return e;
  };
  EXPECT_LT(err(16), err(8) / 10.0);
}

TEST(Compressor, WireSizeShrinksWithCompression) {
  Rng rng(4);
  const auto delta = random_delta(1000, rng);
  const auto dense32 = DeltaCompressor({1.0, 32}).compress(delta);
  const auto dense8 = DeltaCompressor({1.0, 8}).compress(delta);
  const auto sparse8 = DeltaCompressor({0.1, 8}).compress(delta);
  EXPECT_LT(dense8.byte_size(), dense32.byte_size() / 3);
  EXPECT_LT(sparse8.byte_size(), dense8.byte_size() / 2);
}

TEST(Compressor, SerializationRoundTrip) {
  Rng rng(5);
  const auto delta = random_delta(128, rng);
  for (const CompressionConfig cfg :
       {CompressionConfig{1.0, 32}, CompressionConfig{0.25, 8},
        CompressionConfig{0.5, 16}}) {
    DeltaCompressor comp(cfg);
    const CompressedDelta c = comp.compress(delta);
    ByteWriter w;
    c.serialize(w);
    ByteReader r(w.bytes());
    const CompressedDelta back = CompressedDelta::deserialize(r);
    EXPECT_EQ(comp.decompress(back), comp.decompress(c));
    EXPECT_EQ(w.size(), c.byte_size());
  }
}

TEST(Compressor, ValidatesConfig) {
  EXPECT_THROW(DeltaCompressor({0.0, 8}), Error);
  EXPECT_THROW(DeltaCompressor({1.5, 8}), Error);
  EXPECT_THROW(DeltaCompressor({0.5, 7}), Error);
}

TEST(Compressor, ZeroDeltaSafe) {
  std::vector<float> zeros(50, 0.0f);
  DeltaCompressor comp({0.2, 8});
  const auto out = comp.decompress(comp.compress(zeros));
  EXPECT_EQ(out, zeros);
}

TEST(SyncMessage, BytesRoundTrip) {
  Rng rng(6);
  const auto delta = random_delta(64, rng);
  ModelSynchronizer sync({0.5, 8});
  std::vector<float> before(64, 0.0f);
  const SyncMessage msg =
      sync.make_message(before, delta, "alice", 2, 7);
  const auto bytes = msg.to_bytes();
  EXPECT_EQ(bytes.size(), msg.byte_size());
  const SyncMessage back = SyncMessage::from_bytes(bytes);
  EXPECT_EQ(back.user, "alice");
  EXPECT_EQ(back.domain, 2u);
  EXPECT_EQ(back.version, 7u);
  EXPECT_EQ(sync.compressor().decompress(back.delta),
            sync.compressor().decompress(msg.delta));
}

TEST(SyncMessage, WireRoundTripCarriesCrc) {
  Rng rng(6);
  const auto delta = random_delta(64, rng);
  ModelSynchronizer sync({0.5, 8});
  std::vector<float> before(64, 0.0f);
  const SyncMessage msg = sync.make_message(before, delta, "alice", 2, 7);
  const auto wire = msg.to_wire();
  EXPECT_EQ(wire.size(), msg.wire_byte_size());
  EXPECT_EQ(wire.size(), msg.byte_size() + 4);
  const SyncMessage back = SyncMessage::from_wire(wire);
  EXPECT_EQ(back.user, "alice");
  EXPECT_EQ(back.version, 7u);
  EXPECT_EQ(sync.compressor().decompress(back.delta),
            sync.compressor().decompress(msg.delta));
}

TEST(SyncMessage, WireCrcCatchesEverySingleByteFlip) {
  Rng rng(8);
  const auto delta = random_delta(32, rng);
  ModelSynchronizer sync({0.5, 8});
  std::vector<float> before(32, 0.0f);
  const SyncMessage msg = sync.make_message(before, delta, "bob", 1, 3);
  const auto wire = msg.to_wire();
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    auto corrupted = wire;
    corrupted[pos] ^= 0x41;
    EXPECT_THROW((void)SyncMessage::from_wire(corrupted), Error)
        << "flip at byte " << pos << " was not detected";
  }
}

TEST(SyncMessage, TruncatedBytesThrowCleanly) {
  // Hardened deserialization: EVERY strict prefix of a valid encoding
  // must throw semcache::Error — never read out of bounds or allocate
  // from a garbage length (ASan/UBSan-clean by construction).
  Rng rng(9);
  const auto delta = random_delta(48, rng);
  ModelSynchronizer sync({0.25, 8});
  std::vector<float> before(48, 0.0f);
  const SyncMessage msg = sync.make_message(before, delta, "carol", 0, 11);
  const auto bytes = msg.to_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_THROW((void)SyncMessage::from_bytes(prefix), Error)
        << "prefix of length " << len << " did not throw";
  }
  // And random garbage: decode must either throw Error or (for the rare
  // accidentally-wellformed image) return — anything else is UB the
  // sanitizer jobs would flag.
  Rng fuzz(0xF022);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(static_cast<std::size_t>(
        fuzz.uniform_int(0, static_cast<std::int64_t>(bytes.size()) * 2)));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(fuzz.uniform_int(0, 255));
    }
    try {
      (void)SyncMessage::from_bytes(garbage);
    } catch (const Error&) {
    }
  }
}

TEST(CompressedDelta, GarbageCountsRejectedBeforeAllocation) {
  // A wire image claiming 2^32-ish elements in a tiny payload must be
  // rejected by the bounds checks, not attempted as an allocation.
  {
    ByteWriter w;
    w.write_u32(16);          // total_dims
    w.write_f32(1.0f);        // scale
    w.write_u8(8);            // bits
    w.write_u32(0xFFFFFFFF);  // index count >> remaining bytes
    ByteReader r(w.bytes());
    EXPECT_THROW((void)CompressedDelta::deserialize(r), Error);
  }
  {
    ByteWriter w;
    w.write_u32(16);
    w.write_f32(1.0f);
    w.write_u8(8);
    w.write_u32(0);           // no indices (dense)
    w.write_u32(0xFFFFFFFF);  // value count >> remaining bytes
    ByteReader r(w.bytes());
    EXPECT_THROW((void)CompressedDelta::deserialize(r), Error);
  }
  {
    // Indices out of range for total_dims.
    ByteWriter w;
    w.write_u32(4);  // total_dims
    w.write_f32(1.0f);
    w.write_u8(8);
    w.write_u32(1);
    w.write_u8(9);  // varint index 9 >= total_dims 4
    w.write_u32(1);
    w.write_u8(1);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)CompressedDelta::deserialize(r), Error);
  }
  {
    // Sparse value/index count mismatch (would misindex in decompress).
    ByteWriter w;
    w.write_u32(16);
    w.write_f32(1.0f);
    w.write_u8(8);
    w.write_u32(2);
    w.write_u8(1);
    w.write_u8(1);
    w.write_u32(1);  // 1 value for 2 indices
    w.write_u8(5);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)CompressedDelta::deserialize(r), Error);
  }
}

TEST(Synchronizer, ReplicasStayBitIdenticalUnderLossyCompression) {
  // The core consistency contract (§II-C/D): both replicas apply the same
  // decompressed delta, so even int8 top-k compression cannot diverge them.
  Rng rng(7);
  nn::Linear sender_model(8, 8, rng, "dec");
  nn::Linear receiver_model(8, 8, rng, "dec");
  nn::ParameterSet sender(sender_model.parameters());
  nn::ParameterSet receiver(receiver_model.parameters());
  receiver.copy_values_from(sender);

  ModelSynchronizer sync({0.25, 8});
  std::uint64_t version = 0;
  for (int round = 0; round < 5; ++round) {
    // Simulate fine-tuning: a random delta on a scratch copy.
    const auto before = sender.flatten_values();
    auto after = before;
    for (auto& x : after) x += static_cast<float>(rng.gaussian(0.0, 0.05));
    const SyncMessage msg =
        sync.make_message(before, after, "u", 0, ++version);
    sync.apply(sender, msg);    // sender rolls ITS replica forward lossily
    sync.apply(receiver, msg);  // receiver does the same
    EXPECT_TRUE(sender.values_equal(receiver)) << "round " << round;
  }
}

TEST(Synchronizer, RawWeightsWouldDiverge) {
  // Negative control: adopting the raw fine-tuned weights at the sender
  // (instead of the lossy delta) breaks byte-identity.
  Rng rng(8);
  nn::Linear sender_model(6, 6, rng, "dec");
  nn::Linear receiver_model(6, 6, rng, "dec");
  nn::ParameterSet sender(sender_model.parameters());
  nn::ParameterSet receiver(receiver_model.parameters());
  receiver.copy_values_from(sender);

  ModelSynchronizer sync({0.25, 8});
  const auto before = sender.flatten_values();
  auto after = before;
  for (auto& x : after) x += static_cast<float>(rng.gaussian(0.0, 0.05));
  const SyncMessage msg = sync.make_message(before, after, "u", 0, 1);
  sender.unflatten_values(after);  // WRONG: raw weights
  sync.apply(receiver, msg);
  EXPECT_FALSE(sender.values_equal(receiver));
}

TEST(Synchronizer, RefusesADeltaSizedForOtherParameters) {
  // apply checks the delta's dimension count against the parameters
  // BEFORE decompress sizes a vector from it: a delta built for another
  // model, or a wire image claiming 2^32 - 1 dims (17.2 GB of zeros),
  // throws and leaves the replica untouched.
  Rng rng(10);
  nn::Linear model(8, 8, rng, "dec");
  nn::ParameterSet params(model.parameters());
  const std::vector<float> original = params.flatten_values();
  ModelSynchronizer sync({0.25, 8});

  const std::vector<float> before(params.scalar_count() - 1, 0.0f);
  std::vector<float> after = before;
  after[0] = 1.0f;
  const SyncMessage mismatched = sync.make_message(before, after, "u", 0, 1);
  EXPECT_THROW(sync.apply(params, mismatched), Error);
  EXPECT_EQ(params.flatten_values(), original);

  SyncMessage huge;
  huge.user = "u";
  huge.version = 1;
  huge.delta.total_dims = 0xFFFFFFFFu;
  huge.delta.bits = 8;
  huge.delta.indices = {0};
  huge.delta.q_values = {1};
  const std::vector<std::uint8_t> wire = huge.to_wire();
  EXPECT_EQ(wire.size(), 40u);
  const SyncMessage parsed = SyncMessage::from_wire(wire);  // wire-valid
  EXPECT_EQ(parsed.delta.total_dims, 0xFFFFFFFFu);
  EXPECT_THROW(sync.apply(params, parsed), Error);
  EXPECT_EQ(params.flatten_values(), original);
}

TEST(Synchronizer, CompressionResidualShrinksWithBits) {
  Rng rng(9);
  std::vector<float> before(300, 0.0f);
  auto after = before;
  for (auto& x : after) x += static_cast<float>(rng.gaussian(0.0, 0.1));
  const double res8 =
      ModelSynchronizer({1.0, 8}).compression_residual(before, after);
  const double res16 =
      ModelSynchronizer({1.0, 16}).compression_residual(before, after);
  const double res32 =
      ModelSynchronizer({1.0, 32}).compression_residual(before, after);
  EXPECT_LT(res16, res8);
  EXPECT_NEAR(res32, 0.0, 1e-12);
}

TEST(VersionVector, StrictMonotone) {
  VersionVector v;
  EXPECT_EQ(v.current(), 0u);
  EXPECT_TRUE(v.advance(1));
  EXPECT_FALSE(v.advance(1));  // replay
  EXPECT_FALSE(v.advance(3));  // gap
  EXPECT_TRUE(v.advance(2));
  EXPECT_EQ(v.current(), 2u);
  EXPECT_EQ(v.rejected(), 2u);
}

class TopKSweep : public ::testing::TestWithParam<double> {};

TEST_P(TopKSweep, SparsityMatchesFraction) {
  Rng rng(10);
  const auto delta = random_delta(1000, rng);
  DeltaCompressor comp({GetParam(), 32});
  const CompressedDelta c = comp.compress(delta);
  const auto expected =
      static_cast<std::size_t>(std::llround(GetParam() * 1000));
  EXPECT_EQ(c.indices.size(), expected);
  // Every kept value is >= every dropped value in magnitude.
  const auto out = comp.decompress(c);
  float min_kept = 1e9f;
  float max_dropped = 0.0f;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    if (out[i] != 0.0f) {
      min_kept = std::min(min_kept, std::abs(delta[i]));
    } else {
      max_dropped = std::max(max_dropped, std::abs(delta[i]));
    }
  }
  EXPECT_GE(min_kept + 1e-9f, max_dropped);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TopKSweep,
                         ::testing::Values(0.01, 0.1, 0.25, 0.5));

}  // namespace
}  // namespace semcache::fl
