// Heap allocations per served message.
//
// This binary replaces the global operator new with a counting one, serves
// warmed serve-shaped pair waves (8 sender lanes x 32 messages, soft
// conv_k3_r12 at 3 dB, no fine-tune), and bounds the allocations made per
// message inside transmit_pairs and in the simulator drain after it. Some
// stay by design: the decoded_meanings handed to the caller and the
// buffer's sample copies. Others are on ROADMAP item 14: the payload and
// grouping vectors and the delivery chain's hop closures, which make up
// the drain. The bounds are ceilings to tighten as those go, never to
// loosen. The other tests pin the floor under those counts: a warmed
// channel transmit makes two allocations (its stage buffers are
// thread-local), and a warmed-up codec pass, each layer's forward and
// backward, and a codec training step allocate nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "channel/pipeline.hpp"
#include "core/system.hpp"
#include "nn/gru.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "semantic/codec.hpp"
#include "test_util.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Frees what the operator new below took from malloc. Out of line: inlined
// into a caller that also inlines a new expression, the pair would read as
// new/free to GCC's -Wmismatched-new-delete.
__attribute__((noinline)) void release(void* p) noexcept { std::free(p); }
}  // namespace

// The library makes no over-aligned allocations, so the plain forms see
// every one; the array forms forward to these.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace semcache::core {
namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kMessagesPerPair = 32;

SystemConfig serve_config() {
  SystemConfig config = test::tiny_system_config(2023);
  config.world.num_domains = 4;
  config.world.sentence_length = 8;
  config.codec.feature_dim = 16;  // 128-bit payloads
  config.pretrain.steps = 100;    // the counts do not depend on accuracy
  config.devices_per_edge = kLanes;
  config.channel.code = "conv_k3_r12";
  config.channel.soft_decision = true;
  config.channel.snr_db = 3.0;
  // Above every slot's adds over the whole run: no fine-tune fires.
  config.buffer_trigger = 1024;
  config.buffer_capacity = 1024;
  return config;
}

std::vector<SemanticEdgeSystem::PairBatch> draw_wave(SemanticEdgeSystem& sys,
                                                     Rng& rng) {
  std::vector<SemanticEdgeSystem::PairBatch> wave(kLanes);
  for (std::size_t p = 0; p < kLanes; ++p) {
    wave[p].sender = "s" + std::to_string(p);
    wave[p].receiver = "r" + std::to_string(p);
    for (std::size_t i = 0; i < kMessagesPerPair; ++i) {
      const auto domain = static_cast<std::size_t>(rng.uniform_int(0, 3));
      wave[p].messages.push_back(sys.sample_message(wave[p].sender, domain));
    }
  }
  return wave;
}

TEST(ServeAllocations, WarmedServeWavePerMessage) {
  auto sys = SemanticEdgeSystem::build(serve_config());
  for (std::size_t p = 0; p < kLanes; ++p) {
    // Every pair crosses the edges, so every message takes the channel.
    sys->register_user("s" + std::to_string(p), p % 2, nullptr);
    sys->register_user("r" + std::to_string(p), (p + 1) % 2, nullptr);
  }
  std::size_t completions = 0;
  const auto on_done = [&](std::size_t, std::size_t, TransmitReport) {
    ++completions;
  };

  Rng traffic(7);
  constexpr int kWarmupWaves = 3;
  constexpr int kTimedWaves = 4;
  std::uint64_t wave_allocations = 0;
  std::uint64_t drain_allocations = 0;
  for (int w = 0; w < kWarmupWaves + kTimedWaves; ++w) {
    auto wave = draw_wave(*sys, traffic);
    const std::uint64_t before = g_allocations.load();
    sys->transmit_pairs(std::move(wave), on_done);
    const std::uint64_t after_wave = g_allocations.load();
    sys->simulator().run();
    const std::uint64_t after_drain = g_allocations.load();
    if (w >= kWarmupWaves) {
      wave_allocations += after_wave - before;
      drain_allocations += after_drain - after_wave;
    }
  }
  const std::size_t served = kLanes * kMessagesPerPair;
  ASSERT_EQ(completions, (kWarmupWaves + kTimedWaves) * served);
  ASSERT_EQ(sys->stats().updates, 0u);

  const double messages = static_cast<double>(kTimedWaves * served);
  const double per_wave = static_cast<double>(wave_allocations) / messages;
  const double per_drain = static_cast<double>(drain_allocations) / messages;
  std::printf("allocations per message: %.2f in transmit_pairs, %.2f in the "
              "drain\n",
              per_wave, per_drain);
  EXPECT_LE(per_wave, 12.0);
  EXPECT_LE(per_drain, 4.0);
}

// The channel keeps its stage buffers and the trellis in thread-local
// scratch, so a warmed transmit allocates only the code's output vector and
// the returned bits. Both shapes send 128-bit payloads over QPSK at depth
// 8: serve's soft conv_k3_r12 at 3 dB and personalize's hard hamming74 at
// 10 dB.
TEST(ServeAllocations, WarmedPipelineTransmitAllocatesTwo) {
  for (const bool soft : {true, false}) {
    const auto pipe = channel::make_awgn_pipeline(
        channel::make_code(soft ? "conv_k3_r12" : "hamming74"),
        channel::Modulation::kQpsk, soft ? 3.0 : 10.0, 8);
    pipe->set_soft_decision(soft);
    Rng rng(3);
    const BitVec payload = test::random_bits(128, rng);
    const Rng noise(5);
    for (std::uint64_t slot = 0; slot < 4; ++slot) {
      Rng fork = noise.fork(slot);
      const std::uint64_t before = g_allocations.load();
      const BitVec received = pipe->transmit(payload, fork, slot);
      const std::uint64_t made = g_allocations.load() - before;
      ASSERT_EQ(received.size(), payload.size());
      if (slot > 0) {
        EXPECT_LE(made, 2u) << pipe->description() << " slot " << slot;
      }
    }
  }
}

// Each model holds its scratch as member tensors that a pass resizes in
// place, so once a pass has run at a shape, running it again at that shape
// reaches no allocator.
TEST(ServeAllocations, WarmedCodecAndLayerPassesAllocateNothing) {
  semantic::CodecConfig cc;
  cc.surface_vocab = 40;
  cc.meaning_vocab = 30;
  cc.sentence_length = 4;
  cc.feature_dim = 8;
  Rng rng(5);
  semantic::SemanticCodec codec(cc, rng);
  constexpr std::size_t kSentences = 3;
  std::vector<std::int32_t> surface(kSentences * cc.sentence_length);
  for (std::size_t i = 0; i < surface.size(); ++i) {
    surface[i] = static_cast<std::int32_t>((7 * i + 3) % cc.surface_vocab);
  }
  const auto allocations_of = [](const auto& pass) {
    pass();  // warm-up
    const std::uint64_t before = g_allocations.load();
    pass();
    return g_allocations.load() - before;
  };
  EXPECT_EQ(allocations_of([&] {
              codec.decoder().decode_logits_batch(
                  codec.encoder().encode_batch(surface, kSentences));
            }),
            0u)
      << "encode_batch + decode_logits_batch";

  nn::Embedding embed(cc.surface_vocab, 6, rng);
  nn::LinearReLU l1(6, 10, rng);
  nn::ReLU relu;
  nn::Linear l2(10, 5, rng);
  nn::Tanh tanh;
  const tensor::Tensor grad =
      tensor::Tensor::uniform({surface.size(), 5}, 1.0f, rng);
  EXPECT_EQ(allocations_of([&] {
              tanh.forward(l2.forward(
                  relu.forward(l1.forward(embed.forward(surface)))));
            }),
            0u)
      << "forward";
  EXPECT_EQ(allocations_of([&] {
              embed.backward(l1.backward(
                  relu.backward(l2.backward(tanh.backward(grad)))));
            }),
            0u)
      << "backward";

  nn::Gru gru(6, 5, rng);
  const tensor::Tensor xs = tensor::Tensor::uniform({7, 6}, 1.0f, rng);
  const tensor::Tensor grad_hs = tensor::Tensor::uniform({7, 5}, 1.0f, rng);
  EXPECT_EQ(allocations_of([&] { gru.forward(xs); }), 0u) << "gru forward";
  EXPECT_EQ(allocations_of([&] { gru.backward(grad_hs); }), 0u)
      << "gru backward";

  // CodecTrainer::finetune's step, feature noise on: the loss pass and
  // backward alone, then the whole step.
  std::vector<std::int32_t> meanings(surface.size());
  for (std::size_t i = 0; i < meanings.size(); ++i) {
    meanings[i] = static_cast<std::int32_t>((5 * i + 1) % cc.meaning_vocab);
  }
  const auto loss_pass = [&] {
    codec.forward_loss_batch(surface, meanings, kSentences, 0.1f, &rng);
  };
  EXPECT_EQ(allocations_of(loss_pass), 0u) << "forward_loss_batch";
  EXPECT_EQ(allocations_of([&] { codec.backward(); }), 0u) << "backward";
  nn::Adam opt(1e-3);
  nn::ParameterSet params = codec.parameters();
  EXPECT_EQ(allocations_of([&] {
              nn::Optimizer::zero_grad(params.params());
              loss_pass();
              codec.backward();
              nn::Optimizer::clip_grad_norm(params.params(), 5.0);
              opt.step(params.params());
            }),
            0u)
      << "training step";
}

}  // namespace
}  // namespace semcache::core
