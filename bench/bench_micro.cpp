// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: tensor matmul (square, rectangular, and allocation-free
// variants), codec encode/decode/train (single and batched), a whole
// fine-tune, its Adam step on both SIMD tiers and its gradient clipping
// above and below the cap, the serving mismatch's cross-entropy on both
// SIMD tiers, the selector forward pass, cache get/put and
// eviction, gradient-sync compression, Viterbi decoding, Huffman coding,
// quantization, and the event loop.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "cache/cache.hpp"
#include "core/system.hpp"
#include "channel/convolutional.hpp"
#include "channel/modulation.hpp"
#include "channel/physical.hpp"
#include "channel/simd.hpp"
#include "common/cpu.hpp"
#include "compress/huffman.hpp"
#include "edge/sim.hpp"
#include "fl/buffer.hpp"
#include "fl/compressor.hpp"
#include "nn/optimizer.hpp"
#include "select/gru_classifier.hpp"
#include "semantic/codec.hpp"
#include "semantic/quantizer.hpp"
#include "semantic/trainer.hpp"
#include "tensor/ops.hpp"
#include "text/corpus.hpp"

using namespace semcache;

static void BM_TensorMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto a = tensor::Tensor::uniform({n, n}, 1.0f, rng);
  const auto b = tensor::Tensor::uniform({n, n}, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_TensorMatmul)->Arg(16)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Non-square shapes exercise the blocked kernel's remainder paths: the
// codec's forward/backward shapes (skinny), plus tall and wide panels.
static void BM_TensorMatmulRect(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  const auto a = tensor::Tensor::uniform({m, k}, 1.0f, rng);
  const auto b = tensor::Tensor::uniform({k, n}, 1.0f, rng);
  tensor::Tensor c;
  for (auto _ : state) {
    tensor::matmul_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * k * n));
}
BENCHMARK(BM_TensorMatmulRect)
    ->Args({8, 48, 200})   // decoder output projection (L x hidden x vocab)
    ->Args({8, 20, 48})    // encoder hidden projection
    ->Args({192, 48, 200}) // 24-sentence fine-tune batch through the decoder
    ->Args({256, 64, 16})  // tall-skinny
    ->Args({16, 64, 256}); // short-wide

// The fused y = xW + b epilogue vs. the two-pass affine it replaced.
static void BM_TensorAffine(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto x = tensor::Tensor::uniform({m, 48}, 1.0f, rng);
  const auto w = tensor::Tensor::uniform({48, 200}, 1.0f, rng);
  const auto bias = tensor::Tensor::uniform({200}, 1.0f, rng);
  tensor::Tensor y;
  for (auto _ : state) {
    tensor::affine_into(y, x, w, bias);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_TensorAffine)->Arg(8)->Arg(64);

namespace {
semantic::CodecConfig micro_codec_config() {
  semantic::CodecConfig cc;
  cc.surface_vocab = 300;
  cc.meaning_vocab = 200;
  cc.sentence_length = 8;
  cc.embed_dim = 20;
  cc.feature_dim = 16;
  cc.hidden_dim = 48;
  return cc;
}
}  // namespace

static void BM_CodecEncode(benchmark::State& state) {
  Rng rng(2);
  semantic::SemanticCodec codec(micro_codec_config(), rng);
  const std::vector<std::int32_t> surface = {1, 2, 3, 4, 5, 6, 7, 8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encoder().encode(surface));
  }
}
BENCHMARK(BM_CodecEncode);

static void BM_CodecDecode(benchmark::State& state) {
  Rng rng(3);
  semantic::SemanticCodec codec(micro_codec_config(), rng);
  const std::vector<std::int32_t> surface = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto feature = codec.encoder().encode(surface);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decoder().decode(feature));
  }
}
BENCHMARK(BM_CodecDecode);

static void BM_CodecTrainStep(benchmark::State& state) {
  Rng rng(4);
  semantic::SemanticCodec codec(micro_codec_config(), rng);
  const std::vector<std::int32_t> surface = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::int32_t> meanings = {9, 8, 7, 6, 5, 4, 3, 2};
  for (auto _ : state) {
    codec.forward_loss(surface, meanings);
    codec.backward();
  }
}
BENCHMARK(BM_CodecTrainStep);

// Batched codec entry points: N sentences stacked as N*L rows through one
// kernel invocation per layer. items/s counts sentences, so the per-sentence
// amortization vs. BM_CodecEncode / BM_CodecTrainStep is directly readable.
static void BM_CodecEncodeBatch(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  semantic::SemanticCodec codec(micro_codec_config(), rng);
  std::vector<std::int32_t> surface(count * 8);
  for (std::size_t i = 0; i < surface.size(); ++i) {
    surface[i] = static_cast<std::int32_t>(i % 300);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec.encoder().encode_batch(surface, count).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_CodecEncodeBatch)->Arg(1)->Arg(8)->Arg(32);

static void BM_CodecTrainStepBatch(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  semantic::SemanticCodec codec(micro_codec_config(), rng);
  std::vector<std::int32_t> surface(count * 8);
  std::vector<std::int32_t> meanings(count * 8);
  for (std::size_t i = 0; i < surface.size(); ++i) {
    surface[i] = static_cast<std::int32_t>(i % 300);
    meanings[i] = static_cast<std::int32_t>((i * 7) % 200);
  }
  for (auto _ : state) {
    codec.forward_loss_batch(surface, meanings, count);
    codec.backward();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_CodecTrainStepBatch)->Arg(8)->Arg(32);

// The fine-tune that builds a user's individual model (§II-D), shaped like
// the `personalize` workload's: a codec over its 4-domain world (10,855
// parameters), 24 buffered samples from one domain, and the system
// defaults of 6 epochs at batch 1 (144 optimizer steps) and lr 1.5e-3.
// Each iteration clones the codec first, as run_update does, so every
// iteration trains the same weights. BM_CodecTrainStep times forward and
// backward only; this row adds gradient clipping and the Adam step.
namespace {
struct FinetuneSetup {
  semantic::CodecConfig config;
  std::vector<semantic::Sample> samples;
};

FinetuneSetup finetune_setup(std::size_t samples = 24) {
  text::WorldConfig wc;
  wc.concepts_per_domain = 20;  // perfbench's world: 174 x 125 vocab
  Rng rng(2023);
  const text::World world = text::World::generate(wc, rng);
  FinetuneSetup s{micro_codec_config(), {}};
  s.config.surface_vocab = world.surface_count();
  s.config.meaning_vocab = world.meaning_count();
  for (std::size_t i = 0; i < samples; ++i) {
    s.samples.push_back(
        semantic::CodecTrainer::draw_sample(world, 0, nullptr, rng));
  }
  return s;
}
}  // namespace

static void BM_CodecFinetune(benchmark::State& state) {
  const FinetuneSetup setup = finetune_setup();
  Rng init(15);
  const semantic::SemanticCodec base(setup.config, init);
  for (auto _ : state) {
    const auto codec = base.clone();
    Rng rng(16);
    benchmark::DoNotOptimize(semantic::CodecTrainer::finetune(
        *codec, setup.samples, 6, 1.5e-3, rng));
  }
}
BENCHMARK(BM_CodecFinetune)->Unit(benchmark::kMillisecond);

// The fine-tune a full buffer runs: in sustained serving a sender's buffer
// holds its capacity of 256 samples, and every update trains on all of
// them — 1,536 optimizer steps at batch 1. BM_CodecFinetune's setup
// otherwise. Informational: no gate reads it.
static void BM_CodecFinetuneAtCapacity(benchmark::State& state) {
  const FinetuneSetup setup = finetune_setup(256);
  Rng init(15);
  const semantic::SemanticCodec base(setup.config, init);
  for (auto _ : state) {
    const auto codec = base.clone();
    Rng rng(16);
    benchmark::DoNotOptimize(semantic::CodecTrainer::finetune(
        *codec, setup.samples, 6, 1.5e-3, rng));
  }
}
BENCHMARK(BM_CodecFinetuneAtCapacity)->Unit(benchmark::kMillisecond);

// One DomainBuffer::add into a full 256-sample buffer, as every served
// message of a sender at capacity makes: it copies the sample in, as the
// serving path does, and erases the front of the sample and mismatch
// vectors. Informational: no gate reads it.
static void BM_DomainBufferAddAtCapacity(benchmark::State& state) {
  const FinetuneSetup setup = finetune_setup(256);
  fl::DomainBuffer buffer(24, 256);
  for (const semantic::Sample& sample : setup.samples) buffer.add(sample, 0.5);
  std::size_t next = 0;
  for (auto _ : state) {
    buffer.add(setup.samples[next], 0.5);
    benchmark::DoNotOptimize(buffer.samples().data());
    benchmark::ClobberMemory();
    next = (next + 1) % setup.samples.size();
  }
}
BENCHMARK(BM_DomainBufferAddAtCapacity);

// One Adam step over the same codec's parameters, with the gradients of
// one of those samples, so the embedding rows the sample does not touch
// carry zero gradient and zero moments, as in a fine-tune. Arg(0) pins
// the scalar loop, Arg(1) the AVX2 tier (scalar too on a host without
// AVX2+FMA, so the pair then reads 1.0). Both tiers write the same bits
// (test_simd), so the rows differ in wall time only.
static void BM_AdamStep(benchmark::State& state) {
  const auto tier = state.range(0) == 0 ? common::SimdTier::kScalar
                                        : common::SimdTier::kAvx2;
  const common::SimdTier prev = common::set_simd_tier(tier);
  const FinetuneSetup setup = finetune_setup();
  Rng init(15);
  semantic::SemanticCodec codec(setup.config, init);
  nn::ParameterSet params = codec.parameters();
  codec.forward_loss(setup.samples[0].surface, setup.samples[0].meanings);
  codec.backward();
  nn::Adam opt(1.5e-3);
  for (auto _ : state) {
    opt.step(params.params());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.scalar_count()));
  common::set_simd_tier(prev);
}
BENCHMARK(BM_AdamStep)->Arg(0)->Arg(1);

// Gradient clipping at the fine-tune's cap of 5 over the same codec's
// gradients from one sample, scaled to twice the cap (Arg(0): the float
// chain runs and scales) or to half of it (Arg(1): the double sum alone
// decides that nothing changes). Every iteration first restores the
// scaled gradients, so both rows clip the same input each time.
static void BM_ClipGradNorm(benchmark::State& state) {
  constexpr double kCap = 5.0;
  const FinetuneSetup setup = finetune_setup();
  Rng init(15);
  semantic::SemanticCodec codec(setup.config, init);
  nn::ParameterSet params = codec.parameters();
  codec.forward_loss(setup.samples[0].surface, setup.samples[0].meanings);
  codec.backward();
  double sq = 0.0;
  for (const float g : params.flatten_grads()) sq += double{g} * g;
  const auto scale = static_cast<float>(
      (state.range(0) == 0 ? 2.0 : 0.5) * kCap / std::sqrt(sq));
  std::vector<std::vector<float>> grads;
  for (nn::Parameter* p : params.params()) {
    grads.emplace_back(p->grad.flat().begin(), p->grad.flat().end());
    for (float& g : grads.back()) g *= scale;
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < grads.size(); ++i) {
      std::copy(grads[i].begin(), grads[i].end(),
                params.params()[i]->grad.data());
    }
    benchmark::DoNotOptimize(
        nn::Optimizer::clip_grad_norm(params.params(), kCap));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.scalar_count()));
}
BENCHMARK(BM_ClipGradNorm)->Arg(0)->Arg(1);

// The serving mismatch's cross-entropy (③) on one serve-shaped message:
// the 8 x 125 logits the same codec's decoder gives one of those samples,
// read in place by tensor::mean_cross_entropy against its meanings.
// Arg(0) pins the scalar loop, Arg(1) the AVX2 tier (scalar too on a host
// without AVX2+FMA, so the pair then reads 1.0). Both tiers return the same
// bits (test_simd), so the rows differ in wall time only;
// regression_gate.speedup requires /1 to beat /0 by more than 1.3x.
static void BM_CrossEntropy(benchmark::State& state) {
  const auto tier = state.range(0) == 0 ? common::SimdTier::kScalar
                                        : common::SimdTier::kAvx2;
  const common::SimdTier prev = common::set_simd_tier(tier);
  const FinetuneSetup setup = finetune_setup();
  Rng init(15);
  semantic::SemanticCodec codec(setup.config, init);
  const semantic::Sample& sample = setup.samples[0];
  const tensor::Tensor logits = codec.decoder().decode_logits_batch(
      codec.encoder().encode_batch(sample.surface, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::mean_cross_entropy(
        logits.flat(), logits.dim(1), sample.meanings));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(logits.size()));
  common::set_simd_tier(prev);
}
BENCHMARK(BM_CrossEntropy)->Arg(0)->Arg(1);

// Selector forward pass: the per-message model-selection cost on the
// transmit hot path (§III-A), measured on the GRU classifier with a few
// messages of conversation context.
static void BM_SelectorForward(benchmark::State& state) {
  Rng rng(11);
  select::GruClassifier selector(300, 4, rng);
  const std::vector<std::int32_t> surface = {3, 14, 15, 92, 6, 53, 58, 9};
  for (std::size_t warm = 0; warm < 3; ++warm) {
    selector.observe(surface, warm % 4);
  }
  // Each iteration: a 4-message conversation, one select per message (the
  // GRU re-runs the growing prefix, as the online path does).
  for (auto _ : state) {
    for (int msg = 0; msg < 4; ++msg) {
      benchmark::DoNotOptimize(selector.select(surface));
    }
    selector.reset_context();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_SelectorForward);

// End-to-end batched data plane: a one-pair wave of N cross-edge messages
// (encode/quantize/channel/decode plus the timing-plane event chains,
// drained per batch). items/s counts messages, so per-message amortization
// vs. Arg(1) — one message per wave — is directly readable. The
// fine-tune trigger is set above the batch size and the buffer cleared
// between iterations, so this measures the pure serving path.
static void BM_TransmitBatch(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  static core::SemanticEdgeSystem* system = [] {
    core::SystemConfig config;
    config.seed = 91;
    config.world.num_domains = 2;
    config.world.sentence_length = 8;
    config.codec.embed_dim = 20;
    config.codec.feature_dim = 16;
    config.codec.hidden_dim = 48;
    config.pretrain.steps = 200;  // throughput bench: accuracy irrelevant
    config.oracle_selection = true;
    config.buffer_trigger = 64;  // > max batch: no fine-tune in the loop
    config.buffer_capacity = 64;
    auto built = core::SemanticEdgeSystem::build(config);
    built->register_user("s", 0, nullptr);
    built->register_user("r", 1, nullptr);
    return built.release();
  }();
  static const std::vector<text::Sentence>* pool = [] {
    auto* msgs = new std::vector<text::Sentence>;
    for (int i = 0; i < 32; ++i) {
      msgs->push_back(system->sample_message("s", 0));
    }
    return msgs;
  }();

  // Warm the (s, domain 0) slot so find_slot below never sees null.
  const core::SemanticEdgeSystem::PairDone ignore =
      [](std::size_t, std::size_t, core::TransmitReport) {};
  std::vector<core::SemanticEdgeSystem::PairBatch> wave{
      {"s", "r", {pool->front()}}};
  system->transmit_pairs(wave, ignore);
  system->simulator().run();
  auto* buffer =
      system->edge_state(0).find_slot("s", 0)->buffer.get();
  buffer->clear();

  for (auto _ : state) {
    wave[0].messages = std::vector<text::Sentence>(
        pool->begin(), pool->begin() + static_cast<std::ptrdiff_t>(count));
    system->transmit_pairs(wave, ignore);
    system->simulator().run();
    state.PauseTiming();
    buffer->clear();  // keep the transaction ring from growing unboundedly
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_TransmitBatch)->Arg(1)->Arg(8)->Arg(32);

// BM_TransmitBatch's exact workload on a system built with num_threads =
// {1, 2, 4} (args: {threads, batch}). The pool runs only a wave's sender
// lanes, so this one-pair, one-lane wave
// computes inline on the calling thread: each row should match its
// BM_TransmitBatch twin at the same batch, and a row slower than the twin
// means the pooled system taxes the path it does not parallelize. Output
// is bit-identical to the sequential path by construction
// (test_transmit_parallel). One system per thread count (the pool is
// fixed at build), built lazily and leaked like BM_TransmitBatch's.
static void BM_TransmitBatchThreaded(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  static auto* systems =
      new std::map<std::size_t, core::SemanticEdgeSystem*>();
  static auto* pools =
      new std::map<std::size_t, std::vector<text::Sentence>>();
  if (!systems->contains(threads)) {
    core::SystemConfig config;
    config.seed = 91;
    config.world.num_domains = 2;
    config.world.sentence_length = 8;
    config.codec.embed_dim = 20;
    config.codec.feature_dim = 16;
    config.codec.hidden_dim = 48;
    config.pretrain.steps = 200;  // throughput bench: accuracy irrelevant
    config.oracle_selection = true;
    config.buffer_trigger = 64;  // > max batch: no fine-tune in the loop
    config.buffer_capacity = 64;
    config.num_threads = threads;
    auto built = core::SemanticEdgeSystem::build(config);
    built->register_user("s", 0, nullptr);
    built->register_user("r", 1, nullptr);
    auto& msgs = (*pools)[threads];
    for (int i = 0; i < 32; ++i) {
      msgs.push_back(built->sample_message("s", 0));
    }
    (*systems)[threads] = built.release();
  }
  core::SemanticEdgeSystem* system = (*systems)[threads];
  const std::vector<text::Sentence>& pool = (*pools)[threads];

  const core::SemanticEdgeSystem::PairDone ignore =
      [](std::size_t, std::size_t, core::TransmitReport) {};
  std::vector<core::SemanticEdgeSystem::PairBatch> wave{
      {"s", "r", {pool.front()}}};
  system->transmit_pairs(wave, ignore);
  system->simulator().run();
  auto* buffer = system->edge_state(0).find_slot("s", 0)->buffer.get();
  buffer->clear();

  for (auto _ : state) {
    wave[0].messages = std::vector<text::Sentence>(
        pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(count));
    system->transmit_pairs(wave, ignore);
    system->simulator().run();
    state.PauseTiming();
    buffer->clear();  // keep the transaction ring from growing unboundedly
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_TransmitBatchThreaded)
    ->Args({1, 8})
    ->Args({1, 32})
    ->Args({2, 8})
    ->Args({2, 32})
    ->Args({4, 8})
    ->Args({4, 32});

// Cross-pair parallel serving: P independent user pairs (distinct
// senders, alternating cross-edge directions) each ship an 8-message
// batch as ONE transmit_pairs wave (args: {threads, pairs}). threads=0
// is the sequential reference; on a multi-core host the threads=4 row
// over the threads=0 row at the same pair count is the wall-clock
// speedup of the cross-pair layer (the lanes are truly independent, so
// this is the row the CI perf plane gates on). Results are bit-identical
// across rows by construction (test_serve_pairs).
static void BM_ServePairsThreaded(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto pairs = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kPerPair = 8;
  struct Setup {
    core::SemanticEdgeSystem* system;
    std::vector<text::Sentence> messages;  // one lockstep draw, reused
  };
  static auto* setups = new std::map<std::size_t, Setup>();
  if (!setups->contains(threads)) {
    core::SystemConfig config;
    config.seed = 92;
    config.world.num_domains = 2;
    config.world.sentence_length = 8;
    config.codec.embed_dim = 20;
    config.codec.feature_dim = 16;
    config.codec.hidden_dim = 48;
    config.pretrain.steps = 200;  // throughput bench: accuracy irrelevant
    config.oracle_selection = true;
    config.buffer_trigger = 64;  // > per-pair batch: no fine-tune in loop
    config.buffer_capacity = 64;
    config.num_threads = threads;
    auto built = core::SemanticEdgeSystem::build(config);
    for (std::size_t p = 0; p < 4; ++p) {
      built->register_user("s" + std::to_string(p), p % 2, nullptr);
      built->register_user("r" + std::to_string(p), (p + 1) % 2, nullptr);
    }
    Setup setup;
    setup.messages.reserve(kPerPair);
    for (std::size_t i = 0; i < kPerPair; ++i) {
      setup.messages.push_back(built->sample_message("s0", 0));
    }
    setup.system = built.release();
    (*setups)[threads] = std::move(setup);
  }
  Setup& setup = (*setups)[threads];
  core::SemanticEdgeSystem* system = setup.system;

  auto make_wave = [&] {
    std::vector<core::SemanticEdgeSystem::PairBatch> wave(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
      wave[p].sender = "s" + std::to_string(p);
      wave[p].receiver = "r" + std::to_string(p);
      wave[p].messages = setup.messages;
    }
    return wave;
  };
  // Warm every pair's slots (slot establishment is a one-off).
  system->transmit_pairs(make_wave(),
                         [](std::size_t, std::size_t, core::TransmitReport) {});
  system->simulator().run();
  auto clear_buffers = [&] {
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t edge = p % 2;
      system->edge_state(edge)
          .find_slot("s" + std::to_string(p), 0)
          ->buffer->clear();
    }
  };
  clear_buffers();

  for (auto _ : state) {
    system->transmit_pairs(
        make_wave(), [](std::size_t, std::size_t, core::TransmitReport) {});
    system->simulator().run();
    state.PauseTiming();
    clear_buffers();  // keep the transaction rings from tripping updates
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs * kPerPair));
}
BENCHMARK(BM_ServePairsThreaded)
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({4, 2})
    ->Args({4, 4});

static void BM_ViterbiDecode(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  channel::ConvolutionalCode code;
  BitVec info(bits);
  for (auto& b : info) b = rng.bernoulli(0.5) ? 1 : 0;
  const BitVec coded = code.encode(info);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(coded));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits));
}
BENCHMARK(BM_ViterbiDecode)->Arg(64)->Arg(512);

// The receive path of a soft pipeline: LLRs quantize to confidence
// weights on the same weighted trellis that hard decoding (above) runs at
// weight 1, so the gap between the two rows is the LLR slicing.
static void BM_ViterbiDecodeSoft(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  channel::ConvolutionalCode code;
  BitVec info(bits);
  for (auto& b : info) b = rng.bernoulli(0.5) ? 1 : 0;
  const BitVec coded = code.encode(info);
  std::vector<float> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = static_cast<float>((coded[i] != 0 ? 1.0 : -1.0) +
                                 rng.gaussian(0.0, 0.7));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode_soft(llrs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits));
}
BENCHMARK(BM_ViterbiDecodeSoft)->Arg(64)->Arg(512);

static void BM_HuffmanEncode(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::uint8_t> data(1024);
  for (auto& b : data) {
    b = rng.bernoulli(0.7) ? 'e' : static_cast<std::uint8_t>(
                                       rng.uniform_int(0, 255));
  }
  const auto code = compress::HuffmanCode::build(compress::histogram(data));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_HuffmanEncode);

static void BM_CacheGetPut(benchmark::State& state) {
  cache::Cache<int> c(1 << 20, cache::make_lru_policy());
  cache::EntryInfo info;
  info.size_bytes = 64;
  Rng rng(7);
  int i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ % 1000);
    if (c.get(key) == nullptr) {
      c.put(key, std::make_shared<int>(i), info);
    }
  }
}
BENCHMARK(BM_CacheGetPut);

// Eviction path: the cache is sized for 64 entries and fed a 1024-key
// cycle, so nearly every put must choose and expel an LRU victim — the
// model-churn regime of a saturated edge (E5).
static void BM_CacheEviction(benchmark::State& state) {
  cache::Cache<int> c(64 * 64, cache::make_lru_policy());
  cache::EntryInfo info;
  info.size_bytes = 64;
  int i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ % 1024);
    c.put(key, std::make_shared<int>(i), info);
  }
  state.counters["evictions"] =
      static_cast<double>(c.stats().evictions) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_CacheEviction);

// Gradient-sync compression (§II-D / E9): top-k sparsification + int8
// quantization of a decoder-sized delta, the per-update cost on the
// fine-tune sync path.
static void BM_SyncCompress(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  std::vector<float> delta(dims);
  for (auto& d : delta) {
    d = static_cast<float>(rng.gaussian(0.0, 0.01));
  }
  const fl::DeltaCompressor compressor({/*top_k_fraction=*/0.25, /*bits=*/8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(compressor.compress(delta).byte_size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dims));
}
BENCHMARK(BM_SyncCompress)->Arg(10000)->Arg(100000);

static void BM_Quantizer(benchmark::State& state) {
  semantic::FeatureQuantizer q(16, 6);
  Rng rng(8);
  tensor::Tensor f({1, 16});
  for (std::size_t i = 0; i < 16; ++i) {
    f.at(0, i) = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.roundtrip(f));
  }
}
BENCHMARK(BM_Quantizer);

// Schedules n events at distinct times in a fixed scrambled order, then
// drains them. The times interleave with those already queued, as the
// serving drain's do, so pushes sift as well as pops (ascending times
// would stop every push at a leaf). 7919 is prime and coprime to both n,
// so (i * 7919) mod n visits every slot once. /1000 holds more events
// pending than any workload or bench reaches (the largest measured peak
// is e10's 320, README "Event loop"); /100000 is a stress row, about 300x
// that peak, where the heap's log n sift shows.
static void BM_SimulatorEventLoop(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    edge::Simulator sim;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % n) * 1e-3, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimulatorEventLoop)->Arg(1000)->Arg(100000);

// Vectorized channel floor, both dispatch tiers in one capture: the full
// bit-pipeline a transmit pays per message — conv encode, 16-QAM map,
// keyed AWGN, hard demap, Viterbi decode — on a 4096-bit payload. Arg(0)
// pins the scalar kernels, Arg(1) the AVX2 tier (identical to scalar when
// the host lacks AVX2+FMA, so the ratio reads 1.0 there rather than
// lying). Output bits are tier-invariant by contract (test_simd), so the
// rows differ in wall time only. The AVX2 noise generator and the SSE
// weighted trellis (the hard decode runs it at weight 1) with its
// branch-free survivor stores carry the gap; the 16-QAM map and hard
// demap run the same scalar loops on both tiers.
// regression_gate.speedup requires /1 to beat /0 by more than 1.3x.
static void BM_ChannelBatchSimd(benchmark::State& state) {
  const auto tier = state.range(0) == 0 ? common::SimdTier::kScalar
                                        : common::SimdTier::kAvx2;
  const common::SimdTier prev = common::set_simd_tier(tier);
  Rng bits_rng(21);
  BitVec info(4096);
  for (auto& b : info) b = bits_rng.bernoulli(0.5) ? 1 : 0;
  channel::ConvolutionalCode code;
  channel::AwgnChannel awgn(8.0);
  const BitVec coded = code.encode(info);
  for (auto _ : state) {
    std::vector<channel::Symbol> symbols =
        channel::modulate(coded, channel::Modulation::kQam16);
    Rng noise_rng(77);
    awgn.apply(symbols, noise_rng, 0);
    const BitVec received =
        channel::demodulate(symbols, channel::Modulation::kQam16,
                            coded.size());
    benchmark::DoNotOptimize(code.decode(received));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(info.size()));
  state.SetLabel(channel::detail::engaged_channel_kernels() != nullptr
                     ? "avx2"
                     : "scalar");
  common::set_simd_tier(prev);
}
BENCHMARK(BM_ChannelBatchSimd)->Arg(0)->Arg(1);

static void BM_Modulate16Qam(benchmark::State& state) {
  Rng rng(9);
  BitVec bits(4096);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        channel::modulate(bits, channel::Modulation::kQam16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Modulate16Qam);

// Custom main instead of BENCHMARK_MAIN(): stamp the engaged SIMD path
// into the Google Benchmark context so every JSON capture records which
// ISA actually ran (the tier is a runtime choice — the binary alone
// doesn't identify the kernels; see README "SIMD kernels").
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("semcache_simd", tensor::active_matmul_path());
  benchmark::AddCustomContext(
      "semcache_simd_tier",
      common::simd_tier_name(common::active_simd_tier()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
