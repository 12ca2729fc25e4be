#include "semantic/trainer.hpp"

#include <algorithm>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "nn/optimizer.hpp"
#include "semantic/fixture_cache.hpp"

namespace semcache::semantic {

namespace {
// Sets flush-to-zero and denormals-are-zero (MXCSR bits 15 and 6) on the
// calling thread for its lifetime and restores the saved MXCSR on every
// exit. A slot model fine-tuned again and again drives more and more of
// its backward pass into subnormal floats, each of which costs a
// microcode assist. Only fine-tuning runs under it: pretrained weights,
// and with them the fixture cache and every serving digest, keep the
// default mode's bits. Where there is no MXCSR it does nothing.
#if defined(__SSE__)
class SubnormalsFlushed {
 public:
  SubnormalsFlushed() : saved_(_mm_getcsr()) { _mm_setcsr(saved_ | kFtzDaz); }
  ~SubnormalsFlushed() { _mm_setcsr(saved_); }
  SubnormalsFlushed(const SubnormalsFlushed&) = delete;
  SubnormalsFlushed& operator=(const SubnormalsFlushed&) = delete;

 private:
  static constexpr unsigned kFtzDaz = (1u << 15) | (1u << 6);
  unsigned saved_;
};
#else
struct SubnormalsFlushed {};
#endif

TrainStats run_steps(SemanticCodec& codec, const TrainConfig& config,
                     const std::function<Sample()>& next_sample, Rng& rng) {
  nn::Adam opt(config.lr);
  nn::ParameterSet params = codec.parameters();
  TrainStats stats;
  for (std::size_t step = 0; step < config.steps; ++step) {
    const Sample s = next_sample();
    nn::Optimizer::zero_grad(params.params());
    const double loss = codec.forward_loss(
        s.surface, s.meanings, static_cast<float>(config.feature_noise), &rng);
    codec.backward();
    nn::Optimizer::clip_grad_norm(params.params(), config.grad_clip);
    opt.step(params.params());
    if (step == 0) stats.first_loss = loss;
    stats.final_loss = loss;
    ++stats.steps;
  }
  return stats;
}
}  // namespace

Sample CodecTrainer::draw_sample(const text::World& world, std::size_t domain,
                                 const text::Idiolect* idiolect, Rng& rng) {
  text::Sentence s = world.sample_sentence(domain, rng);
  if (idiolect != nullptr) idiolect->apply(s);
  return {std::move(s.surface), std::move(s.meanings)};
}

TrainStats CodecTrainer::pretrain_domain(SemanticCodec& codec,
                                         const text::World& world,
                                         std::size_t domain,
                                         const TrainConfig& config, Rng& rng) {
  std::uint64_t key = 0;
  if (FixtureCache::enabled()) {
    key = FixtureCache::key(codec, world, config, rng, 0xD0000000ULL + domain);
    if (auto stats = FixtureCache::try_load(key, codec, rng)) return *stats;
  }
  const TrainStats stats = run_steps(codec, config, [&] {
    return draw_sample(world, domain, nullptr, rng);
  }, rng);
  if (FixtureCache::enabled()) FixtureCache::store(key, codec, rng, stats);
  return stats;
}

TrainStats CodecTrainer::pretrain_pooled(SemanticCodec& codec,
                                         const text::World& world,
                                         const TrainConfig& config, Rng& rng) {
  std::uint64_t key = 0;
  if (FixtureCache::enabled()) {
    key = FixtureCache::key(codec, world, config, rng, 0xB00000000ULL);
    if (auto stats = FixtureCache::try_load(key, codec, rng)) return *stats;
  }
  const TrainStats stats = run_steps(codec, config, [&] {
    const auto domain = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(world.num_domains()) - 1));
    return draw_sample(world, domain, nullptr, rng);
  }, rng);
  if (FixtureCache::enabled()) FixtureCache::store(key, codec, rng, stats);
  return stats;
}

TrainStats CodecTrainer::finetune(SemanticCodec& codec,
                                  std::span<const Sample> samples,
                                  std::size_t epochs, double lr, Rng& rng,
                                  double feature_noise,
                                  std::size_t batch_size) {
  SEMCACHE_CHECK(!samples.empty(), "finetune: no samples");
  SEMCACHE_CHECK(batch_size >= 1, "finetune: batch_size must be >= 1");
  const SubnormalsFlushed fp_mode;
  nn::Adam opt(lr);
  nn::ParameterSet params = codec.parameters();
  TrainStats stats;
  const std::size_t sentence_length = codec.config().sentence_length;
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Flat id buffers reused across steps (allocation-free after warm-up).
  std::vector<std::int32_t> surface;
  std::vector<std::int32_t> meanings;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t pos = 0; pos < order.size(); pos += batch_size) {
      const std::size_t count =
          std::min(batch_size, order.size() - pos);
      surface.clear();
      meanings.clear();
      for (std::size_t b = 0; b < count; ++b) {
        const Sample& s = samples[order[pos + b]];
        SEMCACHE_CHECK(s.surface.size() == sentence_length &&
                           s.meanings.size() == sentence_length,
                       "finetune: sample length mismatch");
        surface.insert(surface.end(), s.surface.begin(), s.surface.end());
        meanings.insert(meanings.end(), s.meanings.begin(), s.meanings.end());
      }
      nn::Optimizer::zero_grad(params.params());
      const double loss = codec.forward_loss_batch(
          surface, meanings, count, static_cast<float>(feature_noise), &rng);
      codec.backward();
      nn::Optimizer::clip_grad_norm(params.params(), 5.0);
      opt.step(params.params());
      if (stats.steps == 0) stats.first_loss = loss;
      stats.final_loss = loss;
      ++stats.steps;
    }
  }
  return stats;
}

}  // namespace semcache::semantic
