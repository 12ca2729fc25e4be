// Unit tests for semcache::nn. The backbone is numerical gradient checking:
// every layer's analytic backward pass is validated against central finite
// differences, which is what makes the explicit-backward design trustworthy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "nn/gradcheck.hpp"
#include "nn/gru.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace semcache::nn {
namespace {

using tensor::Tensor;

constexpr double kGradTol = 2e-2;  // float32 + central differences

// Gradcheck scaffold: forward -> loss -> backward, then compare.
template <typename Forward>
GradCheckResult check_layer(std::vector<Parameter*> params, Forward forward) {
  // Build a fixed random "loss projection" so the scalar loss exercises all
  // outputs: loss = sum(w ⊙ y).
  Rng rng(99);
  const Tensor y0 = forward();
  const Tensor w = Tensor::uniform(y0.shape(), 1.0f, rng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(forward(), w));
  };
  return gradcheck(loss_fn, params, 1e-3, 0);
}

TEST(GradCheck, LinearLayer) {
  Rng rng(1);
  Linear layer(5, 4, rng);
  const Tensor x = Tensor::uniform({3, 5}, 1.0f, rng);
  Rng wrng(99);
  const Tensor w = Tensor::uniform({3, 4}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(layer.forward(x), w));
  };
  loss_fn();
  Optimizer::zero_grad(layer.parameters());
  layer.forward(x);
  layer.backward(w);  // dL/dy = w for this loss
  const auto result = gradcheck(loss_fn, layer.parameters());
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
  EXPECT_GT(result.checked, 20u);
}

TEST(GradCheck, LinearInputGradient) {
  Rng rng(2);
  Linear layer(4, 3, rng);
  Tensor x = Tensor::uniform({2, 4}, 1.0f, rng);
  Rng wrng(99);
  const Tensor w = Tensor::uniform({2, 3}, 1.0f, wrng);
  // Wrap x as a parameter so gradcheck can perturb it.
  Parameter px("x", x);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(layer.forward(px.value), w));
  };
  layer.forward(px.value);
  px.grad = layer.backward(w);
  Parameter* params[] = {&px};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

template <typename LayerT>
void check_activation_input_grad() {
  Rng rng(3);
  LayerT layer;
  Parameter px("x", Tensor::uniform({2, 6}, 2.0f, rng));
  Rng wrng(99);
  const Tensor w = Tensor::uniform({2, 6}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(layer.forward(px.value), w));
  };
  layer.forward(px.value);
  px.grad = layer.backward(w);
  Parameter* params[] = {&px};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, ReluInput) { check_activation_input_grad<ReLU>(); }
TEST(GradCheck, TanhInput) { check_activation_input_grad<Tanh>(); }
TEST(GradCheck, SigmoidInput) { check_activation_input_grad<Sigmoid>(); }

TEST(GradCheck, LayerNormParamsAndInput) {
  Rng rng(4);
  LayerNorm layer(5);
  Parameter px("x", Tensor::uniform({3, 5}, 1.5f, rng));
  Rng wrng(99);
  const Tensor w = Tensor::uniform({3, 5}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(layer.forward(px.value), w));
  };
  Optimizer::zero_grad(layer.parameters());
  layer.forward(px.value);
  px.grad = layer.backward(w);
  std::vector<Parameter*> params = layer.parameters();
  params.push_back(&px);
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, SequentialMlp) {
  Rng rng(5);
  Sequential mlp;
  mlp.add(std::make_unique<Linear>(6, 8, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(8, 3, rng))
      .add(std::make_unique<Tanh>());
  const Tensor x = Tensor::uniform({2, 6}, 1.0f, rng);
  Rng wrng(99);
  const Tensor w = Tensor::uniform({2, 3}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(mlp.forward(x), w));
  };
  Optimizer::zero_grad(mlp.parameters());
  mlp.forward(x);
  mlp.backward(w);
  const auto result = gradcheck(loss_fn, mlp.parameters(), 1e-3, 40);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, EmbeddingGradient) {
  Rng rng(6);
  Embedding emb(10, 4, rng);
  const std::vector<std::int32_t> ids = {2, 7, 2};  // repeated id accumulates
  Rng wrng(99);
  const Tensor w = Tensor::uniform({3, 4}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(emb.forward(ids), w));
  };
  Optimizer::zero_grad(emb.parameters());
  emb.forward(ids);
  emb.backward(w);
  const auto result = gradcheck(loss_fn, emb.parameters());
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, GruFullBptt) {
  Rng rng(7);
  Gru gru(3, 4, rng);
  const Tensor xs = Tensor::uniform({5, 3}, 1.0f, rng);
  Rng wrng(99);
  const Tensor w = Tensor::uniform({5, 4}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(gru.forward(xs), w));
  };
  Optimizer::zero_grad(gru.parameters());
  gru.forward(xs);
  gru.backward(w);
  const auto result = gradcheck(loss_fn, gru.parameters(), 1e-3, 0);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, GruInputGradient) {
  Rng rng(8);
  Gru gru(3, 4, rng);
  Parameter px("xs", Tensor::uniform({4, 3}, 1.0f, rng));
  Rng wrng(99);
  const Tensor w = Tensor::uniform({4, 4}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(gru.forward(px.value), w));
  };
  gru.forward(px.value);
  px.grad = gru.backward(w);
  Parameter* params[] = {&px};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(9);
  Parameter logits("logits", Tensor::uniform({4, 5}, 1.0f, rng));
  const std::vector<std::int32_t> targets = {0, 3, 2, 4};
  SoftmaxCrossEntropy ce;
  auto loss_fn = [&]() -> double {
    return ce.forward(logits.value, targets);
  };
  loss_fn();
  logits.grad = ce.backward();
  Parameter* params[] = {&logits};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, MeanSquaredError) {
  Rng rng(10);
  Parameter pred("pred", Tensor::uniform({3, 3}, 1.0f, rng));
  const Tensor target = Tensor::uniform({3, 3}, 1.0f, rng);
  MeanSquaredError mse;
  auto loss_fn = [&]() -> double { return mse.forward(pred.value, target); };
  loss_fn();
  pred.grad = mse.backward();
  Parameter* params[] = {&pred};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(Loss, CrossEntropyKnownValue) {
  // Uniform logits over 4 classes -> loss = ln(4).
  Tensor logits({1, 4});
  SoftmaxCrossEntropy ce;
  const std::vector<std::int32_t> t = {2};
  EXPECT_NEAR(ce.forward(logits, t), std::log(4.0), 1e-6);
}

TEST(Loss, CrossEntropyRejectsBadTarget) {
  Tensor logits({1, 3});
  SoftmaxCrossEntropy ce;
  const std::vector<std::int32_t> t = {3};
  EXPECT_THROW(ce.forward(logits, t), Error);
}

TEST(Loss, MseKnownValue) {
  Tensor a({2}, {1, 3});
  Tensor b({2}, {2, 1});
  MeanSquaredError mse;
  EXPECT_DOUBLE_EQ(mse.forward(a, b), (1.0 + 4.0) / 2.0);
}

TEST(Relu, ForwardClampsNegative) {
  ReLU relu;
  Tensor x({1, 3}, {-1, 0, 2});
  EXPECT_TRUE(relu.forward(x).equals(Tensor({1, 3}, {0, 0, 2})));
}

TEST(Sequential, ParametersCollectedInOrder) {
  Rng rng(11);
  Sequential mlp;
  mlp.add(std::make_unique<Linear>(2, 3, rng, "first"))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(3, 2, rng, "second"));
  const auto params = mlp.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->name, "first.w");
  EXPECT_EQ(params[3]->name, "second.b");
}

TEST(Embedding, OutOfRangeIdThrows) {
  Rng rng(12);
  Embedding emb(5, 2, rng);
  const std::vector<std::int32_t> bad = {5};
  EXPECT_THROW(emb.forward(bad), Error);
  const std::vector<std::int32_t> neg = {-1};
  EXPECT_THROW(emb.forward(neg), Error);
}

TEST(Optimizer, SgdStepDirection) {
  Rng rng(13);
  Parameter p("p", Tensor({2}, {1.0f, 1.0f}));
  p.grad = Tensor({2}, {1.0f, -1.0f});
  Sgd sgd(0.5);
  Parameter* params[] = {&p};
  sgd.step(params);
  EXPECT_FLOAT_EQ(p.value.at(0), 0.5f);
  EXPECT_FLOAT_EQ(p.value.at(1), 1.5f);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  Parameter p("p", Tensor({1}, {0.0f}));
  Sgd sgd(1.0, 0.5);
  Parameter* params[] = {&p};
  p.grad = Tensor({1}, {1.0f});
  sgd.step(params);  // v=1, p=-1
  p.grad = Tensor({1}, {1.0f});
  sgd.step(params);  // v=1.5, p=-2.5
  EXPECT_FLOAT_EQ(p.value.at(0), -2.5f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimize (x - 3)^2 by gradient descent.
  Parameter p("x", Tensor({1}, {-5.0f}));
  Adam adam(0.1);
  Parameter* params[] = {&p};
  for (int i = 0; i < 500; ++i) {
    p.grad = Tensor({1}, {2.0f * (p.value.at(0) - 3.0f)});
    adam.step(params);
  }
  EXPECT_NEAR(p.value.at(0), 3.0f, 1e-2f);
}

TEST(Optimizer, ClipGradNorm) {
  Parameter p("p", Tensor({2}));
  p.grad = Tensor({2}, {3.0f, 4.0f});  // norm 5
  Parameter* params[] = {&p};
  const double pre = Optimizer::clip_grad_norm(params, 1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(tensor::l2_norm(p.grad), 1.0f, 1e-5f);
  // Below the cap: untouched.
  p.grad = Tensor({2}, {0.3f, 0.4f});
  Optimizer::clip_grad_norm(params, 1.0);
  EXPECT_NEAR(tensor::l2_norm(p.grad), 0.5f, 1e-6f);
}

// clip_grad_norm as it was before the double decision, kept as the
// reference: each tensor's float l2_norm, squared and summed in double,
// decides whether to scale and by how much.
double chain_clip(std::span<Parameter* const> params, double max_norm) {
  double sq = 0.0;
  for (const Parameter* p : params) {
    const double n = tensor::l2_norm(p->grad);
    sq += n * n;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (Parameter* p : params) {
      float* pg = p->grad.data();
      for (std::size_t i = 0; i < p->grad.size(); ++i) pg[i] *= scale;
    }
  }
  return norm;
}

using GradSet = std::vector<std::vector<float>>;

// clip_grad_norm's documented return value: the exact squares summed in
// double over 16 lanes, element i of each tensor in lane i % 16.
double lane_norm(const GradSet& grads) {
  double lane[16] = {};
  for (const std::vector<float>& g : grads) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double x = g[i];
      lane[i % 16] += x * x;
    }
  }
  double sq = 0.0;
  for (const double s : lane) sq += s;
  return std::sqrt(sq);
}

// The relative margin optimizer.cpp derives for a call whose largest
// tensor has n elements: γ(n + 4) with u = 2^-24.
double clip_margin(std::size_t n) {
  const double nu = static_cast<double>(n + 4) * 0x1p-24;
  return nu / (1.0 - nu);
}

std::vector<Parameter> grad_params(const GradSet& grads) {
  std::vector<Parameter> params;
  params.reserve(grads.size());
  for (const std::vector<float>& g : grads) {
    Parameter& p = params.emplace_back("g", Tensor({g.size()}));
    std::copy(g.begin(), g.end(), p.grad.data());
  }
  return params;
}

// Clips one copy of `grads` with clip_grad_norm and another with the
// reference; the gradients must come out byte-equal and the return value
// must be the lane norm.
void expect_clip_matches_chain(const GradSet& grads, double max_norm,
                               const std::string& what) {
  std::vector<Parameter> fast = grad_params(grads);
  std::vector<Parameter> ref = grad_params(grads);
  std::vector<Parameter*> fast_ptrs, ref_ptrs;
  for (std::size_t i = 0; i < grads.size(); ++i) {
    fast_ptrs.push_back(&fast[i]);
    ref_ptrs.push_back(&ref[i]);
  }
  const double norm = Optimizer::clip_grad_norm(fast_ptrs, max_norm);
  chain_clip(ref_ptrs, max_norm);
  for (std::size_t i = 0; i < grads.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(fast[i].grad.data(), ref[i].grad.data(),
                             grads[i].size() * sizeof(float)))
        << what << " tensor " << i;
  }
  const double expected = lane_norm(grads);
  if (std::isnan(expected)) {
    EXPECT_TRUE(std::isnan(norm)) << what;
  } else {
    EXPECT_EQ(norm, expected) << what;
  }
}

// Runs `body` under the default MXCSR and, where there is one, under
// flush-to-zero and denormals-are-zero, as a fine-tune does.
template <typename Body>
void in_each_fp_mode(Body body) {
  body("default mode");
#if defined(__SSE__)
  const unsigned saved = _mm_getcsr();
  _mm_setcsr(saved | (1u << 15) | (1u << 6));
  body("FTZ|DAZ");
  _mm_setcsr(saved);
#endif
}

TEST(Optimizer, ClipDecisionMatchesFloatChain) {
  Rng rng(2304);
  // Magnitudes spread over 2^-10..2^10, so the chain's roundings show.
  auto spread = [&](std::size_t n, int exponent_shift = 0) {
    std::vector<float> g(n);
    for (float& x : g) {
      const auto e = static_cast<int>(rng.uniform_int(-10, 10));
      x = static_cast<float>(std::ldexp(rng.uniform(-1.0, 1.0),
                                        e + exponent_shift));
    }
    return g;
  };
  // After a leading 1.0 every square is just over half an ulp of the
  // running float sum, so each add rounds up and the chain overstates the
  // norm by about n·u; `absorbed` squares sit under half an ulp and each
  // add rounds away, so the chain understates it.
  std::vector<float> rounded_up(6001, std::ldexp(1.0f + 0x1p-11f, -12));
  rounded_up[0] = 1.0f;
  std::vector<float> absorbed(6001, 0x1p-13f);
  absorbed[0] = 1.0f;
  const std::vector<GradSet> sets = {
      {spread(1)},
      {spread(2), spread(7), spread(16), spread(17)},
      {spread(6007)},
      {spread(6007), std::vector<float>(480, 0.0f), spread(250), spread(33),
       spread(1)},
      {rounded_up},
      {absorbed, spread(100)},
      // Float squares reaching below the normal range, where the
      // absolute term decides.
      {spread(3000, -70), spread(40, -70)},
      // Float squares that overflow: the chain reads Inf and zeroes.
      {spread(64), {1e20f, -3e19f}},
  };
  in_each_fp_mode([&](const char* mode) {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      std::size_t largest = 0;
      for (const std::vector<float>& g : sets[s]) {
        largest = std::max(largest, g.size());
      }
      const double margin = clip_margin(largest);
      const double norm = lane_norm(sets[s]);
      for (const double factor :
           {0.5, 1.0 - margin, 1.0 + margin, 1.0 - 1e-6, 1.0 + 1e-6, 2.0}) {
        expect_clip_matches_chain(sets[s], norm / factor,
                                  std::string(mode) + " set " +
                                      std::to_string(s) + " factor " +
                                      std::to_string(factor));
      }
    }
    // All-zero gradients, and a NaN or +Inf among finite ones.
    const GradSet zeros = {std::vector<float>(33, 0.0f),
                           std::vector<float>(1, 0.0f)};
    expect_clip_matches_chain(zeros, 1.0, std::string(mode) + " zeros");
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
      GradSet g = {spread(40), spread(300)};
      g[1][123] = bad;
      for (const double cap : {1e-3, 1.0, 1e9}) {
        expect_clip_matches_chain(g, cap, std::string(mode) + " non-finite");
      }
    }
  });
}

TEST(Optimizer, ZeroGrad) {
  Parameter p("p", Tensor({2}));
  p.grad = Tensor({2}, {1.0f, 2.0f});
  Parameter* params[] = {&p};
  Optimizer::zero_grad(params);
  EXPECT_EQ(p.grad.at(0), 0.0f);
  EXPECT_EQ(p.grad.at(1), 0.0f);
}

TEST(Training, XorConverges) {
  // Classic sanity check: a 2-layer MLP learns XOR.
  Rng rng(21);
  Sequential mlp;
  mlp.add(std::make_unique<Linear>(2, 8, rng))
      .add(std::make_unique<Tanh>())
      .add(std::make_unique<Linear>(8, 2, rng));
  Adam opt(0.02);
  SoftmaxCrossEntropy ce;
  const float inputs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<std::int32_t> labels = {0, 1, 1, 0};
  Tensor x({4, 2});
  for (std::size_t i = 0; i < 4; ++i) {
    x.at(i, 0) = inputs[i][0];
    x.at(i, 1) = inputs[i][1];
  }
  double loss = 0.0;
  for (int epoch = 0; epoch < 800; ++epoch) {
    Optimizer::zero_grad(mlp.parameters());
    loss = ce.forward(mlp.forward(x), labels);
    mlp.backward(ce.backward());
    opt.step(mlp.parameters());
  }
  EXPECT_LT(loss, 0.05);
  const auto pred = tensor::row_argmax(mlp.forward(x));
  EXPECT_EQ(pred, labels);
}

TEST(ParameterSet, FlattenUnflattenRoundTrip) {
  Rng rng(31);
  Linear l1(3, 4, rng), l2(4, 2, rng);
  ParameterSet set;
  set.add_all(l1.parameters());
  set.add_all(l2.parameters());
  EXPECT_EQ(set.scalar_count(), 3u * 4 + 4 + 4 * 2 + 2);
  auto flat = set.flatten_values();
  for (auto& f : flat) f += 1.0f;
  set.unflatten_values(flat);
  EXPECT_EQ(set.flatten_values(), flat);
}

TEST(ParameterSet, ApplyDelta) {
  Rng rng(32);
  Linear l(2, 2, rng);
  ParameterSet set(l.parameters());
  const auto before = set.flatten_values();
  std::vector<float> delta(set.scalar_count(), 0.5f);
  set.apply_delta(delta);
  const auto after = set.flatten_values();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(after[i], before[i] + 0.5f);
  }
  std::vector<float> wrong(3);
  EXPECT_THROW(set.apply_delta(wrong), Error);
}

TEST(ParameterSet, SerializeRestoresExactly) {
  Rng rng(33);
  Linear a(3, 3, rng, "m");
  Linear b(3, 3, rng, "m");  // same names/shapes, different weights
  ParameterSet sa(a.parameters());
  ParameterSet sb(b.parameters());
  EXPECT_FALSE(sa.values_equal(sb));
  ByteWriter w;
  sa.serialize(w);
  ByteReader r(w.bytes());
  sb.deserialize(r);
  EXPECT_TRUE(sa.values_equal(sb));
  EXPECT_EQ(w.size(), sa.byte_size());
}

TEST(ParameterSet, DeserializeNameMismatchThrows) {
  Rng rng(34);
  Linear a(2, 2, rng, "alpha");
  Linear b(2, 2, rng, "beta");
  ParameterSet sa(a.parameters());
  ParameterSet sb(b.parameters());
  ByteWriter w;
  sa.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_THROW(sb.deserialize(r), Error);
}

TEST(ParameterSet, CopyValuesAndDiff) {
  Rng rng(35);
  Linear a(2, 3, rng, "m"), b(2, 3, rng, "m");
  ParameterSet sa(a.parameters()), sb(b.parameters());
  sb.copy_values_from(sa);
  EXPECT_TRUE(sa.values_equal(sb));
  EXPECT_FLOAT_EQ(sa.max_abs_diff(sb), 0.0f);
  b.weight().value.at(0) += 0.25f;
  EXPECT_FALSE(sa.values_equal(sb));
  EXPECT_FLOAT_EQ(sa.max_abs_diff(sb), 0.25f);
}

}  // namespace
}  // namespace semcache::nn
