// Kernel-equivalence suite for the blocked/register-tiled matmul family.
//
// The fast kernels in tensor/ops.cpp promise two things the rest of the
// system leans on:
//  1. bit-exactness against the retained naive reference (same per-element
//     summation order), across arbitrary — including adversarial — shapes;
//  2. allocation discipline: the `_into`/`_acc` variants never reallocate a
//     warmed-up output tensor, and a warmed-up layer's output buffer stays
//     put.
// A silent break in either shows up here long before it corrupts a trained
// system, so this suite rides tier-1.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "nn/gru.hpp"
#include "nn/layers.hpp"
#include "semantic/codec.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "test_util.hpp"

namespace semcache::tensor {
namespace {

struct Shape {
  std::size_t m, k, n;
};

// Degenerate, prime-sized, tile-remainder, and codec-realistic shapes. The
// register tile is 4 rows, so shapes straddling multiples of 4 catch
// remainder-loop bugs; primes catch stride confusion.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> s = {
      {1, 1, 1},   {1, 5, 3},   {2, 2, 2},   {3, 1, 7},  {4, 4, 4},
      {5, 1, 1},   {5, 7, 3},   {7, 13, 11}, {8, 3, 5},  {9, 4, 6},
      {13, 17, 1}, {8, 48, 200}, {16, 16, 16}, {31, 2, 29},
  };
  return s;
}

Tensor random_tensor(std::size_t rows, std::size_t cols, Rng& rng) {
  return Tensor::uniform({rows, cols}, 1.0f, rng);
}

TEST(KernelEquivalence, MatmulBitExactAcrossShapes) {
  for (const Shape& sh : shapes()) {
    Rng rng(100 + sh.m * 1000 + sh.k * 100 + sh.n);
    const Tensor a = random_tensor(sh.m, sh.k, rng);
    const Tensor b = random_tensor(sh.k, sh.n, rng);
    const Tensor expected = matmul_reference(a, b);
    EXPECT_TRUE(test::AllNear(matmul(a, b), expected, 0.0))
        << sh.m << "x" << sh.k << "x" << sh.n;
    Tensor c;
    matmul_into(c, a, b);
    EXPECT_TRUE(test::AllNear(c, expected, 0.0))
        << "into " << sh.m << "x" << sh.k << "x" << sh.n;
  }
}

TEST(KernelEquivalence, MatmulZeroAndTinyInputs) {
  Rng rng(7);
  const Tensor z = Tensor::zeros({5, 9});
  const Tensor b = random_tensor(9, 6, rng);
  EXPECT_TRUE(test::AllNear(matmul(z, b), matmul_reference(z, b), 0.0));
  // Denormal-scale values must flow through identically too.
  Tensor tiny = random_tensor(6, 9, rng);
  for (std::size_t i = 0; i < tiny.size(); ++i) tiny.at(i) *= 1e-38f;
  EXPECT_TRUE(
      test::AllNear(matmul(tiny, b), matmul_reference(tiny, b), 0.0));
}

TEST(KernelEquivalence, NonFiniteInputsAgreeBitwise) {
  // No path in the matmul family may skip zero A elements: 0 * Inf must
  // produce the same NaNs in the tiled rows, the remainder rows, and the
  // reference. Bitwise comparison, since NaN != NaN.
  Rng rng(8);
  Tensor a = random_tensor(6, 5, rng);  // 6 rows: one 4-row tile + remainder
  a.at(0, 2) = 0.0f;
  a.at(5, 2) = 0.0f;
  Tensor b = random_tensor(5, 7, rng);
  b.at(2, 3) = std::numeric_limits<float>::infinity();
  b.at(2, 4) = std::numeric_limits<float>::quiet_NaN();
  const Tensor fast = matmul(a, b);
  const Tensor ref = matmul_reference(a, b);
  ASSERT_TRUE(fast.same_shape(ref));
  EXPECT_EQ(std::memcmp(fast.data(), ref.data(),
                        fast.size() * sizeof(float)),
            0);
}

TEST(KernelEquivalence, AffineMatchesMatmulPlusBias) {
  for (const Shape& sh : shapes()) {
    Rng rng(200 + sh.m * 1000 + sh.k * 100 + sh.n);
    const Tensor x = random_tensor(sh.m, sh.k, rng);
    const Tensor w = random_tensor(sh.k, sh.n, rng);
    const Tensor bias = Tensor::uniform({sh.n}, 1.0f, rng);
    Tensor expected = matmul_reference(x, w);
    for (std::size_t i = 0; i < sh.m; ++i) {
      for (std::size_t j = 0; j < sh.n; ++j) expected.at(i, j) += bias.at(j);
    }
    EXPECT_TRUE(test::AllNear(affine(x, w, bias), expected, 0.0))
        << sh.m << "x" << sh.k << "x" << sh.n;
  }
}

TEST(KernelEquivalence, TransposedVariantsMatchReference) {
  for (const Shape& sh : shapes()) {
    Rng rng(300 + sh.m * 1000 + sh.k * 100 + sh.n);
    // tn: a is (k x m) and used as aᵀ.
    const Tensor at = random_tensor(sh.k, sh.m, rng);
    const Tensor b = random_tensor(sh.k, sh.n, rng);
    Tensor c;
    matmul_tn_into(c, at, b);
    EXPECT_TRUE(test::AllNear(c, matmul_reference(transpose(at), b), 0.0))
        << "tn " << sh.m << "x" << sh.k << "x" << sh.n;
    // nt: b is (n x k) and used as bᵀ.
    const Tensor a = random_tensor(sh.m, sh.k, rng);
    const Tensor bt = random_tensor(sh.n, sh.k, rng);
    matmul_nt_into(c, a, bt);
    EXPECT_TRUE(test::AllNear(c, matmul_reference(a, transpose(bt)), 0.0))
        << "nt " << sh.m << "x" << sh.k << "x" << sh.n;
  }
}

TEST(KernelEquivalence, AccumulateVariants) {
  Rng rng(41);
  const Tensor a = random_tensor(6, 10, rng);
  const Tensor b = random_tensor(10, 9, rng);
  // Zero-initialized accumulators match the overwrite variants bit-exactly.
  Tensor acc = Tensor::zeros({6, 9});
  matmul_acc(acc, a, b);
  EXPECT_TRUE(test::AllNear(acc, matmul(a, b), 0.0));
  // Warm accumulators: matches start + product to float tolerance (the
  // accumulation interleaves with the existing contents).
  Tensor warm = random_tensor(6, 9, rng);
  Tensor expected = tensor::add(warm, matmul_reference(a, b));
  matmul_acc(warm, a, b);
  EXPECT_TRUE(test::AllNear(warm, expected, 1e-4));

  const Tensor at = random_tensor(10, 6, rng);
  Tensor acc_tn = Tensor::zeros({6, 9});
  matmul_tn_acc(acc_tn, at, b);
  Tensor tn;
  matmul_tn_into(tn, at, b);
  EXPECT_TRUE(test::AllNear(acc_tn, tn, 0.0));

  const Tensor bt = random_tensor(9, 10, rng);
  Tensor acc_nt = Tensor::zeros({6, 9});
  matmul_nt_acc(acc_nt, a, bt);
  Tensor nt;
  matmul_nt_into(nt, a, bt);
  EXPECT_TRUE(test::AllNear(acc_nt, nt, 0.0));
}

TEST(KernelEquivalence, RandomizedShapeSweep) {
  Rng shape_rng(90210);
  for (int round = 0; round < 60; ++round) {
    const auto m = static_cast<std::size_t>(shape_rng.uniform_int(1, 12));
    const auto k = static_cast<std::size_t>(shape_rng.uniform_int(1, 12));
    const auto n = static_cast<std::size_t>(shape_rng.uniform_int(1, 12));
    Rng rng(1000 + static_cast<std::uint64_t>(round));
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(k, n, rng);
    EXPECT_TRUE(test::AllNear(matmul(a, b), matmul_reference(a, b), 0.0))
        << m << "x" << k << "x" << n;
  }
}

TEST(KernelAllocation, IntoVariantsNeverReallocateWarmOutputs) {
  Rng rng(5150);
  Tensor c;
  // Warm up at the largest shape in the sweep.
  matmul_into(c, random_tensor(12, 8, rng), random_tensor(8, 16, rng));
  const float* warm_ptr = c.data();
  const std::size_t warm_capacity = c.capacity();
  for (std::size_t m = 1; m <= 12; ++m) {
    const Tensor a = random_tensor(m, 8, rng);
    const Tensor b = random_tensor(8, m, rng);
    matmul_into(c, a, b);
    EXPECT_EQ(c.data(), warm_ptr) << "matmul_into reallocated at m=" << m;
    const Tensor bias = Tensor::uniform({m}, 1.0f, rng);
    affine_into(c, a, b, bias);
    EXPECT_EQ(c.data(), warm_ptr) << "affine_into reallocated at m=" << m;
  }
  EXPECT_EQ(c.capacity(), warm_capacity);
}

TEST(KernelAllocation, LayerForwardBuffersAreStable) {
  Rng rng(99);
  nn::Linear lin(6, 5, rng);
  const Tensor x = Tensor::uniform({4, 6}, 1.0f, rng);
  const Tensor& y = lin.forward(x);
  const float* py = y.data();
  for (int i = 0; i < 5; ++i) lin.forward(x);
  EXPECT_EQ(y.data(), py);

  nn::Gru gru(3, 4, rng);
  const Tensor xs = Tensor::uniform({6, 3}, 1.0f, rng);
  const Tensor& hs = gru.forward(xs);
  const float* ph = hs.data();
  gru.forward(xs);
  // Shorter sequences reuse the same (high-water-mark) storage.
  const Tensor xs_short = Tensor::uniform({2, 3}, 1.0f, rng);
  gru.forward(xs_short);
  EXPECT_EQ(hs.data(), ph);
}

}  // namespace
}  // namespace semcache::tensor

namespace semcache::semantic {
namespace {

CodecConfig small_config() {
  CodecConfig cc;
  cc.surface_vocab = 40;
  cc.meaning_vocab = 30;
  cc.sentence_length = 4;
  cc.embed_dim = 6;
  cc.feature_dim = 8;
  cc.hidden_dim = 10;
  return cc;
}

TEST(CodecBatching, EncodeBatchMatchesStackedSingles) {
  Rng rng(2024);
  SemanticCodec codec(small_config(), rng);
  const std::vector<std::int32_t> sentences = {1, 2, 3, 4,  5, 6,  7, 8,
                                               9, 10, 11, 12};
  const Tensor batch = codec.encoder().encode_batch(sentences, 3);
  ASSERT_EQ(batch.dim(0), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    const Tensor single = codec.encoder().encode(
        std::span<const std::int32_t>(sentences).subspan(s * 4, 4));
    for (std::size_t j = 0; j < batch.dim(1); ++j) {
      EXPECT_EQ(single.at(0, j), batch.at(s, j)) << "sentence " << s;
    }
  }
}

TEST(CodecBatching, DecodeBatchMatchesStackedSingles) {
  Rng rng(2025);
  SemanticCodec codec(small_config(), rng);
  const std::vector<std::int32_t> sentences = {1, 2, 3, 4, 5, 6, 7, 8};
  const Tensor features = codec.encoder().encode_batch(sentences, 2);
  const Tensor batch_logits = codec.decoder().decode_logits_batch(features);
  ASSERT_EQ(batch_logits.dim(0), 2u * 4u);
  for (std::size_t s = 0; s < 2; ++s) {
    Tensor f({1, features.dim(1)});
    for (std::size_t j = 0; j < features.dim(1); ++j) {
      f.at(0, j) = features.at(s, j);
    }
    const Tensor single = codec.decoder().decode_logits_batch(f);
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t v = 0; v < single.dim(1); ++v) {
        EXPECT_EQ(single.at(r, v), batch_logits.at(s * 4 + r, v))
            << "sentence " << s;
      }
    }
  }
}

TEST(CodecBatching, ForwardLossBatchOfOneMatchesSingle) {
  Rng rng(2026);
  SemanticCodec codec(small_config(), rng);
  const std::vector<std::int32_t> surface = {1, 2, 3, 4};
  const std::vector<std::int32_t> meanings = {5, 6, 7, 8};
  const double single = codec.forward_loss(surface, meanings);
  const double batch = codec.forward_loss_batch(surface, meanings, 1);
  EXPECT_DOUBLE_EQ(single, batch);
}

}  // namespace
}  // namespace semcache::semantic
