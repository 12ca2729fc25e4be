// Unit tests for semcache::tensor — shape discipline, op correctness
// against hand-computed values and naive references, and serialization.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace semcache::tensor {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, ShapeAccessors) {
  Tensor t({4, 5});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(t.dim(0), 4u);
  Tensor v({7});
  EXPECT_EQ(v.rows(), 1u);
  EXPECT_EQ(v.cols(), 7u);
}

TEST(Tensor, DataShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), Error);
}

TEST(Tensor, RowColIndexing) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 0), 4.0f);
  t.at(1, 2) = 9.0f;
  EXPECT_EQ(t.at(5), 9.0f);
}

TEST(Tensor, BoundsChecked) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at(4), Error);
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0, 2), Error);
  EXPECT_THROW(t.dim(2), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), Error);
}

TEST(Tensor, FillAndZero) {
  Tensor t({3});
  t.fill(2.5f);
  EXPECT_EQ(t.at(2), 2.5f);
  t.zero();
  EXPECT_EQ(t.at(0), 0.0f);
}

TEST(Tensor, EqualsAndMaxAbsDiff) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f, 2.5f});
  EXPECT_FALSE(a.equals(b));
  EXPECT_FLOAT_EQ(a.max_abs_diff(b), 0.5f);
  EXPECT_TRUE(a.equals(a));
  Tensor c({1, 2});
  EXPECT_THROW(a.max_abs_diff(c), Error);
}

TEST(Tensor, UniformInitWithinLimit) {
  Rng rng(3);
  Tensor t = Tensor::uniform({50, 50}, 0.2f, rng);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t.at(i), -0.2f);
    EXPECT_LE(t.at(i), 0.2f);
  }
}

TEST(Tensor, XavierShapeAndScale) {
  Rng rng(3);
  Tensor t = Tensor::xavier(30, 20, rng);
  EXPECT_EQ(t.dim(0), 30u);
  EXPECT_EQ(t.dim(1), 20u);
  const float limit = std::sqrt(6.0f / 50.0f);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::abs(t.at(i)), limit);
  }
}

TEST(Tensor, SerializeRoundTrip) {
  Rng rng(9);
  Tensor t = Tensor::uniform({3, 7}, 1.0f, rng);
  ByteWriter w;
  t.serialize(w);
  EXPECT_EQ(w.size(), t.byte_size());
  ByteReader r(w.bytes());
  const Tensor u = Tensor::deserialize(r);
  EXPECT_TRUE(t.equals(u));
}

TEST(Ops, AddSubScale) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {10, 20});
  EXPECT_TRUE(add(a, b).equals(Tensor({2}, {11, 22})));
  EXPECT_TRUE(scale(a, -2.0f).equals(Tensor({2}, {-2, -4})));
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(add(a, b), Error);
}

TEST(Ops, InplaceVariants) {
  Tensor a({2}, {3, 4});
  Tensor b({2}, {2, 3});
  axpy_inplace(a, b, -1.0f);
  EXPECT_TRUE(a.equals(Tensor({2}, {1, 1})));
}

TEST(Ops, MatmulHandComputed) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(c.equals(Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(Ops, MatmulAgainstNaiveReference) {
  Rng rng(7);
  const Tensor a = Tensor::uniform({9, 13}, 1.0f, rng);
  const Tensor b = Tensor::uniform({13, 5}, 1.0f, rng);
  const Tensor c = matmul(a, b);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < 13; ++k) acc += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-4f);
    }
  }
}

TEST(Ops, MatmulInnerDimMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Ops, TransposeInvolution) {
  Rng rng(5);
  const Tensor a = Tensor::uniform({4, 6}, 1.0f, rng);
  const Tensor t = transpose(a);
  EXPECT_EQ(t.dim(0), 6u);
  EXPECT_EQ(t.at(2, 3), a.at(3, 2));
  EXPECT_TRUE(transpose(t).equals(a));
}

TEST(Ops, AffineAddsBiasPerRow) {
  Tensor x({2, 2}, {1, 0, 0, 1});
  Tensor w({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias({3}, {10, 20, 30});
  const Tensor y = affine(x, w, bias);
  EXPECT_TRUE(y.equals(Tensor({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(Ops, RowSoftmaxNormalizes) {
  Tensor logits({2, 3}, {1, 1, 1, 0, 1, 2});
  const Tensor p = row_softmax(logits);
  for (std::size_t i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < 3; ++j) sum += p.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_NEAR(p.at(0, 0), 1.0f / 3.0f, 1e-6f);
  EXPECT_GT(p.at(1, 2), p.at(1, 1));
}

TEST(Ops, RowSoftmaxNumericallyStable) {
  Tensor logits({1, 2}, {1000.0f, 1001.0f});
  const Tensor p = row_softmax(logits);
  EXPECT_FALSE(std::isnan(p.at(0, 0)));
  EXPECT_NEAR(p.at(0, 0) + p.at(0, 1), 1.0f, 1e-6f);
}

TEST(Ops, RowArgmax) {
  Tensor t({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = row_argmax(t);
  EXPECT_EQ(idx, (std::vector<std::int32_t>{1, 0}));
}

TEST(Ops, SoftmaxFamilyRefusesEmptyRowsOrColumns) {
  // An empty row has no element 0 to start the max chain from, and an
  // empty batch has no mean.
  for (const std::vector<std::size_t>& shape :
       {std::vector<std::size_t>{2, 0}, std::vector<std::size_t>{0, 3},
        std::vector<std::size_t>{0, 0}}) {
    const Tensor t(shape);
    const std::vector<std::int32_t> targets(shape[0], 0);
    EXPECT_THROW(row_softmax(t), Error) << t.shape_string();
    EXPECT_THROW(row_argmax(t), Error) << t.shape_string();
    nn::SoftmaxCrossEntropy ce;
    EXPECT_THROW(ce.forward(t, targets), Error) << t.shape_string();
    EXPECT_THROW(mean_cross_entropy(t.flat(), shape[1], targets), Error)
        << t.shape_string();
  }
}

TEST(Ops, MeanCrossEntropyRejectsBadTargetsAndShape) {
  const Tensor logits({2, 3}, {1, 2, 3, 4, 5, 6});
  const std::vector<std::int32_t> out_of_range = {0, 3};
  const std::vector<std::int32_t> negative = {-1, 0};
  const std::vector<std::int32_t> three_rows = {0, 1, 2};
  EXPECT_THROW(mean_cross_entropy(logits.flat(), 3, out_of_range), Error);
  EXPECT_THROW(mean_cross_entropy(logits.flat(), 3, negative), Error);
  EXPECT_THROW(mean_cross_entropy(logits.flat(), 3, three_rows), Error);
  const std::vector<std::int32_t> targets = {2, 0};
  nn::SoftmaxCrossEntropy ce;
  EXPECT_EQ(mean_cross_entropy(logits.flat(), 3, targets),
            ce.forward(logits, targets));
}

TEST(Ops, MeanTargetNllClampsAndRejectsBadShape) {
  // Row 1's target probability is 0, so the 1e-12 clamp decides its term.
  const std::vector<float> probs = {0.25f, 0.75f, 1.0f, 0.0f};
  const std::vector<std::int32_t> targets = {1, 1};
  EXPECT_EQ(mean_target_nll(probs, 2, targets),
            (-std::log(0.75) - std::log(1e-12)) / 2.0);
  const std::vector<std::int32_t> none;
  const std::vector<std::int32_t> out_of_range = {0, 2};
  EXPECT_THROW(mean_target_nll({}, 2, none), Error);
  EXPECT_THROW(mean_target_nll(probs, 3, targets), Error);
  EXPECT_THROW(mean_target_nll(probs, 2, out_of_range), Error);
}

// Bits of tensor::expf, recorded once from glibc 2.36's expf on x86-64
// (the library it reproduces): ordinary values, the subnormal input and
// output ranges, both sides of the overflow and underflow thresholds,
// infinities and NaNs. Three more pin the arithmetic: the only two inputs
// on which the same algorithm without fused multiply-adds rounds
// differently, and the input whose double result lies closest to a
// float rounding boundary. expf_libm_check compares all 2^32 inputs.
TEST(Expf, GoldenBits) {
  struct Case {
    std::uint32_t x, y;
  };
  const Case cases[] = {
      {0x00000000u, 0x3f800000u},  // +0 -> 1
      {0x80000000u, 0x3f800000u},  // -0 -> 1
      {0x000116c2u, 0x3f800000u},  // subnormal 1e-40 -> 1
      {0x800116c2u, 0x3f800000u},  // subnormal -1e-40 -> 1
      {0x33d6bf95u, 0x3f800001u},  // 1e-7
      {0x3f800000u, 0x402df854u},  // 1 -> e
      {0xbf800000u, 0x3ebc5ab2u},  // -1
      {0x3f000000u, 0x3fd3094cu},  // 0.5
      {0x40490fdbu, 0x41b92025u},  // pi
      {0x41200000u, 0x46ac14eeu},  // 10
      {0xc1200000u, 0x383e6bceu},  // -10
      {0x42480000u, 0x638c881fu},  // 50
      {0xc2480000u, 0x1b692bebu},  // -50
      {0xc2af0000u, 0x006cb2bcu},  // -87.5
      {0xc2b00000u, 0x0041edc4u},  // -88: subnormal result
      {0x42b00000u, 0x7ef882b7u},  // 88
      {0x42b170a4u, 0x7f7f4648u},  // 88.72: still finite
      {0x42b17217u, 0x7f7fff84u},  // the overflow threshold itself
      {0x42b175c3u, 0x7f800000u},  // 88.73 -> +inf
      {0xc2c80000u, 0x0000001bu},  // -100
      {0xc2cfcccdu, 0x00000001u},  // -103.9: smallest subnormal
      {0xc2cff1b4u, 0x00000001u},  // the underflow threshold itself
      {0xc2d00000u, 0x00000000u},  // -104 -> +0
      {0x7f800000u, 0x7f800000u},  // +inf
      {0xff800000u, 0x00000000u},  // -inf -> +0
      {0x7fc00000u, 0x7fc00000u},  // quiet NaN
      {0x7fa00000u, 0x7fe00000u},  // signaling NaN, quieted
      {0x4202422fu, 0x56fc9f1cu},  // 32.56: the fused steps decide
      {0xc27c65d9u, 0x11fa2993u},  // -63.1: the fused steps decide
      {0x3e73ade2u, 0x3fa263bcu},  // 0.238: hardest to round
  };
  for (const Case& c : cases) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(expf(std::bit_cast<float>(c.x))),
              c.y)
        << std::hex << "x bits 0x" << c.x;
  }
}

TEST(Ops, Reductions) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(sum(t), 10.0f);
  EXPECT_FLOAT_EQ(mean(t), 2.5f);
  EXPECT_FLOAT_EQ(dot(t, t), 30.0f);
  EXPECT_FLOAT_EQ(l2_norm(t), std::sqrt(30.0f));
}

TEST(Ops, DotAndAxpyRoundTheSameInEveryBuild) {
  // (1 + 2^-23)(1 - 2^-23) = 1 - 2^-46 rounds to 1 on its own, so a
  // multiply rounded before its add gives +0 where a fused step keeps
  // -2^-46. axpy_inplace fuses every element. dot fuses its last n mod 8
  // steps and rounds the products before them, as Release builds on
  // AVX-512 hosts always have: four such pairs sum to +0, and the two
  // steps after them keep -2^-46.
  const float hi = 1.0f + 0x1p-23f;
  const float lo = 1.0f - 0x1p-23f;
  EXPECT_EQ(dot(Tensor({2}, {1.0f, hi}), Tensor({2}, {-1.0f, lo})),
            -0x1p-46f);
  std::vector<float> a_vals, b_vals;
  for (int i = 0; i < 5; ++i) {
    a_vals.insert(a_vals.end(), {1.0f, hi});
    b_vals.insert(b_vals.end(), {-1.0f, lo});
  }
  EXPECT_EQ(dot(Tensor({10}, a_vals), Tensor({10}, b_vals)), -0x1p-46f);
  a_vals.resize(8);
  b_vals.resize(8);
  const float blocked = dot(Tensor({8}, a_vals), Tensor({8}, b_vals));
  EXPECT_EQ(blocked, 0.0f);
  EXPECT_FALSE(std::signbit(blocked));
  Tensor a({1}, {-1.0f});
  axpy_inplace(a, Tensor({1}, {hi}), lo);
  EXPECT_EQ(a.data()[0], -0x1p-46f);
}

TEST(Ops, ColumnSums) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor sums({3});
  column_sums_acc(sums, t);
  EXPECT_TRUE(sums.equals(Tensor({3}, {5, 7, 9})));
  column_sums_acc(sums, t);  // accumulates onto what is there
  EXPECT_TRUE(sums.equals(Tensor({3}, {10, 14, 18})));
}

// Property sweep: (A*B)^T == B^T * A^T over random shapes.
class MatmulProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatmulProperty, TransposeIdentity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto m = static_cast<std::size_t>(rng.uniform_int(1, 8));
  const auto k = static_cast<std::size_t>(rng.uniform_int(1, 8));
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
  const Tensor a = Tensor::uniform({m, k}, 1.0f, rng);
  const Tensor b = Tensor::uniform({k, n}, 1.0f, rng);
  const Tensor lhs = transpose(matmul(a, b));
  const Tensor rhs = matmul(transpose(b), transpose(a));
  EXPECT_LT(lhs.max_abs_diff(rhs), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MatmulProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace semcache::tensor
