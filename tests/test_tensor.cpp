// Unit tests for semcache::tensor — shape discipline, op correctness
// against hand-computed values and naive references, and serialization.
#include <gtest/gtest.h>

#include "common/rng.hpp"
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
  EXPECT_TRUE(sub(b, a).equals(Tensor({2}, {9, 18})));
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

TEST(Ops, Reductions) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(sum(t), 10.0f);
  EXPECT_FLOAT_EQ(mean(t), 2.5f);
  EXPECT_FLOAT_EQ(dot(t, t), 30.0f);
  EXPECT_FLOAT_EQ(l2_norm(t), std::sqrt(30.0f));
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
