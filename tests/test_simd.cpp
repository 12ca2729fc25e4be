// Twin suite for the AVX2/FMA dispatch layer (common/cpu.hpp).
//
// Every vectorized kernel in the tensor and channel planes promises
// bit-identical output to the retained scalar reference. This suite pins
// that promise the direct way: flip the process tier with set_simd_tier,
// run the same inputs through both families in one binary, and memcmp.
// On a host without AVX2+FMA both runs take the scalar path and the
// twins pass trivially — the engagement tests below skip rather than
// silently vouch for kernels that never ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "channel/convolutional.hpp"
#include "channel/modulation.hpp"
#include "channel/noise.hpp"
#include "channel/physical.hpp"
#include "channel/simd.hpp"
#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "nn/gradcheck.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "semantic/codec.hpp"
#include "semantic/trainer.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd_kernels.hpp"
#include "tensor/tensor.hpp"
#include "test_util.hpp"

namespace semcache {
namespace {

using channel::Modulation;
using channel::Symbol;
using tensor::Tensor;

/// RAII tier override: restores the prior tier even when an assertion
/// bails out of the test body early.
class TierGuard {
 public:
  explicit TierGuard(common::SimdTier tier)
      : prev_(common::set_simd_tier(tier)) {}
  ~TierGuard() { common::set_simd_tier(prev_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  common::SimdTier prev_;
};

bool avx2_host() {
  const common::CpuFeatures& f = common::cpu_features();
  return f.avx2 && f.fma;
}

::testing::AssertionResult BitEqual(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  // An empty tensor's data() may be null, and memcmp on null is undefined
  // even for zero bytes.
  if (a.size() == 0 ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first diff at flat index " << i << ": " << a.data()[i]
             << " vs " << b.data()[i];
    }
  }
  return ::testing::AssertionFailure() << "memcmp/elementwise disagree";
}

Tensor random_tensor(std::size_t rows, std::size_t cols, Rng& rng) {
  return Tensor::uniform({rows, cols}, 1.0f, rng);
}

// ---------------------------------------------------------------------------
// Dispatch policy and engagement.

TEST(SimdDispatch, ResolvePolicyTable) {
  const common::CpuFeatures none{};
  const common::CpuFeatures full{true, true};
  const common::CpuFeatures avx2_only{true, false};
  using common::SimdTier;

  // Unset / auto: best the hardware offers.
  EXPECT_EQ(common::resolve_simd_tier(nullptr, full), SimdTier::kAvx2);
  EXPECT_EQ(common::resolve_simd_tier(nullptr, none), SimdTier::kScalar);
  EXPECT_EQ(common::resolve_simd_tier("auto", full), SimdTier::kAvx2);
  EXPECT_EQ(common::resolve_simd_tier("auto", none), SimdTier::kScalar);
  // kAvx2 requires FMA too: the kernels assume both.
  EXPECT_EQ(common::resolve_simd_tier(nullptr, avx2_only), SimdTier::kScalar);
  // Explicit pins.
  EXPECT_EQ(common::resolve_simd_tier("scalar", full), SimdTier::kScalar);
  EXPECT_EQ(common::resolve_simd_tier("avx2", full), SimdTier::kAvx2);
  // An explicit avx2 request the hardware cannot honor clamps to scalar.
  EXPECT_EQ(common::resolve_simd_tier("avx2", none), SimdTier::kScalar);
  // Garbage degrades to auto (with a one-time warning), never to UB.
  EXPECT_EQ(common::resolve_simd_tier("sse9", full), SimdTier::kAvx2);
  EXPECT_EQ(common::resolve_simd_tier("", none), SimdTier::kScalar);
}

TEST(SimdDispatch, SetTierRoundTripAndClamp) {
  const common::SimdTier entry = common::active_simd_tier();
  const common::SimdTier prev = common::set_simd_tier(common::SimdTier::kScalar);
  EXPECT_EQ(prev, entry);
  EXPECT_EQ(common::active_simd_tier(), common::SimdTier::kScalar);
  common::set_simd_tier(common::SimdTier::kAvx2);
  // On a capable host the request sticks; elsewhere it clamps to scalar
  // exactly like the env path would.
  EXPECT_EQ(common::active_simd_tier(), avx2_host()
                                            ? common::SimdTier::kAvx2
                                            : common::SimdTier::kScalar);
  common::set_simd_tier(entry);
  EXPECT_EQ(common::active_simd_tier(), entry);
}

TEST(SimdDispatch, TensorPathEngagesOnCapableHost) {
  if (!avx2_host()) {
    GTEST_SKIP() << "host lacks AVX2+FMA; nothing to engage";
  }
  {
    TierGuard guard(common::SimdTier::kAvx2);
    // One flavor in every build type: both tiers fuse each multiply-add.
    EXPECT_STREQ(tensor::active_matmul_path(), "avx2-fma");
  }
  {
    TierGuard guard(common::SimdTier::kScalar);
    EXPECT_STREQ(tensor::active_matmul_path(), "scalar");
  }
}

TEST(SimdDispatch, ChannelKernelsEngageOnCapableHost) {
  if (!avx2_host()) {
    GTEST_SKIP() << "host lacks AVX2+FMA; nothing to engage";
  }
  {
    TierGuard guard(common::SimdTier::kAvx2);
    EXPECT_NE(channel::detail::engaged_channel_kernels(), nullptr);
  }
  {
    TierGuard guard(common::SimdTier::kScalar);
    EXPECT_EQ(channel::detail::engaged_channel_kernels(), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Tensor plane: the matmul family twins bit-for-bit across the tail grid.

// The micro-kernel tiles 6 rows x 16 columns with k-panels of 256, so the
// grid straddles every remainder class: rows 1..7 (full tile + every row
// remainder), columns through 8-wide and scalar tails, k through short
// panels. Tails 1..7 appear in every dimension.
struct Shape {
  std::size_t m, k, n;
};

const std::vector<std::size_t>& tail_rows() {
  static const std::vector<std::size_t> v = {1, 2, 3, 4, 5, 6, 7, 13};
  return v;
}
const std::vector<std::size_t>& tail_depths() {
  static const std::vector<std::size_t> v = {1, 3, 4, 7, 9};
  return v;
}
const std::vector<std::size_t>& tail_cols() {
  static const std::vector<std::size_t> v = {1, 2, 3, 5, 7,
                                             8, 15, 16, 17, 24, 31};
  return v;
}

void expect_matmul_family_twin(const Shape& sh) {
  Rng rng(900 + sh.m * 4096 + sh.k * 64 + sh.n);
  const Tensor a = random_tensor(sh.m, sh.k, rng);
  const Tensor b = random_tensor(sh.k, sh.n, rng);
  const Tensor at = random_tensor(sh.k, sh.m, rng);
  const Tensor bt = random_tensor(sh.n, sh.k, rng);
  const Tensor bias = Tensor::uniform({sh.n}, 1.0f, rng);
  const Tensor warm = random_tensor(sh.m, sh.n, rng);

  struct Outputs {
    Tensor nn, acc, tn, nt, aff, aff_relu;
  };
  auto run = [&](common::SimdTier tier) {
    TierGuard guard(tier);
    Outputs o;
    tensor::matmul_into(o.nn, a, b);
    o.acc = warm;
    tensor::matmul_acc(o.acc, a, b);
    tensor::matmul_tn_into(o.tn, at, b);
    tensor::matmul_nt_into(o.nt, a, bt);
    tensor::affine_into(o.aff, a, b, bias);
    tensor::affine_relu_into(o.aff_relu, a, b, bias);
    return o;
  };

  const Outputs scalar = run(common::SimdTier::kScalar);
  const Outputs simd = run(common::SimdTier::kAvx2);
  const std::string label = std::to_string(sh.m) + "x" + std::to_string(sh.k) +
                            "x" + std::to_string(sh.n);
  EXPECT_TRUE(BitEqual(simd.nn, scalar.nn)) << "matmul_into " << label;
  EXPECT_TRUE(BitEqual(simd.acc, scalar.acc)) << "matmul_acc " << label;
  EXPECT_TRUE(BitEqual(simd.tn, scalar.tn)) << "matmul_tn " << label;
  EXPECT_TRUE(BitEqual(simd.nt, scalar.nt)) << "matmul_nt " << label;
  EXPECT_TRUE(BitEqual(simd.aff, scalar.aff)) << "affine " << label;
  EXPECT_TRUE(BitEqual(simd.aff_relu, scalar.aff_relu))
      << "affine_relu " << label;
  // And the scalar run itself is the naive reference, same sum order.
  EXPECT_TRUE(BitEqual(scalar.nn, tensor::matmul_reference(a, b)))
      << "reference " << label;
}

TEST(SimdKernels, MatmulFamilyTierTwinAcrossTailGrid) {
  for (const std::size_t m : tail_rows()) {
    for (const std::size_t k : tail_depths()) {
      for (const std::size_t n : tail_cols()) {
        expect_matmul_family_twin({m, k, n});
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(SimdKernels, KPanelBoundaryShapesTwin) {
  // The gemm walks k in panels of 256; straddle the panel boundary so the
  // multi-panel accumulate path (C re-read between panels) is exercised.
  for (const std::size_t k : {255u, 256u, 257u, 511u, 513u}) {
    expect_matmul_family_twin({7, k, 17});
  }
}

// The rule both tiers follow in every build type: a multiply-add rounds
// once. Each output element is 1 * -1 = -1 plus (1 + 2^-23)(1 - 2^-23) =
// 1 - 2^-46. Fused, the sum is -2^-46; with the product rounded first (to
// 1.0f) it would be +0. A 7 x 2 x 27 product runs the AVX2 kernel's 6-row
// block and 1-row remainder, its 16- and 8-wide column blocks and its
// 3-column scalar tail, and the scalar kernel's 4-row tile and remainder.
TEST(SimdKernels, MatmulMultiplyAddsRoundOnceOnBothTiers) {
  constexpr std::size_t m = 7, n = 27;
  constexpr std::uint32_t kFusedBits = 0xA8800000u;  // -2^-46
  Tensor a({m, 2}), at({2, m}), b({2, n}), bt({n, 2});
  for (std::size_t i = 0; i < m; ++i) {
    a.at(i, 0) = at.at(0, i) = 1.0f;
    a.at(i, 1) = at.at(1, i) = 1.0f + 0x1p-23f;
  }
  for (std::size_t j = 0; j < n; ++j) {
    b.at(0, j) = bt.at(j, 0) = -1.0f;
    b.at(1, j) = bt.at(j, 1) = 1.0f - 0x1p-23f;
  }
  const Tensor zero_bias({n});
  const auto all_fused = [&](const Tensor& c) -> ::testing::AssertionResult {
    if (c.rank() != 2 || c.dim(0) != m || c.dim(1) != n) {
      return ::testing::AssertionFailure() << "shape " << c.shape_string();
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (std::bit_cast<std::uint32_t>(c.data()[i]) != kFusedBits) {
        return ::testing::AssertionFailure()
               << "flat index " << i << " holds " << c.data()[i];
      }
    }
    return ::testing::AssertionSuccess();
  };
  for (const common::SimdTier tier :
       {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
    TierGuard guard(tier);
    const char* name = common::simd_tier_name(tier);
    Tensor c;
    tensor::matmul_into(c, a, b);
    EXPECT_TRUE(all_fused(c)) << "matmul_into " << name;
    tensor::matmul_tn_into(c, at, b);
    EXPECT_TRUE(all_fused(c)) << "matmul_tn_into " << name;
    tensor::matmul_nt_into(c, a, bt);
    EXPECT_TRUE(all_fused(c)) << "matmul_nt_into " << name;
    tensor::affine_into(c, a, b, zero_bias);
    EXPECT_TRUE(all_fused(c)) << "affine_into " << name;
    EXPECT_TRUE(all_fused(tensor::matmul_reference(a, b)))
        << "matmul_reference " << name;
  }
}

TEST(SimdKernels, NonFiniteInputsTwinBitwise) {
  // The AVX2 kernels must not skip or reorder around zeros: 0 * Inf and
  // NaN propagation have to match the scalar kernel bit-for-bit.
  Rng rng(17);
  Tensor a = random_tensor(13, 9, rng);  // two row tiles + remainder
  a.at(0, 2) = 0.0f;
  a.at(12, 2) = 0.0f;
  Tensor b = random_tensor(9, 19, rng);  // 16-wide tile + scalar tail
  b.at(2, 3) = std::numeric_limits<float>::infinity();
  b.at(2, 17) = std::numeric_limits<float>::quiet_NaN();
  Tensor scalar_out, simd_out;
  {
    TierGuard guard(common::SimdTier::kScalar);
    tensor::matmul_into(scalar_out, a, b);
  }
  {
    TierGuard guard(common::SimdTier::kAvx2);
    tensor::matmul_into(simd_out, a, b);
  }
  EXPECT_TRUE(BitEqual(simd_out, scalar_out));
}

TEST(SimdKernels, TierTwinComposesWithThreadPool) {
  // Both tiers produce one bit pattern on the serving-sized shapes.
  const std::vector<Shape> serving_shapes = {
      {256, 48, 200},  // serving decoder shape: 16-wide tiles
      {261, 40, 64},   // prime-ish rows: remainder off the 6-row tile
      {64, 256, 33},   // full k-panel plus odd columns
  };
  for (const Shape& sh : serving_shapes) {
    Rng rng(600 + sh.m);
    const Tensor a = random_tensor(sh.m, sh.k, rng);
    const Tensor b = random_tensor(sh.k, sh.n, rng);
    const Tensor bias = Tensor::uniform({sh.n}, 1.0f, rng);
    Tensor baseline;  // scalar: the reference bit pattern
    {
      TierGuard guard(common::SimdTier::kScalar);
      tensor::affine_relu_into(baseline, a, b, bias);
    }
    for (const common::SimdTier tier :
         {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
      TierGuard guard(tier);
      Tensor out;
      tensor::affine_relu_into(out, a, b, bias);
      EXPECT_TRUE(BitEqual(out, baseline))
          << sh.m << "x" << sh.k << "x" << sh.n << " tier "
          << common::simd_tier_name(tier);
    }
  }
}

TEST(SimdKernels, AffineReluMatchesSeparateReluIncludingEdgeValues) {
  // The fused epilogue clamps with max(0, v), the scalar one with
  // v < 0 ? 0 : v — identical for -0.0 (kept) and NaN (propagated).
  // Build an affine whose outputs include both.
  Tensor x({2, 2});
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = -1.0f;
  x.at(1, 0) = 0.0f;
  x.at(1, 1) = 0.0f;
  Tensor w({2, 3});
  w.at(0, 0) = 1.0f;
  w.at(1, 0) = 1.0f;  // row 0 col 0: 1 - 1 = 0
  w.at(0, 1) = std::numeric_limits<float>::quiet_NaN();
  w.at(1, 1) = 0.0f;  // row 0 col 1: NaN
  w.at(0, 2) = -2.0f;
  w.at(1, 2) = 0.5f;  // row 0 col 2: negative -> clamped
  Tensor bias({3});
  bias.at(0) = -0.0f;  // 0 + -0.0 = +0.0 in both epilogues
  bias.at(1) = 0.0f;
  bias.at(2) = 0.0f;

  for (const common::SimdTier tier :
       {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
    TierGuard guard(tier);
    Tensor fused, plain;
    tensor::affine_relu_into(fused, x, w, bias);
    tensor::affine_into(plain, x, w, bias);
    ASSERT_TRUE(fused.same_shape(plain));
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const float v = plain.data()[i];
      const float expect = v < 0.0f ? 0.0f : v;
      EXPECT_EQ(std::memcmp(&fused.data()[i], &expect, sizeof(float)), 0)
          << "tier " << common::simd_tier_name(tier) << " flat " << i
          << ": " << fused.data()[i] << " vs relu(" << v << ")";
    }
    EXPECT_TRUE(std::isnan(fused.at(0, 1)));  // NaN propagates, not clamped
  }
}

// ---------------------------------------------------------------------------
// LinearReLU: the fused layer twins Linear+ReLU and gradchecks.

TEST(SimdKernels, LinearReluLayerTwinsLinearPlusRelu) {
  for (const common::SimdTier tier :
       {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
    TierGuard guard(tier);
    // Same seed => identical parameter draws (the fused ctor consumes the
    // RNG exactly like Linear's), so forward outputs must twin bitwise.
    Rng rng_fused(4242), rng_pair(4242);
    nn::LinearReLU fused(9, 7, rng_fused);
    nn::Linear lin(9, 7, rng_pair);
    nn::ReLU relu;
    Rng xr(7);
    const Tensor x = Tensor::uniform({5, 9}, 1.0f, xr);
    const Tensor& yf = fused.forward(x);
    const Tensor& yp = relu.forward(lin.forward(x));
    EXPECT_TRUE(BitEqual(yf, yp))
        << "tier " << common::simd_tier_name(tier);
  }
}

TEST(SimdKernels, LinearReluGradcheckAcrossShapes) {
  struct LShape {
    std::size_t in, out, rows;
  };
  const std::vector<LShape> shapes = {{1, 1, 1}, {2, 5, 3}, {6, 2, 4}};
  for (const LShape& sh : shapes) {
    Rng rng(5000 + sh.in * 100 + sh.out * 10 + sh.rows);
    nn::LinearReLU layer(sh.in, sh.out, rng);
    const Tensor x = Tensor::uniform({sh.rows, sh.in}, 1.0f, rng);
    const Tensor w = Tensor::uniform({sh.rows, sh.out}, 1.0f, rng);
    auto loss_fn = [&]() -> double {
      return static_cast<double>(tensor::dot(layer.forward(x), w));
    };
    nn::Optimizer::zero_grad(layer.parameters());
    layer.forward(x);
    layer.backward(w);
    const auto result = nn::gradcheck(loss_fn, layer.parameters(), 1e-3, 0);
    // Central differences straddle the ReLU kink for a few elements; the
    // robust acceptance from test_nn applies here too.
    EXPECT_TRUE(result.mostly_ok(2, 2e-2))
        << "linear_relu " << sh.in << "x" << sh.out << " rows " << sh.rows
        << ": rel " << result.max_rel_error << " abs "
        << result.max_abs_error << " above_tol " << result.above_tol;
  }
}

// ---------------------------------------------------------------------------
// Adam update and the fine-tune that runs it.

struct AdamState {
  Tensor value, grad, m, v;
};

// Adversarial Adam inputs of length n, in groups of four (the kernel's
// width): kind 1 has grad, m and v all +0.0, which the kernel skips (its
// values include -0.0, which must survive); kind 2 differs from kind 1
// only by m = -0.0, which the update turns into +0.0, so it must not be
// skipped. Other groups mix -0.0, subnormal and huge magnitudes into
// ordinary draws; v stays >= 0 as a second moment does.
AdamState adam_inputs(std::size_t n, Rng& rng) {
  const float specials[] = {0.0f,  -0.0f, 1e-40f, -7e-42f,
                            std::numeric_limits<float>::denorm_min(),
                            3e38f, -1e30f, 1e20f};
  const auto draw = [&](double stddev) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, 15));
    return k < std::size(specials)
               ? specials[k]
               : static_cast<float>(rng.gaussian(0.0, stddev));
  };
  AdamState s{Tensor({n}), Tensor({n}), Tensor({n}), Tensor({n})};
  for (std::size_t i = 0; i < n; ++i) {
    s.value.data()[i] = draw(1.0);
    const std::size_t kind = i / 4 % 4;
    if (kind == 1) continue;  // grad, m and v stay +0.0
    if (kind == 2) {
      s.m.data()[i] = -0.0f;
      continue;
    }
    s.grad.data()[i] = draw(1.0);
    s.m.data()[i] = draw(0.1);
    s.v.data()[i] = std::fabs(draw(0.01));
  }
  return s;
}

TEST(SimdKernels, AdamUpdateTierTwinEveryTail) {
  Rng rng(2718);
  for (const double t : {1.0, 1000.0}) {
    const tensor::AdamCoefficients c{3e-3, 0.9, 0.999, 1e-8,
                                     1.0 - std::pow(0.9, t),
                                     1.0 - std::pow(0.999, t)};
    for (std::size_t n = 0; n <= 67; ++n) {
      const AdamState in = adam_inputs(n, rng);
      AdamState scalar = in, simd = in;
      {
        TierGuard guard(common::SimdTier::kScalar);
        tensor::adam_update(scalar.value, scalar.grad, scalar.m, scalar.v, c);
      }
      {
        TierGuard guard(common::SimdTier::kAvx2);
        tensor::adam_update(simd.value, simd.grad, simd.m, simd.v, c);
      }
      EXPECT_TRUE(BitEqual(scalar.value, simd.value))
          << "n " << n << " t " << t;
      EXPECT_TRUE(BitEqual(scalar.m, simd.m)) << "n " << n << " t " << t;
      EXPECT_TRUE(BitEqual(scalar.v, simd.v)) << "n " << n << " t " << t;
    }
  }
}

// One Adam step whose first-moment terms cancel: beta1 * m and
// (1 - beta1) * g sum to nearly zero, so how beta1 * m rounds decides the
// new moment. Fused, as both tiers spell it, m lands on 0x24f0a3d8 and
// value on 0xa0439153; a product rounded before the add gives m = 2^-53
// (0x25000000) and value 0xa0500cfb. Five elements run the AVX2 kernel's
// four-lane group and its tail.
TEST(SimdKernels, AdamMomentUpdateRoundsOnceOnBothTiers) {
  const tensor::AdamCoefficients c{1e-3, 0.9, 0.999, 1e-8, 1.0 - 0.9,
                                   1.0 - 0.999};
  for (const common::SimdTier tier :
       {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
    TierGuard guard(tier);
    const char* name = common::simd_tier_name(tier);
    Tensor value({5}), grad({5}), m({5}), v({5});
    for (std::size_t i = 0; i < 5; ++i) {
      grad.data()[i] = -0x1.93333ep+2f;
      m.data()[i] = 0x1.66667p-1f;
    }
    tensor::adam_update(value, grad, m, v, c);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(m.data()[i]), 0x24f0a3d8u)
          << name << " element " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v.data()[i]), 0x3d229204u)
          << name << " element " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(value.data()[i]), 0xa0439153u)
          << name << " element " << i;
    }
  }
}

TEST(SimdKernels, AdamUpdateRejectsShapeMismatch) {
  Tensor value({4}), grad({4}), m({4}), v({5});
  const tensor::AdamCoefficients c{1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001};
  EXPECT_THROW(tensor::adam_update(value, grad, m, v, c), Error);
}

TEST(SimdKernels, FinetuneTierTwinByteEqualParameters) {
  // The write path end to end: 24 samples x 6 epochs at batch 1, the
  // system's default fine-tune, from the same codec and seed on each tier.
  // Surfaces come from the first third of the vocabulary, so the other
  // embedding rows are never touched and the kernel's zero-group skip runs
  // next to the full update.
  semantic::CodecConfig cc;
  cc.surface_vocab = 60;
  cc.meaning_vocab = 40;
  cc.sentence_length = 6;
  cc.embed_dim = 10;
  cc.feature_dim = 12;
  cc.hidden_dim = 16;
  Rng init(808);
  const semantic::SemanticCodec base(cc, init);
  std::vector<semantic::Sample> samples(24);
  for (semantic::Sample& s : samples) {
    for (std::size_t i = 0; i < cc.sentence_length; ++i) {
      s.surface.push_back(static_cast<std::int32_t>(init.uniform_int(0, 19)));
      s.meanings.push_back(static_cast<std::int32_t>(init.uniform_int(0, 39)));
    }
  }
  std::vector<std::vector<float>> tuned;
  for (const common::SimdTier tier :
       {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
    TierGuard guard(tier);
    const auto codec = base.clone();
    Rng rng(909);
    semantic::CodecTrainer::finetune(*codec, samples, 6, 3e-3, rng);
    tuned.push_back(codec->parameters().flatten_values());
  }
  ASSERT_EQ(tuned[0].size(), tuned[1].size());
  EXPECT_EQ(0, std::memcmp(tuned[0].data(), tuned[1].data(),
                           tuned[0].size() * sizeof(float)));
}

#if defined(__SSE__)
TEST(SimdKernels, FinetuneRestoresCallerFpMode) {
  // finetune runs under flush-to-zero and denormals-are-zero (MXCSR bits
  // 15 and 6) and must hand the caller's MXCSR back unchanged, whether it
  // returns or throws, and whatever mode the caller had set.
  constexpr unsigned kFtzDaz = (1u << 15) | (1u << 6);
  semantic::CodecConfig cc;
  cc.surface_vocab = 60;
  cc.meaning_vocab = 40;
  cc.sentence_length = 6;
  cc.embed_dim = 10;
  cc.feature_dim = 12;
  cc.hidden_dim = 16;
  Rng init(808);
  const semantic::SemanticCodec base(cc, init);
  std::vector<semantic::Sample> samples(24);
  for (semantic::Sample& s : samples) {
    for (std::size_t i = 0; i < cc.sentence_length; ++i) {
      s.surface.push_back(static_cast<std::int32_t>(init.uniform_int(0, 19)));
      s.meanings.push_back(static_cast<std::int32_t>(init.uniform_int(0, 39)));
    }
  }
  // The shuffle puts the short sample after at least one valid step; the
  // parameter check below proves it.
  std::vector<semantic::Sample> broken = samples;
  broken.back().surface.pop_back();
  broken.back().meanings.pop_back();
  const std::vector<float> initial =
      base.clone()->parameters().flatten_values();

  const unsigned saved = _mm_getcsr();
  for (const unsigned mode : {0u, kFtzDaz}) {
    for (const bool throws : {false, true}) {
      _mm_setcsr((saved & ~kFtzDaz) | mode);
      const auto codec = base.clone();
      Rng rng(909);
      const unsigned before = _mm_getcsr();
      if (throws) {
        EXPECT_THROW(
            semantic::CodecTrainer::finetune(*codec, broken, 1, 3e-3, rng),
            Error);
      } else {
        semantic::CodecTrainer::finetune(*codec, samples, 2, 3e-3, rng);
      }
      // Read before anything else touches floats and raises a flag.
      const unsigned after = _mm_getcsr();
      EXPECT_EQ(after, before)
          << (throws ? "threw" : "returned") << ", caller mode " << mode;
      if (throws) {
        EXPECT_NE(codec->parameters().flatten_values(), initial)
            << "no step ran before the throw";
      }
    }
  }
  _mm_setcsr(saved);
}
#endif

// ---------------------------------------------------------------------------
// expf and the softmax family: the AVX2 kernels against their scalar twins.

constexpr unsigned kMxcsrFtzDaz = (1u << 15) | (1u << 6);

/// RAII MXCSR override: FTZ/DAZ on or off for the guard's lifetime (a
/// no-op where the target has no MXCSR).
class FpModeGuard {
 public:
  explicit FpModeGuard(bool ftz_daz) {
#if defined(__SSE__)
    saved_ = _mm_getcsr();
    _mm_setcsr(ftz_daz ? saved_ | kMxcsrFtzDaz : saved_ & ~kMxcsrFtzDaz);
#else
    (void)ftz_daz;
#endif
  }
  ~FpModeGuard() {
#if defined(__SSE__)
    _mm_setcsr(saved_);
#endif
  }
  FpModeGuard(const FpModeGuard&) = delete;
  FpModeGuard& operator=(const FpModeGuard&) = delete;

 private:
  unsigned saved_ = 0;
};

std::uint32_t float_bits(float f) {
  std::uint32_t b = 0;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

std::uint64_t double_bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

TEST(SimdKernels, Expf8LanesEqualScalarExpf) {
  const tensor::detail::Avx2TensorKernels* kt =
      tensor::detail::avx2_tensor_kernels();
  if (kt == nullptr || !avx2_host()) {
    GTEST_SKIP() << "no AVX2 kernels on this host/build";
  }
  // A stride through all 2^32 bit patterns (every sign, exponent and the
  // NaN space), then the special-case boundaries side by side in one
  // vector so special and ordinary lanes mix.
  std::vector<float> inputs;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4093) {
    const auto bits = static_cast<std::uint32_t>(b);
    float x = 0.0f;
    std::memcpy(&x, &bits, sizeof x);
    inputs.push_back(x);
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float x :
       {0.0f, -0.0f, 1e-40f, -1e-40f, 87.99f, 88.0f, -88.0f, 88.72f,
        0x1.62e42ep6f, std::nextafter(0x1.62e42ep6f, inf), 88.73f, -103.9f,
        -0x1.9fe368p6f, std::nextafter(-0x1.9fe368p6f, -inf), -104.0f, inf,
        -inf, std::numeric_limits<float>::quiet_NaN(), -1.5f, 2.5f}) {
    inputs.push_back(x);
  }
  while (inputs.size() % 8 != 0) inputs.push_back(1.0f);
  for (const bool ftz_daz : {false, true}) {
    FpModeGuard mode(ftz_daz);
    std::size_t diffs = 0;
    float lanes[8];
    for (std::size_t i = 0; i < inputs.size(); i += 8) {
      kt->expf8(inputs.data() + i, lanes);
      for (std::size_t k = 0; k < 8; ++k) {
        if (float_bits(lanes[k]) != float_bits(tensor::expf(inputs[i + k])) &&
            diffs++ < 5) {
          ADD_FAILURE() << "x bits 0x" << std::hex
                        << float_bits(inputs[i + k]) << " ftz_daz "
                        << ftz_daz;
        }
      }
    }
    EXPECT_EQ(diffs, 0u) << "ftz_daz " << ftz_daz;
  }
}

float nan_with_bits(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

// Logits for one shape: uniform at a spread picked per shape (up to 400,
// so exps underflow past the -88 and -104 boundaries), with NaN (first and
// later), +inf, -inf and all -inf rows salted into half the shapes. The
// NaNs carry distinct signs and payloads, so an output's NaN bits show
// which operations, in which order, produced it.
Tensor softmax_input(std::size_t rows, std::size_t cols, Rng& rng) {
  static constexpr float kSpread[] = {1.0f, 8.0f, 60.0f, 400.0f};
  Tensor t = Tensor::uniform({rows, cols},
                             kSpread[(rows + 3 * cols) % 4], rng);
  if ((rows + cols) % 2 == 0) return t;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = nan_with_bits(0x7fc00001u);
  const float other_nan = nan_with_bits(0xffc00002u);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = t.data() + r * cols;
    switch ((r + cols) % 9) {
      case 0:
        row[0] = nan;
        row[cols - 1] = other_nan;
        break;
      case 1: row[cols / 2] = other_nan; break;
      case 2: row[cols - 1] = inf; break;
      case 3: row[cols / 3] = -inf; break;
      case 4: std::fill(row, row + cols, -inf); break;
      default: break;
    }
  }
  return t;
}

TEST(SimdKernels, SoftmaxAndCrossEntropyTierTwinOverShapeGrid) {
  // Rows 1..17 cover one and two groups of eight plus every remainder;
  // columns 1..140 cover every 8-column tail around the serve shape's 125.
  // Each shape runs under the default MXCSR and under FTZ/DAZ, where the
  // large spreads produce subnormal exps to flush.
  Rng rng(4242);
  for (std::size_t rows = 1; rows <= 17; ++rows) {
    for (std::size_t cols = 1; cols <= 140; ++cols) {
      const Tensor logits = softmax_input(rows, cols, rng);
      std::vector<std::int32_t> targets(rows);
      for (std::int32_t& t : targets) {
        t = static_cast<std::int32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(cols) - 1));
      }
      for (const bool ftz_daz : {false, true}) {
        FpModeGuard mode(ftz_daz);
        Tensor probs[2];
        double loss[2], forward[2];
        for (const common::SimdTier tier :
             {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
          TierGuard guard(tier);
          const int k = tier == common::SimdTier::kAvx2 ? 1 : 0;
          probs[k] = tensor::row_softmax(logits);
          loss[k] = tensor::mean_cross_entropy(logits.flat(), cols, targets);
          nn::SoftmaxCrossEntropy ce;
          forward[k] = ce.forward(logits, targets);
        }
        const std::string label = std::to_string(rows) + "x" +
                                  std::to_string(cols) + " ftz_daz " +
                                  std::to_string(ftz_daz);
        ASSERT_TRUE(BitEqual(probs[1], probs[0])) << label;
        ASSERT_EQ(double_bits(loss[1]), double_bits(loss[0])) << label;
        ASSERT_EQ(double_bits(forward[0]), double_bits(loss[0])) << label;
        ASSERT_EQ(double_bits(forward[1]), double_bits(loss[0])) << label;
      }
    }
  }
}

TEST(SimdKernels, RowArgmaxTierTwinTiesZerosAndNonFinite) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Hand-made rows with the scalar `>` chain's answer: the first maximum,
  // the first of +0 and -0, and NaN only where it blocks every later
  // element (first) or is skipped (later).
  struct Case {
    std::vector<float> row;
    std::int32_t want;
  };
  const std::vector<Case> cases = {
      {{-0.0f, 0.0f}, 0},
      {{0.0f, -0.0f}, 0},
      {{-1.0f, -0.0f, 0.0f}, 1},
      {{1.0f, 3.0f, 3.0f}, 1},
      {{nan, 5.0f, 7.0f}, 0},
      {{1.0f, nan, 7.0f}, 2},
      {{1.0f, 7.0f, nan, 7.0f}, 1},
      {{-inf, -inf}, 0},
      {{1.0f, inf, 2.0f, inf}, 1},
  };
  for (const Case& c : cases) {
    const Tensor t({1, c.row.size()}, c.row);
    for (const common::SimdTier tier :
         {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
      TierGuard guard(tier);
      EXPECT_EQ(tensor::row_argmax(t)[0], c.want)
          << "case " << (&c - cases.data()) << " tier "
          << common::simd_tier_name(tier);
    }
  }
  // Random rows over every column tail, with repeated maxima, signed
  // zeros and the NaN/inf salt of the softmax grid.
  Rng rng(99);
  for (std::size_t cols = 1; cols <= 140; ++cols) {
    Tensor t = softmax_input(9, cols, rng);
    for (std::size_t j = 0; j < cols; ++j) {
      // Quantize row 5 so maxima repeat, and make row 6 signed zeros.
      t.at(5, j) = std::round(t.at(5, j) * 2.0f);
      t.at(6, j) = (j % 3 == 0) ? -0.0f : 0.0f;
    }
    std::vector<std::int32_t> got[2];
    for (const common::SimdTier tier :
         {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
      TierGuard guard(tier);
      got[tier == common::SimdTier::kAvx2 ? 1 : 0] = tensor::row_argmax(t);
    }
    EXPECT_EQ(got[1], got[0]) << "cols " << cols;
  }
}

// ---------------------------------------------------------------------------
// Channel plane twins.

// Reference 16-QAM slicer: the pre-SIMD linear distance scan over the PAM
// levels with strict `<` (ties keep the lower index, NaN lands on 0).
// Within half an ulp above a decision boundary the scan's ROUNDED
// distances tie even though the true distances differ; the threshold
// slicer resolves those by true magnitude (picks the upper level), so the
// reference also reports whether such a rounded tie occurred and the test
// accepts either tied level there — and only there.
struct SliceRef {
  std::size_t index;      // what the old scan picked (lowest tied level)
  bool tied[4] = {};      // levels whose rounded distance equals the best
};

SliceRef reference_qam16_scan(double v) {
  static constexpr double kPam4[4] = {-3.0, -1.0, 1.0, 3.0};
  SliceRef ref{0, {}};
  double best_d = std::abs(v - kPam4[0]);
  for (std::size_t i = 1; i < 4; ++i) {
    const double d = std::abs(v - kPam4[i]);
    if (d < best_d) {
      best_d = d;
      ref.index = i;
    }
  }
  for (std::size_t i = 0; i < 4; ++i) {
    ref.tied[i] = std::abs(v - kPam4[i]) == best_d;
  }
  // NaN distances fail every compare: the scan kept index 0 and nothing
  // reads as tied, so only level 0 is acceptable — same as the slicer.
  if (std::isnan(v)) ref.tied[0] = true;
  return ref;
}

std::size_t gray_bits_to_index(std::uint8_t b0, std::uint8_t b1) {
  static constexpr std::size_t kInverse[4] = {0, 1, 3, 2};  // 00 01 10 11
  return kInverse[(static_cast<std::size_t>(b0) << 1) | b1];
}

::testing::AssertionResult slice_matches(double v, std::uint8_t b0,
                                         std::uint8_t b1) {
  const SliceRef ref = reference_qam16_scan(v);
  const std::size_t got = gray_bits_to_index(b0, b1);
  if (got == ref.index) return ::testing::AssertionSuccess();
  if (ref.tied[got]) {
    return ::testing::AssertionSuccess();  // rounded-tie: either is nearest
  }
  return ::testing::AssertionFailure()
         << "v " << v << ": got level " << got << ", scan picked "
         << ref.index;
}

std::vector<Symbol> adversarial_symbols(std::size_t count, Rng& rng) {
  const double scale = 1.0 / std::sqrt(10.0);  // kQam16Scale
  std::vector<Symbol> sym(count);
  for (std::size_t i = 0; i < count; ++i) {
    sym[i] = Symbol(rng.gaussian(0.0, 2.0), rng.gaussian(0.0, 2.0));
  }
  // Salt with decision-boundary and non-finite values: the slicers must
  // agree on ties, signed zero, NaN, and infinities too.
  const double specials[] = {0.0,
                             -0.0,
                             2.0 * scale,
                             -2.0 * scale,
                             1e-300,
                             -1e-300,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  std::size_t slot = 0;
  for (const double s : specials) {
    if (slot + 1 >= count) break;
    sym[slot] = Symbol(s, -s);
    sym[slot + 1] = Symbol(-s, s);
    slot += 2;
  }
  return sym;
}

TEST(SimdChannel, Qam16SlicerMatchesReferenceScanSweep) {
  // Dense sweep across the decision boundaries (-2, 0, 2 in PAM space)
  // plus the salted specials: branchless threshold slicing, on either
  // tier, must reproduce the old linear distance scan bit by bit.
  const double scale = 1.0 / std::sqrt(10.0);
  std::vector<Symbol> sym;
  for (int i = -2500; i <= 2500; ++i) {
    sym.emplace_back((i / 500.0) * scale, ((2500 - i) / 500.0 - 2.5) * scale);
  }
  Rng rng(99);
  const std::vector<Symbol> salted = adversarial_symbols(64, rng);
  sym.insert(sym.end(), salted.begin(), salted.end());

  for (const common::SimdTier tier :
       {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
    TierGuard guard(tier);
    BitVec got;
    channel::demap_into(got, sym.data(), sym.size(), Modulation::kQam16);
    ASSERT_EQ(got.size(), 4 * sym.size());
    for (std::size_t i = 0; i < sym.size(); ++i) {
      EXPECT_TRUE(slice_matches(sym[i].real() / scale, got[4 * i],
                                got[4 * i + 1]))
          << "re, symbol " << i;
      EXPECT_TRUE(slice_matches(sym[i].imag() / scale, got[4 * i + 2],
                                got[4 * i + 3]))
          << "im, symbol " << i;
      if (HasFailure()) {
        FAIL() << "slicer mismatch under tier "
               << common::simd_tier_name(tier) << " at symbol " << i;
      }
    }
  }
}

TEST(SimdChannel, AwgnApplyTierTwin) {
  // The noise is keyed: apply takes one rng.next_key() and never draws
  // from the engine, so both the symbol bits AND the rng's state after
  // the call must twin exactly.
  Rng bits_rng(555);
  for (const std::size_t count : {1u, 2u, 3u, 31u, 500u}) {
    std::vector<Symbol> base(count);
    for (auto& s : base) {
      s = Symbol(bits_rng.gaussian(0.0, 1.0), bits_rng.gaussian(0.0, 1.0));
    }
    auto run = [&](common::SimdTier tier, std::vector<Symbol> sym) {
      TierGuard guard(tier);
      channel::AwgnChannel ch(4.0);
      Rng noise_rng(2718);
      ch.apply(sym, noise_rng, 0);
      sym.push_back(Symbol(noise_rng.gaussian(), 0.0));  // the rng state
      return sym;
    };
    const std::vector<Symbol> a = run(common::SimdTier::kScalar, base);
    const std::vector<Symbol> b = run(common::SimdTier::kAvx2, base);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Symbol)), 0)
        << "count " << count;
  }
}

TEST(SimdChannel, KeyedNoiseTierTwinBitwise) {
  // The AVX2 generator called directly against the scalar reference,
  // over every tail length of its four-pair blocks, a serve-sized
  // message (264 pairs) and a long one; nonzero starting symbols and a
  // first index near the top of the counter space check the fused add
  // and the state wraparound.
  const channel::detail::Avx2ChannelKernels* k =
      channel::detail::avx2_channel_kernels();
  if (k == nullptr || !avx2_host()) {
    GTEST_SKIP() << "no AVX2 kernels on this host/build";
  }
  Rng rng(4242);
  std::vector<std::size_t> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 264, 4098};
  for (const std::size_t pairs : lengths) {
    for (const std::uint64_t first : {std::uint64_t{0}, ~std::uint64_t{0} - 5}) {
      std::vector<double> base(2 * pairs);
      for (double& v : base) v = rng.gaussian();
      const std::uint64_t key = rng.next_key();
      std::vector<double> scalar = base, simd = base;
      {
        TierGuard guard(common::SimdTier::kScalar);
        channel::add_keyed_noise(scalar.data(), pairs, key, first, 0.37);
      }
      k->add_keyed_noise(simd.data(), pairs, key, first, 0.37);
      ASSERT_EQ(scalar.size(), simd.size());
      if (!scalar.empty()) {
        EXPECT_EQ(0, std::memcmp(scalar.data(), simd.data(),
                                 scalar.size() * sizeof(double)))
            << "pairs " << pairs << " first " << first;
      }
    }
  }
  // The pair accessor and the noise add read the same generator.
  std::vector<double> zeros(2 * 9, 0.0);
  channel::add_keyed_noise(zeros.data(), 9, 77, 3, 1.0);
  for (std::size_t j = 0; j < 9; ++j) {
    double z0 = 0.0, z1 = 0.0;
    channel::keyed_gaussian_pair(77, 3 + j, z0, z1);
    EXPECT_EQ(zeros[2 * j], z0) << j;
    EXPECT_EQ(zeros[2 * j + 1], z1) << j;
  }
}

TEST(SimdChannel, KeyedNoiseIsStandardGaussianOnBothTiers) {
  // 2000 keys x 250 pairs = 10^6 values, the way channels use the
  // generator: many keys, a short stream each. Bounds are about five
  // standard errors of each estimate at n = 10^6.
  constexpr std::size_t kKeys = 2000;
  constexpr std::size_t kPairs = 250;
  for (const common::SimdTier tier :
       {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
    TierGuard guard(tier);
    Rng keys(2024);
    std::vector<double> z(2 * kPairs);
    double sum = 0.0, sum2 = 0.0, sum4 = 0.0, cross = 0.0;
    std::size_t beyond2 = 0, beyond3 = 0;
    for (std::size_t k = 0; k < kKeys; ++k) {
      std::fill(z.begin(), z.end(), 0.0);
      channel::add_keyed_noise(z.data(), kPairs, keys.next_key(), 0, 1.0);
      for (std::size_t j = 0; j < kPairs; ++j) cross += z[2 * j] * z[2 * j + 1];
      for (const double v : z) {
        sum += v;
        sum2 += v * v;
        sum4 += v * v * v * v;
        beyond2 += std::fabs(v) > 2.0 ? 1 : 0;
        beyond3 += std::fabs(v) > 3.0 ? 1 : 0;
      }
    }
    const double n = 2.0 * kKeys * kPairs;
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    const double tail2 = std::erfc(2.0 / std::sqrt(2.0));  // P(|z| > 2)
    const double tail3 = std::erfc(3.0 / std::sqrt(2.0));  // P(|z| > 3)
    const std::string at = common::simd_tier_name(tier);
    EXPECT_NEAR(mean, 0.0, 0.005) << at;
    EXPECT_NEAR(var, 1.0, 0.007) << at;
    EXPECT_NEAR(sum4 / n / (var * var), 3.0, 0.025) << at;  // kurtosis
    EXPECT_NEAR(cross / (n / 2.0), 0.0, 0.007) << at;  // pair halves uncorrelated
    EXPECT_NEAR(beyond2 / n, tail2, 0.0011) << at;
    EXPECT_NEAR(beyond3 / n, tail3, 0.00026) << at;
  }
}

TEST(SimdChannel, NextKeyIgnoresEngineDraws) {
  Rng quiet(99), busy(99);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t key = quiet.next_key();
    EXPECT_EQ(busy.next_key(), key) << "call " << i;
    // Engine draws between calls on one side only.
    busy.uniform();
    busy.gaussian();
    (void)busy.uniform_int(0, 9);
    keys.push_back(key);
  }
  // Every call advances the key; a copy carries the counter along.
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_NE(keys[i], keys[i - 1]);
  }
  Rng copy = quiet;
  EXPECT_EQ(copy.next_key(), quiet.next_key());
  // Engine draws are unchanged by the keys handed out before them.
  Rng fresh(99);
  EXPECT_EQ(quiet.uniform(), fresh.uniform());
}

TEST(SimdChannel, ModulatedTransmitTierTwin) {
  // End-to-end transmit (modulate -> AWGN -> demap) under both tiers:
  // same seed, same bits out. This is the bit pattern the golden suites
  // pin, so a twin break here means the byte-identity gate would trip.
  Rng payload_rng(808);
  const BitVec payload = test::random_bits(4093, payload_rng);
  for (const Modulation m :
       {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16}) {
    auto run = [&](common::SimdTier tier) {
      TierGuard guard(tier);
      channel::ModulatedChannel ch(
          m, std::make_unique<channel::AwgnChannel>(6.0));
      Rng rng(1234);
      return ch.transmit(payload, rng, 0);
    };
    EXPECT_EQ(run(common::SimdTier::kScalar), run(common::SimdTier::kAvx2))
        << channel::modulation_name(m);
  }
}

TEST(SimdChannel, ViterbiDecodeTierTwin) {
  Rng rng(2023);
  for (const channel::CodeRate rate :
       {channel::CodeRate::kR12, channel::CodeRate::kR23,
        channel::CodeRate::kR34}) {
    const channel::ConvolutionalCode code(rate);
    for (const std::size_t info_len : {1u, 2u, 5u, 64u, 1000u, 4097u}) {
      const BitVec info = test::random_bits(info_len, rng);
      BitVec coded = code.encode(info);
      // ~2% random channel errors: enough to force nontrivial ACS
      // decisions (including ties) without guaranteeing correction.
      for (auto& b : coded) {
        if (rng.bernoulli(0.02)) b ^= 1;
      }
      BitVec scalar_out, simd_out;
      {
        TierGuard guard(common::SimdTier::kScalar);
        scalar_out = code.decode(coded);
      }
      {
        TierGuard guard(common::SimdTier::kAvx2);
        simd_out = code.decode(coded);
      }
      // The SSE ACS must make the identical survivor choice at every step,
      // so even uncorrected decodes twin exactly.
      EXPECT_EQ(scalar_out, simd_out)
          << code.name() << " info_len " << info_len;
    }
  }
}

TEST(SimdChannel, SoftViterbiDecodeTierTwin) {
  // Weighted ACS twin: LLRs from genuinely noisy symbols (non-uniform
  // quantized weights), through the plain and both punctured codes —
  // every survivor choice, including weight-tie-breaks, must match.
  channel::ConvolutionalCode conv;
  channel::ConvolutionalCode r23(channel::CodeRate::kR23);
  channel::ConvolutionalCode r34(channel::CodeRate::kR34);
  Rng rng(71717);
  for (const std::size_t info_len : {1u, 2u, 5u, 64u, 1000u}) {
    const BitVec info = test::random_bits(info_len, rng);
    for (const channel::ChannelCode* code :
         {static_cast<const channel::ChannelCode*>(&conv),
          static_cast<const channel::ChannelCode*>(&r23),
          static_cast<const channel::ChannelCode*>(&r34)}) {
      const BitVec coded = code->encode(info);
      std::vector<float> llrs(coded.size());
      for (std::size_t i = 0; i < coded.size(); ++i) {
        // Signed confidence around the hard decision, noisy enough to
        // cross zero sometimes (wrong-sign LLRs force real ACS work).
        llrs[i] = static_cast<float>((coded[i] != 0 ? 1.0 : -1.0) +
                                     rng.gaussian(0.0, 0.9));
      }
      BitVec scalar_out, simd_out;
      {
        TierGuard guard(common::SimdTier::kScalar);
        scalar_out = code->decode_soft(llrs);
      }
      {
        TierGuard guard(common::SimdTier::kAvx2);
        simd_out = code->decode_soft(llrs);
      }
      EXPECT_EQ(scalar_out, simd_out)
          << code->name() << " info_len " << info_len;
    }
  }
}

TEST(SimdChannel, ViterbiLongFrameMetricsNeverWrap) {
  // Regression pin for the saturating metric add: the pre-SIMD decoder
  // seeded dead states with a huge sentinel and kept adding branch
  // metrics to it, which on a long enough frame could wrap and beat a
  // real path. Metrics now saturate at kViterbiInf, so frame length can
  // never corrupt the winner. Pin with a frame orders of magnitude
  // longer than anything the stack transmits, with sparse correctable
  // errors, under both tiers.
  channel::ConvolutionalCode code;
  Rng rng(424242);
  const std::size_t info_len = 100000;
  const BitVec info = test::random_bits(info_len, rng);
  BitVec coded = code.encode(info);
  for (std::size_t i = 0; i < coded.size(); i += 997) {
    coded[i] ^= 1;  // isolated single-bit errors: always correctable at K=3
  }
  for (const common::SimdTier tier :
       {common::SimdTier::kScalar, common::SimdTier::kAvx2}) {
    TierGuard guard(tier);
    EXPECT_EQ(code.decode(coded), info)
        << "tier " << common::simd_tier_name(tier);
  }
}

}  // namespace
}  // namespace semcache
