#include "nn/optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace semcache::nn {

void Optimizer::zero_grad(std::span<Parameter* const> params) {
  for (Parameter* p : params) p->zero_grad();
}

namespace {

// The double sum of squares runs over 16 lanes, held as four vectors of
// four doubles (a GCC and Clang vector extension, lowered to whatever
// vector registers the target has). Element i of each tensor goes to lane
// i % 16 and the lanes are added in order at the end, so the sum is the
// same however the target vectorizes it.
using Double4 = double __attribute__((vector_size(4 * sizeof(double))));

// The margin below holds only while the element counts keep n·u small;
// beyond this many elements clip_grad_norm always runs the chain.
constexpr std::size_t kMaxDecidedElements = std::size_t{1} << 22;

double sum_of_squares(std::span<Parameter* const> params) {
  Double4 lane[4] = {};
  const auto add16 = [&lane](const float* g) {
    for (std::size_t k = 0; k < 4; ++k) {
      const Double4 x = {g[4 * k], g[4 * k + 1], g[4 * k + 2], g[4 * k + 3]};
      lane[k] += x * x;
    }
  };
  for (const Parameter* p : params) {
    const float* g = p->grad.data();
    const std::size_t n = p->grad.size();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) add16(g + i);
    if (i < n) {
      // Zeros past the end add +0.0, which leaves every lane as it was.
      float tail[16] = {};
      std::copy(g + i, g + n, tail);
      add16(tail);
    }
  }
  double sq = 0.0;
  for (const Double4& v : lane) {
    for (std::size_t l = 0; l < 4; ++l) sq += v[l];
  }
  return sq;
}

}  // namespace

double Optimizer::clip_grad_norm(std::span<Parameter* const> params,
                                 double max_norm) {
  SEMCACHE_CHECK(max_norm > 0.0, "clip_grad_norm: max_norm must be positive");
  std::size_t total = 0;
  std::size_t largest = 0;
  for (const Parameter* p : params) {
    total += p->grad.size();
    largest = std::max(largest, p->grad.size());
  }
  // Whether to run the chain. S is the exact sum of the squares of the
  // gradients as the FPU reads them. A float's square is exact in double
  // and no double here under- or overflows, so |sq - S| <= γd(total)·S,
  // with γd(n) = n·2^-53 / (1 - n·2^-53).
  //
  // The chain below clips exactly when its norm c exceeds max_norm. Per
  // tensor of n elements, l2_norm's float dot adds one rounded square
  // after another: two roundings per element (the square, then the sum),
  // one in its fused last n mod 8 steps. Each rounding errs by at most
  // u = 2^-24 relative, or by less than 2^-126 absolute where its result,
  // or a partial sum read under denormals-are-zero, falls below the
  // normal range. With at most three such absolute errors per element,
  // the recursive-summation bound gives s <= (1 + γ(n))·S_t + n·2^-123,
  // with γ(n) = n·u / (1 - n·u), as long as no partial sum overflows.
  // The float sqrt adds (1 + u)^2 to the square, and the double sum and
  // sqrt over the tensors a few 2^-53 factors:
  //   c^2 <= (1 + γ(largest + 3))·S + total·2^-122.
  // Below kMaxDecidedElements the step from γ(largest + 3) to
  // γ(largest + 4) exceeds u, which covers γd(total) and the 2^-53
  // roundings of the test below. A bound under 2^127 keeps every float
  // partial sum finite, and one under max_norm^2 proves c <= max_norm:
  // the chain would change nothing. NaN and Inf fail the comparison.
  const double sq = sum_of_squares(params);
  const double norm = std::sqrt(sq);
  const double u = 0x1p-24;
  const double nu = static_cast<double>(largest + 4) * u;
  const double bound =
      sq * (1.0 + nu / (1.0 - nu)) + static_cast<double>(total) * 0x1p-122;
  if (total < kMaxDecidedElements && bound < 0x1p127 &&
      bound < max_norm * max_norm) {
    return norm;
  }
  double chain_sq = 0.0;
  for (const Parameter* p : params) {
    const double n = tensor::l2_norm(p->grad);
    chain_sq += n * n;
  }
  const double chain = std::sqrt(chain_sq);
  if (chain > max_norm) {
    const auto scale = static_cast<float>(max_norm / chain);
    for (Parameter* p : params) {
      float* pg = p->grad.data();
      for (std::size_t i = 0; i < p->grad.size(); ++i) pg[i] *= scale;
    }
  }
  return norm;
}

Sgd::Sgd(double lr, double momentum) : lr_(lr), momentum_(momentum) {
  SEMCACHE_CHECK(lr > 0.0, "sgd: lr must be positive");
  SEMCACHE_CHECK(momentum >= 0.0 && momentum < 1.0,
                 "sgd: momentum must be in [0, 1)");
}

void Sgd::step(std::span<Parameter* const> params) {
  if (momentum_ == 0.0) {
    for (Parameter* p : params) {
      tensor::axpy_inplace(p->value, p->grad, static_cast<float>(-lr_));
    }
    return;
  }
  if (velocity_.size() != params.size()) {
    velocity_.clear();
    for (const Parameter* p : params) {
      velocity_.push_back(tensor::Tensor::zeros(p->value.shape()));
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    tensor::Tensor& v = velocity_[i];
    SEMCACHE_CHECK(v.same_shape(p->value),
                   "sgd: parameter list changed between steps");
    float* pv = v.data();
    float* pval = p->value.data();
    const float* pg = p->grad.data();
    const auto mom = static_cast<float>(momentum_);
    const auto lr = static_cast<float>(lr_);
    for (std::size_t j = 0; j < v.size(); ++j) {
      pv[j] = mom * pv[j] + pg[j];
      pval[j] -= lr * pv[j];
    }
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  SEMCACHE_CHECK(std::isfinite(lr) && lr > 0.0,
                 "adam: lr must be finite and positive");
  SEMCACHE_CHECK(beta1 >= 0.0 && beta1 < 1.0, "adam: beta1 must be in [0,1)");
  SEMCACHE_CHECK(beta2 >= 0.0 && beta2 < 1.0, "adam: beta2 must be in [0,1)");
}

void Adam::step(std::span<Parameter* const> params) {
  if (m_.size() != params.size()) {
    m_.clear();
    v_.clear();
    for (const Parameter* p : params) {
      m_.push_back(tensor::Tensor::zeros(p->value.shape()));
      v_.push_back(tensor::Tensor::zeros(p->value.shape()));
    }
    t_ = 0;
  }
  ++t_;
  const tensor::AdamCoefficients c{
      lr_, beta1_, beta2_, eps_,
      /*bc1=*/1.0 - std::pow(beta1_, static_cast<double>(t_)),
      /*bc2=*/1.0 - std::pow(beta2_, static_cast<double>(t_))};
  for (std::size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    SEMCACHE_CHECK(m_[i].same_shape(p->value),
                   "adam: parameter list changed between steps");
    tensor::adam_update(p->value, p->grad, m_[i], v_[i], c);
  }
}

}  // namespace semcache::nn
