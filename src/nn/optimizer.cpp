#include "nn/optimizer.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace semcache::nn {

void Optimizer::zero_grad(std::span<Parameter* const> params) {
  for (Parameter* p : params) p->zero_grad();
}

double Optimizer::clip_grad_norm(std::span<Parameter* const> params,
                                 double max_norm) {
  SEMCACHE_CHECK(max_norm > 0.0, "clip_grad_norm: max_norm must be positive");
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
  SEMCACHE_CHECK(lr > 0.0, "adam: lr must be positive");
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
