// First-order optimizers over Parameter lists.
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace semcache::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Apply one update step from the accumulated gradients.
  virtual void step(std::span<Parameter* const> params) = 0;

  /// Reset all gradients to zero.
  static void zero_grad(std::span<Parameter* const> params);
  /// Scale gradients so their global L2 norm is at most max_norm.
  ///
  /// Whether and by how much to scale is decided by a float chain (each
  /// tensor's float l2_norm, their squares summed in double), which runs
  /// only when a double sum of squares cannot prove the chain's norm to be
  /// at most max_norm; the gradients therefore come out bit for bit as if
  /// the chain always ran. Returns the pre-clip norm from that double sum:
  /// the square root of the sum of the exact squares over 16 lanes, where
  /// element i of each tensor goes to lane i % 16 and the lanes are added
  /// in order. NaN or Inf when a gradient holds one.
  static double clip_grad_norm(std::span<Parameter* const> params,
                               double max_norm);
};

/// SGD with optional classical momentum.
class Sgd : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0);
  void step(std::span<Parameter* const> params) override;

 private:
  double lr_;
  double momentum_;
  std::vector<tensor::Tensor> velocity_;
};

/// Adam (Kingma & Ba 2015) with bias correction.
class Adam : public Optimizer {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);
  void step(std::span<Parameter* const> params) override;

 private:
  double lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

}  // namespace semcache::nn
