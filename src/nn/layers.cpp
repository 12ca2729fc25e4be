#include "nn/layers.hpp"

#include <cmath>
#include <cstring>

#include "common/check.hpp"

namespace semcache::nn {

using tensor::affine_into;
using tensor::column_sums_acc;
using tensor::matmul_nt_into;
using tensor::matmul_tn_acc;

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               std::string name)
    : name_(std::move(name)),
      w_(name_ + ".w", Tensor::xavier(in_features, out_features, rng)),
      b_(name_ + ".b", Tensor::zeros({out_features})) {}

const Tensor& Linear::forward(const Tensor& x) {
  SEMCACHE_CHECK(x.rank() == 2 && x.dim(1) == w_.value.dim(0),
                 name_ + ": input shape " + x.shape_string() +
                     " incompatible with weight " + w_.value.shape_string());
  last_input_ = x;
  affine_into(out_, x, w_.value, b_.value);
  return out_;
}

const Tensor& Linear::backward(const Tensor& grad_out) {
  SEMCACHE_CHECK(last_input_.size() > 0, name_ + ": backward before forward");
  SEMCACHE_CHECK(grad_out.same_shape(out_),
                 name_ + ": backward shape mismatch");
  // dW += xᵀ dy, db += column sums of dy, dx = dy Wᵀ — the transposed-kernel
  // variants avoid materializing xᵀ / Wᵀ on every step.
  matmul_tn_acc(w_.grad, last_input_, grad_out);
  column_sums_acc(b_.grad, grad_out);
  matmul_nt_into(dx_, grad_out, w_.value);
  return dx_;
}

LinearReLU::LinearReLU(std::size_t in_features, std::size_t out_features,
                       Rng& rng, std::string name)
    : name_(std::move(name)),
      w_(name_ + ".w", Tensor::xavier(in_features, out_features, rng)),
      b_(name_ + ".b", Tensor::zeros({out_features})) {}

const Tensor& LinearReLU::forward(const Tensor& x) {
  SEMCACHE_CHECK(x.rank() == 2 && x.dim(1) == w_.value.dim(0),
                 name_ + ": input shape " + x.shape_string() +
                     " incompatible with weight " + w_.value.shape_string());
  last_input_ = x;
  tensor::affine_relu_into(out_, x, w_.value, b_.value);
  return out_;
}

const Tensor& LinearReLU::backward(const Tensor& grad_out) {
  SEMCACHE_CHECK(last_input_.size() > 0, name_ + ": backward before forward");
  SEMCACHE_CHECK(grad_out.same_shape(out_),
                 name_ + ": backward shape mismatch");
  // Gate dy through the ReLU first (y == 0 iff the pre-activation was
  // clamped — same mask rule as the standalone ReLU layer), then run the
  // ordinary Linear backward on the gated gradient.
  masked_grad_.resize(grad_out.shape());
  const float* pg = grad_out.data();
  const float* py = out_.data();
  float* pm = masked_grad_.data();
  for (std::size_t i = 0; i < masked_grad_.size(); ++i) {
    pm[i] = py[i] <= 0.0f ? 0.0f : pg[i];
  }
  matmul_tn_acc(w_.grad, last_input_, masked_grad_);
  column_sums_acc(b_.grad, masked_grad_);
  matmul_nt_into(dx_, masked_grad_, w_.value);
  return dx_;
}

const Tensor& ReLU::forward(const Tensor& x) {
  out_.resize(x.shape());
  const float* px = x.data();
  float* py = out_.data();
  for (std::size_t i = 0; i < out_.size(); ++i) {
    py[i] = px[i] < 0.0f ? 0.0f : px[i];
  }
  return out_;
}

const Tensor& ReLU::backward(const Tensor& grad_out) {
  SEMCACHE_CHECK(grad_out.same_shape(out_), "relu: backward shape mismatch");
  dx_.resize(grad_out.shape());
  float* pd = dx_.data();
  const float* pg = grad_out.data();
  const float* py = out_.data();
  for (std::size_t i = 0; i < dx_.size(); ++i) {
    pd[i] = py[i] <= 0.0f ? 0.0f : pg[i];
  }
  return dx_;
}

const Tensor& Tanh::forward(const Tensor& x) {
  out_.resize(x.shape());
  const float* px = x.data();
  float* py = out_.data();
  for (std::size_t i = 0; i < out_.size(); ++i) py[i] = std::tanh(px[i]);
  return out_;
}

const Tensor& Tanh::backward(const Tensor& grad_out) {
  SEMCACHE_CHECK(grad_out.same_shape(out_), "tanh: backward shape mismatch");
  dx_.resize(grad_out.shape());
  float* pd = dx_.data();
  const float* pg = grad_out.data();
  const float* py = out_.data();
  for (std::size_t i = 0; i < dx_.size(); ++i) {
    pd[i] = pg[i] * (1.0f - py[i] * py[i]);
  }
  return dx_;
}

Embedding::Embedding(std::size_t vocab_size, std::size_t dim, Rng& rng,
                     std::string name)
    : w_(std::move(name),
         Tensor::uniform({vocab_size, dim},
                         1.0f / std::sqrt(static_cast<float>(dim)), rng)) {}

const Tensor& Embedding::forward(std::span<const std::int32_t> ids) {
  last_ids_.assign(ids.begin(), ids.end());
  const std::size_t d = dim();
  out_.resize({ids.size(), d});
  float* po = out_.data();
  const float* pw = w_.value.data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto id = ids[i];
    SEMCACHE_CHECK(id >= 0 && static_cast<std::size_t>(id) < vocab_size(),
                   "embedding: token id out of range");
    std::memcpy(po + i * d, pw + static_cast<std::size_t>(id) * d,
                d * sizeof(float));
  }
  return out_;
}

void Embedding::backward(const Tensor& grad_out) {
  SEMCACHE_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == last_ids_.size() &&
                     grad_out.dim(1) == dim(),
                 "embedding: backward shape mismatch");
  const std::size_t d = dim();
  float* pg = w_.grad.data();
  const float* po = grad_out.data();
  for (std::size_t i = 0; i < last_ids_.size(); ++i) {
    const auto id = static_cast<std::size_t>(last_ids_[i]);
    float* row = pg + id * d;
    for (std::size_t j = 0; j < d; ++j) row[j] += po[i * d + j];
  }
}

}  // namespace semcache::nn
