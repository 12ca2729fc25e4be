#include "nn/gru.hpp"

#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace semcache::nn {

using tensor::affine_into;
using tensor::column_sums_acc;
using tensor::matmul_acc;
using tensor::matmul_nt_acc;
using tensor::matmul_nt_into;
using tensor::matmul_tn_acc;

namespace {
/// out = σ(t), element-wise; out is resized to t's shape.
void sigmoid_into(Tensor& out, const Tensor& t) {
  out.resize(t.shape());
  const float* pt = t.data();
  float* po = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    po[i] = 1.0f / (1.0f + tensor::expf(-pt[i]));
  }
}

/// out = tanh(t), element-wise; out is resized to t's shape.
void tanh_into(Tensor& out, const Tensor& t) {
  out.resize(t.shape());
  const float* pt = t.data();
  float* po = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) po[i] = std::tanh(pt[i]);
}

/// out = a ⊙ b (same shape); out is resized.
void mul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  out.resize(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) po[i] = pa[i] * pb[i];
}

/// Copy row i of a rank-2 tensor into out as a (1 x cols) tensor.
void copy_row(Tensor& out, const Tensor& t, std::size_t i) {
  const std::size_t cols = t.dim(1);
  out.resize({1, cols});
  std::memcpy(out.data(), t.data() + i * cols, cols * sizeof(float));
}
}  // namespace

Gru::Gru(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
         std::string name)
    : in_(input_dim),
      hid_(hidden_dim),
      wz_(name + ".wz", Tensor::xavier(input_dim, hidden_dim, rng)),
      uz_(name + ".uz", Tensor::xavier(hidden_dim, hidden_dim, rng)),
      bz_(name + ".bz", Tensor::zeros({hidden_dim})),
      wr_(name + ".wr", Tensor::xavier(input_dim, hidden_dim, rng)),
      ur_(name + ".ur", Tensor::xavier(hidden_dim, hidden_dim, rng)),
      br_(name + ".br", Tensor::zeros({hidden_dim})),
      wh_(name + ".wh", Tensor::xavier(input_dim, hidden_dim, rng)),
      uh_(name + ".uh", Tensor::xavier(hidden_dim, hidden_dim, rng)),
      bh_(name + ".bh", Tensor::zeros({hidden_dim})) {}

const Tensor& Gru::forward(const Tensor& xs) {
  SEMCACHE_CHECK(xs.rank() == 2 && xs.dim(1) == in_,
                 "gru: input must be (T x input_dim)");
  const std::size_t t_steps = xs.dim(0);
  if (cache_.size() < t_steps) cache_.resize(t_steps);
  steps_ = t_steps;

  hs_.resize({t_steps, hid_});
  h_.resize({1, hid_});
  h_.zero();
  pre_.resize({1, hid_});
  rh_.resize({1, hid_});
  for (std::size_t t = 0; t < t_steps; ++t) {
    StepCache& c = cache_[t];
    copy_row(c.x, xs, t);
    c.h_prev = h_;

    affine_into(pre_, c.x, wz_.value, bz_.value);
    matmul_acc(pre_, c.h_prev, uz_.value);
    sigmoid_into(c.z, pre_);

    affine_into(pre_, c.x, wr_.value, br_.value);
    matmul_acc(pre_, c.h_prev, ur_.value);
    sigmoid_into(c.r, pre_);

    mul_into(rh_, c.r, c.h_prev);
    affine_into(pre_, c.x, wh_.value, bh_.value);
    matmul_acc(pre_, rh_, uh_.value);
    tanh_into(c.h_tilde, pre_);

    float* ph = h_.data();
    float* hs_row = hs_.data() + t * hid_;
    const float* pz = c.z.data();
    const float* pp = c.h_prev.data();
    const float* pt = c.h_tilde.data();
    for (std::size_t j = 0; j < hid_; ++j) {
      const float hv = (1.0f - pz[j]) * pp[j] + pz[j] * pt[j];
      ph[j] = hv;
      hs_row[j] = hv;
    }
  }
  return hs_;
}

const Tensor& Gru::backward(const Tensor& grad_hs) {
  SEMCACHE_CHECK(grad_hs.rank() == 2 && grad_hs.dim(0) == steps_ &&
                     grad_hs.dim(1) == hid_,
                 "gru: grad_hs must be (T x hidden_dim) matching forward");
  const std::size_t t_steps = steps_;
  dxs_.resize({t_steps, in_});
  dh_prev_.resize({1, hid_});
  dh_prev_.zero();
  for (Tensor* t : {&dh_, &da_z_, &da_h_, &da_r_, &g_rh_, &rh_}) {
    t->resize({1, hid_});
  }
  // The gate pre-activation buffer doubles as the step's input gradient.
  Tensor& dx = pre_;
  dx.resize({1, in_});

  for (std::size_t ti = t_steps; ti-- > 0;) {
    const StepCache& c = cache_[ti];
    // Total gradient at h_t: from the per-step loss plus from step t+1.
    {
      const float* pn = dh_prev_.data();
      const float* pg = grad_hs.data() + ti * hid_;
      float* pd = dh_.data();
      for (std::size_t j = 0; j < hid_; ++j) pd[j] = pn[j] + pg[j];
    }

    for (std::size_t j = 0; j < hid_; ++j) {
      const float z = c.z.at(0, j);
      const float ht = c.h_tilde.at(0, j);
      da_z_.at(0, j) =
          dh_.at(0, j) * (ht - c.h_prev.at(0, j)) * z * (1.0f - z);
      da_h_.at(0, j) = dh_.at(0, j) * z * (1.0f - ht * ht);
    }

    // Gradient w.r.t. (r ⊙ h_prev) through U_h.
    matmul_nt_into(g_rh_, da_h_, uh_.value);
    for (std::size_t j = 0; j < hid_; ++j) {
      const float r = c.r.at(0, j);
      da_r_.at(0, j) = g_rh_.at(0, j) * c.h_prev.at(0, j) * r * (1.0f - r);
    }

    // Parameter gradients, accumulated directly via the transposed kernels
    // (no xᵀ / h_prevᵀ temporaries).
    mul_into(rh_, c.r, c.h_prev);
    matmul_tn_acc(wz_.grad, c.x, da_z_);
    matmul_tn_acc(uz_.grad, c.h_prev, da_z_);
    column_sums_acc(bz_.grad, da_z_);
    matmul_tn_acc(wr_.grad, c.x, da_r_);
    matmul_tn_acc(ur_.grad, c.h_prev, da_r_);
    column_sums_acc(br_.grad, da_r_);
    matmul_tn_acc(wh_.grad, c.x, da_h_);
    matmul_tn_acc(uh_.grad, rh_, da_h_);
    column_sums_acc(bh_.grad, da_h_);

    // Input gradient.
    matmul_nt_into(dx, da_z_, wz_.value);
    matmul_nt_acc(dx, da_r_, wr_.value);
    matmul_nt_acc(dx, da_h_, wh_.value);
    std::memcpy(dxs_.data() + ti * in_, dx.data(), in_ * sizeof(float));

    // Hidden-state gradient to step t-1 (reuses dh_prev_: dh_ was already
    // folded into da_z_ / da_h_ / the (1-z) term below).
    {
      float* pd = dh_prev_.data();
      const float* pz = c.z.data();
      const float* pr = c.r.data();
      const float* pg = g_rh_.data();
      const float* ph = dh_.data();
      for (std::size_t j = 0; j < hid_; ++j) {
        pd[j] = ph[j] * (1.0f - pz[j]) + pg[j] * pr[j];
      }
    }
    matmul_nt_acc(dh_prev_, da_z_, uz_.value);
    matmul_nt_acc(dh_prev_, da_r_, ur_.value);
  }
  return dxs_;
}

std::vector<Parameter*> Gru::parameters() {
  return {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wh_, &uh_, &bh_};
}

}  // namespace semcache::nn
