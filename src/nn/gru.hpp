// GRU over a sequence, with full backpropagation-through-time.
//
// Substitutes for the "LSTM-based classification network" the paper's §III-A
// suggests for context-aware model selection (see DESIGN.md substitutions).
//
// Update equations (batch of 1, row vectors):
//   z_t = σ(x_t W_z + h_{t-1} U_z + b_z)
//   r_t = σ(x_t W_r + h_{t-1} U_r + b_r)
//   h̃_t = tanh(x_t W_h + (r_t ⊙ h_{t-1}) U_h + b_h)
//   h_t = (1 − z_t) ⊙ h_{t-1} + z_t ⊙ h̃_t
//
// The per-step scratch tensors are members resized in place and the step
// cache is a grow-only pool, so repeated forwards/backwards over
// same-or-smaller sequences run allocation-free.
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace semcache::nn {

class Gru {
 public:
  Gru(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
      std::string name = "gru");

  /// Run over a sequence: xs is (T x input_dim); returns (T x hidden_dim)
  /// hidden states h_1..h_T (internal buffer; valid until the next
  /// forward). Initial hidden state is zero.
  const Tensor& forward(const Tensor& xs);

  /// BPTT. grad_hs is (T x hidden_dim) = dL/dh_t for every step (zero rows
  /// for steps without a loss term). Accumulates parameter gradients and
  /// returns dL/dxs (T x input_dim; internal buffer).
  const Tensor& backward(const Tensor& grad_hs);

  std::vector<Parameter*> parameters();
  std::size_t input_dim() const { return in_; }
  std::size_t hidden_dim() const { return hid_; }

 private:
  struct StepCache {
    Tensor x;        // (1 x in)
    Tensor h_prev;   // (1 x hid)
    Tensor z;        // (1 x hid)
    Tensor r;        // (1 x hid)
    Tensor h_tilde;  // (1 x hid)
  };

  std::size_t in_;
  std::size_t hid_;
  Parameter wz_, uz_, bz_;
  Parameter wr_, ur_, br_;
  Parameter wh_, uh_, bh_;
  std::vector<StepCache> cache_;  // grow-only pool; steps_ entries are live
  std::size_t steps_ = 0;
  Tensor hs_;   // (T x hid) forward output
  Tensor dxs_;  // (T x in) backward output
  // Per-step scratch, each (1 x hid) unless noted.
  Tensor h_;        // running hidden state (forward)
  Tensor pre_;      // gate pre-activation; backward's dx (1 x in)
  Tensor rh_;       // r ⊙ h_prev
  Tensor dh_;       // dL/dh_t (backward)
  Tensor da_z_;     // dL/da_z
  Tensor da_h_;     // dL/da_h
  Tensor da_r_;     // dL/da_r
  Tensor g_rh_;     // gradient w.r.t. (r ⊙ h_prev)
  Tensor dh_prev_;  // dL/dh_{t-1}
};

}  // namespace semcache::nn
