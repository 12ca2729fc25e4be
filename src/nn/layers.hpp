// Neural-network layers with explicit forward/backward passes.
//
// We use explicit per-layer backward rather than a tape autograd: the model
// zoo here is small (MLPs, embeddings, one GRU), and explicit gradients are
// straightforward to verify with the numerical gradcheck harness
// (nn/gradcheck.hpp), which every layer is tested against.
//
// The layers are plain classes, not a polymorphic hierarchy: a model holds
// its layers as named members, chains their forward() calls itself, and
// calls their backward() in reverse order.
//
// Convention: inputs/activations are rank-2 tensors (batch x features).
// forward() caches whatever backward() needs; backward() receives dL/dy,
// accumulates dL/dparam into each Parameter::grad, and returns dL/dx.
//
// Hot-path discipline: forward() and backward() return references to
// per-layer output buffers that are resized in place (capacity reused), so a
// warmed-up layer performs no heap allocation per call (test_serve_allocations
// counts them for the codec's layers). The reference stays valid until the
// layer's next forward()/backward(); callers that need the value past that
// point copy it (Tensor has value semantics).
// Linear and LinearReLU also offer a const infer(x, y): forward()'s kernel
// call into a caller-owned output, without the backward cache, so any
// number of threads may run it on one layer.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace semcache::nn {

using tensor::Tensor;

/// A named trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.zero(); }
};

/// y = x W + b.
class Linear {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         std::string name = "linear");

  const Tensor& forward(const Tensor& x);
  const Tensor& backward(const Tensor& grad_out);
  std::vector<Parameter*> parameters() { return {&w_, &b_}; }
  void infer(const Tensor& x, Tensor& y) const {
    tensor::affine_into(y, x, w_.value, b_.value);
  }

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

 private:
  std::string name_;
  Parameter w_;
  Parameter b_;
  Tensor last_input_;
  Tensor out_;
  Tensor dx_;
};

/// y = relu(x W + b), the affine and the clamp fused into one kernel pass
/// (tensor::affine_relu_into). Drop-in for a Linear immediately followed by
/// a ReLU: parameters carry the same names and order, so checkpoints and
/// pretrained-fixture caches recorded against the unfused pair reload
/// unchanged, and the forward/backward bits match the pair exactly.
class LinearReLU {
 public:
  LinearReLU(std::size_t in_features, std::size_t out_features, Rng& rng,
             std::string name = "linear");

  const Tensor& forward(const Tensor& x);
  const Tensor& backward(const Tensor& grad_out);
  std::vector<Parameter*> parameters() { return {&w_, &b_}; }
  void infer(const Tensor& x, Tensor& y) const {
    tensor::affine_relu_into(y, x, w_.value, b_.value);
  }

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

 private:
  std::string name_;
  Parameter w_;
  Parameter b_;
  Tensor last_input_;
  Tensor out_;  // doubles as the ReLU mask: y == 0 exactly when pre <= 0
  Tensor masked_grad_;
  Tensor dx_;
};

/// y = max(x, 0).
class ReLU {
 public:
  const Tensor& forward(const Tensor& x);
  const Tensor& backward(const Tensor& grad_out);

 private:
  // out_ doubles as the backward mask: y == 0 exactly when x <= 0.
  Tensor out_;
  Tensor dx_;
};

/// y = tanh(x).
class Tanh {
 public:
  const Tensor& forward(const Tensor& x);
  const Tensor& backward(const Tensor& grad_out);

 private:
  Tensor out_;  // cached for backward: dtanh = 1 - y^2
  Tensor dx_;
};

/// Token-id -> dense vector lookup table. Its input is a sequence of ids,
/// not a tensor; otherwise it has the same train surface as the layers.
class Embedding {
 public:
  Embedding(std::size_t vocab_size, std::size_t dim, Rng& rng,
            std::string name = "embedding");

  /// Returns an (ids.size() x dim) tensor of rows (internal buffer; valid
  /// until the next forward).
  const Tensor& forward(std::span<const std::int32_t> ids);
  /// Accumulates into the weight gradient for the ids of the last forward.
  void backward(const Tensor& grad_out);

  std::vector<Parameter*> parameters() { return {&w_}; }
  std::size_t vocab_size() const { return w_.value.dim(0); }
  std::size_t dim() const { return w_.value.dim(1); }
  Parameter& weight() { return w_; }

 private:
  Parameter w_;
  std::vector<std::int32_t> last_ids_;
  Tensor out_;
};

}  // namespace semcache::nn
