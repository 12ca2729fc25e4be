// Loss functions. Each caches its forward inputs and produces dL/dlogits
// on backward; losses are means over the batch dimension.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace semcache::nn {

using tensor::Tensor;

/// Fused softmax + cross-entropy over rows of a logits matrix.
class SoftmaxCrossEntropy {
 public:
  /// logits: (N x C); targets: N class indices. Returns mean CE in nats.
  double forward(const Tensor& logits, std::span<const std::int32_t> targets);
  /// Returns dL/dlogits = (softmax - onehot) / N, held in a member that
  /// the next backward() overwrites.
  const Tensor& backward();

 private:
  Tensor probs_;
  Tensor grad_;
  std::vector<std::int32_t> targets_;
};

}  // namespace semcache::nn
