#include "nn/loss.hpp"

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace semcache::nn {

double SoftmaxCrossEntropy::forward(const Tensor& logits,
                                    std::span<const std::int32_t> targets) {
  SEMCACHE_CHECK(logits.rank() == 2, "ce: logits must be rank-2");
  SEMCACHE_CHECK(logits.dim(0) == targets.size(),
                 "ce: batch size mismatch with targets");
  tensor::row_softmax_into(probs_, logits);
  targets_.assign(targets.begin(), targets.end());
  return tensor::mean_target_nll(probs_.flat(), logits.dim(1), targets_);
}

const Tensor& SoftmaxCrossEntropy::backward() {
  SEMCACHE_CHECK(!targets_.empty(), "ce: backward before forward");
  grad_ = probs_;  // copy-assignment reuses grad_'s capacity
  const auto n = static_cast<float>(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    grad_.at(i, static_cast<std::size_t>(targets_[i])) -= 1.0f;
  }
  float* pg = grad_.data();
  const float inv = 1.0f / n;
  for (std::size_t i = 0; i < grad_.size(); ++i) pg[i] *= inv;
  return grad_;
}

}  // namespace semcache::nn
