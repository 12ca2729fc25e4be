#include "semantic/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace semcache::semantic {

FeatureQuantizer::FeatureQuantizer(std::size_t dims, unsigned bits_per_dim)
    : dims_(dims), bits_(bits_per_dim), levels_(1u << bits_per_dim) {
  SEMCACHE_CHECK(dims >= 1, "quantizer: dims must be >= 1");
  SEMCACHE_CHECK(bits_per_dim >= 1 && bits_per_dim <= 16,
                 "quantizer: bits_per_dim must be in [1, 16]");
}

void FeatureQuantizer::quantize_row(const float* row, BitVec& bits) const {
  for (std::size_t i = 0; i < dims_; ++i) {
    const float x = std::clamp(row[i], -1.0f, 1.0f);
    // Map [-1, 1] onto [0, levels-1].
    auto level = static_cast<std::uint32_t>(
        std::lround((static_cast<double>(x) + 1.0) / 2.0 *
                    static_cast<double>(levels_ - 1)));
    level = std::min(level, levels_ - 1);
    append_bits(bits, level, bits_);
  }
}

void FeatureQuantizer::dequantize_dims(const BitVec& bits, std::size_t pos,
                                       std::size_t count, float* out) const {
  for (std::size_t i = 0; i < count; ++i) {
    const auto level = static_cast<std::uint32_t>(read_bits(bits, pos, bits_));
    const double x = 2.0 * static_cast<double>(level) /
                         static_cast<double>(levels_ - 1) -
                     1.0;
    out[i] = static_cast<float>(x);
  }
}

BitVec FeatureQuantizer::quantize(const tensor::Tensor& feature) const {
  SEMCACHE_CHECK(feature.size() == dims_,
                 "quantizer: feature has " + std::to_string(feature.size()) +
                     " dims, expected " + std::to_string(dims_));
  BitVec bits;
  bits.reserve(total_bits());
  quantize_row(feature.data(), bits);
  return bits;
}

tensor::Tensor FeatureQuantizer::dequantize(const BitVec& bits) const {
  SEMCACHE_CHECK(bits.size() == total_bits(),
                 "quantizer: expected " + std::to_string(total_bits()) +
                     " bits, got " + std::to_string(bits.size()));
  tensor::Tensor out({1, dims_});
  dequantize_dims(bits, 0, dims_, out.data());
  return out;
}

tensor::Tensor FeatureQuantizer::roundtrip(
    const tensor::Tensor& feature) const {
  return dequantize(quantize(feature));
}

std::vector<BitVec> FeatureQuantizer::quantize_batch(
    const tensor::Tensor& features) const {
  SEMCACHE_CHECK(features.rank() == 2 && features.dim(1) == dims_,
                 "quantizer: batch must be (N x " + std::to_string(dims_) +
                     "), got " + features.shape_string());
  std::vector<BitVec> payloads(features.dim(0));
  for (std::size_t r = 0; r < payloads.size(); ++r) {
    payloads[r].reserve(total_bits());
    quantize_row(features.data() + r * dims_, payloads[r]);
  }
  return payloads;
}

tensor::Tensor FeatureQuantizer::dequantize_batch(
    const std::vector<BitVec>& payloads) const {
  SEMCACHE_CHECK(!payloads.empty(), "quantizer: empty payload batch");
  tensor::Tensor out({payloads.size(), dims_});
  for (std::size_t r = 0; r < payloads.size(); ++r) {
    SEMCACHE_CHECK(payloads[r].size() == total_bits(),
                   "quantizer: payload " + std::to_string(r) + " has " +
                       std::to_string(payloads[r].size()) +
                       " bits, expected " + std::to_string(total_bits()));
    dequantize_dims(payloads[r], 0, dims_, out.data() + r * dims_);
  }
  return out;
}

double FeatureQuantizer::max_error() const {
  return 1.0 / static_cast<double>(levels_ - 1);
}

}  // namespace semcache::semantic
