// Uniform feature quantizer: k tanh-bounded floats -> k*b bits.
//
// This is the boundary between the learned semantic representation and the
// bit-level channel stack: the transmitted payload of a semantic message is
// exactly quantize()'s output.
#pragma once

#include <vector>

#include "common/bits.hpp"
#include "tensor/tensor.hpp"

namespace semcache::semantic {

class FeatureQuantizer {
 public:
  /// dims = feature dimension k; bits_per_dim in [1, 16]. Values are
  /// clamped to [-1, 1] before quantization (the encoder's tanh guarantees
  /// the range, clamping guards against channel-corrupted reconstructions).
  FeatureQuantizer(std::size_t dims, unsigned bits_per_dim);

  /// (1 x dims) feature -> dims*bits_per_dim bits (LSB-first per dim).
  BitVec quantize(const tensor::Tensor& feature) const;
  /// Inverse mapping to mid-rise reconstruction levels; returns (1 x dims).
  tensor::Tensor dequantize(const BitVec& bits) const;

  /// Quantize-then-dequantize, the distortion the receiver sees on a clean
  /// channel.
  tensor::Tensor roundtrip(const tensor::Tensor& feature) const;

  // --- Batched row-wise variants (the pair wave's data plane). Row i of
  // every batch call is bit-identical to the single-feature call on row i,
  // so the batched system path reproduces the sequential one exactly. ---

  /// (N x dims) features -> N payloads; payload i == quantize(row i).
  std::vector<BitVec> quantize_batch(const tensor::Tensor& features) const;
  /// N payloads -> (N x dims) reconstructions; row i == dequantize(bits i).
  /// Over a chunk's clean payloads, dequantize_batch(quantize_batch(f)) is
  /// roundtrip() row by row: what a fine-tuned sender's decoder copy
  /// decodes to measure the mismatch.
  tensor::Tensor dequantize_batch(const std::vector<BitVec>& payloads) const;
  /// Dequantize `count` dims whose levels start at bit `pos` of `bits` into
  /// `out`: the values dequantize writes for those dims, so one codec
  /// position's dims can be read on their own. The caller keeps
  /// pos + count * bits_per_dim() within `bits`.
  void dequantize_dims(const BitVec& bits, std::size_t pos, std::size_t count,
                       float* out) const;

  std::size_t dims() const { return dims_; }
  unsigned bits_per_dim() const { return bits_; }
  std::size_t total_bits() const { return dims_ * bits_; }
  std::size_t payload_bytes() const { return (total_bits() + 7) / 8; }
  /// Worst-case absolute reconstruction error per dimension.
  double max_error() const;

 private:
  /// Append one row's `dims_` quantized levels to `bits`.
  void quantize_row(const float* row, BitVec& bits) const;

  std::size_t dims_;
  unsigned bits_;
  std::uint32_t levels_;
};

}  // namespace semcache::semantic
