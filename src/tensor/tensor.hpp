// Dense row-major float tensor.
//
// Deliberately minimal: the NN stack (semcache::nn) only needs rank-1 and
// rank-2 tensors with value semantics, so there are no views or strides —
// every tensor owns its storage, which keeps aliasing bugs out of the
// backward passes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace semcache::tensor {

class Tensor {
 public:
  Tensor() = default;
  /// Zero-filled tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);
  /// Tensor with explicit contents; data.size() must equal the shape volume.
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  static Tensor zeros(std::vector<std::size_t> shape);
  static Tensor full(std::vector<std::size_t> shape, float value);
  /// Uniform(-limit, limit) init.
  static Tensor uniform(std::vector<std::size_t> shape, float limit, Rng& rng);
  /// Xavier/Glorot-uniform init for a (fan_in x fan_out) weight matrix.
  static Tensor xavier(std::size_t fan_in, std::size_t fan_out, Rng& rng);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t dim(std::size_t axis) const;
  /// Rows/cols of a rank-2 tensor (rank-1 counts as a single row).
  std::size_t rows() const;
  std::size_t cols() const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  float& at(std::size_t i);
  float at(std::size_t i) const;
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  /// Reshape in place; volume must be preserved.
  void reshape(std::vector<std::size_t> shape);
  /// Destructive reshape to an arbitrary shape: storage is resized, existing
  /// capacity is reused (no reallocation when the new volume fits), and the
  /// contents are unspecified. The new dims are written into the shape in
  /// place, so a warmed-up tensor resizes without heap traffic. The
  /// workhorse of the `_into` kernels and of the scratch tensors models
  /// hold, whose contents are fully overwritten anyway.
  void resize(std::initializer_list<std::size_t> shape) {
    resize_to({shape.begin(), shape.size()});
  }
  void resize(const std::vector<std::size_t>& shape) { resize_to(shape); }
  /// Allocated storage in floats (>= size()); lets tests assert that the
  /// `_into` kernels never reallocate a warmed-up output tensor.
  std::size_t capacity() const { return data_.capacity(); }
  void fill(float value);
  /// Set every element to zero (used for gradient reset between steps).
  void zero() { fill(0.0f); }

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }
  /// Exact element-wise equality (used to verify replica synchronization).
  bool equals(const Tensor& other) const;
  /// Max |a-b| over elements; tensors must be the same shape.
  float max_abs_diff(const Tensor& other) const;

  void serialize(ByteWriter& w) const;
  static Tensor deserialize(ByteReader& r);
  /// Serialized size in bytes (what the simulated network charges).
  std::size_t byte_size() const;

  std::string shape_string() const;

 private:
  void resize_to(std::span<const std::size_t> shape);

  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace semcache::tensor
