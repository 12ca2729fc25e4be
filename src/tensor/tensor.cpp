#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/check.hpp"

namespace semcache::tensor {

namespace {
std::size_t volume(std::span<const std::size_t> shape) {
  std::size_t v = 1;
  for (const std::size_t d : shape) v *= d;
  return v;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(volume(shape_), 0.0f) {
  SEMCACHE_CHECK(!shape_.empty(), "Tensor shape must be non-empty");
}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  SEMCACHE_CHECK(!shape_.empty(), "Tensor shape must be non-empty");
  SEMCACHE_CHECK(data_.size() == volume(shape_),
                 "Tensor data size " + std::to_string(data_.size()) +
                     " does not match shape volume " +
                     std::to_string(volume(shape_)));
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<std::size_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::uniform(std::vector<std::size_t> shape, float limit, Rng& rng) {
  SEMCACHE_CHECK(limit >= 0.0f, "Tensor::uniform: limit must be >= 0");
  Tensor t(std::move(shape));
  for (float& x : t.data_) {
    x = static_cast<float>(rng.uniform(-limit, limit));
  }
  return t;
}

Tensor Tensor::xavier(std::size_t fan_in, std::size_t fan_out, Rng& rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return uniform({fan_in, fan_out}, limit, rng);
}

std::size_t Tensor::dim(std::size_t axis) const {
  SEMCACHE_CHECK(axis < shape_.size(), "Tensor::dim: axis out of range");
  return shape_[axis];
}

std::size_t Tensor::rows() const {
  SEMCACHE_CHECK(rank() >= 1 && rank() <= 2, "Tensor::rows: rank must be 1 or 2");
  return rank() == 1 ? 1 : shape_[0];
}

std::size_t Tensor::cols() const {
  SEMCACHE_CHECK(rank() >= 1 && rank() <= 2, "Tensor::cols: rank must be 1 or 2");
  return rank() == 1 ? shape_[0] : shape_[1];
}

float& Tensor::at(std::size_t i) {
  SEMCACHE_CHECK(i < data_.size(), "Tensor::at(i): index out of range");
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  SEMCACHE_CHECK(i < data_.size(), "Tensor::at(i): index out of range");
  return data_[i];
}

float& Tensor::at(std::size_t r, std::size_t c) {
  SEMCACHE_CHECK(rank() == 2, "Tensor::at(r,c): rank-2 tensor required");
  SEMCACHE_CHECK(r < shape_[0] && c < shape_[1],
                 "Tensor::at(r,c): index out of range");
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  SEMCACHE_CHECK(rank() == 2, "Tensor::at(r,c): rank-2 tensor required");
  SEMCACHE_CHECK(r < shape_[0] && c < shape_[1],
                 "Tensor::at(r,c): index out of range");
  return data_[r * shape_[1] + c];
}

void Tensor::reshape(std::vector<std::size_t> shape) {
  SEMCACHE_CHECK(volume(shape) == data_.size(),
                 "Tensor::reshape must preserve volume");
  shape_ = std::move(shape);
}

void Tensor::resize_to(std::span<const std::size_t> shape) {
  SEMCACHE_CHECK(!shape.empty(), "Tensor::resize: shape must be non-empty");
  const std::size_t v = volume(shape);
  if (data_.size() != v) data_.resize(v);
  // assign() reuses shape_'s capacity; t.resize(t.shape()) is a no-op.
  if (shape.data() != shape_.data()) shape_.assign(shape.begin(), shape.end());
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

bool Tensor::equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

float Tensor::max_abs_diff(const Tensor& other) const {
  SEMCACHE_CHECK(same_shape(other),
                 "max_abs_diff requires identical shapes (" + shape_string() +
                     " vs " + other.shape_string() + ")");
  float m = 0.0f;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

void Tensor::serialize(ByteWriter& w) const {
  w.write_u32(static_cast<std::uint32_t>(shape_.size()));
  for (const std::size_t d : shape_) w.write_u32(static_cast<std::uint32_t>(d));
  w.write_f32_vector(data_);
}

Tensor Tensor::deserialize(ByteReader& r) {
  const std::uint32_t rank = r.read_u32();
  SEMCACHE_CHECK(rank >= 1 && rank <= 4, "Tensor::deserialize: bad rank");
  std::vector<std::size_t> shape(rank);
  for (auto& d : shape) d = r.read_u32();
  std::vector<float> data = r.read_f32_vector();
  return Tensor(std::move(shape), std::move(data));
}

std::size_t Tensor::byte_size() const {
  // rank + dims + element count + payload, matching serialize().
  return 4 + 4 * shape_.size() + 4 + 4 * data_.size();
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i != 0) os << 'x';
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace semcache::tensor
