// Minimal binary serialization used for model snapshots, cache sizing, and
// gradient wire formats. Little-endian, fixed-width, no alignment padding —
// the byte count of a serialized object is exactly what the simulated
// network charges for transmitting it.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace semcache {

/// Append-only byte sink.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_f32_vector(std::span<const float> v);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over a byte buffer; throws semcache::Error on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : buf_(bytes) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_f32_vector();

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace semcache
