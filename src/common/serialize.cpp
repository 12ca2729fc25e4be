#include "common/serialize.hpp"

namespace semcache {

namespace {
template <typename T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

template <typename T>
T read_le(std::span<const std::uint8_t> buf, std::size_t pos) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(buf[pos + i]) << (8 * i));
  }
  return v;
}
}  // namespace

void ByteWriter::write_u8(std::uint8_t v) { buf_.push_back(v); }
void ByteWriter::write_u16(std::uint16_t v) { append_le(buf_, v); }
void ByteWriter::write_u32(std::uint32_t v) { append_le(buf_, v); }
void ByteWriter::write_u64(std::uint64_t v) { append_le(buf_, v); }
void ByteWriter::write_i32(std::int32_t v) {
  append_le(buf_, static_cast<std::uint32_t>(v));
}
void ByteWriter::write_i64(std::int64_t v) {
  append_le(buf_, static_cast<std::uint64_t>(v));
}

void ByteWriter::write_f32(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  append_le(buf_, bits);
}

void ByteWriter::write_f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  append_le(buf_, bits);
}

void ByteWriter::write_string(const std::string& s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::write_f32_vector(std::span<const float> v) {
  write_u32(static_cast<std::uint32_t>(v.size()));
  for (const float x : v) write_f32(x);
}

void ByteReader::require(std::size_t n) const {
  SEMCACHE_CHECK(pos_ + n <= buf_.size(),
                 "ByteReader underrun: need " + std::to_string(n) +
                     " bytes, have " + std::to_string(buf_.size() - pos_));
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return buf_[pos_++];
}

std::uint16_t ByteReader::read_u16() {
  require(2);
  const auto v = read_le<std::uint16_t>(buf_, pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  const auto v = read_le<std::uint32_t>(buf_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  const auto v = read_le<std::uint64_t>(buf_, pos_);
  pos_ += 8;
  return v;
}

std::int32_t ByteReader::read_i32() {
  return static_cast<std::int32_t>(read_u32());
}

std::int64_t ByteReader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

float ByteReader::read_f32() {
  const std::uint32_t bits = read_u32();
  float v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::read_string() {
  const std::uint32_t n = read_u32();
  require(n);
  std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

std::vector<float> ByteReader::read_f32_vector() {
  const std::uint32_t n = read_u32();
  // Validate the untrusted count against the bytes present BEFORE
  // reserving: a garbage length prefix must throw, not attempt a
  // multi-gigabyte allocation.
  require(static_cast<std::size_t>(n) * 4);
  std::vector<float> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(read_f32());
  return out;
}

}  // namespace semcache
