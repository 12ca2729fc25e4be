#include "channel/repetition.hpp"

#include "common/check.hpp"

namespace semcache::channel {

RepetitionCode::RepetitionCode(std::size_t repeats) : repeats_(repeats) {
  SEMCACHE_CHECK(repeats >= 1 && repeats % 2 == 1,
                 "repetition: repeats must be odd");
}

BitVec RepetitionCode::encode(const BitVec& info) const {
  BitVec out(info.size() * repeats_);
  for (std::size_t i = 0; i < info.size(); ++i) {
    for (std::size_t r = 0; r < repeats_; ++r) out[i * repeats_ + r] = info[i];
  }
  return out;
}

BitVec RepetitionCode::decode(const BitVec& coded) const {
  SEMCACHE_CHECK(coded.size() % repeats_ == 0,
                 "repetition: coded length must be a multiple of repeats");
  const std::size_t n = coded.size() / repeats_;
  BitVec out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t ones = 0;
    for (std::size_t r = 0; r < repeats_; ++r) {
      ones += coded[i * repeats_ + r] & 1;
    }
    out[i] = ones * 2 > repeats_ ? 1 : 0;
  }
  return out;
}

std::size_t RepetitionCode::encoded_length(std::size_t info_bits) const {
  return info_bits * repeats_;
}

}  // namespace semcache::channel
