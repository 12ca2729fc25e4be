#include "channel/interleaver.hpp"

#include <algorithm>

namespace semcache::channel {

BlockInterleaver::BlockInterleaver(std::size_t depth) : depth_(depth) {
  SEMCACHE_CHECK(depth >= 1, "interleaver: depth must be >= 1");
}

void BlockInterleaver::interleave_into(const BitVec& bits, BitVec& out) const {
  const std::size_t width = (bits.size() + depth_ - 1) / depth_;
  out.resize(width * depth_);
  // Row r of the grid lands in every depth-th slot from out[r]; what lies
  // past the end of `bits` is padding. Raw pointers: a byte store may
  // alias a vector's own members, which would reload them per bit.
  const std::uint8_t* in = bits.data();
  const std::size_t n = bits.size();
  for (std::size_t row = 0, begin = 0; row < depth_; ++row, begin += width) {
    const std::size_t end = std::clamp(n, begin, begin + width);
    std::uint8_t* dst = out.data() + row;
    for (std::size_t i = begin; i < end; ++i, dst += depth_) *dst = in[i];
    for (std::size_t i = end; i < begin + width; ++i, dst += depth_) *dst = 0;
  }
}

}  // namespace semcache::channel
