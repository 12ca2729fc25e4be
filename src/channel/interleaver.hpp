// Block interleaver: write row-wise into a (depth x width) grid, read
// column-wise. Spreads burst errors (e.g. Rayleigh fades) across codewords
// so that block codes see at most one error each. Both directions write
// into caller buffers, so the pipeline reuses its stage scratch.
#pragma once

#include <algorithm>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace semcache::channel {

class BlockInterleaver {
 public:
  explicit BlockInterleaver(std::size_t depth);

  /// Permute `bits` into `out`, zero-padded to a multiple of depth.
  void interleave_into(const BitVec& bits, BitVec& out) const;
  /// Undo the permutation of `in` (an interleaved length) into `out`,
  /// keeping the first `keep` values, which drops the padding. T is a bit
  /// or an LLR: the soft receive path un-permutes confidences.
  template <typename T>
  void deinterleave_into(const std::vector<T>& in, std::size_t keep,
                         std::vector<T>& out) const {
    SEMCACHE_CHECK(in.size() % depth_ == 0 && keep <= in.size(),
                   "deinterleave: length must be a multiple of depth, at "
                   "least keep");
    const std::size_t width = in.size() / depth_;
    out.resize(keep);
    // Row r of the grid is every depth-th value from in[r].
    T* dst = out.data();
    for (std::size_t row = 0, begin = 0; begin < keep; ++row, begin += width) {
      const T* src = in.data() + row;
      const std::size_t end = std::min(begin + width, keep);
      for (std::size_t i = begin; i < end; ++i, src += depth_) dst[i] = *src;
    }
  }
  std::size_t depth() const { return depth_; }

 private:
  std::size_t depth_;
};

}  // namespace semcache::channel
