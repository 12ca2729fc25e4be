#include "semantic/serving_table.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace semcache::semantic {

ServingTable::ServingTable(SemanticCodec& codec,
                           const FeatureQuantizer& quantizer)
    : decoder_(&codec.decoder()),
      quantizer_(quantizer),
      length_(codec.config().sentence_length),
      position_dims_(codec.config().per_position_dims()),
      meaning_vocab_(codec.config().meaning_vocab),
      code_bits_(position_dims_ * quantizer.bits_per_dim()) {
  const CodecConfig& config = codec.config();
  SEMCACHE_CHECK(quantizer.dims() == config.feature_dim,
                 "serving table: quantizer dims differ from the codec's "
                 "feature_dim");
  // Every surface id as one position of a batch of sentences, padded with
  // id 0: the encoder maps each position alone, so padding changes no bit.
  const std::size_t ids = config.surface_vocab;
  const std::size_t sentences = (ids + length_ - 1) / length_;
  std::vector<std::int32_t> surface(sentences * length_, 0);
  std::iota(surface.begin(), surface.begin() + static_cast<std::ptrdiff_t>(ids),
            0);
  const std::vector<BitVec> payloads = quantizer.quantize_batch(
      codec.encoder().encode_batch(surface, sentences));
  const auto code_of = [&](std::size_t id) {
    return payloads[id / length_].data() + (id % length_) * code_bits_;
  };

  // Entries are the distinct codes in ascending byte order, so a lookup
  // bisects them.
  std::vector<std::size_t> by_code(ids);
  std::iota(by_code.begin(), by_code.end(), 0);
  std::sort(by_code.begin(), by_code.end(),
            [&](std::size_t a, std::size_t b) {
              return std::memcmp(code_of(a), code_of(b), code_bits_) < 0;
            });
  surface_entry_.resize(ids);
  std::size_t entries = 0;
  for (std::size_t i = 0; i < ids; ++i) {
    const std::uint8_t* code = code_of(by_code[i]);
    if (i == 0 ||
        std::memcmp(code_of(by_code[i - 1]), code, code_bits_) != 0) {
      codes_.insert(codes_.end(), code, code + code_bits_);
      ++entries;
    }
    surface_entry_[by_code[i]] = static_cast<std::uint32_t>(entries - 1);
  }

  tensor::Tensor rows({entries, position_dims_});
  for (std::size_t e = 0; e < entries; ++e) {
    quantizer.dequantize_dims(codes_, e * code_bits_, position_dims_,
                              rows.data() + e * position_dims_);
  }
  tensor::Tensor hidden;
  tensor::Tensor logits;
  decoder_->decode_logits_rows(rows, hidden, logits);
  argmax_ = tensor::row_argmax(logits);
  const tensor::Tensor probs = tensor::row_softmax(logits);
  probs_.assign(probs.data(), probs.data() + probs.size());
}

std::size_t ServingTable::entry_of(std::int32_t surface) const {
  SEMCACHE_CHECK(surface >= 0 &&
                     static_cast<std::size_t>(surface) < surface_entry_.size(),
                 "serving table: surface id outside the vocabulary");
  return surface_entry_[static_cast<std::size_t>(surface)];
}

std::span<const std::uint8_t> ServingTable::entry_code(
    std::size_t entry) const {
  SEMCACHE_CHECK(entry < entry_count(), "serving table: entry out of range");
  return {codes_.data() + entry * code_bits_, code_bits_};
}

std::int32_t ServingTable::argmax(std::size_t entry) const {
  SEMCACHE_CHECK(entry < entry_count(), "serving table: entry out of range");
  return argmax_[entry];
}

std::span<const float> ServingTable::probs(std::size_t entry) const {
  SEMCACHE_CHECK(entry < entry_count(), "serving table: entry out of range");
  return {probs_.data() + entry * meaning_vocab_, meaning_vocab_};
}

std::size_t ServingTable::find(const std::uint8_t* code) const {
  std::size_t lo = 0;
  std::size_t hi = entry_count();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const int order =
        std::memcmp(codes_.data() + mid * code_bits_, code, code_bits_);
    if (order == 0) return mid;
    if (order < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return kNoEntry;
}

void ServingTable::encode(std::span<const std::int32_t> surface,
                          BitVec& payload) const {
  SEMCACHE_CHECK(surface.size() == length_,
                 "serving table: sentence length must match the codec window");
  payload.resize(length_ * code_bits_);
  for (std::size_t p = 0; p < length_; ++p) {
    std::memcpy(payload.data() + p * code_bits_,
                codes_.data() + entry_of(surface[p]) * code_bits_, code_bits_);
  }
}

double ServingTable::mismatch(std::span<const std::int32_t> surface,
                              std::span<const std::int32_t> meanings) const {
  SEMCACHE_CHECK(surface.size() == length_ && meanings.size() == length_,
                 "serving table: one meaning per surface token, L of each");
  return tensor::mean_nll(length_, [&](std::size_t p) {
    const std::int32_t t = meanings[p];
    SEMCACHE_CHECK(t >= 0 && static_cast<std::size_t>(t) < meaning_vocab_,
                   "serving table: meaning id outside the vocabulary");
    return probs_[entry_of(surface[p]) * meaning_vocab_ +
                  static_cast<std::size_t>(t)];
  });
}

std::size_t ServingTable::decode(const std::vector<BitVec>& payloads,
                                 std::vector<std::int32_t>& meanings) const {
  // Per-thread scratch for the missed positions: each serving lane runs on
  // one thread at a time, so lanes never share it.
  static thread_local std::vector<std::size_t> missed;
  static thread_local tensor::Tensor rows;
  static thread_local tensor::Tensor hidden;
  static thread_local tensor::Tensor logits;
  meanings.resize(payloads.size() * length_);
  missed.clear();
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    SEMCACHE_CHECK(payloads[i].size() == length_ * code_bits_,
                   "serving table: payload " + std::to_string(i) + " has " +
                       std::to_string(payloads[i].size()) +
                       " bits, expected " +
                       std::to_string(length_ * code_bits_));
    for (std::size_t p = 0; p < length_; ++p) {
      const std::size_t e = find(payloads[i].data() + p * code_bits_);
      if (e == kNoEntry) {
        missed.push_back(i * length_ + p);
      } else {
        meanings[i * length_ + p] = argmax_[e];
      }
    }
  }
  if (missed.empty()) return 0;
  rows.resize({missed.size(), position_dims_});
  for (std::size_t r = 0; r < missed.size(); ++r) {
    quantizer_.dequantize_dims(payloads[missed[r] / length_],
                               (missed[r] % length_) * code_bits_,
                               position_dims_,
                               rows.data() + r * position_dims_);
  }
  decoder_->decode_logits_rows(rows, hidden, logits);
  const std::vector<std::int32_t> decoded = tensor::row_argmax(logits);
  for (std::size_t r = 0; r < missed.size(); ++r) {
    meanings[missed[r]] = decoded[r];
  }
  return missed.size();
}

std::size_t ServingTable::byte_size() const {
  return sizeof(ServingTable) +
         surface_entry_.size() * sizeof(std::uint32_t) + codes_.size() +
         argmax_.size() * sizeof(std::int32_t) +
         probs_.size() * sizeof(float);
}

}  // namespace semcache::semantic
