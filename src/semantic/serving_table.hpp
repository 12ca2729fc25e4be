// Read-only serving table of one frozen codec: what a general KB model
// computes, kept at the edge beside the model itself (Fig. 1 ①).
//
// The codec is factorized per position (codec.hpp). The encoder maps each
// surface token to its position's k/L feature dims alone, the quantizer
// maps each dim alone, and the decoder maps each position's k/L
// dequantized dims to one logit row alone. So for a frozen codec a
// position's code is a function of its token, and its argmax and softmax
// row are functions of its code. The constructor runs every surface id
// through the encoder and the quantizer once, and every distinct clean
// code through the decoder once. A batched row equals a single row in
// every kernel, so each lookup returns the network's bits.
//
// A received code the table does not hold (a position the channel
// corrupted) runs through the tabulated decoder's read-only row pass, into
// thread-local scratch. The table points at that decoder, which must
// outlive it frozen. Misses are never inserted, so the table's size is
// fixed and concurrent readers write nothing shared.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "semantic/codec.hpp"
#include "semantic/quantizer.hpp"

namespace semcache::semantic {

class ServingTable {
 public:
  /// Tabulates `codec` as it stands; the caller keeps it alive and frozen
  /// afterwards. `quantizer` must cover the codec's feature_dim.
  ServingTable(SemanticCodec& codec, const FeatureQuantizer& quantizer);

  /// Bits of one position's code: k/L dims of bits_per_dim bits.
  std::size_t code_bits() const { return code_bits_; }
  /// Distinct clean codes: at most the surface vocabulary.
  std::size_t entry_count() const { return argmax_.size(); }

  /// The entry holding surface id `surface`'s clean code.
  std::size_t entry_of(std::int32_t surface) const;
  /// Entry `entry`'s code (code_bits() bits, one per byte, in the
  /// quantizer's order), argmax and probability row (meaning_vocab
  /// floats). Entries are sorted by code.
  std::span<const std::uint8_t> entry_code(std::size_t entry) const;
  std::int32_t argmax(std::size_t entry) const;
  std::span<const float> probs(std::size_t entry) const;

  /// Sender side: the payload of one sentence, its tokens' codes in
  /// position order — quantize_batch(encode_batch(surface)) bit for bit.
  void encode(std::span<const std::int32_t> surface, BitVec& payload) const;
  /// The frozen decoder copy's mismatch (§II-C ③) on one sentence's clean
  /// codes: mean_cross_entropy of the decoder's logits against `meanings`,
  /// bit for bit (the same probabilities through tensor::mean_nll).
  double mismatch(std::span<const std::int32_t> surface,
                  std::span<const std::int32_t> meanings) const;
  /// Receiver side: decode received payloads to meaning ids, L per
  /// payload, into `meanings` — decoder.decode(dequantize_batch(payloads))
  /// bit for bit. A position whose code has an entry reads its argmax; the
  /// missed positions run through the tabulated decoder as one batch of
  /// rows. Safe from any number of threads at once. Returns the number of
  /// missed positions.
  std::size_t decode(const std::vector<BitVec>& payloads,
                     std::vector<std::int32_t>& meanings) const;

  /// Bytes held by the tables (what MemoryFootprint charges).
  std::size_t byte_size() const;

 private:
  static constexpr std::size_t kNoEntry = ~std::size_t{0};
  /// The entry whose code equals the code_bits() bits at `code`, or
  /// kNoEntry.
  std::size_t find(const std::uint8_t* code) const;

  const KbDecoder* decoder_;       ///< the tabulated codec's, for misses
  FeatureQuantizer quantizer_;
  std::size_t length_;             ///< L, positions per sentence
  std::size_t position_dims_;      ///< k/L
  std::size_t meaning_vocab_;
  std::size_t code_bits_;
  std::vector<std::uint32_t> surface_entry_;  ///< surface id -> entry
  BitVec codes_;                   ///< entry_count() codes, ascending
  std::vector<std::int32_t> argmax_;
  std::vector<float> probs_;       ///< entry_count() x meaning_vocab
};

}  // namespace semcache::semantic
