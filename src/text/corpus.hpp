// Synthetic language world: the data substrate for every semantic-
// communication experiment.
//
// The paper motivates domain-specialized KBs with lexical polysemy: the
// word "bus" means a vehicle in daily life and an interconnect in computer
// architecture (§II-A). We make that measurable by construction:
//
//  * A global table of MEANINGS (sense-level tokens). Each meaning belongs
//    to one domain (or to the shared function-word domain) and has a SURFACE
//    word used to utter it.
//  * Polysemous surfaces: one surface word maps to distinct meanings in
//    several domains ("bus" -> bus#transport, bus#it).
//  * A sentence is sampled in a domain: meanings are drawn Zipf-style from
//    that domain's lexicon; what is transmitted are the SURFACE ids; what a
//    semantic decoder must recover are the MEANING ids. Recovering the
//    meaning behind the word is exactly the paper's notion of semantic
//    communication.
//
// A pooled "general" model must resolve polysemy with no domain signal;
// per-domain KB models resolve it by construction — which is the claim E2
// quantifies.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "text/vocab.hpp"
#include "text/zipf.hpp"

namespace semcache::text {

/// A sense-level token in the global meaning table.
struct Meaning {
  std::string gloss;      ///< human-readable, e.g. "bus#it"
  std::size_t domain;     ///< owning domain, or World::kSharedDomain
  std::int32_t surface;   ///< surface-word id in the shared Vocab
};

/// One sampled utterance.
struct Sentence {
  std::size_t domain = 0;
  std::vector<std::int32_t> surface;   ///< what is typed/transmitted
  std::vector<std::int32_t> meanings;  ///< what must be understood
};

struct WorldConfig {
  std::size_t num_domains = 4;
  std::size_t concepts_per_domain = 40;
  std::size_t num_polysemous = 12;   ///< shared surfaces with per-domain senses
  std::size_t num_function_words = 16;
  std::size_t sentence_length = 8;
  double zipf_alpha = 1.0;           ///< concept frequency skew inside a domain
  double function_word_prob = 0.25;  ///< per-position probability
  double polysemous_prob = 0.20;     ///< per-position probability
  std::size_t slang_pool_size = 64;  ///< pre-created surfaces for idiolects
};

/// The generated world: vocabularies, meaning table, per-domain samplers.
class World {
 public:
  static constexpr std::size_t kSharedDomain =
      static_cast<std::size_t>(-1);  ///< function words belong to no domain

  static World generate(const WorldConfig& config, Rng& rng);

  const WorldConfig& config() const { return config_; }
  std::size_t num_domains() const { return config_.num_domains; }
  const std::string& domain_name(std::size_t d) const;

  const Vocab& surface_vocab() const { return surface_vocab_; }
  std::size_t surface_count() const { return surface_vocab_.size(); }
  std::size_t meaning_count() const { return meanings_.size(); }
  const Meaning& meaning(std::int32_t id) const;
  const std::vector<Meaning>& meanings() const { return meanings_; }

  /// Meaning ids owned by a domain (excluding shared function meanings).
  const std::vector<std::int32_t>& domain_meanings(std::size_t d) const;
  /// Meaning ids of this domain that share their surface with another
  /// domain (the "bus" words).
  const std::vector<std::int32_t>& polysemous_meanings(std::size_t d) const;

  /// Draw one sentence from a domain's distribution.
  Sentence sample_sentence(std::size_t domain, Rng& rng) const;

  /// Take an unused slang surface id from the pre-generated pool; throws
  /// when the pool (config.slang_pool_size) is exhausted.
  std::int32_t take_slang_surface();
  std::size_t slang_remaining() const {
    return slang_pool_.size() - slang_taken_;
  }

  /// Render surface ids as words (for examples / debugging).
  std::string surface_to_string(std::span<const std::int32_t> ids) const;
  /// Render meaning ids as concept strings.
  std::string meanings_to_string(std::span<const std::int32_t> ids) const;

 private:
  WorldConfig config_;
  std::vector<std::string> domain_names_;
  Vocab surface_vocab_;
  std::vector<Meaning> meanings_;
  std::vector<std::vector<std::int32_t>> per_domain_;       // concept meanings
  std::vector<std::vector<std::int32_t>> per_domain_poly_;  // polysemous senses
  std::vector<std::int32_t> function_meanings_;             // shared function words
  std::vector<std::int32_t> slang_pool_;
  std::size_t slang_taken_ = 0;
  std::vector<ZipfSampler> concept_sampler_;  // one per domain
};

/// Deterministically generate a pronounceable pseudo-word from an rng.
std::string pseudo_word(Rng& rng, std::size_t min_syllables = 2,
                        std::size_t max_syllables = 3);

}  // namespace semcache::text
