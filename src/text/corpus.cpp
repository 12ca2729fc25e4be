#include "text/corpus.hpp"

#include <array>
#include <sstream>

#include "common/check.hpp"

namespace semcache::text {

namespace {

// Real-ish inventory so examples read naturally. Domains beyond the list
// fall back to generated names.
constexpr std::array<const char*, 6> kDomainNames = {
    "it", "medical", "news", "entertainment", "transport", "finance"};

constexpr std::array<const char*, 20> kFunctionWords = {
    "the", "a",  "is",  "to",  "of",   "in",   "we",   "it",   "and", "on",
    "for", "at", "this", "that", "with", "from", "will", "can", "now", "so"};

// Canonical polysemous surfaces (the paper's "bus" example and friends).
constexpr std::array<const char*, 16> kPolysemousWords = {
    "bus",   "virus", "cell",  "driver", "stream", "net",    "crash", "mouse",
    "cloud", "server", "chip", "port",   "bug",    "windows", "web",  "file"};

}  // namespace

std::string pseudo_word(Rng& rng, std::size_t min_syllables,
                        std::size_t max_syllables) {
  static constexpr std::array<const char*, 20> kOnsets = {
      "b", "d", "f", "g", "k", "l", "m", "n", "p", "r",
      "s", "t", "v", "z", "br", "st", "tr", "kl", "pr", "sh"};
  static constexpr std::array<const char*, 6> kNuclei = {"a", "e", "i",
                                                         "o", "u", "ia"};
  const auto syllables = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(min_syllables),
      static_cast<std::int64_t>(max_syllables)));
  std::string w;
  for (std::size_t s = 0; s < syllables; ++s) {
    w += kOnsets[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kOnsets.size()) - 1))];
    w += kNuclei[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kNuclei.size()) - 1))];
  }
  return w;
}

World World::generate(const WorldConfig& config, Rng& rng) {
  SEMCACHE_CHECK(config.num_domains >= 1, "World: need at least one domain");
  SEMCACHE_CHECK(config.concepts_per_domain >= 2,
                 "World: need >= 2 concepts per domain");
  SEMCACHE_CHECK(config.num_function_words <= kFunctionWords.size(),
                 "World: at most " + std::to_string(kFunctionWords.size()) +
                     " function words available");
  SEMCACHE_CHECK(config.function_word_prob + config.polysemous_prob < 1.0,
                 "World: function + polysemous probability must leave room "
                 "for domain concepts");

  World w;
  w.config_ = config;

  for (std::size_t d = 0; d < config.num_domains; ++d) {
    w.domain_names_.push_back(d < kDomainNames.size()
                                  ? kDomainNames[d]
                                  : "domain" + std::to_string(d));
  }

  // Shared function words: one meaning each, surface = the word itself.
  for (std::size_t i = 0; i < config.num_function_words; ++i) {
    const std::int32_t surf = w.surface_vocab_.add(kFunctionWords[i]);
    w.function_meanings_.push_back(static_cast<std::int32_t>(w.meanings_.size()));
    w.meanings_.push_back({kFunctionWords[i], kSharedDomain, surf});
  }

  // Polysemous surfaces: each gets one sense per domain from a random pair
  // (or triple) of domains. With a single domain, polysemy is impossible,
  // so senses collapse to that domain only.
  w.per_domain_poly_.resize(config.num_domains);
  for (std::size_t p = 0; p < config.num_polysemous; ++p) {
    const std::string word = p < kPolysemousWords.size()
                                 ? kPolysemousWords[p]
                                 : pseudo_word(rng) + std::to_string(p);
    const std::int32_t surf = w.surface_vocab_.add(word);
    std::size_t senses = config.num_domains >= 3 && rng.bernoulli(0.3) ? 3 : 2;
    senses = std::min(senses, config.num_domains);
    // Choose `senses` distinct domains.
    std::vector<std::size_t> domains(config.num_domains);
    for (std::size_t d = 0; d < config.num_domains; ++d) domains[d] = d;
    rng.shuffle(domains);
    for (std::size_t s = 0; s < senses; ++s) {
      const std::size_t d = domains[s];
      const auto mid = static_cast<std::int32_t>(w.meanings_.size());
      w.meanings_.push_back({word + "#" + w.domain_names_[d], d, surf});
      w.per_domain_poly_[d].push_back(mid);
    }
  }

  // Domain-exclusive concepts with unique pseudo-word surfaces.
  w.per_domain_.resize(config.num_domains);
  for (std::size_t d = 0; d < config.num_domains; ++d) {
    for (std::size_t c = 0; c < config.concepts_per_domain; ++c) {
      std::string word;
      do {
        word = pseudo_word(rng);
      } while (w.surface_vocab_.contains(word));
      const std::int32_t surf = w.surface_vocab_.add(word);
      const auto mid = static_cast<std::int32_t>(w.meanings_.size());
      w.meanings_.push_back({word + "#" + w.domain_names_[d], d, surf});
      w.per_domain_[d].push_back(mid);
    }
    w.concept_sampler_.emplace_back(config.concepts_per_domain,
                                    config.zipf_alpha);
  }

  // Pre-create the slang surface pool so the vocabulary is frozen after
  // generation (codecs size their embeddings from it).
  for (std::size_t s = 0; s < config.slang_pool_size; ++s) {
    std::string word;
    do {
      word = pseudo_word(rng, 2, 4);
    } while (w.surface_vocab_.contains(word));
    w.slang_pool_.push_back(w.surface_vocab_.add(word));
  }
  return w;
}

const std::string& World::domain_name(std::size_t d) const {
  SEMCACHE_CHECK(d < domain_names_.size(), "domain_name: index out of range");
  return domain_names_[d];
}

const Meaning& World::meaning(std::int32_t id) const {
  SEMCACHE_CHECK(id >= 0 && static_cast<std::size_t>(id) < meanings_.size(),
                 "meaning: id out of range");
  return meanings_[static_cast<std::size_t>(id)];
}

const std::vector<std::int32_t>& World::domain_meanings(std::size_t d) const {
  SEMCACHE_CHECK(d < per_domain_.size(), "domain_meanings: out of range");
  return per_domain_[d];
}

const std::vector<std::int32_t>& World::polysemous_meanings(
    std::size_t d) const {
  SEMCACHE_CHECK(d < per_domain_poly_.size(),
                 "polysemous_meanings: out of range");
  return per_domain_poly_[d];
}

Sentence World::sample_sentence(std::size_t domain, Rng& rng) const {
  SEMCACHE_CHECK(domain < config_.num_domains,
                 "sample_sentence: domain out of range");
  Sentence s;
  s.domain = domain;
  s.surface.reserve(config_.sentence_length);
  s.meanings.reserve(config_.sentence_length);
  const auto& poly = per_domain_poly_[domain];
  for (std::size_t pos = 0; pos < config_.sentence_length; ++pos) {
    const double u = rng.uniform();
    std::int32_t mid;
    if (u < config_.function_word_prob && !function_meanings_.empty()) {
      mid = function_meanings_[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(function_meanings_.size()) - 1))];
    } else if (u < config_.function_word_prob + config_.polysemous_prob &&
               !poly.empty()) {
      mid = poly[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(poly.size()) - 1))];
    } else {
      const std::size_t rank = concept_sampler_[domain].sample(rng);
      mid = per_domain_[domain][rank];
    }
    s.meanings.push_back(mid);
    s.surface.push_back(meanings_[static_cast<std::size_t>(mid)].surface);
  }
  return s;
}

std::int32_t World::take_slang_surface() {
  SEMCACHE_CHECK(slang_taken_ < slang_pool_.size(),
                 "slang pool exhausted; raise WorldConfig::slang_pool_size");
  return slang_pool_[slang_taken_++];
}

std::string World::surface_to_string(
    std::span<const std::int32_t> ids) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << ' ';
    os << surface_vocab_.word(ids[i]);
  }
  return os.str();
}

std::string World::meanings_to_string(
    std::span<const std::int32_t> ids) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << ' ';
    os << meaning(ids[i]).gloss;
  }
  return os.str();
}

}  // namespace semcache::text
