#include "semantic/fixture_cache.hpp"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/serialize.hpp"

namespace semcache::semantic {

namespace {
constexpr std::uint32_t kMagic = 0x53434658;  // "SCFX"
constexpr std::uint32_t kVersion = 1;

const char* cache_dir() {
  const char* dir = std::getenv("SEMCACHE_FIXTURE_DIR");
  return (dir != nullptr && dir[0] != '\0') ? dir : nullptr;
}

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* data,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t hash_bytes(const ByteWriter& w) {
  return fnv1a(0xCBF29CE484222325ULL, w.bytes().data(), w.size());
}

std::string engine_state(const Rng& rng) {
  std::ostringstream os;
  os << rng.engine_snapshot();
  return os.str();
}

/// Content fingerprint of the generated world: vocab sizes plus a few
/// sentences drawn with a fixed probe RNG. The probe is local, so the
/// caller's RNG stream is untouched; the sampled ids reflect the realized
/// vocabulary and sense distribution, distinguishing worlds whose configs
/// agree but whose generation seeds differ.
void fingerprint_world(ByteWriter& w, const text::World& world) {
  w.write_u64(world.num_domains());
  w.write_u64(world.surface_count());
  w.write_u64(world.meaning_count());
  Rng probe(0xF00DF00D);
  for (std::size_t d = 0; d < world.num_domains(); ++d) {
    for (int s = 0; s < 2; ++s) {
      const text::Sentence sent = world.sample_sentence(d, probe);
      w.write_u64(sent.domain);
      for (const auto id : sent.surface) w.write_i32(id);
      for (const auto id : sent.meanings) w.write_i32(id);
    }
  }
}
}  // namespace

bool FixtureCache::enabled() { return cache_dir() != nullptr; }

std::uint64_t FixtureCache::key(SemanticCodec& codec,
                                const text::World& world,
                                const TrainConfig& config, const Rng& rng,
                                std::uint64_t mode_tag) {
  ByteWriter w;
  w.write_u64(mode_tag);
  const CodecConfig& cc = codec.config();
  w.write_u64(cc.surface_vocab);
  w.write_u64(cc.meaning_vocab);
  w.write_u64(cc.sentence_length);
  w.write_u64(cc.embed_dim);
  w.write_u64(cc.feature_dim);
  w.write_u64(cc.hidden_dim);
  w.write_u64(config.steps);
  w.write_f64(config.lr);
  w.write_f64(config.grad_clip);
  w.write_f64(config.feature_noise);
  w.write_u64(rng.seed());
  w.write_string(engine_state(rng));
  fingerprint_world(w, world);
  // Initial weights pin down the init RNG without naming it.
  w.write_f32_vector(codec.parameters().flatten_values());
  return hash_bytes(w);
}

std::string FixtureCache::path_for(std::uint64_t key) {
  std::ostringstream os;
  os << cache_dir() << "/codec-" << std::hex << key << ".fixture";
  return os.str();
}

std::optional<TrainStats> FixtureCache::try_load(std::uint64_t key,
                                                 SemanticCodec& codec,
                                                 Rng& rng) {
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  try {
    ByteReader r(bytes);
    if (r.read_u32() != kMagic || r.read_u32() != kVersion) {
      return std::nullopt;
    }
    TrainStats stats;
    stats.steps = r.read_u64();
    stats.first_loss = r.read_f64();
    stats.final_loss = r.read_f64();
    const std::string state = r.read_string();
    // Stage everything before touching the caller's codec or RNG: a file
    // that fails validation halfway through must leave both untouched, or
    // the fallback training would run from clobbered weights (and store()
    // would then poison the cache under the pristine-weights key).
    std::mt19937_64 engine;
    std::istringstream is(state);
    is >> engine;
    if (!is) return std::nullopt;
    auto staged = codec.clone();
    staged->parameters().deserialize(r);
    if (!r.exhausted()) return std::nullopt;  // trailing bytes: not ours
    codec.parameters().copy_values_from(staged->parameters());
    rng.engine() = engine;
    return stats;
  } catch (const Error&) {
    return std::nullopt;  // truncated/corrupt file: treat as a miss
  }
}

void FixtureCache::store(std::uint64_t key, SemanticCodec& codec,
                         const Rng& rng, const TrainStats& stats) {
  const char* dir = cache_dir();
  if (dir == nullptr) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;

  ByteWriter w;
  w.write_u32(kMagic);
  w.write_u32(kVersion);
  w.write_u64(stats.steps);
  w.write_f64(stats.first_loss);
  w.write_f64(stats.final_loss);
  w.write_string(engine_state(rng));
  codec.parameters().serialize(w);

  const std::string final_path = path_for(key);
  std::ostringstream tmp;
  tmp << final_path << ".tmp." << ::getpid();
  std::ofstream out(tmp.str(), std::ios::binary | std::ios::trunc);
  if (!out) return;
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.size()));
  // close() before the rename and re-check: the final flush can fail (full
  // disk) after write() buffered successfully, and publishing a truncated
  // fixture would break the readers-see-complete-files guarantee.
  out.close();
  if (out.fail()) {
    std::filesystem::remove(tmp.str(), ec);
    return;
  }
  std::filesystem::rename(tmp.str(), final_path, ec);
  if (ec) std::filesystem::remove(tmp.str(), ec);
}

}  // namespace semcache::semantic
