#include "channel/burst.hpp"

#include <sstream>

#include "channel/noise.hpp"
#include "common/check.hpp"
#include "common/hashing.hpp"

namespace semcache::channel {

namespace {
// Kind tags for the identity-hash coins, same discipline as fault_plane.cpp:
// distinct constants so the weather stream and the transition stream never
// collide even under equal (slot, symbol) words.
constexpr std::uint64_t kWeatherTag = 0x6E11B;  // epoch start-state coin
constexpr std::uint64_t kChainTag = 0x6E77;     // per-symbol transition coin

bool valid_prob(double p) { return p >= 0.0 && p <= 1.0; }
}  // namespace

GilbertElliottChannel::GilbertElliottChannel(const GilbertElliottConfig& cfg)
    : cfg_(cfg),
      sigma_good_(noise_sigma(cfg.snr_good_db)),
      sigma_bad_(noise_sigma(cfg.snr_bad_db)) {
  SEMCACHE_CHECK(valid_prob(cfg_.p_good_to_bad) &&
                     valid_prob(cfg_.p_bad_to_good) &&
                     valid_prob(cfg_.bad_weather_prob),
                 "gilbert-elliott: probabilities must be in [0, 1]");
  SEMCACHE_CHECK(cfg_.dwell_messages >= 1,
                 "gilbert-elliott: dwell_messages must be >= 1");
}

bool GilbertElliottChannel::starts_bad(std::uint64_t slot) const {
  const std::uint64_t epoch = slot / cfg_.dwell_messages;
  const std::uint64_t h =
      common::identity_mix(cfg_.seed, kWeatherTag, epoch, 0, 0);
  return common::to_unit_interval(h) < cfg_.bad_weather_prob;
}

void GilbertElliottChannel::apply(std::vector<Symbol>& symbols, Rng& rng,
                                  std::uint64_t slot) {
  // Symbol s takes gaussian pair s of the message key whatever the chain
  // does; the chain only picks its sigma. Each run of symbols in one
  // state gets its noise in one call.
  const std::uint64_t key = rng.next_key();
  double* data = reinterpret_cast<double*>(symbols.data());
  bool bad = starts_bad(slot);
  std::size_t run_start = 0;
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    // Transition AFTER the symbol so the epoch weather governs symbol 0.
    // The coin is keyed, not drawn: the chain path is a pure function of
    // (seed, slot, s).
    const double u = common::to_unit_interval(
        common::identity_mix(cfg_.seed, kChainTag, slot, s, bad ? 1 : 0));
    const bool next_bad = bad ? !(u < cfg_.p_bad_to_good)
                              : u < cfg_.p_good_to_bad;
    if (next_bad != bad || s + 1 == symbols.size()) {
      add_keyed_noise(data + 2 * run_start, s + 1 - run_start, key, run_start,
                      bad ? sigma_bad_ : sigma_good_);
      run_start = s + 1;
      bad = next_bad;
    }
  }
}

std::string GilbertElliottChannel::name() const {
  std::ostringstream os;
  os << "gilbert_elliott(" << cfg_.snr_good_db << "/" << cfg_.snr_bad_db
     << "dB,dwell" << cfg_.dwell_messages << ")";
  return os.str();
}

}  // namespace semcache::channel
