#include "channel/physical.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "channel/noise.hpp"
#include "common/check.hpp"

namespace semcache::channel {

namespace {
double snr_db_to_linear(double snr_db) { return std::pow(10.0, snr_db / 10.0); }
}  // namespace

double noise_sigma(double snr_db) {
  const double sigma = std::sqrt(1.0 / (2.0 * snr_db_to_linear(snr_db)));
  SEMCACHE_CHECK(std::isfinite(sigma),
                 "channel: snr_db " + std::to_string(snr_db) +
                     " leaves no finite noise level (NaN, -inf, or so low "
                     "that its linear power underflows)");
  return sigma;
}

AwgnChannel::AwgnChannel(double snr_db)
    : snr_db_(snr_db), sigma_(noise_sigma(snr_db)) {}

void AwgnChannel::apply(std::vector<Symbol>& symbols, Rng& rng,
                        std::uint64_t /*slot*/) {
  // std::complex<double> is layout-compatible with double[2]: gaussian
  // pair i is symbol i's (re, im) noise.
  add_keyed_noise(reinterpret_cast<double*>(symbols.data()), symbols.size(),
                  rng.next_key(), 0, sigma_);
}

std::string AwgnChannel::name() const {
  std::ostringstream os;
  os << "awgn(" << snr_db_ << "dB)";
  return os.str();
}

RayleighChannel::RayleighChannel(double snr_db, std::size_t block_len)
    : snr_db_(snr_db), sigma_(noise_sigma(snr_db)), block_len_(block_len) {
  SEMCACHE_CHECK(block_len >= 1, "rayleigh: block_len must be >= 1");
}

void RayleighChannel::apply(std::vector<Symbol>& symbols, Rng& rng,
                            std::uint64_t /*slot*/) {
  // One key per message: gaussian pair i is symbol i's noise and pair
  // n + b block b's fade.
  const std::uint64_t key = rng.next_key();
  const std::size_t n = symbols.size();
  std::vector<Symbol> fades((n + block_len_ - 1) / block_len_);
  for (std::size_t b = 0; b < fades.size(); ++b) {
    // h ~ CN(0, 1): real/imag each N(0, 1/2).
    double z0 = 0.0, z1 = 0.0;
    keyed_gaussian_pair(key, n + b, z0, z1);
    const Symbol h(z0 * std::sqrt(0.5), z1 * std::sqrt(0.5));
    // Guard against pathological zero fades (equalizer would blow up).
    fades[b] = std::abs(h) < 1e-6 ? Symbol(1e-6, 0.0) : h;
  }
  for (std::size_t i = 0; i < n; ++i) symbols[i] *= fades[i / block_len_];
  add_keyed_noise(reinterpret_cast<double*>(symbols.data()), n, key, 0,
                  sigma_);
  // Perfect-CSI zero-forcing equalizer.
  for (std::size_t i = 0; i < n; ++i) symbols[i] /= fades[i / block_len_];
}

std::string RayleighChannel::name() const {
  std::ostringstream os;
  os << "rayleigh(" << snr_db_ << "dB,b" << block_len_ << ")";
  return os.str();
}

BscChannel::BscChannel(double flip_probability) : p_(flip_probability) {
  SEMCACHE_CHECK(p_ >= 0.0 && p_ <= 0.5,
                 "bsc: flip probability must be in [0, 0.5]");
}

BitVec BscChannel::transmit(const BitVec& bits, Rng& rng,
                            std::uint64_t /*slot*/) {
  const std::uint64_t key = rng.next_key();
  BitVec out = bits;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (keyed_uniform(key, i) < p_) out[i] ^= 1;
  }
  return out;
}

std::string BscChannel::name() const {
  std::ostringstream os;
  os << "bsc(" << p_ << ")";
  return os.str();
}

ModulatedChannel::ModulatedChannel(Modulation m,
                                   std::unique_ptr<SymbolChannel> channel)
    : mod_(m), channel_(std::move(channel)) {
  SEMCACHE_CHECK(channel_ != nullptr, "modulated channel: null symbol channel");
}

BitVec ModulatedChannel::transmit(const BitVec& bits, Rng& rng,
                                  std::uint64_t slot) {
  std::vector<Symbol> symbols = modulate(bits, mod_);
  channel_->apply(symbols, rng, slot);
  return demodulate(symbols, mod_, bits.size());
}

bool ModulatedChannel::transmit_soft(const BitVec& bits, Rng& rng,
                                     std::uint64_t slot,
                                     std::vector<float>& llrs,
                                     ChannelObservation* obs) {
  std::vector<Symbol> symbols = modulate(bits, mod_);
  channel_->apply(symbols, rng, slot);
  demap_soft_into(llrs, symbols.data(), symbols.size(), mod_);
  llrs.resize(bits.size());  // drop LLRs of modulation pad bits
  if (obs != nullptr) *obs = observe_symbols(symbols, mod_);
  return true;
}

ChannelObservation observe_symbols(const std::vector<Symbol>& received,
                                   Modulation m) {
  ChannelObservation obs;
  if (received.empty()) return obs;
  // Slice each received symbol to the nearest constellation point and
  // measure the residual power — decision-directed, no genie SNR.
  const std::size_t bit_count = received.size() * bits_per_symbol(m);
  const BitVec sliced = demodulate(received, m, bit_count);
  const std::vector<Symbol> nearest = modulate(sliced, m);
  double err = 0.0;
  for (std::size_t i = 0; i < received.size(); ++i) {
    err += std::norm(received[i] - nearest[i]);
  }
  obs.noise_power = err / static_cast<double>(received.size());
  obs.snr_est_db = 10.0 * std::log10(1.0 / std::max(obs.noise_power, 1e-9));
  return obs;
}

std::string ModulatedChannel::name() const {
  return modulation_name(mod_) + "/" + channel_->name();
}

double bpsk_awgn_ber(double snr_db) {
  const double snr = snr_db_to_linear(snr_db);
  return 0.5 * std::erfc(std::sqrt(snr));  // Q(sqrt(2x)) = erfc(sqrt(x))/2
}

}  // namespace semcache::channel
