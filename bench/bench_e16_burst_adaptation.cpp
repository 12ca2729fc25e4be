// E16 — Per-link adaptive code rate over Gilbert–Elliott bursts.
//
// The channel-realism rung on top of E8: instead of a fixed SNR, the link
// weather alternates between good and bad states (two-state Markov burst
// noise keyed by the global message slot), and the transmitter picks its
// code rate per message from the receiver's decision-directed SNR
// estimates (EWMA + hysteresis, soft-decision Viterbi throughout).
//
// Arms per scenario: the three fixed rates (conv 1/2, punctured 2/3 and
// 3/4) and the adaptive ladder. Goodput counts only exactly-delivered
// messages: payload bits of messages whose decoded meaning matches the
// original, divided by coded bits on air — the quantity the adaptive
// controller is supposed to win: fixed 3/4 collapses inside bursts,
// fixed 1/2 wastes airtime in clear weather, the ladder rides both.
//
// Determinism: burst weather is a pure function of (seed, slot) and every
// message RNG is an identity fork, so all counters in these tables are
// reproducible from the seeds alone. Each scenario builds its three
// pipelines once, one per code rate: each fixed arm runs one batched
// transmit on its rung, and the adaptive arm climbs the same ladder
// message by message, because the controller is a serial dependency.
// SEMCACHE_SOFT=off forces hard decisions on every arm; the adaptive arm
// then gets no SNR estimate and never switches.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "channel/adaptive.hpp"
#include "channel/pipeline.hpp"
#include "metrics/ngram.hpp"
#include "metrics/stats.hpp"
#include "semantic/quantizer.hpp"

using namespace semcache;

namespace {

constexpr std::size_t kMessages = 400;
constexpr std::size_t kInterleaveDepth = 8;

struct Scenario {
  std::string name;
  channel::GilbertElliottConfig burst;
};

struct ArmResult {
  double accuracy = 0.0;       // mean token accuracy
  double exact = 0.0;          // fraction of messages delivered exactly
  std::uint64_t airtime = 0;   // coded bits on air
  double goodput = 0.0;        // exactly-delivered payload bits / airtime bit
  std::uint64_t switches = 0;  // adaptive only
  std::array<std::uint64_t, channel::kCodeRateCount> rate_messages{};
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  channel::GilbertElliottConfig calm;
  calm.snr_good_db = 12.0;
  calm.snr_bad_db = -2.0;
  calm.bad_weather_prob = 0.1;
  calm.dwell_messages = 16;
  calm.seed = 71;
  out.push_back({"calm", calm});

  channel::GilbertElliottConfig gusty = calm;
  gusty.bad_weather_prob = 0.4;
  gusty.dwell_messages = 8;
  out.push_back({"gusty", gusty});

  channel::GilbertElliottConfig stormy = calm;
  stormy.bad_weather_prob = 0.7;
  stormy.dwell_messages = 8;
  stormy.p_good_to_bad = 0.05;
  out.push_back({"stormy", stormy});
  return out;
}

struct Workload {
  std::vector<text::Sentence> messages;
  std::vector<BitVec> payloads;
};

Workload make_workload(const text::World& world, semantic::SemanticCodec& codec,
                       const semantic::FeatureQuantizer& quantizer) {
  Workload w;
  Rng rng(4242);
  for (std::size_t i = 0; i < kMessages; ++i) {
    w.messages.push_back(world.sample_sentence(0, rng));
    w.payloads.push_back(
        quantizer.quantize(codec.encoder().encode(w.messages.back().surface)));
  }
  return w;
}

// One pipeline per code rate over the scenario's burst weather.
channel::RateLadder make_ladder(const Scenario& sc) {
  const bool soft = channel::resolve_soft_decision(true);
  channel::RateLadder ladder;
  for (std::size_t r = 0; r < channel::kCodeRateCount; ++r) {
    auto pipe = channel::make_burst_pipeline(
        std::make_unique<channel::ConvolutionalCode>(
            static_cast<channel::CodeRate>(r)),
        channel::Modulation::kQpsk, sc.burst, kInterleaveDepth);
    pipe->set_soft_decision(soft);
    ladder[r] = std::move(pipe);
  }
  return ladder;
}

// Decode quality of the received payloads, and goodput over `airtime`.
ArmResult score(semantic::SemanticCodec& codec,
                const semantic::FeatureQuantizer& quantizer,
                const Workload& w, const std::vector<BitVec>& received,
                std::uint64_t airtime) {
  metrics::OnlineStats acc;
  std::size_t exact = 0;
  std::uint64_t payload_bits = 0;
  for (std::size_t i = 0; i < received.size(); ++i) {
    const auto decoded =
        codec.decoder().decode(quantizer.dequantize(received[i]));
    const double ta = metrics::token_accuracy(w.messages[i].meanings, decoded);
    acc.add(ta);
    if (ta >= 1.0) ++exact;
    payload_bits += w.payloads[i].size();
  }
  ArmResult r;
  r.accuracy = acc.mean();
  r.exact = static_cast<double>(exact) / static_cast<double>(received.size());
  r.airtime = airtime;
  r.goodput = r.exact * static_cast<double>(payload_bits) /
              static_cast<double>(airtime);
  return r;
}

ArmResult run_fixed(const channel::ChannelPipeline& pipe,
                    semantic::SemanticCodec& codec,
                    const semantic::FeatureQuantizer& quantizer,
                    const Workload& w) {
  std::vector<Rng> rngs;
  std::vector<std::uint64_t> slots;
  Rng base(9090);
  for (std::size_t i = 0; i < kMessages; ++i) {
    rngs.push_back(base.fork(i));
    slots.push_back(i);
  }
  const std::vector<BitVec> received =
      pipe.transmit_batch(w.payloads, rngs, slots);
  std::uint64_t airtime = 0;
  for (const BitVec& payload : w.payloads) {
    airtime += pipe.airtime_bits(payload.size());
  }
  return score(codec, quantizer, w, received, airtime);
}

ArmResult run_adaptive(const channel::RateLadder& ladder,
                       semantic::SemanticCodec& codec,
                       const semantic::FeatureQuantizer& quantizer,
                       const Workload& w) {
  // 6 / 10 dB thresholds, 1 dB hysteresis.
  channel::AdaptiveRateController controller(channel::AdaptiveRateConfig{});
  std::vector<BitVec> received;
  std::uint64_t airtime = 0;
  std::uint64_t switches = 0;
  std::array<std::uint64_t, channel::kCodeRateCount> rate_messages{};
  Rng base(9090);
  for (std::size_t i = 0; i < kMessages; ++i) {
    const channel::CodeRate rate = controller.current();
    const auto r = static_cast<std::size_t>(rate);
    Rng rng = base.fork(i);
    received.push_back(channel::adaptive_transmit(ladder, controller,
                                                  w.payloads[i], rng, i));
    airtime += ladder[r]->airtime_bits(w.payloads[i].size());
    rate_messages[r] += 1;
    if (controller.current() != rate) ++switches;
  }
  ArmResult result = score(codec, quantizer, w, received, airtime);
  result.switches = switches;
  result.rate_messages = rate_messages;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Rng rng(1801);
  text::World world = text::World::generate(bench::standard_world(2), rng);
  const auto cc = bench::standard_codec(world, 2);
  semantic::FeatureQuantizer quantizer(cc.feature_dim, 3);
  auto codec = bench::train_domain_codec(world, 0, cc, 6000,
                                         quantizer.max_error() / 2, 18);

  metrics::Table summary(
      "E16 — adaptive vs best fixed rate (goodput, per scenario)",
      {"scenario", "r12", "r23", "r34", "adaptive", "best_fixed",
       "adaptive_wins"});

  for (const Scenario& sc : scenarios()) {
    const Workload w = make_workload(world, *codec, quantizer);
    metrics::Table table(
        "E16 — " + sc.name + " (p_bad=" +
            metrics::Table::num(sc.burst.bad_weather_prob, 2) + ", dwell=" +
            std::to_string(sc.burst.dwell_messages) + ")",
        {"arm", "accuracy", "exact", "airtime_bits", "goodput", "switches",
         "msgs_r12", "msgs_r23", "msgs_r34"});

    const channel::RateLadder ladder = make_ladder(sc);
    std::vector<std::pair<std::string, ArmResult>> arms;
    for (std::size_t r = 0; r < channel::kCodeRateCount; ++r) {
      arms.emplace_back(
          channel::code_rate_name(static_cast<channel::CodeRate>(r)),
          run_fixed(*ladder[r], *codec, quantizer, w));
    }
    arms.emplace_back("adaptive", run_adaptive(ladder, *codec, quantizer, w));

    double best_fixed = 0.0;
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const ArmResult& r = arms[a].second;
      if (a < 3 && r.goodput > best_fixed) best_fixed = r.goodput;
      const bool adaptive = arms[a].first == "adaptive";
      table.add_row(
          {arms[a].first, metrics::Table::num(r.accuracy),
           metrics::Table::num(r.exact),
           std::to_string(r.airtime), metrics::Table::num(r.goodput),
           adaptive ? std::to_string(r.switches) : "-",
           adaptive ? std::to_string(r.rate_messages[0]) : "-",
           adaptive ? std::to_string(r.rate_messages[1]) : "-",
           adaptive ? std::to_string(r.rate_messages[2]) : "-"});
    }
    bench::emit(table, argc, argv);

    const double adaptive_goodput = arms.back().second.goodput;
    summary.add_row({sc.name, metrics::Table::num(arms[0].second.goodput),
                     metrics::Table::num(arms[1].second.goodput),
                     metrics::Table::num(arms[2].second.goodput),
                     metrics::Table::num(adaptive_goodput),
                     metrics::Table::num(best_fixed),
                     adaptive_goodput > best_fixed ? "yes" : "no"});
  }
  bench::emit(summary, argc, argv);
  return 0;
}
