// E11 (extension, §III-C) — Reliability: error tolerance vs retransmission.
//
// Traditional bit-exact communication needs ARQ: a flipped bit corrupts
// the token stream, so the receiver CRC-checks and requests retransmission.
// Semantic features tolerate residual errors instead — a flipped feature
// bit perturbs one word's sense, it does not desynchronize anything.
//
// Table, per SNR (BPSK/AWGN, both sides conv-coded):
//   (a) semantic, fire-and-forget — fixed airtime, graceful fidelity;
//   (b) traditional (2 B/token) + stop-and-wait ARQ (CRC-32, <= 8
//       attempts) — exact when delivered, but airtime inflates as the
//       channel worsens and undelivered messages appear.
#include "bench_util.hpp"
#include "channel/arq.hpp"
#include "metrics/ngram.hpp"
#include "metrics/stats.hpp"
#include "semantic/quantizer.hpp"
#include "text/vocab.hpp"

using namespace semcache;

namespace {

BitVec serialize_tokens(std::span<const std::int32_t> ids) {
  std::vector<std::uint8_t> raw;
  raw.reserve(ids.size() * 2);
  for (const auto id : ids) {
    raw.push_back(static_cast<std::uint8_t>(id & 0xFF));
    raw.push_back(static_cast<std::uint8_t>((id >> 8) & 0xFF));
  }
  return bytes_to_bits(raw);
}

std::vector<std::int32_t> deserialize_tokens(const BitVec& bits,
                                             std::size_t count,
                                             std::size_t vocab) {
  const auto bytes = bits_to_bytes(bits);
  std::vector<std::int32_t> ids;
  for (std::size_t b = 0; b + 1 < bytes.size() && ids.size() < count; b += 2) {
    auto id = static_cast<std::int32_t>(bytes[b]) |
              (static_cast<std::int32_t>(bytes[b + 1]) << 8);
    if (id < 0 || static_cast<std::size_t>(id) >= vocab) {
      id = text::Vocab::kUnk;
    }
    ids.push_back(id);
  }
  ids.resize(count, text::Vocab::kUnk);
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  Rng rng(2101);
  text::World world = text::World::generate(bench::standard_world(2), rng);
  const auto cc = bench::standard_codec(world, 2);
  semantic::FeatureQuantizer quantizer(cc.feature_dim, 3);
  auto codec = bench::train_domain_codec(world, 0, cc, 6000,
                                         quantizer.max_error() / 2, 21);

  metrics::Table table(
      "E11 — error tolerance vs ARQ (BPSK/AWGN, conv-coded both sides)",
      {"snr_db", "sem_acc", "sem_airtime", "trad_acc", "trad_airtime",
       "trad_attempts", "trad_undelivered"});
  for (const double snr : {-2.0, 0.0, 2.0, 4.0, 6.0}) {
    Rng run_rng(2200 + static_cast<std::uint64_t>((snr + 4) * 13));
    metrics::OnlineStats sem_acc, sem_air, trad_acc, trad_air, attempts;
    std::size_t undelivered = 0;
    const int kMessages = 250;
    // The pipelines keep no state, so one of each serves every message.
    const auto sem_pipe = channel::make_awgn_pipeline(
        channel::make_code("conv_k3_r12"), channel::Modulation::kBpsk, snr);
    const auto arq_pipe = channel::make_awgn_pipeline(
        channel::make_code("conv_k3_r12"), channel::Modulation::kBpsk, snr);
    for (int i = 0; i < kMessages; ++i) {
      const auto msg = world.sample_sentence(0, run_rng);

      // (a) Semantic, fire-and-forget.
      const BitVec payload =
          quantizer.quantize(codec->encoder().encode(msg.surface));
      const BitVec rx = sem_pipe->transmit(payload, run_rng);
      const auto decoded = codec->decoder().decode(quantizer.dequantize(rx));
      sem_acc.add(metrics::token_accuracy(msg.meanings, decoded));
      sem_air.add(static_cast<double>(sem_pipe->airtime_bits(payload.size())));

      // (b) Traditional tokens + ARQ.
      const channel::ArqResult ar = channel::arq_transmit(
          *arq_pipe, serialize_tokens(msg.surface), run_rng, 8);
      attempts.add(static_cast<double>(ar.attempts));
      trad_air.add(static_cast<double>(ar.airtime_bits));
      if (!ar.delivered) ++undelivered;
      const auto rx_ids = deserialize_tokens(ar.payload, msg.surface.size(),
                                             world.surface_count());
      trad_acc.add(metrics::token_accuracy(msg.surface, rx_ids));
    }
    table.add_row(
        {metrics::Table::num(snr, 0), metrics::Table::num(sem_acc.mean()),
         metrics::Table::num(sem_air.mean(), 0),
         metrics::Table::num(trad_acc.mean()),
         metrics::Table::num(trad_air.mean(), 0),
         metrics::Table::num(attempts.mean(), 2),
         std::to_string(undelivered)});
  }
  bench::emit(table, argc, argv);
  return 0;
}
