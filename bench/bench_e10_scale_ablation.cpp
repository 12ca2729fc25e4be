// E10 (Fig. 7) — System scale and the decoder-copy ablation.
//
// Sweeps the number of concurrent user pairs and domains through the full
// system (open-loop arrivals on the event simulator) and reports delivered
// throughput, latency, per-edge cached user-model state, and total wire
// bytes — with the decoder copy enabled vs disabled (the §II-C ablation:
// every message pays an output-return transfer when the copy is absent).
#include "bench_util.hpp"
#include "core/system.hpp"
#include "metrics/stats.hpp"

using namespace semcache;

namespace {

struct ScaleResult {
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  std::uint64_t wire_bytes = 0;      // feature + sync + output-return
  std::size_t updates = 0;
  std::size_t user_model_slots = 0;
  double user_model_mbytes = 0.0;
};

ScaleResult run(std::size_t pairs, std::size_t domains, bool decoder_copy,
                std::size_t messages_per_pair) {
  core::SystemConfig config;
  config.seed = 2001;
  config.world = bench::standard_world(domains, 6);
  config.codec.embed_dim = 20;
  config.codec.feature_dim = 12;
  config.codec.hidden_dim = 48;
  config.pretrain.steps = 3500;
  config.feature_bits = 3;
  config.oracle_selection = true;
  config.buffer_trigger = 16;
  config.finetune_epochs = 4;
  config.decoder_copy_enabled = decoder_copy;
  config.devices_per_edge = pairs;
  auto system = core::SemanticEdgeSystem::build(config);

  std::vector<std::string> senders, receivers;
  for (std::size_t p = 0; p < pairs; ++p) {
    text::IdiolectConfig idio;
    idio.substitution_rate = 0.3;
    senders.push_back("s" + std::to_string(p));
    receivers.push_back("r" + std::to_string(p));
    system->register_user(senders.back(), 0, &idio);
    system->register_user(receivers.back(), 1, nullptr);
  }

  metrics::OnlineStats latency;
  metrics::PercentileTracker p95;
  auto& sim = system->simulator();
  Rng arrival_rng(2002);
  for (std::size_t p = 0; p < pairs; ++p) {
    for (std::size_t i = 0; i < messages_per_pair; ++i) {
      const double t = 0.05 * static_cast<double>(i) +
                       arrival_rng.uniform(0.0, 0.01);
      sim.schedule_at(t, [&, p] {
        Rng drng(sim.now() * 1e6);
        const auto domain = static_cast<std::size_t>(
            drng.uniform_int(0, static_cast<std::int64_t>(
                                    system->world().num_domains()) - 1));
        system->transmit_pairs(
            {{senders[p], receivers[p],
              {system->sample_message(senders[p], domain)}}},
            [&](std::size_t, std::size_t, core::TransmitReport r) {
              latency.add(r.latency_s * 1e3);
              p95.add(r.latency_s * 1e3);
            });
      });
    }
  }
  sim.run();

  const auto& st = system->stats();
  ScaleResult result;
  result.mean_latency_ms = latency.mean();
  result.p95_latency_ms = p95.percentile(0.95);
  result.wire_bytes = st.feature_bytes + st.sync_bytes + st.output_return_bytes;
  result.updates = st.updates;
  result.user_model_slots = system->edge_state(0).slot_count() +
                            system->edge_state(1).slot_count();
  result.user_model_mbytes =
      static_cast<double>(system->edge_state(0).user_model_bytes() +
                          system->edge_state(1).user_model_bytes()) /
      1e6;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  metrics::Table table(
      "E10/Fig7 — scale sweep with decoder-copy ablation",
      {"pairs", "domains", "decoder_copy", "mean_ms", "p95_ms",
       "wire_bytes", "updates", "user_slots", "user_model_MB"});
  for (const std::size_t pairs : {2u, 4u, 8u}) {
    for (const std::size_t domains : {2u, 4u}) {
      for (const bool copy : {true, false}) {
        const ScaleResult r = run(pairs, domains, copy, 40);
        table.add_row({std::to_string(pairs), std::to_string(domains),
                       copy ? "on" : "off",
                       metrics::Table::num(r.mean_latency_ms, 2),
                       metrics::Table::num(r.p95_latency_ms, 2),
                       std::to_string(r.wire_bytes),
                       std::to_string(r.updates),
                       std::to_string(r.user_model_slots),
                       metrics::Table::num(r.user_model_mbytes, 2)});
      }
    }
  }
  bench::emit(table, argc, argv);
  return 0;
}
