// E13 — Batched one-pair wave serving throughput.
//
// The survey literature's throughput lever for semantic edge serving is
// amortizing per-message inference: a one-pair transmit_pairs wave stacks
// N messages from a user pair through one encode/quantize/channel/decode
// pass per (domain, fine-tune interval) group. This bench measures
// delivered end-to-end throughput (data plane + timing-plane drain) as the
// batch size grows, with the fine-tune path disabled (pure serving) and
// enabled (trigger 24, the default serving+adaptation mix). speedup is
// per-message throughput relative to the N = 1 sequential path of the same
// fine-tune mode.
#include <chrono>

#include "bench_util.hpp"
#include "core/system.hpp"

using namespace semcache;

namespace {

constexpr std::size_t kMessages = 192;  // per configuration

struct BatchResult {
  double wall_ms = 0.0;
  double msgs_per_s = 0.0;
  double us_per_msg = 0.0;
  std::size_t updates = 0;
};

BatchResult run(std::size_t batch, bool finetune) {
  core::SystemConfig config;
  config.seed = 1301;
  config.world = bench::standard_world(2, 8);
  config.codec.embed_dim = 20;
  config.codec.feature_dim = 16;
  config.codec.hidden_dim = 48;
  config.pretrain.steps = 800;
  config.oracle_selection = true;
  config.buffer_trigger = finetune ? 24 : kMessages + 1;  // +1: never trips
  config.buffer_capacity = 256;
  auto system = core::SemanticEdgeSystem::build(config);
  system->register_user("s", 0, nullptr);
  system->register_user("r", 1, nullptr);

  std::vector<text::Sentence> messages;
  for (std::size_t i = 0; i < kMessages; ++i) {
    messages.push_back(system->sample_message("s", 0));
  }

  std::size_t delivered = 0;
  std::vector<core::SemanticEdgeSystem::PairBatch> wave{{"s", "r", {}}};
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t pos = 0; pos < kMessages; pos += batch) {
    const std::size_t n = std::min(batch, kMessages - pos);
    wave[0].messages.assign(
        messages.begin() + static_cast<std::ptrdiff_t>(pos),
        messages.begin() + static_cast<std::ptrdiff_t>(pos + n));
    system->transmit_pairs(
        wave, [&delivered](std::size_t, std::size_t, core::TransmitReport) {
          ++delivered;
        });
    system->simulator().run();
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();

  BatchResult result;
  result.wall_ms = seconds * 1e3;
  result.msgs_per_s = static_cast<double>(delivered) / seconds;
  result.us_per_msg = seconds * 1e6 / static_cast<double>(delivered);
  result.updates = system->stats().updates;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  metrics::Table table(
      "E13 — batched one-pair wave serving throughput (192 msgs/config)",
      {"batch", "finetune", "wall_ms", "msgs_per_s", "us_per_msg", "updates",
       "speedup"});
  for (const bool finetune : {false, true}) {
    double base_us = 0.0;
    for (const std::size_t batch : {1u, 2u, 8u, 32u}) {
      const BatchResult r = run(batch, finetune);
      if (batch == 1) base_us = r.us_per_msg;
      table.add_row({std::to_string(batch), finetune ? "on" : "off",
                     metrics::Table::num(r.wall_ms, 1),
                     metrics::Table::num(r.msgs_per_s, 0),
                     metrics::Table::num(r.us_per_msg, 2),
                     std::to_string(r.updates),
                     metrics::Table::num(base_us / r.us_per_msg, 2)});
    }
  }
  bench::emit(table, argc, argv);
  return 0;
}
