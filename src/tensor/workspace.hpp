// Reusable tensor arena for allocation-free hot paths.
//
// A Workspace owns a set of slot-indexed scratch tensors. Callers that run
// the same computation repeatedly (layer forwards, GRU steps, codec
// encode/decode) acquire each intermediate by a stable slot id; after the
// first call warms the slots up, acquire() only rewrites the shape and
// returns the same storage — no heap traffic per call.
//
// Slots are plain indices so a module can enumerate its intermediates in an
// enum and keep the mapping readable. A workspace is single-owner state
// (not thread-safe); share one per model instance, not across threads.
// Copying is deleted outright so two owners can never silently alias one
// arena.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace semcache::tensor {

class Workspace {
 public:
  Workspace() = default;
  // Non-copyable by design (an accidental copy would be a fresh empty-ish
  // arena at best and shared storage at worst); explicitly deleted so the
  // intent survives refactors. Moves transfer the slots — heap-anchored,
  // so references handed out by acquire() stay valid across a move.
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) noexcept = default;
  Workspace& operator=(Workspace&&) noexcept = default;

  /// Scratch tensor for `slot`, resized to `shape`. Contents are
  /// unspecified — callers must fully overwrite (the `_into` kernels do).
  /// Grows the slot table and each slot's storage high-water mark on first
  /// use; steady state performs zero allocations. Slots are heap-anchored,
  /// so a returned reference survives later acquire() calls on other slots.
  Tensor& acquire(std::size_t slot, std::vector<std::size_t> shape) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    if (!slots_[slot]) slots_[slot] = std::make_unique<Tensor>();
    slots_[slot]->resize(std::move(shape));
    return *slots_[slot];
  }

  /// Like acquire(), but zero-filled (for accumulators).
  Tensor& acquire_zeroed(std::size_t slot, std::vector<std::size_t> shape) {
    Tensor& t = acquire(slot, std::move(shape));
    t.zero();
    return t;
  }

  std::size_t slot_count() const { return slots_.size(); }

  /// Total floats reserved across all slots; lets tests pin down that a
  /// warmed-up workspace stops growing.
  std::size_t floats_reserved() const {
    std::size_t total = 0;
    for (const auto& t : slots_) {
      if (t) total += t->capacity();
    }
    return total;
  }

 private:
  std::vector<std::unique_ptr<Tensor>> slots_;
};

}  // namespace semcache::tensor
