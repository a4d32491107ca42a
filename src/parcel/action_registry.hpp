// Action registry: names -> action ids -> invocation handlers.
//
// Actions are first-class in the ParalleX name space ("actions as well as
// data are first class entities").  Every locality shares one registry (we
// model a single program image, as MPI/SPMD systems do), so an action_id is
// valid system-wide.  Handlers receive an opaque runtime context pointer —
// the locality the parcel landed on — and a zero-copy parcel_view; the
// typed argument-unpacking layer lives in core/action.hpp.
//
// Dispatch is the per-parcel hot path, so it is lock-free and
// allocation-free: entries live in a fixed slab published by an atomic
// count (slots are written before the count advances and are immutable
// afterwards), and every handler is a raw function pointer — no
// std::function type erasure, no registry lock.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "parcel/parcel.hpp"
#include "util/spinlock.hpp"

namespace px::parcel {

class action_registry {
 public:
  // `ctx` is the destination locality (core::locality*), kept opaque here
  // to avoid a dependency cycle.  The view (and its backing buffer) is only
  // valid for the duration of the call; handlers copy what they keep.
  using view_handler = void (*)(void* ctx, const parcel_view& pv);

  action_registry();

  // Registers under a unique name; returns the stable id.  Re-registering
  // a name is an error (asserts) — action identity must be unambiguous.
  // `spawns` marks a handler whose only work is spawning a ParalleX thread
  // (every typed action); the rest are control-plane handlers, which must
  // run inline on the delivering thread and never queue behind user
  // fibers (runtime::deliver_from_fabric).
  action_id register_action(std::string name, view_handler fn,
                            bool spawns = false);

  // Whether `id` was registered as spawning (see register_action).
  bool spawns(action_id id) const { return at(id).spawns; }

  // Invokes the handler for the view's action: zero-copy.
  void dispatch(void* ctx, const parcel_view& pv) const;

  std::optional<action_id> find(std::string_view name) const;
  const std::string& name_of(action_id id) const;
  std::size_t size() const;

  // Process-wide instance (single program image model).
  static action_registry& global();

  static constexpr std::size_t max_actions = 1024;

 private:
  struct entry {
    std::string name;
    view_handler fn = nullptr;
    bool spawns = false;
  };

  const entry& at(action_id id) const;

  mutable util::spinlock lock_;  // writers and name lookups only
  std::unique_ptr<entry[]> entries_;
  std::atomic<std::uint32_t> count_{0};
};

}  // namespace px::parcel
