// A probe for where the receive funnel (runtime::deliver_from_fabric)
// dispatches user parcels.
//
// Where a user action's fiber *runs* cannot tell the dispatch paths apart:
// a typed action spawns onto the destination's scheduler whichever thread
// dispatched it.  This raw handler is registered as spawning — the shape
// of every typed action's handler — and records the dispatch itself: on a
// worker of the destination, and from which fiber, or on another thread
// (a progress thread, or a sender of another locality on the zero-latency
// sim fabric).  Then it spawns, as a typed handler would.
//
//   dispatch_probe::send(*core::this_locality(), 1);  // from locality 0
//   ...run()...
//   EXPECT_LE(dispatch_probe::off_worker.load(), frames_received);
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <utility>

#include "core/locality.hpp"
#include "core/runtime.hpp"
#include "parcel/action_registry.hpp"
#include "parcel/parcel.hpp"
#include "threads/scheduler.hpp"
#include "threads/thread.hpp"

namespace px::test::dispatch_probe {

inline std::atomic<std::uint64_t> off_worker{0};  // dispatched elsewhere
inline std::atomic<std::uint64_t> ran{0};         // spawned fibers that ran
inline std::mutex lock;
inline std::set<std::uint64_t> dispatchers;  // ids of dispatching fibers

inline parcel::action_id action() {
  static const parcel::action_id id =
      parcel::action_registry::global().register_action(
          "test.dispatch_probe",
          +[](void* ctx, const parcel::parcel_view&) {
            auto* loc = static_cast<core::locality*>(ctx);
            const threads::thread_descriptor* self =
                threads::scheduler::self();
            if (self == nullptr || !loc->sched().on_worker()) {
              off_worker.fetch_add(1);
            } else {
              std::lock_guard g(lock);
              dispatchers.insert(self->id);
            }
            loc->spawn([] { ran.fetch_add(1); });
          },
          /*spawns=*/true);
  return id;
}

// Eager: action ids are positional, so every rank mints this at start-up.
[[maybe_unused]] inline const parcel::action_id registration = action();

inline void send(core::locality& from, gas::locality_id to) {
  parcel::parcel p;
  p.destination = from.rt().locality_gid(to);
  p.action = action();
  from.send(std::move(p));
}

}  // namespace px::test::dispatch_probe
