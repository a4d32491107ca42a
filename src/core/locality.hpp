// Locality: the ParalleX unit of guaranteed synchronous operation.
//
// Paper §2.2 "Locality": "the locus of resources that can be guaranteed to
// operate synchronously and for which hardware can guarantee compound
// atomic operations on local data elements".  Here a locality owns a
// work-stealing scheduler (its execution sites), an object table (the local
// partition of the global address space), an LCO sink table (single-shot
// continuation targets such as future write-ends), and a parcel port on the
// shared fabric.
//
// Threads are locality-bound: work crosses localities only as parcels.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gas/gid.hpp"
#include "parcel/parcel.hpp"
#include "threads/scheduler.hpp"
#include "util/histogram.hpp"
#include "util/spinlock.hpp"

namespace px::core {

class runtime;

struct locality_stats {
  std::uint64_t parcels_sent = 0;
  std::uint64_t parcels_delivered = 0;
  std::uint64_t parcels_forwarded = 0;  // stale AGAS cache reroutes
  std::uint64_t parcels_dropped = 0;    // forward-bound exceeded
  std::uint64_t threads_spawned = 0;
};

class locality {
 public:
  locality(runtime& rt, gas::locality_id id,
           threads::scheduler_params sched_params);

  locality(const locality&) = delete;
  locality& operator=(const locality&) = delete;

  gas::locality_id id() const noexcept { return id_; }
  runtime& rt() noexcept { return rt_; }
  threads::scheduler& sched() noexcept { return sched_; }

  // The typed hardware name of this locality in the global name space.
  gas::gid here() const noexcept { return here_; }

  // ------------------------------------------------------------- threads

  // Spawns a ParalleX thread on this locality (establishes the
  // this_locality() context for the thread).
  void spawn(std::function<void()> fn);

  // -------------------------------------------------------- object table

  void put_object(gas::gid id, std::shared_ptr<void> object);
  std::shared_ptr<void> get_object(gas::gid id) const;  // nullptr if absent
  bool has_object(gas::gid id) const;
  bool erase_object(gas::gid id);
  std::size_t object_count() const;

  // Resident objects whose gid is homed at `home` — the survivors'
  // re-registration sweep after rank loss (runtime::note_peer_failure)
  // re-homes exactly these at the casualty's successor.
  std::vector<gas::gid> resident_objects_homed_at(gas::locality_id home) const;

  // ----------------------------------------------------------- LCO sinks

  // Registers a single-shot parcel target (e.g. a future's write end) and
  // returns its gid; the sink is erased when fired.
  gas::gid register_sink(std::function<void(parcel::parcel)> fire);
  // Fires and erases; returns false for unknown/already-fired gids.
  bool fire_sink(gas::gid id, parcel::parcel p);

  // -------------------------------------------------------------- parcels

  // Routes a parcel toward its destination (local fast path or fabric).
  void send(parcel::parcel p);

  // A parcel has arrived at this locality: verify ownership, forward if
  // stale, else dispatch.  Dispatch is zero-copy: the view borrows a
  // fabric frame or, on the local fast path, the sender's parcel
  // (parcel_view::of), so a forward (the rare path) materializes a copy.
  void deliver(const parcel::parcel_view& pv);

  // Bookkeeping for runtime::route's forward-bound enforcement.
  void note_dropped() noexcept {
    parcels_dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  // --------------------------------------------- object heat (rebalancer)

  // Turns on per-object delivery accounting; set once by the runtime when
  // the rebalancer is enabled (the disabled fast path is a single relaxed
  // load per delivery).
  void enable_heat_tracking() noexcept {
    heat_enabled_.store(true, std::memory_order_relaxed);
  }

  // The up-to-n hottest migratable (data-kind) objects delivered here,
  // hottest first.  Ages all remaining heat by half so a former hot spot
  // cools off instead of being re-migrated forever.
  std::vector<std::pair<gas::gid, std::uint64_t>> hottest_objects(
      std::size_t n);

  locality_stats stats() const;

  // Distribution of parcel send→dispatch latencies (ns, on the rank-0
  // clock) observed at this locality while PX_STATS is armed; registered
  // as the runtime/loc<i>/parcels/hist_dispatch_ns histogram counter.
  util::log_histogram dispatch_hist_snapshot() const {
    return dispatch_hist_.snapshot();
  }

 private:
  friend class runtime;

  // True when the parcel for `dest` must be rerouted (object migrated away
  // and we were reached through a stale cache); establishes the locality
  // context as a side effect of the arrival.
  bool arriving_needs_forward(gas::gid dest);

  // Distributed forwarding feedback (no-op otherwise): when this rank
  // forwards a parcel, tell the original sender what we know — the home
  // rank piggybacks the authoritative owner so senders converge on direct
  // routing; a stale ex-owner sends an invalidation so the sender falls
  // back to home routing and picks up a fresh hint there.  Rate-gated per
  // (gid, sender): a sender with a storm in flight needs one corrective
  // hint, not one per forwarded parcel — the forwarding rank is exactly
  // the overloaded one, and doubling its outbound control traffic during
  // a migration wave defeats the point.
  void send_forward_feedback(const parcel::parcel& p);
  bool hint_gate_allows(gas::gid dest, gas::locality_id source);

  // Delivery-path heat accounting (no-op unless heat tracking is enabled).
  void note_heat(gas::gid dest) noexcept;

  // Telemetry: fold one send→dispatch latency into dispatch_hist_ (the
  // caller has already checked introspect::stats_armed() and a nonzero
  // wire timestamp).
  void note_dispatch_latency(std::uint64_t send_ts_ns) noexcept;

  // Heat-table size bound; crossing it ages the table in place (see
  // note_heat), so balanced workloads cannot grow it without limit.  The
  // aging scan itself runs at most once per interval.
  static constexpr std::size_t kMaxHeatEntries = 1024;
  static constexpr std::int64_t kHeatAgeIntervalNs = 1000 * 1000;  // 1ms

  runtime& rt_;
  gas::locality_id id_;
  gas::gid here_;
  threads::scheduler sched_;

  mutable util::spinlock objects_lock_;
  std::unordered_map<gas::gid, std::shared_ptr<void>> objects_;

  mutable util::spinlock sinks_lock_;
  std::unordered_map<gas::gid, std::function<void(parcel::parcel)>> sinks_;

  std::atomic<bool> heat_enabled_{false};
  std::atomic<std::uint64_t> heat_seq_{0};  // 1-in-8 delivery sampling
  mutable util::spinlock heat_lock_;
  std::unordered_map<gas::gid, std::uint64_t> heat_;
  std::int64_t heat_last_age_ns_ = 0;  // guarded by heat_lock_

  // Forwarding-feedback rate gate (see send_forward_feedback).  Keyed by
  // mixed (gid, sender); bounded by clearing — a false suppression only
  // delays a hint by one interval, so precision is not worth memory.
  static constexpr std::int64_t kHintGateIntervalNs = 200 * 1000;  // 200us
  static constexpr std::size_t kMaxHintGateEntries = 256;
  util::spinlock hint_gate_lock_;
  std::unordered_map<std::uint64_t, std::int64_t> hint_gate_;

  util::log_histogram dispatch_hist_;  // internally locked

  std::atomic<std::uint64_t> parcels_sent_{0};
  std::atomic<std::uint64_t> parcels_delivered_{0};
  std::atomic<std::uint64_t> parcels_forwarded_{0};
  std::atomic<std::uint64_t> parcels_dropped_{0};
  std::atomic<std::uint64_t> threads_spawned_{0};
};

// The locality whose scheduler runs the calling thread (set for ParalleX
// threads and for parcel handlers), or nullptr on an unrelated OS thread.
locality* this_locality() noexcept;

namespace detail {
void set_this_locality(locality* loc) noexcept;
}

}  // namespace px::core
