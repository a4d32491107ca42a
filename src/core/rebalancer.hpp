// Adaptive load rebalancer: introspection counters turned into action.
//
// Paper §2.1: starvation is "idle cycles ... caused either due to
// inadequate program parallelism or due to poor load balancing"; the model
// answers with dynamic adaptive resource management.  One round closes the
// loop over the introspection subsystem, in both deployment shapes:
//
//   gate      poll() is rate-limited, and a latch keeps one round in flight
//   observe   per-locality instantaneous ready depths (acting on a lagged
//             signal would chase yesterday's imbalance).  The only step
//             that differs by shape: in-process it reads every locality;
//             distributed it reads its own depth and probes every other
//             live rank's ready_depth counter (px.query_counter)
//   decide    over live localities: imbalance = max_depth / mean_depth;
//             act only above a threshold, with the deepest queue deep
//             enough to matter
//   act       (a) migrate_gid_async the hottest data objects (then any
//                 migratable resident) from the deepest locality to the
//                 below-mean ones, so the *message-driven work follows the
//                 objects* to idle sites;
//             (b) place() steers process::spawn_any toward the shallowest
//                 ready queues, replacing static round-robin.
//
// poll() runs on whichever thread has nothing better to do: idle scheduler
// workers, and the transport progress thread's idle callback (so a machine
// whose workers are all pinned busy is still rebalanced from outside).
//
// Distributed, a round is a *continuation chain*, never a blocking thread:
// probe replies count down on the delivery thread, the last one runs
// decide + act inline, and each issued migration's ack releases its slot
// of the latch — no fiber is needed on the overloaded rank, whose workers
// are the ones monopolized by the backlog.  Decisions are *push-only and
// symmetric*: every rank runs the same policy, but only the rank that sees
// itself deepest migrates (it owns the hot objects; no coordination is
// needed).  A round fires only while this rank has a backlog (ready depth
// >= min_depth), which keeps wait_quiescent's fixed point reachable.  Lost
// ranks are neither probed, averaged nor chosen, and a round still waiting
// on a probe to a rank that died meanwhile is abandoned.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "gas/gid.hpp"

namespace px::core {

class runtime;

struct rebalancer_params {
  bool enabled = false;
  // Trigger: max ready depth / mean ready depth must exceed this...
  double threshold = 2.0;
  // ...and the deepest queue must hold at least this many ready threads
  // (rebalancing a near-idle machine is noise, not adaptation).
  std::uint32_t min_depth = 8;
  // Object migrations per rebalance round (the next round re-evaluates,
  // so correction is incremental rather than oscillatory).
  std::uint32_t max_migrations = 4;
  // Minimum spacing between rebalance rounds.  Distributed rounds cost
  // parcel round trips, so they run at interval_us * dist_interval_mult.
  std::uint64_t interval_us = 200;
  std::uint32_t dist_interval_mult = 16;
};

struct rebalancer_stats {
  std::uint64_t rounds = 0;             // imbalance evaluations
  std::uint64_t triggers = 0;           // rounds that exceeded threshold
  std::uint64_t objects_migrated = 0;
  std::uint64_t placement_redirects = 0;  // spawn_any steered off round-robin
  double last_imbalance = 0.0;          // most recent coefficient
};

class rebalancer {
 public:
  rebalancer(runtime& rt, rebalancer_params params);

  rebalancer(const rebalancer&) = delete;
  rebalancer& operator=(const rebalancer&) = delete;

  bool enabled() const noexcept { return params_.enabled; }
  const rebalancer_params& params() const noexcept { return params_; }

  // Evaluates imbalance and acts; rate-limited and self-serializing, so
  // safe (and cheap) to call from any thread on any idle pass.
  void poll() noexcept;

  // Placement choice for spawn_any-style calls: the span member with the
  // shallowest ready queue (ties broken round-robin by `rr`); plain
  // round-robin when disabled.
  gas::locality_id place(const std::vector<gas::locality_id>& span,
                         std::uint64_t rr);

  rebalancer_stats stats() const;

 private:
  // One round's stages (see the header comment).
  void observe();
  void count_down(std::uint32_t round);
  void abandon_lost_probes();
  void decide_and_act();
  void release_round_slot();

  runtime& rt_;
  rebalancer_params params_;

  std::atomic<std::int64_t> last_poll_ns_{0};

  // Last observed ready depth per locality (decide reads them; place()
  // reads the remote ranks' ones), the round latch, and the two countdowns
  // pacing a distributed round: outstanding probe replies, tagged with the
  // round number in the high 32 bits so a late reply of an abandoned round
  // cannot count down the next one, and the issued migrations (plus a
  // sentinel) holding the latch.  The depth-counter gids are resolved
  // lazily inside the first round and touched only under the latch, so
  // they need no lock.
  std::unique_ptr<std::atomic<std::uint64_t>[]> depths_;
  std::atomic<bool> have_samples_{false};
  std::atomic<bool> round_active_{false};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> probed_mask_{0};  // ranks probed this round
  std::atomic<std::uint32_t> round_slots_{0};
  std::vector<gas::gid> depth_counter_gids_;

  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> triggers_{0};
  std::atomic<std::uint64_t> migrated_{0};
  std::atomic<std::uint64_t> redirects_{0};
  std::atomic<std::uint64_t> last_imbalance_milli_{0};
};

}  // namespace px::core
