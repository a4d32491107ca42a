// Simulated interconnect fabric.
//
// ParalleX localities and CSP baseline ranks live in one OS process; this
// fabric is the only path between them, and it imposes the physics of a real
// interconnect: per-message base latency, per-hop latency from a topology
// model, finite bandwidth, and optional jitter (which also yields reordering,
// a useful failure-injection mode for tests).
//
// Two delivery modes, chosen by the latency model alone.  When the model
// charges nothing (base, per-hop, bandwidth and jitter terms all zero — the
// default), send() delivers on the calling thread: there is no delay to
// impose, and a progress-thread hop would only add two thread handoffs to
// every round trip.  Otherwise a dedicated progress thread holds each message
// until its modeled due time, so a blocked receiver never stalls the sender —
// the split-phase, asynchronous transport the ParalleX model assumes.  Either
// way one endpoint's handler never runs concurrently with itself and sees its
// queue in order.  Handlers must be registered before traffic flows and must
// not block (they hand off to scheduler queues); a send made from inside a
// handler is queued and delivered after that handler returns, never
// recursively.
//
// Hot-path design: the send queue is sharded per destination endpoint, so
// concurrent senders to different endpoints never contend on one global
// mutex (the per-endpoint books in the transport base are atomics, the
// latency histogram is internally locked, and jitter RNG state is per
// shard).  Message payloads are drawn from a buffer pool and recycled after
// the receive handler returns — handlers take `message&` and decode in
// place (or steal the payload, which simply costs the pool a miss).  A message may carry several coalesced
// parcels: `units` is the logical parcel count, and the quiescence-facing
// counters (messages_sent_total, in_flight) account in parcels, not frames,
// while the latency model charges the full frame's bytes to the wire.  The
// traffic books themselves (stats(), messages_sent_total()) live in the
// transport base; the fabric only reports each frame to them, on send and
// on delivery.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "util/buffer_pool.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace px::net {

enum class topology_kind {
  crossbar,  // 1 hop between any pair
  mesh2d,    // sqrt(N) x sqrt(N) mesh, Manhattan hops
  vortex,    // Data-Vortex-style low-diameter fabric: ~log2(N) hops
};

const char* to_string(topology_kind k) noexcept;

// Hop count between endpoints under a topology; exposed for tests and for
// the Gilgamesh network model, which reuses the same geometry.
std::uint32_t topology_hops(topology_kind k, std::size_t endpoints,
                            endpoint_id a, endpoint_id b) noexcept;

struct fabric_params {
  std::size_t endpoints = 2;
  std::uint64_t base_latency_ns = 0;  // fixed wire+injection cost
  std::uint64_t per_hop_ns = 0;       // router traversal cost
  double bytes_per_ns = 0.0;          // 0 => infinite bandwidth
  std::uint64_t jitter_ns = 0;        // uniform [0, jitter) added per message
  topology_kind topology = topology_kind::crossbar;
  std::uint64_t seed = 42;
};

class fabric final : public transport {
 public:
  explicit fabric(fabric_params params);
  ~fabric() override;

  fabric(const fabric&) = delete;
  fabric& operator=(const fabric&) = delete;

  // Registration is not thread-safe and must complete before the first
  // send(); both are asserted.
  void set_handler(endpoint_id ep, handler h) override;

  // Optional backstop invoked by the progress thread every ~200us while it
  // idles, and also whenever its queues run dry under a latency model: the
  // runtime uses it to flush outbound coalescing buffers even if every
  // scheduler worker is pinned busy.  Must be set before traffic starts;
  // runs on the progress thread.
  void set_idle_callback(std::function<void()> cb) override;

  // Computes the delivery deadline from the latency model and enqueues; at
  // zero modeled latency it then delivers the destination's queue on this
  // thread, unless another thread already is (that one delivers m too).
  // Thread-safe; never waits for the receiver.  Asserts source/dest range.
  void send(message m) override;

  // Model-predicted one-way latency for a payload of `bytes` between a and
  // b, excluding jitter.  Benches use this to report the modeled physics.
  std::uint64_t model_latency_ns(endpoint_id a, endpoint_id b,
                                 std::size_t bytes) const noexcept;

  // Parcels (units) currently queued or in a handler.
  std::uint64_t in_flight() const noexcept override {
    return in_flight_.load(std::memory_order_acquire);
  }

  // Blocks until every message sent so far has been handed to its handler
  // and the handler returned.
  void drain() override;

  // Recycled payload buffers; senders acquire here so the steady state
  // allocates nothing per message.
  util::buffer_pool& pool() noexcept override { return pool_; }

  const fabric_params& params() const noexcept { return params_; }
  // True when the latency model charges nothing, so send() delivers on the
  // calling thread instead of through the progress thread.
  bool delivers_inline() const noexcept { return inline_; }
  std::size_t endpoints() const noexcept override {
    return params_.endpoints;
  }
  const char* backend_name() const noexcept override { return "sim"; }
  // Distribution of modeled in-flight delays (ns), one sample per parcel.
  util::log_histogram latency_histogram() const;

 private:
  struct timed_message {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;
    message msg;
  };
  struct later {
    bool operator()(const timed_message& a, const timed_message& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };
  // One shard per destination endpoint: senders to different endpoints
  // touch disjoint locks.  Delivery order is preserved within a shard;
  // across shards only due-time order is honored (as jitter reorders
  // anyway, no cross-endpoint ordering is promised).
  //
  // At zero latency `draining` is the shard's delivery token: after its
  // push a sender claims it with an exchange and delivers until the queue
  // is empty, releasing it under `m` in the same critical section that saw
  // the queue empty.  A racing push therefore either lands before that
  // check (and is delivered) or its pusher's claim, made after the push,
  // finds the token free — no message is left undelivered.
  struct send_shard {
    std::mutex m;
    std::priority_queue<timed_message, std::vector<timed_message>, later> q;
    util::xoshiro256 rng{0};
    std::atomic<bool> draining{false};
  };

  void progress_loop();
  void wake_progress();
  // Zero-latency path: delivers shard `ep` on this thread, then every shard
  // its handlers sent to, unless another thread holds the shard's token.
  void deliver_inline(endpoint_id ep);
  void drain_shard(endpoint_id ep);
  // Hands m to its handler, recycles the payload, and retires its units.
  // noexcept: a throwing handler terminates, as on the progress thread.
  void deliver(message& m) noexcept;

  fabric_params params_;
  const bool inline_;
  std::vector<handler> handlers_;
  std::function<void()> idle_cb_;
  std::vector<std::unique_ptr<send_shard>> shards_;

  util::log_histogram latency_hist_;  // internally locked

  util::buffer_pool pool_;

  // Progress-thread sleep/wake handshake (timed mode only: at zero latency
  // the progress thread just runs the idle callback every tick).  Senders
  // push to a shard, then seq_cst-store dirty_ and check sleeping_; the
  // progress thread seq_cst-stores sleeping_ before re-evaluating dirty_
  // under progress_mutex_.  One side always observes the other (Dekker),
  // and every wait is timed as defence in depth.
  std::mutex progress_mutex_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  bool stopping_ = false;  // guarded by progress_mutex_
  std::atomic<bool> dirty_{false};
  std::atomic<bool> sleeping_{false};
  std::atomic<bool> traffic_started_{false};

  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::thread progress_;
};

}  // namespace px::net
