// Bootstrap: the control plane that turns N processes into one machine.
//
// Rank 0 listens on a well-known address (PX_NET_ROOT); every other rank
// dials in (with retries — the launcher starts processes in any order).
// The handshake carries each rank's locality id and data-plane endpoint;
// rank 0 replies with the full endpoint table plus its resolved runtime
// parameter blob, so every process runs the wire-relevant knobs (flush
// thresholds, forward bound, eager flush) with rank 0's values even if
// their environments disagree.  A barrier gates the first parcel: nobody
// sends until everybody's data listener is connected.
//
// The control connections stay open for the life of the runtime and carry
// two more collectives:
//   * barrier() — shutdown sequencing;
//   * quiesce_round() — one round of counting termination detection
//     (Mattern-style): each rank reports (locally-stable, activity
//     snapshot, parcels sent to remote ranks, parcels delivered from
//     remote ranks).  Rank 0 declares global quiescence when every rank is
//     locally stable, the machine-wide sent and delivered totals balance,
//     and the whole gathered vector is *identical to the previous round's*
//     — two matching observations bracket any in-flight or racing parcel
//     (its delivery would have moved a counter between the rounds).
//
// All calls are collective and blocking: every rank must make the same
// sequence of bootstrap calls, in the same order (exchange, then any mix
// of quiesce_round/barrier rounds, implicitly closed by destruction).
//
// Failure detection (docs/resilience.md): exchange() additionally opens a
// second, dedicated heartbeat connection per rank.  A background thread on
// every rank exchanges kTagHb records with rank 0 at heartbeat_interval_us;
// a rank whose heartbeats stop for lease_ms (or whose channel EOFs without
// an orderly goodbye) is declared dead.  By default any death is fatal:
// the observing process prints a diagnostic and exits nonzero within the
// lease — a partial machine must never hang.  A runtime that can survive
// rank loss arms survive mode with set_peer_down_handler(); from then on
// non-root deaths are broadcast by rank 0 (kTagPeerDown), collectives skip
// the casualty, and quiesce rounds carry each rank's dead mask so the
// verdict is only reached once every survivor has folded the loss into its
// books.  Rank 0's own death is always fatal to the others — it is the
// control plane.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace px::net {

struct bootstrap_params {
  std::uint32_t rank = 0;
  std::uint32_t nranks = 2;
  std::string root = "127.0.0.1:7733";  // rank 0's control listen address
  std::uint64_t connect_timeout_ms = 20'000;
  // Heartbeat cadence (PX_HEARTBEAT_INTERVAL_US) and the failure lease
  // (PX_LEASE_MS): a rank silent for lease_ms is declared dead.
  std::uint64_t heartbeat_interval_us = 100'000;
  std::uint64_t lease_ms = 10'000;
};

class bootstrap {
 public:
  explicit bootstrap(bootstrap_params params);
  ~bootstrap();

  bootstrap(const bootstrap&) = delete;
  bootstrap& operator=(const bootstrap&) = delete;

  struct exchange_result {
    std::vector<std::string> endpoints;  // data-plane address per rank
    std::vector<std::byte> params_blob;  // rank 0's runtime param blob
  };

  // The handshake collective.  `my_endpoint` is this rank's data-plane
  // listen address; `root_blob` is consulted on rank 0 only and broadcast
  // to everyone.
  exchange_result exchange(const std::string& my_endpoint,
                           std::span<const std::byte> root_blob);

  // `digest`, when nonzero, is additionally verified equal across all
  // ranks (root asserts otherwise) — used by the runtime's pre-traffic
  // barrier to prove every process registered the identical boot-time
  // schema (counter gids are positional; see registry::schema_digest).
  void barrier(std::uint64_t digest = 0);

  // One round of the termination protocol described above.  Returns true
  // on every rank when the machine is globally quiescent.  Under rank
  // loss the round runs over the *live* membership: dead ranks are
  // skipped, and each rank's report carries its local dead mask — the
  // verdict requires every live rank to agree on who is dead, so the
  // machine only quiesces once the casualty is folded in everywhere.
  // Callers must already subtract the casualty from their sent/delivered
  // totals (distributed_transport::live_units_sent/received).
  bool quiesce_round(bool locally_stable, std::uint64_t activity,
                     std::uint64_t parcels_sent_remote,
                     std::uint64_t parcels_delivered_remote);

  // ---------------------------------------------------------- resilience

  // Arms survive mode: `h` is invoked (from the heartbeat thread) once per
  // confirmed-dead peer rank.  Without a handler any rank loss is fatal —
  // diagnostic + _Exit(1) within the lease.  Rank 0's death is fatal
  // regardless: it is the control plane.
  void set_peer_down_handler(std::function<void(std::uint32_t)> h);

  // External death verdict (e.g. the data plane saw the peer's socket
  // reset, or a px.peer_down parcel arrived).  Idempotent; on rank 0 it
  // also broadcasts kTagPeerDown to the other survivors.
  void note_rank_dead(std::uint32_t rank);

  // Announce orderly shutdown: after this, peer heartbeat EOFs and lease
  // expiries are expected and ignored.  The runtime calls it after the
  // final shutdown barrier, before tearing the machine down.
  void expect_shutdown() noexcept;

  bool is_alive(std::uint32_t rank) const noexcept {
    return rank < params_.nranks &&
           ((dead_mask_.load(std::memory_order_acquire) >> rank) & 1u) == 0;
  }
  // Bit r set = rank r confirmed dead.
  std::uint64_t dead_mask() const noexcept {
    return dead_mask_.load(std::memory_order_acquire);
  }
  std::uint32_t live_ranks() const noexcept;

  // Clock-offset collective for the flight recorder (trace/): util::now_ns
  // is a *per-process* steady epoch, so per-rank trace timestamps are
  // mutually meaningless until normalized.  Each non-root rank ping-pongs
  // rank 0 a few times (NTP-style) and keeps the minimum-RTT sample's
  // offset; returns `off` such that `local_now_ns - off` is approximately
  // rank 0's clock.  Rank 0 returns 0.  Collective: every rank must call
  // it at the same point in the bootstrap sequence.
  std::int64_t clock_sync();

  std::uint32_t rank() const noexcept { return params_.rank; }
  std::uint32_t nranks() const noexcept { return params_.nranks; }

 private:
  // Blocking, length-prefixed control records: [u32 len][u8 tag][payload].
  void send_record(int fd, std::uint8_t tag,
                   std::span<const std::byte> payload);
  std::vector<std::byte> recv_record(int fd, std::uint8_t expect_tag);
  // Non-asserting variants for links that may legitimately die.
  bool try_send_record(int fd, std::uint8_t tag,
                       std::span<const std::byte> payload);
  std::optional<std::pair<std::uint8_t, std::vector<std::byte>>>
  try_recv_record_any(int fd);

  // Root: wait for `tag` from rank `r`, polling in lease-bounded slices so
  // a rank that dies mid-collective is skipped instead of hanging the
  // machine.  nullopt = the rank is (now) dead.
  std::optional<std::vector<std::byte>> recv_from_live(std::uint32_t r,
                                                       std::uint8_t tag);
  // Root -> rank send that converts a failure into a death verdict.
  void send_to_live(std::uint32_t r, std::uint8_t tag,
                    std::span<const std::byte> payload);

  // The one death funnel: first verdict per rank wins; fatal unless
  // survive mode is armed (and never survivable for rank 0).
  void death_verdict(std::uint32_t rank, const char* why);
  void require_survivable(std::uint32_t rank);
  [[noreturn]] void fail_fast(std::uint32_t rank, const char* why);
  void start_heartbeat();
  void hb_loop_root();
  void hb_loop_rank();

  bootstrap_params params_;
  int listen_fd_ = -1;            // rank 0 only
  std::vector<int> rank_fds_;     // rank 0: control socket per rank (0 = self)
  int root_fd_ = -1;              // other ranks: socket to rank 0
  std::vector<std::uint64_t> prev_gather_;  // rank 0: last round's vector
  // Rank 0: consecutive non-quiescent rounds of the current wait (reset
  // when a verdict lands) — what the stuck-round diagnostic counts.
  std::uint64_t stalled_rounds_ = 0;

  // Heartbeat channel (second connection per rank, opened in exchange()).
  int hb_fd_ = -1;                // non-root: hb socket to rank 0
  std::vector<int> hb_fds_;       // root: hb socket per rank (0 = self)
  std::thread hb_thread_;
  std::mutex hb_send_mutex_;      // hb sockets are written from two threads
  std::atomic<std::uint64_t> dead_mask_{0};
  std::atomic<std::uint64_t> goodbye_mask_{0};  // root: orderly goodbyes
  std::atomic<bool> closing_{false};
  std::mutex handler_mutex_;
  std::function<void(std::uint32_t)> on_peer_down_;  // set = survive mode
};

}  // namespace px::net
