// Transport: the runtime's pluggable wire abstraction.
//
// PR 2 built the parcel pipeline against the simulated `net::fabric`; this
// interface is the seam that lets the same pipeline run over a real network.
// Everything above it — parcel ports, quiescence accounting, delivery into
// localities — talks only to `transport`, and a backend is chosen at runtime
// construction (PX_NET_BACKEND): the latency-modelled in-process fabric
// (default; every test and bench keeps its physics), the TCP backend in
// net/tcp_transport.hpp where each endpoint is a separate OS process, or the
// same-host shared-memory backend in net/shm_transport.hpp.
//
// Contract every backend must honor (the quiescence protocol depends on it):
//   * send() never blocks on the receiver and is thread-safe;
//   * send() reports each frame it accepts through count_sent() before the
//     frame becomes visible to any progress machinery — so
//     messages_sent_total(), which sums those books, counts *units*
//     (logical parcels) accepted by send(), whether or not they later
//     reach a wire (injected, dead-link and oversize drops included);
//   * the delivering side reports each frame through count_delivered()
//     just before handing it to the handler;
//   * in_flight() covers every unit accepted by send() that this process
//     still holds (queued or mid-delivery).  For the fabric that means
//     until the receive handler returned; for TCP it means until the last
//     byte reached the kernel; for shm it means until the peer's consumer
//     finished handling the frame — cross-process flight is additionally
//     tracked by the distributed quiescence counters (runtime::wait_quiescent);
//   * drain() blocks until in_flight() == 0;
//   * handlers run on the backend's delivering thread — its progress
//     thread, or, on the zero-latency sim fabric, the sending thread
//     itself — one at a time per endpoint, and must not block; the idle
//     callback runs on the progress thread and must not block for long;
//   * a handler may steal the payload; the backend then recycles nothing,
//     and the thief returns the buffer to pool() whenever it is done —
//     possibly later, from another thread (the runtime hands a
//     multi-parcel frame to a worker of the destination locality).  A
//     frame counts as delivered when the handler returns, whether or not
//     its payload was stolen: whatever the handler defers must already be
//     visible to the quiescence books (a spawned thread is).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/buffer_pool.hpp"
#include "util/cache.hpp"

namespace px::util {
class fault_injector;
}

namespace px::net {

using endpoint_id = std::uint32_t;

// Backend selection and distributed identity.  An unset field resolves
// through the knob table (core/knobs.cpp: PX_NET_*), the launcher's
// channel to its ranks; explicit values win.
struct net_params {
  std::optional<std::string> backend;     // "sim" | "tcp" | "shm"
  std::optional<std::int64_t> rank;       // this process's locality id
  std::optional<std::int64_t> ranks;      // total processes (tcp/shm)
  std::optional<std::string> listen;      // data-plane bind (tcp)
  std::optional<std::string> root;        // rank 0's control address
};

struct message {
  endpoint_id source = 0;
  endpoint_id dest = 0;
  std::uint64_t tag = 0;  // channel discriminator for the CSP baseline
  std::vector<std::byte> payload;
  std::uint32_t units = 1;  // logical parcels carried (1 for plain traffic)
};

// Per-endpoint traffic totals, published as runtime/loc<i>/net/* and
// /fabric/parcels_sent.  One definition on every backend: the sent side is
// what send() accepted, the received side what reached the handler.
struct endpoint_stats {
  std::uint64_t messages_sent = 0;   // frames accepted by send()
  std::uint64_t parcels_sent = 0;    // logical units (== messages unbatched)
  std::uint64_t messages_received = 0;  // frames handed to the handler
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

// A backend-specific counter row: registered as runtime/loc<i>/net/<name>
// only when that backend is active, keeping the schema honest (the fix for
// `reconnects` reading as an always-zero row under sim).  All ranks run
// the same backend, so positional gid allocation still replays identically
// machine-wide.
struct extra_link_counter {
  const char* name;
  std::uint64_t value;
};

class transport {
 public:
  // The payload is owned by the transport after send(): the receive-side
  // handler decodes in place or steals it, and whatever capacity is left is
  // recycled through pool() (a stolen payload is released there by the
  // thief, later, from any thread).
  using handler = std::function<void(message&)>;

  virtual ~transport();  // key function (transport.cpp)

  // Registration is not thread-safe and must complete before the first
  // send(); backends assert this.
  virtual void set_handler(endpoint_id ep, handler h) = 0;

  // Optional backstop invoked by the progress thread whenever its queues
  // run dry (bounded staleness, ~200us-1ms): the runtime uses it to flush
  // outbound coalescing buffers even if every scheduler worker is pinned
  // busy.  Must be set before traffic starts; runs on the progress thread.
  virtual void set_idle_callback(std::function<void()> cb) = 0;

  // Thread-safe; never blocks on the receiver.  Asserts endpoint ranges.
  virtual void send(message m) = 0;

  // Blocks until in_flight() == 0 (see the class comment for what a
  // backend counts as in flight).
  virtual void drain() = 0;

  virtual std::uint64_t in_flight() const noexcept = 0;

  // Monotonic count of units accepted by send(), summed over the endpoints
  // this process keeps books for; paired with scheduler::spawn_count() in
  // the quiescence activity snapshot.
  std::uint64_t messages_sent_total() const noexcept;

  // Recycled payload buffers; senders acquire here so the steady state
  // allocates nothing per message.
  virtual util::buffer_pool& pool() noexcept = 0;

  virtual std::size_t endpoints() const noexcept = 0;
  virtual const char* backend_name() const noexcept = 0;

  // Traffic totals of endpoint `ep`.  A multi-process backend keeps books
  // for its own rank only: asking for a remote rank's asserts (ask that
  // rank with a query_counter parcel instead).
  endpoint_stats stats(endpoint_id ep) const;

  // Backend-specific counter rows for endpoint `ep` (empty by default).
  // Names must be stable across the run; the runtime registers one
  // introspection counter per row at boot.
  virtual std::vector<extra_link_counter> extra_link_counters(
      endpoint_id ep) const {
    (void)ep;
    return {};
  }

 protected:
  // Keeps books for endpoints [first, first + count).  Call from the ctor.
  void init_books(endpoint_id first, std::size_t count);

  // The two counting sites every backend shares, one call per frame:
  // count_sent when send() accepts `m` (before it becomes visible to any
  // deliverer), count_delivered just before `m` reaches its handler.
  void count_sent(const message& m) noexcept;
  void count_delivered(const message& m) noexcept;

 private:
  // One cache line per endpoint: different endpoints' frames are counted
  // on different threads.
  struct alignas(util::cache_line_size) books {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> parcels_sent{0};
    std::atomic<std::uint64_t> messages_received{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> bytes_received{0};
  };
  books& books_of(endpoint_id ep) const;

  std::unique_ptr<books[]> books_;
  endpoint_id first_booked_ = 0;
  std::size_t booked_ = 0;
};

// Whole-frame delivery seam.  A byte-stream backend (TCP) hands the receive
// path arbitrary fragments and needs parcel::frame_assembler to cut frames
// back out; a message-oriented backend (shm rings today, an ibverbs/
// libfabric RECV completion tomorrow) delivers complete frames and skips
// reassembly entirely, validating each frame through this gate instead:
// the frame_assembler bypass must not also bypass its safety properties.
// accept() runs the same checks the assembler applies to a cut frame —
// bounded size, then a full frame_view::parse walk (magic, count, every
// record length, every parcel header) — and returns the frame's record
// count on success.  Any rejection poisons the ingest permanently (the
// assembler's poison-don't-resync stance: a corrupt shared-memory ring has
// no trustworthy next message), and the owner must tear the link down.
class whole_frame_ingest {
 public:
  explicit whole_frame_ingest(std::size_t max_frame_bytes = 64u << 20)
      : max_frame_bytes_(max_frame_bytes) {}

  // Returns the validated frame's record count, or nullopt (poisoning the
  // ingest) if the frame is oversize or fails frame_view::parse.
  std::optional<std::uint32_t> accept(std::span<const std::byte> frame);

  bool poisoned() const noexcept { return poisoned_; }

 private:
  std::size_t max_frame_bytes_;
  bool poisoned_ = false;
};

// Contract extensions shared by every multi-process backend (tcp, shm, a
// future RDMA transport) and consumed by the runtime's distributed boot
// and quiescence machinery.  The fabric is not one of these — it models a
// whole machine in one process.
//
// The base class owns the *peer ledger*: per-peer unit books (sent to /
// received from / dropped toward each rank), the orderly-vs-unexpected
// disconnect accounting, and the `mark_peer_dead` seam every death source
// funnels through — a tcp EOF mid-run, the shm pid probe or closed flag,
// and the bootstrap lease expiry all land in the same books, so both
// backends report rank loss identically (docs/resilience.md).  The
// process-wide unit totals (parcels_received_total, parcels_dropped_total)
// are sums over that ledger, not separate counters.  A backend's job is
// reduced to (a) calling account_sent/account_delivered/account_dropped
// beside count_sent/count_delivered, (b) routing every peer-close through
// note_peer_closed, and (c) implementing close_link() so an external death
// verdict tears the link down and folds its outstanding units into the
// dropped books.
class distributed_transport : public transport {
 public:
  ~distributed_transport() override;  // key function (transport.cpp)

  // The string peers need to reach this endpoint, exchanged (opaquely)
  // through the bootstrap hello/reply: "host:port" for tcp, the shm
  // segment-name token for shm.
  virtual std::string listen_address() const = 0;

  // Establishes the full pairwise mesh from the bootstrap-exchanged
  // endpoint table (index == rank) and starts the progress thread.
  virtual void connect_peers(const std::vector<std::string>& table) = 0;

  // Units fully delivered to this process's handler / units this process
  // accepted but dropped (injected fault, dead link, oversize): inputs to
  // the machine-wide parcel conservation identity in
  // runtime::wait_quiescent, which subtracts the dropped units from the
  // sent total (a dropped parcel is delivered nowhere; left in, it would
  // make sent == delivered unsatisfiable).  Sums over the per-peer ledger
  // below.
  std::uint64_t parcels_received_total() const noexcept;
  std::uint64_t parcels_dropped_total() const noexcept;

  // Arms orderly-shutdown mode: subsequent peer EOFs/closures are expected
  // teardown, not anomalies worth a warning.  Both backends consult this
  // shared flag (it used to be consulted only on the tcp EOF path).
  void expect_peer_disconnects() noexcept { closing_.store(true); }
  bool disconnects_expected() const noexcept { return closing_.load(); }

  // ---- resilience seam -------------------------------------------------

  // External death verdict (bootstrap lease expiry, px.peer_down from a
  // peer): tear down the link to `rank` and fold its outstanding units
  // into the conservation books.  Idempotent; thread-safe; the actual
  // close runs on the backend's progress thread.
  void mark_peer_dead(std::size_t rank) noexcept;

  // Called once per confirmed-dead peer, after the link is closed and the
  // books folded.  Runs on the backend's progress thread; must not block.
  // Must be installed before connect_peers().
  void set_peer_death_handler(std::function<void(std::size_t)> h) {
    on_peer_death_ = std::move(h);
  }

  // Arms deterministic fault injection (PX_FAULT) on the send path; null
  // (the default) costs one pointer test per send.  Install before
  // connect_peers().
  void arm_faults(util::fault_injector* f) noexcept { fault_ = f; }

  bool peer_confirmed_dead(std::size_t rank) const noexcept {
    return (dead_mask_.load() >> rank) & 1u;
  }
  std::uint64_t dead_peer_mask() const noexcept { return dead_mask_.load(); }
  // Peers whose close fold has fully retired: link closed, lost-unit
  // figure frozen, peer_failed counted.  Distinct from dead_peer_mask(),
  // whose bit is the fold's *entry* guard and is visible before the books
  // settle; readers that need final books (the quiesce swept gate,
  // conservation checks) must gate on this mask instead.
  std::uint64_t folded_peer_mask() const noexcept {
    return folded_mask_.load(std::memory_order_acquire);
  }
  std::uint64_t peers_failed_total() const noexcept {
    return peers_failed_.load();
  }
  // Units this endpoint put on the wire toward now-dead peers whose fate
  // is unknown (the casualty may or may not have handled them before
  // dying): the lost_to_casualty term of the conservation identity.
  std::uint64_t parcels_lost_total() const noexcept {
    return parcels_lost_.load();
  }
  std::uint64_t orderly_disconnects() const noexcept {
    return orderly_disconnects_.load();
  }
  std::uint64_t unexpected_disconnects() const noexcept {
    return unexpected_disconnects_.load();
  }

  // Per-peer unit books (index == rank; the self row stays zero).
  std::uint64_t units_sent_to(std::size_t rank) const noexcept;
  std::uint64_t units_received_from(std::size_t rank) const noexcept;
  std::uint64_t units_dropped_to(std::size_t rank) const noexcept;

  // The reduced-membership quiescence ledger: units on the wire toward /
  // received from peers *not* in `dead_mask` — the casualty's column
  // drops out of both sides, so Mattern rounds converge minus the
  // casualty (runtime::wait_quiescent).
  std::uint64_t live_units_sent(std::uint64_t dead_mask) const noexcept;
  std::uint64_t live_units_received(std::uint64_t dead_mask) const noexcept;

 protected:
  // Backend obligation for mark_peer_dead: request an asynchronous close
  // of the link to `rank` on the progress thread (close + fold outstanding
  // units + note_peer_closed), exactly like a locally-detected death.
  virtual void close_link(std::size_t rank) = 0;

  // Sized nranks; `self` reserved (never accounted) and the only endpoint
  // whose traffic books this process keeps.  Call from the ctor.
  void init_peer_books(std::size_t nranks, std::size_t self);

  // extra_link_counters() body for backend `ep` (asserted to be this rank):
  // the backend's own rows, then the resilience rows every multi-process
  // backend shares (peer_failed, parcels_lost).
  std::vector<extra_link_counter> link_rows(
      endpoint_id ep, std::initializer_list<extra_link_counter> own) const;

  void account_sent(std::size_t rank, std::uint64_t units) noexcept;
  void account_delivered(std::size_t rank, std::uint64_t units) noexcept;
  void account_dropped(std::size_t rank, std::uint64_t units) noexcept;

  // Fault-injection hook for the send path: returns how many of `units`
  // the backend must silently drop (0 when disarmed); may not return at
  // all (a `kill` action SIGKILLs the process mid-call).
  std::uint64_t fault_drop_units(std::size_t rank,
                                 std::uint64_t units) noexcept;

  // Shared disconnect bookkeeping — every peer-close path funnels here,
  // after the backend folded the link's outstanding units into its
  // dropped books.  An unexpected close marks the peer dead, freezes the
  // lost-units figure, and fires the death handler; an orderly close only
  // counts.  Call with no backend locks held.
  void note_peer_closed(std::size_t rank, bool orderly);

 private:
  std::atomic<bool> closing_{false};
  std::atomic<std::uint64_t> dead_mask_{0};
  std::atomic<std::uint64_t> folded_mask_{0};
  std::atomic<std::uint64_t> peers_failed_{0};
  std::atomic<std::uint64_t> parcels_lost_{0};
  std::atomic<std::uint64_t> orderly_disconnects_{0};
  std::atomic<std::uint64_t> unexpected_disconnects_{0};
  std::vector<std::atomic<std::uint64_t>> units_to_;
  std::vector<std::atomic<std::uint64_t>> units_from_;
  std::vector<std::atomic<std::uint64_t>> dropped_to_;
  std::size_t self_rank_ = 0;
  std::function<void(std::size_t)> on_peer_death_;
  util::fault_injector* fault_ = nullptr;
};

// Parses "host:port" (the PX_NET_LISTEN / PX_NET_ROOT syntax); asserts on
// malformed input.
std::pair<std::string, std::uint16_t> split_host_port(const std::string& s);

}  // namespace px::net
