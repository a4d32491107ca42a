// The ParalleX runtime: localities + AGAS + parcel transport + lifecycle.
//
// One runtime models a whole machine: K localities (each a scheduler
// domain) connected by a parcel transport.  The runtime owns the global
// services — AGAS directory, symbolic name service, echo manager,
// percolation staging — and the system-wide quiescence protocol used for
// clean shutdown.
//
// Two deployment shapes share this class (PX_NET_BACKEND / net_params):
//
//   * single-process (default): every locality lives here, connected by
//     the latency-modelled net::fabric — the shape every pre-PR-4 test,
//     bench, and example runs in, unchanged;
//   * distributed ("tcp" or "shm"): the machine spans N processes
//     ("ranks"), one locality per process, connected by net::tcp_transport
//     over real sockets or net::shm_transport over same-host mapped rings,
//     with a net::bootstrap control plane.  localities_ is sparse
//     (only this rank's slot is populated; at() on a remote id asserts),
//     the AGAS directory shard for a gid lives in its *home rank's*
//     process, and parcels routed on stale knowledge heal through bounded
//     home forwarding with piggybacked owner hints (gas/resolve.hpp).
//     Closure-carrying calls (the untyped process::spawn) remain
//     local-only — closures cannot cross a process boundary; typed actions
//     (process::spawn_on<Fn>, process_ref,
//     litlx::atomic_object::atomically<Fn>) are the cross-process
//     vocabulary, with per-rank Dijkstra–Scholten credit splitting
//     (core/process_site.hpp) so remote children spawn tracked
//     grandchildren without a primary round trip.  wait_quiescent extends
//     the local fixed point with a counting termination-detection
//     collective over the bootstrap.  Boot-time gid allocation (locality
//     gids, counter gids) replays identically in every process, so those
//     names are machine-wide valid without any directory traffic.
//
// Objects migrate in both shapes through one primitive, migrate_gid_async
// (core/migrate.cpp): a shared_ptr handoff in-process; across processes a
// registered-migratable object's state (parcel::migration_record) ships
// to the destination, which implants it, flips the home directory, and
// acks before the source retires its copy.  migrate_gid and the
// rebalancer (core/rebalancer.hpp) both go through it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/locality.hpp"
#include "core/parcel_port.hpp"
#include "core/process_site.hpp"
#include "core/rebalancer.hpp"
#include "gas/agas.hpp"
#include "gas/name_service.hpp"
#include "introspect/monitor.hpp"
#include "introspect/registry.hpp"
#include "introspect/stats.hpp"
#include "net/fabric.hpp"
#include "net/transport.hpp"
#include "parcel/action_registry.hpp"
#include "parcel/migration.hpp"
#include "parcel/parcel.hpp"

namespace px::net {
class bootstrap;
}  // namespace px::net

namespace px::util {
class fault_injector;
}  // namespace px::util

namespace px::core {

class echo_manager;
class percolation_manager;

struct runtime_params {
  std::size_t localities = 4;
  unsigned workers_per_locality = 1;
  std::size_t stack_bytes = 64 * 1024;
  unsigned staging_slots_per_locality = 16;  // percolation staging depth
  // Transport backend + distributed identity; with a distributed backend
  // `localities` is overwritten with the rank count and this process hosts
  // exactly the locality numbered by its rank.
  net::net_params net{};
  // Fabric physics (sim backend only); `endpoints` is overwritten with
  // `localities`.
  net::fabric_params fabric{};
  std::uint64_t seed = 7;
  // Knobs.  Each optional field is a row of the knob table
  // (core/knobs.cpp), which holds its environment variable, default, and
  // scope; an unset field resolves from there, an explicit value wins.
  std::optional<std::size_t> parcel_flush_bytes{};
  std::optional<std::uint32_t> parcel_flush_count{};  // 1: no coalescing
  // Stale-cache forwarding hop bound, clamped to 254 (the u8 forwards
  // counter must be able to exceed it).
  std::optional<std::uint8_t> max_forwards{};
  std::optional<bool> parcel_eager_flush{};
  std::optional<bool> rebalance{};  // core/rebalancer.hpp
  std::optional<double> rebalance_threshold{};
  std::optional<std::uint32_t> rebalance_min_depth{};
  std::optional<std::uint32_t> rebalance_max_migrations{};
  std::optional<std::uint64_t> rebalance_interval_us{};
  std::optional<bool> trace{};  // flight recorder, docs/tracing.md
  std::optional<std::string> trace_dir{};
  std::optional<bool> stats{};  // telemetry plane, docs/metrics.md
  std::optional<std::uint64_t> stats_interval_us{};
  std::optional<std::string> stats_dir{};
};

class runtime {
 public:
  explicit runtime(runtime_params params = {});
  ~runtime();

  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  void start();
  void stop();
  bool started() const noexcept { return started_; }

  std::size_t num_localities() const noexcept { return localities_.size(); }
  // In distributed mode only this process's rank is addressable; asking
  // for a remote locality asserts (reach it with parcels instead).
  locality& at(gas::locality_id id);
  const runtime_params& params() const noexcept { return params_; }

  // Distributed identity: rank() == 0 and distributed() == false in the
  // single-process shape, so callers can be written once for both.
  bool distributed() const noexcept { return distributed_; }
  gas::locality_id rank() const noexcept { return rank_; }
  // The locality this process hosts (rank in distributed mode, 0 here).
  locality& here() { return at(rank_); }
  // Whether cross-process object migration (and the owner-hint forwarding
  // protocol that serves it) is live.  Always false single-process —
  // in-process migration needs no wire protocol; PX_MIGRATION=0 restores
  // static home-owned placement on the tcp and shm backends.
  bool migration_enabled() const noexcept { return migration_enabled_; }

  gas::agas& gas() noexcept { return agas_; }
  gas::name_service& names() noexcept { return names_; }
  // The distributed backend's resilience ledger (per-peer unit books,
  // dead-peer mask, lost-unit totals); nullptr under the sim backend.
  net::distributed_transport* dist() noexcept { return dist_.get(); }
  // The wire, backend-agnostic; and the simulated fabric specifically
  // (latency model, histogram — asserts under a distributed backend).
  net::transport& transport() noexcept { return *transport_; }
  net::fabric& fabric();
  parcel_port& port(gas::locality_id id) { return *ports_.at(id); }
  echo_manager& echo_mgr() noexcept { return *echo_; }
  percolation_manager& percolation_mgr() noexcept { return *percolation_; }

  // Introspection: the counter registry (every counter is gid-addressable
  // and path-named; see introspect/registry.hpp), the per-locality load
  // monitors, and the adaptive rebalancer acting on them.
  introspect::registry& introspection() noexcept { return introspect_; }
  introspect::monitor& monitor_at(gas::locality_id id) {
    return *monitors_.at(id);
  }
  rebalancer& balancer() noexcept { return *balancer_; }

  // The typed hardware gid naming locality `id` (paper: hardware resources
  // are first-class named entities).
  gas::gid locality_gid(gas::locality_id id) const;

  // Routes a parcel from locality `from` toward its destination's current
  // owner.  Local destinations dispatch without touching the fabric;
  // remote destinations coalesce through `from`'s parcel port.  Parcels
  // past the max_forwards hop bound are dropped with a diagnostic.
  void route(gas::locality_id from, parcel::parcel p);

  // Owner locality for a destination gid as seen from `from` (LCO/hardware
  // gids never migrate: owner == home).
  gas::locality_id owner_of(gas::locality_id from, gas::gid id);

  // Blocks until every scheduler is quiescent and the transport is drained
  // — i.e. no thread, parcel, or pending wakeup exists anywhere.
  // Internally loops until a pass over all counters is bracketed by two
  // identical activity snapshots (see activity_snapshot), which makes the
  // check race-free against threads that hand off work and terminate
  // mid-pass.  Distributed mode extends the local fixed point with a
  // counting termination-detection collective (bootstrap::quiesce_round):
  // ALL ranks must call wait_quiescent (directly or via run()/stop()) the
  // same number of times — it is a collective operation.
  void wait_quiescent();

  // Drains this rank's trace rings into px_trace.<rank>.bin (no-op with
  // tracing off), with the counter movement since boot as the shard
  // trailer.  stop() calls it after quiescence; the px.trace_dump action
  // triggers it mid-run (rings drain destructively, so a later dump
  // carries only events since).
  void dump_trace();

  // Takes a fresh sampling tick and writes this rank's series shard to
  // PX_STATS_DIR/px_stats.<rank>.jsonl (no-op with PX_STATS off).  stop()
  // calls it after quiescence; the px.stats_dump action triggers it
  // mid-run (series are non-destructive, so a later dump supersedes an
  // earlier one with a longer window).
  void dump_stats();

  // This rank's full jsonl shard (with a fresh tick), as shipped by the
  // px.stats_pull action so rank 0 can gather the machine without touching
  // remote filesystems.  Empty with PX_STATS off.
  std::string stats_serialize();

  // The telemetry collector (introspect/stats.hpp): series windows, rates,
  // tick/drop totals.  Valid whether or not PX_STATS armed it.
  introspect::stats_collector& telemetry() noexcept { return *stats_; }

  // This rank's steady-clock offset from rank 0, sampled over the
  // bootstrap when tracing or stats are on (0 when sim, rank 0, or both
  // planes off).  local_now - offset ≈ rank-0 clock.
  std::int64_t clock_offset_ns() const noexcept { return clock_offset_ns_; }

  // Per-rank Dijkstra–Scholten credit ledgers for distributed process
  // trees (core/process_site.hpp; used by process_ref and the typed child
  // wrappers in core/process.hpp).
  process_site_table& process_sites() noexcept { return psites_; }

  // Convenience driver: start if needed, run `root`, wait for global
  // quiescence.  Single-process: `root` runs once, on locality 0.
  // Distributed: every rank runs its own `root` on its own locality (SPMD
  // — branch on rank() inside), and the quiescence wait is the collective.
  void run(std::function<void()> root);

  // ------------------------------------------------- global object API

  // Constructs a T at locality `where`, binds a fresh data gid.
  template <typename T, typename... Args>
  gas::gid new_object(gas::locality_id where, Args&&... args) {
    auto obj = std::make_shared<T>(std::forward<Args>(args)...);
    const gas::gid id = agas_.allocate(gas::gid_kind::data, where);
    agas_.bind(id, where);
    at(where).put_object(id, std::move(obj));
    return id;
  }

  // Local pointer to an object owned by locality `where`; nullptr when the
  // object is not (or no longer) there.
  template <typename T>
  std::shared_ptr<T> get_local(gas::locality_id where, gas::gid id) {
    return std::static_pointer_cast<T>(at(where).get_object(id));
  }

  // Like new_object, but tags the gid with T's registered migratable type
  // (PX_REGISTER_MIGRATABLE), making it eligible for *cross-process*
  // migration (migrate_gid / the distributed rebalancer).  Untagged
  // objects still migrate freely in-process.
  template <typename T, typename... Args>
  gas::gid new_migratable(gas::locality_id where, Args&&... args) {
    const gas::gid id = new_object<T>(where, std::forward<Args>(args)...);
    tag_migratable_object(id, parcel::migratable_type<T>::name());
    return id;
  }

  // Moves object `id` to rank/locality `to` through migrate_gid_async.
  // Single-process it moves the object from its current owner and may be
  // called from any thread.  Distributed it moves the object off this rank
  // and blocks on the handoff ack, so it must run on a ParalleX thread.
  // True when the object already lives at `to`; false when
  // migrate_gid_async refuses the move.
  //
  // Coherence caveat (documented, not checked): between implant and
  // retire both ranks hold a copy and each dispatches the parcels that
  // land on it, so an object whose *state* is mutated by actions should be
  // quiescent while it migrates.  Delivery stays exactly-once per parcel
  // throughout.
  bool migrate_gid(gas::gid id, gas::locality_id to);

  // The one object-migration primitive: moves `id` from locality `from` to
  // `to` — implant, then directory flip, then erase, so a racing parcel
  // always finds the object — holding the gid's claim throughout.
  // Single-process it hands the shared_ptr over, only while the directory
  // still names `from` the owner (a stale heat entry must not yank an
  // object off the locality it moved to), and calls `done(true)` before it
  // returns.  Distributed `from` must be this rank: it ships a
  // migratable-tagged object in a px.migrate_object parcel and never
  // blocks (the rebalancer acts from the transport progress thread);
  // `done(true)` fires once on the delivery thread after the ack retires
  // the source copy.  Returns false, never calling `done`, when not
  // data-kind, `from == to`, `to` out of range or lost, the object not at
  // `from`, untagged (distributed), or already mid-migration.
  bool migrate_gid_async(gas::gid id, gas::locality_id from,
                         gas::locality_id to, std::function<void(bool)> done);

  // Records/queries the migratable type name a gid was created under
  // (new_migratable tags at creation; cross-process implants re-tag at the
  // destination so onward migrations keep working).
  void tag_migratable_object(gas::gid id, std::string type_name);
  std::optional<std::string> migration_type_of(gas::gid id) const;

  // Up to `max` migratable-tagged gids currently resident at locality
  // `where` (hosted by this process).  The rebalancer's fallback candidate
  // source: a latency-bound backlog delivers too rarely for the 1-in-8
  // heat sampler to name the hot objects, and on a deeply imbalanced
  // locality shedding *any* resident beats shedding nothing.
  std::vector<gas::gid> migratable_residents(gas::locality_id where,
                                             std::size_t max) const;

  // Internal: the receiving side of px.migrate_object (implant + directory
  // flip), and the home side of the directory update (core/migrate.cpp).
  std::uint8_t migrate_implant(const parcel::migration_record& rec);
  std::uint8_t apply_agas_update(gas::gid id, gas::locality_id new_owner);

  // ----------------------------------------------------------- resilience
  //
  // Surviving rank loss (docs/resilience.md).  Deaths funnel through
  // note_peer_failure from every detector — the bootstrap lease expiry,
  // the transport's own link-death accounting, and px.peer_down parcels
  // from peers that saw it first.  The first observation per casualty
  // folds the loss into the transport books, tells the control plane
  // (rank 0 re-broadcasts), re-homes the directory, and gossips
  // px.peer_down to the other survivors; later observations are no-ops.

  // Idempotent external death verdict for `rank`.  Thread-safe; callable
  // from the heartbeat thread, the transport progress thread, and parcel
  // handlers alike.
  void note_peer_failure(gas::locality_id rank);

  // The live authority for gids homed at `id.home()`: the home itself
  // while it lives, else the deterministic successor — the next live rank
  // scanning upward mod nranks, so every survivor elects the same one
  // with no coordination.
  gas::locality_id effective_home(gas::gid id) const noexcept;

  // Confirmed-dead peer ranks as a bitmask (bit r = rank r lost), whether
  // any loss has been confirmed at all, and whether rank `r` is lost.
  std::uint64_t lost_peer_mask() const noexcept {
    return peer_dead_mask_.load(std::memory_order_acquire);
  }
  bool has_lost_peers() const noexcept { return lost_peer_mask() != 0; }
  bool peer_lost(gas::locality_id r) const noexcept {
    return r < 64 && ((lost_peer_mask() >> r) & 1u) != 0;
  }

  // Objects whose gid can no longer resolve because they died with a lost
  // rank: unique-gid count (the runtime/agas/gids_lost counter), and the
  // recording hook the route/arrival paths call per affected gid.
  std::uint64_t gids_lost() const noexcept {
    return gids_lost_.load(std::memory_order_relaxed);
  }
  void note_lost_gid(gas::gid id);

 private:
  friend class locality;

  void deliver_from_fabric(net::message& m);
  void register_counters();
  std::uint64_t activity_snapshot() const;
  // One pass of the local quiescence fixed point; true when stable.
  bool local_quiescent_pass();
  // Rank-loss repair steps (called once per casualty by note_peer_failure):
  // purge hints at the casualty, drop directory entries for objects that
  // died with it, re-register resident remotely-homed gids at the
  // successor; then gossip px.peer_down to the remaining survivors.
  void rehome_gids_after_loss(gas::locality_id dead);
  void broadcast_peer_down(gas::locality_id dead);
  // Migration wire sends (runtime.cpp, beside the action registrations,
  // which are positional and must keep their order): the px.migrate_object
  // handoff to `to`, and a px.agas_update naming this rank the owner of
  // `id` at its directory home.
  void send_migration(gas::locality_id to, const parcel::migration_record& rec,
                      parcel::continuation ack);
  void send_agas_update(gas::locality_id home, gas::gid id,
                        parcel::continuation cont = {});
  // The per-gid migration claim (migrating_): false when the gid is
  // already mid-move.
  bool claim_migration(gas::gid id);
  void release_migration(gas::gid id);

  runtime_params params_;
  gas::agas agas_;
  gas::name_service names_;
  introspect::registry introspect_;
  // Declaration order is load-bearing for destruction: the transport must
  // die first (its progress thread's handlers and idle callback reference
  // the localities, ports, monitors, and rebalancer), so fabric_/dist_ are
  // declared last of this group; the bootstrap (plain sockets, no
  // callbacks) may outlive the transport.
  std::vector<std::unique_ptr<locality>> localities_;  // sparse when distributed
  std::vector<std::unique_ptr<parcel_port>> ports_;  // one per local locality
  std::vector<std::unique_ptr<introspect::monitor>> monitors_;
  std::unique_ptr<rebalancer> balancer_;
  std::unique_ptr<net::bootstrap> bootstrap_;  // distributed control plane
  // PX_FAULT injector, armed on dist_'s send seam; declared before the
  // transport so the progress thread never outlives it.
  std::unique_ptr<util::fault_injector> fault_;
  std::unique_ptr<net::fabric> fabric_;        // sim backend
  std::unique_ptr<net::distributed_transport> dist_;  // tcp or shm backend
  net::transport* transport_ = nullptr;        // whichever backend is live
  // After the transports: the collector's sampler thread reads counter
  // callbacks that reference them, so it must be destroyed (joined) first.
  std::unique_ptr<introspect::stats_collector> stats_;
  std::vector<gas::gid> locality_gids_;
  std::unique_ptr<echo_manager> echo_;
  std::unique_ptr<percolation_manager> percolation_;

  // Per-process credit ledgers for this rank (process_sites()).
  process_site_table psites_;

  // Migration bookkeeping: which gids carry a registered migratable type
  // (gid -> type name), and which are mid-move in either shape (a
  // cross-process handoff cannot hold a spinlock across its suspension
  // points, so in-flight gids are claimed in a set instead).
  mutable util::spinlock mig_types_lock_;
  std::unordered_map<gas::gid, std::string> mig_types_;
  util::spinlock migrating_lock_;
  std::unordered_set<gas::gid> migrating_;

  // Flight-recorder bookkeeping: the boot-time counter snapshot the dump
  // trailer deltas against, and this rank's steady-clock offset from rank
  // 0 (sampled over the bootstrap control plane; 0 when sim or rank 0).
  // The offset is shared by the trace and stats planes — both normalize
  // local timestamps onto rank 0's clock.
  std::vector<introspect::counter_sample> trace_boot_counters_;
  std::int64_t clock_offset_ns_ = 0;

  // Resilience bookkeeping: which peer ranks this process has confirmed
  // dead (the idempotence guard for note_peer_failure — one repair sweep
  // and one gossip round per casualty, no matter how many detectors fire),
  // and the unique gids reported lost with them.
  std::atomic<std::uint64_t> peer_dead_mask_{0};
  // Set once the inline repair sweep (directory re-homing, gossip) for a
  // casualty has finished; the transport's close fold is asynchronous and
  // tracked separately by dist_->folded_peer_mask().  wait_quiescent
  // gates local stability on *both* masks matching the bootstrap's dead
  // mask, so a quiescence verdict cannot land while a survivor's
  // directory still routes through the dead rank or its conservation
  // books are still settling.
  std::atomic<std::uint64_t> peer_swept_mask_{0};
  mutable util::spinlock lost_gids_lock_;
  std::unordered_set<gas::gid> lost_gids_;
  std::atomic<std::uint64_t> gids_lost_{0};

  bool migration_enabled_ = false;  // cross-process protocol (tcp, shm)
  bool distributed_ = false;
  gas::locality_id rank_ = 0;  // this process's locality (0 when sim)
  bool started_ = false;
};

}  // namespace px::core
