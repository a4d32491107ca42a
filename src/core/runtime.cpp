#include "core/runtime.hpp"

#include <mutex>
#include <string>
#include <tuple>

#include "core/action.hpp"
#include "core/echo.hpp"
#include "core/knobs.hpp"
#include "core/percolation.hpp"
#include "introspect/query.hpp"
#include "lco/lco.hpp"
#include "net/bootstrap.hpp"
#include "net/shm_transport.hpp"
#include "net/tcp_transport.hpp"
#include "patterns/counters.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace px::core {

// Built-in continuation target: fire a single-shot LCO sink.  Runs on the
// delivering thread by design (the transport's progress thread, or the
// sender's own thread on the zero-latency sim fabric) — firing a future is
// enqueue-only work and skipping the thread spawn keeps continuation
// latency minimal.
// Registered as a raw function pointer (non-allocating dispatch); the sink
// closure may outlive the wire frame, so the parcel is materialized here.
parcel::action_id sink_action_id() {
  static const parcel::action_id id =
      parcel::action_registry::global().register_action(
          "px.sink", +[](void* ctx, const parcel::parcel_view& pv) {
            auto* loc = static_cast<locality*>(ctx);
            const bool fired =
                loc->fire_sink(pv.destination(), pv.to_parcel());
            PX_ASSERT_MSG(fired, "continuation parcel for unknown sink");
          });
  return id;
}

namespace {

// Action ids are positional (assigned in registration order), so every
// process must hold the identical table before cross-process dispatch: a
// parcel carries only the id, and rank A's id 7 must be rank B's id 7.
// Static registrations (PX_REGISTER_ACTION) of one binary are
// link-ordered and deterministic; this snapshot, traded at bootstrap,
// catches mismatched binaries — or eager-vs-lazy registration drift —
// before the first parcel instead of as a wrong-action dispatch.
std::string action_table_snapshot() {
  auto& reg = parcel::action_registry::global();
  std::string out;
  const auto n = static_cast<parcel::action_id>(reg.size());
  for (parcel::action_id id = 1; id <= n; ++id) {
    out += reg.name_of(id);
    out += '\n';
  }
  return out;
}

// Resolves every knob before any member whose size depends on the
// locality count constructs (AGAS shards are per locality, and under a
// distributed backend the locality count *is* the rank count from the
// launcher's environment).
runtime_params resolve_knobs(runtime_params p) {
  knobs::resolve(p);
  const std::string& backend = *p.net.backend;
  PX_ASSERT_MSG(backend == "sim" || backend == "tcp" || backend == "shm",
                "PX_NET_BACKEND must be \"sim\", \"tcp\", or \"shm\"");
  if (backend != "sim") {
    PX_ASSERT_MSG(*p.net.ranks >= 1,
                  "distributed backend: PX_NET_RANKS (or net.ranks) required");
    PX_ASSERT_MSG(*p.net.rank >= 0 && *p.net.rank < *p.net.ranks,
                  "PX_NET_RANK out of range");
    p.localities = static_cast<std::size_t>(*p.net.ranks);
  }
  // parcel::forwards is u8: a bound of 255 could never trip (the counter
  // would wrap to 0 first), silently restoring unbounded forwarding.
  p.max_forwards = std::min<std::uint8_t>(*p.max_forwards, 254);
  return p;
}

}  // namespace

runtime::runtime(runtime_params params)
    : params_(resolve_knobs(std::move(params))),
      agas_(params_.localities),
      introspect_(agas_, names_) {
  PX_ASSERT(params_.localities >= 1);
  distributed_ = *params_.net.backend != "sim";
  rank_ = distributed_ ? static_cast<gas::locality_id>(*params_.net.rank) : 0;
  params_.fabric.endpoints = params_.localities;

  threads::scheduler_params sp;
  sp.workers = params_.workers_per_locality;
  sp.stack_bytes = params_.stack_bytes;

  // In distributed mode this process hosts exactly one locality (its
  // rank); the other slots stay null so a stray in-process access to a
  // remote locality asserts instead of silently reading the wrong machine.
  for (std::size_t i = 0; i < params_.localities; ++i) {
    if (distributed_ && i != rank_) {
      localities_.push_back(nullptr);
      continue;
    }
    sp.seed = params_.seed + i * 0x9e3779b9u;
    localities_.push_back(std::make_unique<locality>(
        *this, static_cast<gas::locality_id>(i), sp));
  }

  // Bind the typed hardware name of each locality and expose it in the
  // symbolic namespace ("hw/locality/<i>").  Every process replays the
  // allocation for *all* localities: boot-time gid sequences must be
  // identical machine-wide so `locality_gid(r)` addresses rank r's
  // locality from any process.
  for (std::size_t i = 0; i < params_.localities; ++i) {
    const auto lid = static_cast<gas::locality_id>(i);
    const gas::gid g = agas_.allocate(gas::gid_kind::hardware, lid);
    agas_.bind(g, lid);
    locality_gids_.push_back(g);
    if (localities_[i] != nullptr) localities_[i]->here_ = g;
    names_.register_name("hw/locality/" + std::to_string(i), g);
  }

  // Transport backend.  The distributed path is three-phase: claim the
  // data plane (ctor — tcp binds its listener, shm creates its segments),
  // trade endpoints + wire params through the bootstrap (the endpoint
  // string is opaque to the control plane: "host:port" for tcp, a segment
  // token for shm), and — only after every local consumer below is wired
  // up — establish the mesh (connect_peers starts the progress thread, so
  // the handler must already be in place; a fast peer may send the moment
  // its ctor ends).
  std::vector<std::string> peer_table;
  if (distributed_) {
    if (*params_.net.backend == "tcp") {
      net::tcp_params tp;
      tp.rank = rank_;
      tp.nranks = static_cast<std::uint32_t>(params_.localities);
      tp.listen = *params_.net.listen;
      dist_ = std::make_unique<net::tcp_transport>(tp);
    } else {
      net::shm_params sp;
      sp.rank = rank_;
      sp.nranks = static_cast<std::uint32_t>(params_.localities);
      sp.ring_bytes = knobs::shm_ring_bytes();
      sp.spin_us = knobs::shm_spin_us();
      dist_ = std::make_unique<net::shm_transport>(sp);
    }
    net::bootstrap_params bp;
    bp.rank = rank_;
    bp.nranks = static_cast<std::uint32_t>(params_.localities);
    bp.root = *params_.net.root;
    bp.heartbeat_interval_us = knobs::heartbeat_interval_us();
    bp.lease_ms = knobs::lease_ms();
    if (const std::string spec = knobs::fault_plan(); !spec.empty()) {
      const auto plan = util::fault_plan::parse(spec);
      PX_ASSERT_MSG(plan.has_value(),
                    "PX_FAULT does not parse — a fault plan that cannot arm "
                    "must refuse to run, not silently do nothing");
      fault_ = std::make_unique<util::fault_injector>(
          plan->for_rank(static_cast<std::uint64_t>(rank_)),
          static_cast<std::uint64_t>(rank_));
      if (!fault_->empty()) dist_->arm_faults(fault_.get());
    }
    // Locally-detected link deaths (tcp EOF, shm pid probe) feed the same
    // funnel as the control plane's lease expiry.  Installed before
    // connect_peers per the transport contract; until survive mode is
    // armed below, the funnel's bootstrap leg makes any death fatal.
    dist_->set_peer_death_handler([this](std::size_t r) {
      note_peer_failure(static_cast<gas::locality_id>(r));
    });
    bootstrap_ = std::make_unique<net::bootstrap>(bp);
    // Rank 0's machine-scope knobs win everywhere (core/knobs.hpp); its
    // action table rides along for verification.
    const std::vector<std::byte> blob =
        rank_ == 0 ? knobs::encode_machine(params_, action_table_snapshot())
                   : std::vector<std::byte>{};
    auto ex = bootstrap_->exchange(dist_->listen_address(), blob);
    if (rank_ != 0) {
      PX_ASSERT_MSG(
          knobs::apply_machine(params_, ex.params_blob) ==
              action_table_snapshot(),
          "ranks disagree on the registered action table — all ranks must "
          "run the same binary, and actions used cross-process must be "
          "registered eagerly (PX_REGISTER_ACTION)");
    }
    peer_table = std::move(ex.endpoints);
    transport_ = dist_.get();
  } else {
    fabric_ = std::make_unique<net::fabric>(params_.fabric);
    transport_ = fabric_.get();
  }

  // Rank-scope rebalancer tuning and the machine-agreed toggle.
  // Cross-process rebalancing *is* cross-process migration, so it cannot
  // run with the protocol off.
  rebalancer_params rp;
  rp.enabled = *params_.rebalance;
  rp.threshold = *params_.rebalance_threshold;
  rp.min_depth = *params_.rebalance_min_depth;
  rp.max_migrations = *params_.rebalance_max_migrations;
  rp.interval_us = *params_.rebalance_interval_us;
  if (distributed_) {
    migration_enabled_ = *params_.net.migration;
    if (rp.enabled && !migration_enabled_) {
      PX_LOG_WARN("rebalancer disabled: PX_MIGRATION=0 pins objects to "
                  "their home ranks");
      rp.enabled = false;
    }
  }

  parcel_port_params pp;
  pp.flush_bytes = *params_.parcel_flush_bytes;
  pp.flush_count = std::max<std::uint32_t>(1, *params_.parcel_flush_count);

  for (std::size_t i = 0; i < params_.localities; ++i) {
    if (localities_[i] == nullptr) {
      ports_.push_back(nullptr);
      monitors_.push_back(nullptr);
      continue;
    }
    const auto ep = static_cast<net::endpoint_id>(i);
    transport_->set_handler(ep, [this](net::message& m) {
      deliver_from_fabric(m);
    });
    ports_.push_back(std::make_unique<parcel_port>(*transport_, ep, pp));
    monitors_.push_back(
        std::make_unique<introspect::monitor>(localities_[i]->sched_));
  }
  balancer_ = std::make_unique<rebalancer>(*this, rp);
  if (rp.enabled) {
    for (auto& loc : localities_) {
      if (loc != nullptr) loc->enable_heat_tracking();
    }
  }

  for (std::size_t i = 0; i < params_.localities; ++i) {
    if (localities_[i] == nullptr) continue;
    // Flush-on-idle: a worker with nothing to run ships this locality's
    // half-full frames (communication fills the compute troughs), samples
    // its own load (decaying the monitor signal toward idle), and gives
    // the rebalancer a rate-limited chance to pull work its way.
    localities_[i]->sched_.set_idle_hook(
        [port = ports_[i].get(), mon = monitors_[i].get(),
         bal = balancer_.get()] {
          port->flush_all();
          mon->tick();
          bal->poll();
        });
  }
  // Backstop: if every worker of a locality is pinned busy (or asleep with
  // the inject path quiet), the transport progress thread flushes,
  // samples, and rebalances for them — the overloaded locality never runs
  // its own idle hook, so this is the path that observes it.
  transport_->set_idle_callback([this] {
    for (auto& port : ports_) {
      if (port != nullptr) port->flush_all();
    }
    for (auto& mon : monitors_) {
      if (mon != nullptr) mon->tick();
    }
    balancer_->poll();
  });

  // Telemetry collector: constructed before register_counters so the
  // /stats/* rows can sample it; armed last (below), after clock sync, so
  // its t=0 tick sees the final counter schema.  params_.stats is already
  // machine-agreed here — the wire-params exchange above overwrote it on
  // non-zero ranks.
  {
    introspect::stats_params stp;
    stp.enabled = *params_.stats;
    stp.interval_us = *params_.stats_interval_us;
    stp.dir = *params_.stats_dir;
    stp.rank = static_cast<std::uint32_t>(rank_);
    stats_ = std::make_unique<introspect::stats_collector>(introspect_, stp);
  }

  register_counters();

  echo_ = std::make_unique<echo_manager>(*this);
  percolation_ = std::make_unique<percolation_manager>(
      *this, params_.staging_slots_per_locality);

  // Arm the flight recorder once every consumer above is wired and before
  // any parcel can flow, so the rings start at a clean epoch.  It needs no
  // clock offset (the shard records it at dump time).  Arming it before the
  // collective barrier and clock_sync below means every rank is recording
  // before any rank leaves its constructor and sends its first parcel.
  trace::recorder::global().configure(*params_.trace, knobs::trace_ring_bytes(),
                                     *params_.trace_dir,
                                     static_cast<std::uint32_t>(rank_));
  if (*params_.trace) trace_boot_counters_ = introspect_.snapshot_all();

  if (distributed_) {
    dist_->connect_peers(peer_table);
    // Barrier before traffic: no rank leaves its ctor (and starts sending
    // parcels) until every rank's mesh and handlers are up.  The barrier
    // also cross-checks the counter-schema digest — boot-time gid
    // allocation must have replayed identically in every process.
    bootstrap_->barrier(introspect_.schema_digest());
    // Survive mode arms only now, after every rank proved it booted: a
    // death *during* boot stays fatal machine-wide (the partial machine
    // exits with a diagnostic inside the lease), while a death after this
    // point is survivable — the handler funnels into note_peer_failure.
    bootstrap_->set_peer_down_handler([this](std::uint32_t r) {
      note_peer_failure(static_cast<gas::locality_id>(r));
    });
    // Clock sync rides the control plane after the barrier so the RTT
    // samples are not polluted by the connect storm.  Collective, so it
    // runs only under the machine-agreed toggles (rank 0's wire blob) —
    // the trace and stats planes share one offset.
    if (*params_.trace || *params_.stats) {
      clock_offset_ns_ = bootstrap_->clock_sync();
    }
  }
  // The stats sampler arms last: its t=0 tick (and every parcel
  // send-timestamp stamp) must happen after the clock offset is known.
  if (*params_.stats) {
    stats_->set_clock_offset(clock_offset_ns_);
    stats_->arm();
  }
}

// ---------------------------------------------------------------- counters
//
// Every load-bearing runtime quantity becomes a first-class, gid-named,
// path-addressable counter (paper: hardware resources are typed first-class
// entities).  Schema: runtime/loc<i>/<subsystem>/<metric> for per-locality
// counters, runtime/<service>/<metric> for machine-global ones (homed at
// locality 0, which hosts the global services).  Each table below is the
// whole schema of its kind; docs/counters.md documents every row.

namespace {

// One counter: a path suffix and a sampler reading it from `Ctx`.  A
// histogram row (latency/depth distribution) sets `hist` instead of
// `scalar`; the registry reads it as its population count, and quantiles
// go through read_quantile / px.query_hist.
template <typename Ctx>
struct counter_row {
  const char* path;
  std::uint64_t (*scalar)(Ctx);
  util::log_histogram (*hist)(Ctx) = nullptr;
};

// What a per-locality sampler reads: the objects this process holds for
// the slot.
struct loc_view {
  locality* loc;
  parcel_port* port;
  introspect::monitor* mon;
  net::transport* net;
  net::endpoint_id ep;
  introspect::stats_collector* stats;
};

using u64 = std::uint64_t;

// A process-wide relaxed atomic counter (lco, patterns).
template <const std::atomic<u64>& counter>
u64 read_relaxed(runtime*) {
  return counter.load(std::memory_order_relaxed);
}

constexpr counter_row<loc_view> kLocalityCounters[] = {
    {"/sched/ready_depth",
     [](loc_view v) { return v.loc->sched().ready_estimate(); }},
    {"/sched/live_threads",
     [](loc_view v) { return v.loc->sched().live_threads(); }},
    {"/sched/spawned",
     [](loc_view v) { return v.loc->sched().spawn_count(); }},
    {"/sched/steals",
     [](loc_view v) -> u64 { return v.loc->sched().stats().steals; }},
    {"/sched/suspends",
     [](loc_view v) -> u64 { return v.loc->sched().stats().suspends; }},
    {"/sched/sleeps",
     [](loc_view v) -> u64 { return v.loc->sched().stats().sleeps; }},
    {"/parcels/sent",
     [](loc_view v) -> u64 { return v.loc->stats().parcels_sent; }},
    {"/parcels/delivered",
     [](loc_view v) -> u64 { return v.loc->stats().parcels_delivered; }},
    {"/parcels/forwarded",
     [](loc_view v) -> u64 { return v.loc->stats().parcels_forwarded; }},
    {"/parcels/dropped",
     [](loc_view v) -> u64 { return v.loc->stats().parcels_dropped; }},
    {"/port/pending", [](loc_view v) { return v.port->pending(); }},
    {"/port/enqueued",
     [](loc_view v) { return v.port->enqueued_total(); }},
    {"/port/frames_sent",
     [](loc_view v) -> u64 { return v.port->stats().frames_sent; }},
    {"/port/eager_flushes",
     [](loc_view v) -> u64 { return v.port->stats().eager_flushes; }},
    {"/fabric/parcels_sent",
     [](loc_view v) -> u64 { return v.net->stats(v.ep).parcels_sent; }},
    {"/monitor/ready_ewma_milli",
     [](loc_view v) { return v.mon->ready_ewma_milli(); }},
    {"/monitor/samples",
     [](loc_view v) { return v.mon->samples_taken(); }},
    // What this endpoint's transport accepted for sending (tx) and handed
    // to its handler (rx), in frames and bytes, on every backend.
    {"/net/bytes_tx",
     [](loc_view v) -> u64 { return v.net->stats(v.ep).bytes_sent; }},
    {"/net/bytes_rx",
     [](loc_view v) -> u64 { return v.net->stats(v.ep).bytes_received; }},
    {"/net/msgs_tx",
     [](loc_view v) -> u64 { return v.net->stats(v.ep).messages_sent; }},
    {"/net/msgs_rx",
     [](loc_view v) -> u64 { return v.net->stats(v.ep).messages_received; }},
    // The flight recorder and the stats sampler are process singletons: in
    // the sim shape every locality row reads the same process-wide value;
    // distributed (one locality per process) the row is genuinely per-rank.
    {"/trace/events",
     [](loc_view) { return trace::recorder::global().events_total(); }},
    {"/trace/drops",
     [](loc_view) { return trace::recorder::global().drops_total(); }},
    // Distributions, populated only while PX_STATS is armed.
    {"/parcels/hist_dispatch_ns", nullptr,
     [](loc_view v) { return v.loc->dispatch_hist_snapshot(); }},
    {"/sched/hist_run_ns", nullptr,
     [](loc_view v) { return v.loc->sched().run_hist_snapshot(); }},
    {"/sched/hist_wait_ns", nullptr,
     [](loc_view v) { return v.loc->sched().wait_hist_snapshot(); }},
    {"/sched/hist_ready_depth", nullptr,
     [](loc_view v) { return v.mon->depth_hist_snapshot(); }},
    {"/stats/ticks", [](loc_view v) { return v.stats->ticks(); }},
    {"/stats/dropped_points",
     [](loc_view v) { return v.stats->dropped_points(); }},
};

constexpr counter_row<runtime*> kGlobalCounters[] = {
    {"/agas/binds", [](runtime* rt) -> u64 { return rt->gas().stats().binds; }},
    {"/agas/cache_hits",
     [](runtime* rt) -> u64 { return rt->gas().stats().cache_hits; }},
    {"/agas/cache_misses",
     [](runtime* rt) -> u64 { return rt->gas().stats().cache_misses; }},
    {"/agas/migrations",
     [](runtime* rt) -> u64 { return rt->gas().stats().migrations; }},
    {"/agas/stale_refreshes",
     [](runtime* rt) -> u64 { return rt->gas().stats().stale_refreshes; }},
    {"/agas/hint_evictions",
     [](runtime* rt) -> u64 { return rt->gas().stats().hint_evictions; }},
    // Unique gids that died with a lost rank (docs/resilience.md).
    {"/agas/gids_lost", [](runtime* rt) { return rt->gids_lost(); }},
    {"/lco/depleted_threads",
     read_relaxed<lco::lco_counters::depleted_threads_created>},
    {"/lco/continuations",
     read_relaxed<lco::lco_counters::continuations_attached>},
    {"/lco/fires", read_relaxed<lco::lco_counters::fires>},
    {"/fabric/in_flight",
     [](runtime* rt) { return rt->transport().in_flight(); }},
    {"/rebalance/rounds",
     [](runtime* rt) -> u64 { return rt->balancer().stats().rounds; }},
    {"/rebalance/triggers",
     [](runtime* rt) -> u64 { return rt->balancer().stats().triggers; }},
    {"/rebalance/migrations",
     [](runtime* rt) -> u64 {
       return rt->balancer().stats().objects_migrated;
     }},
    {"/rebalance/redirects",
     [](runtime* rt) -> u64 {
       return rt->balancer().stats().placement_redirects;
     }},
    {"/rebalance/imbalance_milli",
     [](runtime* rt) {
       return static_cast<u64>(rt->balancer().stats().last_imbalance * 1000.0);
     }},
    // Pattern-library counters (src/patterns): process-wide statics.
    {"/patterns/pipelines",
     read_relaxed<patterns::pattern_counters::pipelines_built>},
    {"/patterns/pipeline_items",
     read_relaxed<patterns::pattern_counters::pipeline_items>},
    {"/patterns/map_reduce_jobs",
     read_relaxed<patterns::pattern_counters::map_reduce_jobs>},
    {"/patterns/map_tasks",
     read_relaxed<patterns::pattern_counters::map_tasks>},
    {"/patterns/pool_tasks",
     read_relaxed<patterns::pattern_counters::pool_tasks>},
    {"/patterns/nested",
     read_relaxed<patterns::pattern_counters::nested_patterns>},
};

// Registers `rows` under `prefix`, sampled from `ctx` — or, when this
// process does not sample them (nullopt), sampler-less through add_remote.
// Either way the rows allocate gids in the same order, which is what keeps
// counter gids identical machine-wide.
template <typename Ctx, std::size_t N>
void register_rows(introspect::registry& reg, gas::locality_id home,
                   const std::string& prefix,
                   const counter_row<Ctx> (&rows)[N], std::optional<Ctx> ctx) {
  for (const auto& row : rows) {
    std::string path = prefix + row.path;
    if (!ctx.has_value()) {
      reg.add_remote(home, std::move(path));
    } else if (row.hist != nullptr) {
      reg.add_hist(home, std::move(path),
                   [fn = row.hist, c = *ctx] { return fn(c); });
    } else {
      reg.add(home, std::move(path), [fn = row.scalar, c = *ctx] {
        return fn(c);
      });
    }
  }
}

}  // namespace

// Distributed mode registers the *identical* sequence in every process:
// locality slots this process doesn't host, and the globals on non-zero
// ranks, go through add_remote — so any rank can query any other's
// counters by path or gid (introspect::query_counter pays a parcel round
// trip to the home rank, whose registry holds the live callback).
void runtime::register_counters() {
  auto& reg = introspect_;
  for (std::size_t i = 0; i < localities_.size(); ++i) {
    const auto lid = static_cast<gas::locality_id>(i);
    const auto ep = static_cast<net::endpoint_id>(i);
    const std::string p = "runtime/loc" + std::to_string(i);
    const bool here = localities_[i] != nullptr;
    register_rows(reg, lid, p, kLocalityCounters,
                  here ? std::optional(loc_view{localities_[i].get(),
                                                ports_[i].get(),
                                                monitors_[i].get(), transport_,
                                                ep, stats_.get()})
                       : std::nullopt);
    // Backend-specific rows (tcp: reconnects; shm: ring_full_waits,
    // wakeups; sim: none), registered only under a backend that maintains
    // them.  A remote slot takes the names from this process's own
    // endpoint (sampling a remote endpoint's books here would assert);
    // every rank runs the same backend, so the gid order still matches.
    net::transport* t = transport_;
    const auto extras = t->extra_link_counters(here ? ep : rank_);
    for (std::size_t k = 0; k < extras.size(); ++k) {
      std::string path = p + "/net/" + extras[k].name;
      if (!here) {
        reg.add_remote(lid, std::move(path));
        continue;
      }
      reg.add(lid, std::move(path),
              [t, ep, k] { return t->extra_link_counters(ep)[k].value; });
    }
  }
  register_rows(reg, 0, "runtime", kGlobalCounters,
                distributed_ && rank_ != 0 ? std::nullopt
                                           : std::optional<runtime*>(this));
}

runtime::~runtime() {
  if (started_) stop();
}

void runtime::start() {
  PX_ASSERT_MSG(!started_, "runtime started twice");
  for (auto& loc : localities_) {
    if (loc != nullptr) loc->sched_.start();
  }
  started_ = true;
  PX_LOG_INFO("parallex runtime up: %zu localities x %u workers (%s)",
              localities_.size(), params_.workers_per_locality,
              transport_->backend_name());
}

void runtime::stop() {
  if (!started_) return;
  wait_quiescent();
  // Drain the rings after quiescence (no producer is mid-request) but
  // before the shutdown barrier, so a fast rank's exit cannot outrun a
  // slow rank's shard write in a distributed trace collection.
  dump_trace();
  // Stats shard rides the same window: disarm first (joins the sampler
  // and takes the closing tick), then write — the shard always ends at
  // quiescence time.
  if (*params_.stats) {
    stats_->disarm();
    stats_->dump();
  }
  // Shutdown sequencing across processes: the quiescence verdict already
  // synchronized everyone, but the barrier keeps a fast rank from tearing
  // its sockets down while a slow one is still inside its final drain.
  if (distributed_) {
    // Flag the orderly shutdown *before* the barrier: once any rank is
    // past it, every rank has already marked peer disconnects expected.
    dist_->expect_peer_disconnects();
    bootstrap_->barrier();
    // Goodbye handshake after the barrier: from here on heartbeat EOFs
    // and lease expiries are orderly teardown, not deaths — without it a
    // fast-exiting rank would be declared a casualty by the survivors.
    bootstrap_->expect_shutdown();
  }
  for (auto& loc : localities_) {
    if (loc != nullptr) loc->sched_.stop();
  }
  started_ = false;
}

void runtime::dump_trace() {
  if (!*params_.trace) return;
  trace::recorder::global().dump(
      clock_offset_ns_,
      introspect::registry::delta(trace_boot_counters_,
                                  introspect_.snapshot_all()));
}

void runtime::dump_stats() {
  if (!*params_.stats) return;
  stats_->tick_now();  // freshness: the shard ends at dump time
  stats_->dump();
}

std::string runtime::stats_serialize() {
  if (!*params_.stats) return {};
  stats_->tick_now();
  return stats_->serialize_jsonl();
}

locality& runtime::at(gas::locality_id id) {
  PX_ASSERT(id < localities_.size());
  PX_ASSERT_MSG(localities_[id] != nullptr,
                "at(): locality lives in another process (distributed "
                "mode); reach it with parcels, not pointers");
  return *localities_[id];
}

net::fabric& runtime::fabric() {
  PX_ASSERT_MSG(fabric_ != nullptr,
                "fabric(): no simulated fabric under a distributed backend");
  return *fabric_;
}

gas::gid runtime::locality_gid(gas::locality_id id) const {
  PX_ASSERT(id < locality_gids_.size());
  return locality_gids_[id];
}

gas::locality_id runtime::effective_home(gas::gid id) const noexcept {
  const gas::locality_id home = id.home();
  if (!distributed_) return home;
  const std::uint64_t mask = peer_dead_mask_.load(std::memory_order_acquire);
  if (((mask >> home) & 1u) == 0) return home;
  // Deterministic succession: the next live rank scanning upward mod
  // nranks.  Pure arithmetic over the dead mask, so every survivor elects
  // the same successor without a coordination round; repeated losses just
  // step further along the ring.
  const std::size_t n = params_.localities;
  for (std::size_t step = 1; step < n; ++step) {
    const auto r =
        static_cast<gas::locality_id>((home + step) % n);
    if (((mask >> r) & 1u) == 0) return r;
  }
  return home;  // unreachable while this process lives (we are a live rank)
}

gas::locality_id runtime::owner_of(gas::locality_id from, gas::gid id) {
  // LCO sinks and hardware names never migrate: the home *is* the owner —
  // and both die with their home's process (a sink is process-local state),
  // so no successor is consulted; route() retires parcels for them.
  if (id.kind() == gas::gid_kind::lco ||
      id.kind() == gas::gid_kind::hardware) {
    return id.home();
  }
  if (distributed_ && id.home() != rank_) {
    const gas::locality_id home = effective_home(id);
    if (home != rank_) {
      // The authoritative directory shard lives in the (effective) home
      // rank's process.  With migration off the home *is* the owner by
      // construction; with it on, a forwarding-cache hint (learned from a
      // home forward's piggyback or an explicit px.agas_resolve)
      // short-circuits the extra hop — unless it points at a casualty
      // (purged on the death verdict, but a racing read can still see
      // one), and absent a hint the parcel routes to the home, whose
      // directory forwards it onward — always correct, at most one hop
      // stale.
      if (migration_enabled_) {
        if (const auto hint = agas_.cached(rank_, id)) {
          if (!peer_lost(*hint)) return *hint;
        }
      }
      return home;
    }
    // We are the casualty's successor for this gid: fall through — the
    // adopted shard below is the authority now (populated by survivors'
    // re-registrations; still-missing entries resolve unbound and the
    // parcel is reported lost rather than wedging).
  }
  const auto owner = agas_.resolve(from, id);
  return owner.value_or(gas::invalid_locality);
}

void runtime::route(gas::locality_id from, parcel::parcel p) {
  if (p.forwards > *params_.max_forwards) {
    // Stale-cache forwarding loop (or a migration storm outrunning the
    // directory): drop with a diagnostic rather than bouncing forever.
    at(from).note_dropped();
    PX_LOG_WARN(
        "dropping parcel after %u forwards (action %u, dest %s, source %u)",
        static_cast<unsigned>(p.forwards), p.action,
        p.destination.to_string().c_str(), p.source);
    return;
  }
  const gas::locality_id owner = owner_of(from, p.destination);
  if (owner == gas::invalid_locality) {
    // Unbound destination.  With a confirmed casualty this is the expected
    // fate of an object that died with it (entry purged from our shard, or
    // never re-registered into an adopted one): retire the parcel into the
    // dropped books — never wedge resolution.  Healthy machine: the hard
    // bug it always was.
    PX_ASSERT_MSG(has_lost_peers(), "route: destination gid is unbound");
    note_lost_gid(p.destination);
    at(from).note_dropped();
    return;
  }
  if (distributed_ && owner != rank_ && peer_lost(owner)) {
    // The owner rank is confirmed dead (non-migratable gid homed there, or
    // a resolution that still names the casualty): the object is gone with
    // its process.  Drop here, before the transport — the link is already
    // torn down.
    note_lost_gid(p.destination);
    at(from).note_dropped();
    return;
  }
  if (owner == from) {
    // Local fast path: intra-locality parcels do not touch the fabric
    // (the locality is the synchronous domain; its internal latency is
    // the scheduler's, not the network's).
    at(owner).deliver(std::move(p));
    return;
  }
  const auto dest_ep = static_cast<net::endpoint_id>(owner);
  if (p.trace_id != 0 && trace::enabled()) {
    trace::emit(trace::event_kind::parcel_enqueue, p.trace_id, p.trace_span,
                0, static_cast<std::uint64_t>(dest_ep),
                static_cast<std::uint32_t>(p.action));
  }
  const auto res = ports_[from]->enqueue(dest_ep, p);
  // First-parcel eager flush: an isolated request from an otherwise-empty
  // port, sent by a locality with no other ready work, would sit buffered
  // until the sender suspends and the flush-on-idle pass runs — pure added
  // latency with nothing to coalesce behind it.  Three guards keep bursts
  // batching: the channel must have been quiet (a storm re-opens its frame
  // within the burst window), the whole port must hold nothing but this
  // parcel (a multi-destination storm keeps sibling frames open), and the
  // scheduler must have no ready backlog (queued threads mean more
  // parcels are coming).
  if (res.quiet_first && !res.shipped && *params_.parcel_eager_flush &&
      ports_[from]->pending() <= 1 &&
      at(from).sched().ready_estimate() == 0) {
    ports_[from]->flush_eager(dest_ep);
  }
}

void runtime::deliver_from_fabric(net::message& m) {
  // Zero-copy receive: walk the batch frame in place; each parcel_view
  // borrows the message payload.  Actions that keep state copy what they
  // need.
  const auto frame = parcel::frame_view::parse(m.payload);
  PX_ASSERT_MSG(frame.has_value(), "fabric delivered an invalid parcel frame");
  if (trace::enabled()) {
    trace::emit_here(trace::event_kind::wire_rx, m.payload.size(),
                     static_cast<std::uint32_t>(m.source));
  }
  // Delivery may run on the sending thread (the sim fabric at zero modeled
  // latency), often a worker of another locality.  Dispatch makes the
  // receiving locality "here" for the actions it runs inline; the caller
  // gets its own back afterwards.
  locality* const caller = this_locality();
  locality& dst = at(m.dest);
  const auto& actions = parcel::action_registry::global();
  // Control-plane handlers run here, inline, as the frame is walked — they
  // must never queue behind user fibers — and spawning (user) parcels are
  // counted.  A lone one is dispatched here too: its spawn is a single
  // handoff either way, and request/reply traffic (every ping frame, most
  // of mixed's) is made of such frames.
  std::uint32_t users = 0;
  parcel::parcel_view lone_user;
  for (auto it = frame->begin(); it != frame->end(); ++it) {
    const parcel::parcel_view pv = *it;
    if (!actions.spawns(pv.action())) {
      dst.deliver(pv);
    } else if (users++ == 0) {
      lone_user = pv;
    }
  }
  if (users == 1) {
    dst.deliver(lone_user);
  } else if (users > 1) {
    // Two or more user parcels: hand the whole frame to the destination in
    // one task instead of one cross-thread spawn per parcel.  The task
    // owns the payload (the transport contract lets the handler steal it),
    // dispatches each user parcel from the worker — so each typed action
    // spawns with an owner-deque push — and returns the buffer to the
    // pool.  It is spawned before this handler returns, so the quiescence
    // books (live threads, spawn count, the transports' delivered and
    // consumed units) see the work exactly as they saw per-parcel spawns.
    // `view` spans the payload's heap buffer, which moves with the vector.
    dst.spawn([this, &dst, &actions, view = *frame,
               payload = std::move(m.payload)]() mutable {
      for (auto it = view.begin(); it != view.end(); ++it) {
        const parcel::parcel_view pv = *it;
        if (actions.spawns(pv.action())) dst.deliver(pv);
      }
      transport_->pool().release(std::move(payload));
    });
  }
  detail::set_this_locality(caller);
}

std::uint64_t runtime::activity_snapshot() const {
  // Monotonic count of work-creation events across this process: every
  // thread spawn, every parcel enqueued on a port, and every parcel the
  // transport accepts bumps it before the work becomes visible.  Two equal
  // snapshots bracketing a pass of zero-valued counter reads prove the
  // pass observed a true fixed point.  (A parcel moving port -> transport
  // is counted by both monotonic counters; only equality matters.)
  std::uint64_t n = transport_->messages_sent_total();
  for (const auto& port : ports_) {
    if (port != nullptr) n += port->enqueued_total();
  }
  for (const auto& loc : localities_) {
    if (loc != nullptr) n += loc->sched_.spawn_count();
  }
  return n;
}

bool runtime::local_quiescent_pass() {
  // Fixed point: every scheduler idle AND no parcel coalescing in a port
  // AND no parcel in flight.  A drained transport can re-populate
  // schedulers (handlers spawn threads), idle schedulers can re-populate
  // the ports, and flushed ports re-populate the transport, so the caller
  // loops until a pass observes all three conditions with no intervening
  // activity.
  //
  // The per-counter reads below are not atomic as a group, so a thread
  // that sends a parcel and terminates *between* the in_flight() read and
  // its locality's live_threads() read would make the pass look stable
  // with a parcel still in flight — the premature-quiescence race behind
  // the Runtime.ApplyRunsOnTargetLocality hang.  The activity snapshot
  // closes it: any such hidden transition performed a spawn or an enqueue
  // during the pass, which changes the snapshot and forces another loop.
  // A parcel buffered in a port is visible as pending() from the moment
  // it is counted, so coalescing cannot fake quiescence either.
  const std::uint64_t before = activity_snapshot();
  for (auto& port : ports_) {
    if (port != nullptr) port->flush_all();
  }
  for (auto& loc : localities_) {
    if (loc != nullptr) loc->sched_.wait_quiescent();
  }
  transport_->drain();
  bool stable = transport_->in_flight() == 0;
  for (auto& port : ports_) {
    if (port != nullptr) stable = stable && port->pending() == 0;
  }
  for (auto& loc : localities_) {
    if (loc != nullptr) stable = stable && loc->sched_.live_threads() == 0;
  }
  return stable && activity_snapshot() == before;
}

void runtime::wait_quiescent() {
  for (;;) {
    const bool locally_stable = local_quiescent_pass();
    if (!distributed_) {
      if (locally_stable) return;
      continue;
    }
    // Distributed: local stability is necessary, not sufficient — a peer
    // may still have parcels for us on the wire (invisible to any local
    // counter once its sender wrote them to the kernel).  Every rank
    // reports its books each round; rank 0 declares global quiescence
    // when all ranks were locally stable with machine-wide sent ==
    // delivered across two identical consecutive rounds (counting
    // termination detection — see net/bootstrap.hpp).  The round is
    // paced naturally: local passes block while local work is live.
    // Dropped parcels (dead links, fault drops) leave the sent balance:
    // they will never be delivered anywhere, and counting them would make
    // the global sent == delivered test unsatisfiable forever.  Under
    // rank loss the round runs over the live membership with the
    // casualty's whole column subtracted from both sides — the units we
    // sent it are unknowable, the units it sent us already counted — so
    // the collective converges minus the casualty (the control plane's
    // mask agreement keeps ranks with divergent views from quiescing).
    // A rank whose failure sweep (transport fold, directory re-homing,
    // gossip) has not caught up with the control plane's dead mask must
    // not report stable: the verdict would let peers resume sending while
    // this rank's directory still routes through the casualty.  The
    // bootstrap can flag a death (heartbeat EOF) strictly before the
    // peer-down handler finishes the sweep, so the mask comparison — not
    // the handler having been called — is the gate.  Two masks, because
    // the sweep's transport step is asynchronous: peer_swept_mask_ covers
    // the directory/gossip repairs done inline in note_peer_failure, and
    // the transport's folded mask covers the close fold that
    // mark_peer_dead only *queues* on the progress thread.  Requiring
    // both means the conservation books (parcels_lost, peer_failed) are
    // final for every casualty before a verdict can land.
    const std::uint64_t dead = bootstrap_->dead_mask();
    const bool swept =
        peer_swept_mask_.load(std::memory_order_acquire) == dead &&
        (dist_->folded_peer_mask() & dead) == dead;
    if (bootstrap_->quiesce_round(locally_stable && swept,
                                  activity_snapshot(),
                                  dist_->live_units_sent(dead),
                                  dist_->live_units_received(dead))) {
      return;
    }
  }
}

void runtime::run(std::function<void()> root) {
  if (!started_) start();
  // Single-process: root runs once on locality 0.  Distributed: SPMD —
  // every rank runs its own copy on its own locality (rank_ is 0 when
  // single-process, so one expression serves both).
  at(rank_).spawn(std::move(root));
  wait_quiescent();
}

// ------------------------------------------------------ runtime actions
//
// Action ids are positional, so these registrations keep their order.
// The migration protocol behind px.migrate_object and px.agas_update
// lives in core/migrate.cpp; its wire sends are at the end of this file.

namespace {

// Receiving side of px.migrate_object: reconstruct, implant, flip the home
// directory; the return value rides the continuation back to the source as
// the acknowledgment that gates retiring its copy.  A typed action (the
// handoff blocks on the home round trip, so it needs a fiber) — the
// destination of a migration is a below-mean rank with worker headroom.
std::uint8_t migrate_implant_action(parcel::migration_record rec);
PX_REGISTER_ACTION_AS(migrate_implant_action, "px.migrate_object")

std::uint8_t migrate_implant_action(parcel::migration_record rec) {
  return this_locality()->rt().migrate_implant(rec);
}

// On-demand shard dump: `apply<&...>(locality_gid(r))` (or any parcel to
// "px.trace_dump") drains rank r's rings mid-run without waiting for
// shutdown.  Typed — the dump does file I/O, which has no place on the
// delivery thread.  Eagerly registered so action tables stay identical
// machine-wide whether or not a run ever triggers it.
std::uint8_t trace_dump_action();
PX_REGISTER_ACTION_AS(trace_dump_action, "px.trace_dump")

std::uint8_t trace_dump_action() {
  this_locality()->rt().dump_trace();
  return 1;
}

// Mid-run stats dump, the px.trace_dump twin: any parcel to
// "px.stats_dump" (apply<&...>(locality_gid(r))) makes rank r take a
// fresh tick and rewrite its shard now.  Typed — the dump does file I/O.
std::uint8_t stats_dump_action();
PX_REGISTER_ACTION_AS(stats_dump_action, "px.stats_dump")

std::uint8_t stats_dump_action() {
  this_locality()->rt().dump_stats();
  return 1;
}

// Machine-wide gather: replies with this rank's full jsonl shard so rank 0
// (or any rank) can pull every rank's series over the wire without
// touching remote filesystems (introspect::stats_pull).  Typed — the
// serialization walks every series under a mutex, which has no place on
// the delivery thread.
std::string stats_pull_action();
PX_REGISTER_ACTION_AS(stats_pull_action, "px.stats_pull")

std::string stats_pull_action() {
  return this_locality()->rt().stats_serialize();
}

// Home side of the directory flip.  Raw-registered (non-spawning, like
// px.sink): a directory write is control plane and must not queue behind
// user fibers — the home of a hot object is often exactly the monopolized
// rank the migration is shedding load from, and a spawned handler there
// would stall every handoff until the backlog drained.
parcel::action_id agas_update_action_id() {
  static const parcel::action_id id =
      parcel::action_registry::global().register_action(
          "px.agas_update", +[](void* ctx, const parcel::parcel_view& pv) {
            auto* loc = static_cast<locality*>(ctx);
            const auto args =
                util::from_bytes<std::tuple<std::uint64_t, gas::locality_id>>(
                    pv.arguments());
            const std::uint8_t ok = loc->rt().apply_agas_update(
                gas::gid::from_bits(std::get<0>(args)), std::get<1>(args));
            send_continuation_reply(*loc, pv.cont(), util::to_bytes(ok));
          });
  return id;
}

// Eager: action ids are positional; every rank must mint this at boot.
[[maybe_unused]] const parcel::action_id k_agas_update_registration =
    agas_update_action_id();

// Death gossip: the first rank to confirm a casualty tells the others, so
// survivors that never exchanged a byte with the dead rank still fold it
// into their books (the control plane's kTagPeerDown covers ranks root
// reaches; this covers root learning from a non-root detector, and any
// rank the heartbeat hasn't timed out yet).  Raw-registered like px.sink:
// a death verdict is control plane and must not queue behind user fibers.
parcel::action_id peer_down_action_id() {
  static const parcel::action_id id =
      parcel::action_registry::global().register_action(
          "px.peer_down", +[](void* ctx, const parcel::parcel_view& pv) {
            auto* loc = static_cast<locality*>(ctx);
            const auto dead = util::from_bytes<std::uint32_t>(pv.arguments());
            loc->rt().note_peer_failure(
                static_cast<gas::locality_id>(dead));
          });
  return id;
}

// Eager: action ids are positional; every rank must mint this at boot.
[[maybe_unused]] const parcel::action_id k_peer_down_registration =
    peer_down_action_id();

}  // namespace

// ------------------------------------------------------------- resilience

void runtime::note_peer_failure(gas::locality_id rank) {
  if (!distributed_ || rank == rank_ ||
      rank >= static_cast<gas::locality_id>(params_.localities)) {
    return;
  }
  const std::uint64_t bit = 1ull << rank;
  if (peer_dead_mask_.fetch_or(bit, std::memory_order_acq_rel) & bit) {
    return;  // a verdict for this casualty already ran the sweep
  }
  PX_LOG_WARN("rank %u: peer rank %u confirmed dead — continuing with "
              "reduced membership",
              static_cast<unsigned>(rank_), static_cast<unsigned>(rank));
  // (1) Ask the transport to fold the casualty into the conservation
  // books.  This only *requests* the fold: close_link queues the close on
  // the backend progress thread, so the books (parcels_lost freeze,
  // peer_failed) may settle after this function returns — which is why
  // wait_quiescent gates on the transport's folded mask in addition to
  // peer_swept_mask_ below.  (2) Tell the control plane: its dead mask
  // gates the quiesce verdict, and on rank 0 it broadcasts kTagPeerDown
  // to the other survivors.  Note: when the control plane or the
  // transport is what detected the death, the corresponding step is a
  // no-op (its mask is already set), which is also what breaks the
  // handler cycle.  (3) Repair the directory so routing keeps resolving.
  // (4) Gossip px.peer_down — the parcels route with the repaired view.
  dist_->mark_peer_dead(rank);
  bootstrap_->note_rank_dead(static_cast<std::uint32_t>(rank));
  rehome_gids_after_loss(rank);
  broadcast_peer_down(rank);
  // Directory sweep complete: wait_quiescent may report this casualty as
  // handled once it also sees the transport's folded bit (the close
  // queued in step (1) may still be in flight on the progress thread).
  peer_swept_mask_.fetch_or(bit, std::memory_order_release);
}

void runtime::note_lost_gid(gas::gid id) {
  bool fresh = false;
  {
    std::lock_guard lock(lost_gids_lock_);
    fresh = lost_gids_.insert(id).second;
  }
  if (fresh) {
    gids_lost_.fetch_add(1, std::memory_order_relaxed);
    // Once per gid, not per parcel: a storm aimed at a lost object must
    // not turn the log into the bottleneck.
    PX_LOG_WARN("gid %s lost with a dead rank; parcels for it are dropped",
                id.to_string().c_str());
  }
}

void runtime::rehome_gids_after_loss(gas::locality_id dead) {
  // Hints pointing at the casualty would bounce parcels off a torn-down
  // link; purge them so routing falls back to (effective-)home.
  agas_.purge_owner_hints(rank_, dead);
  // Entries in our own directory shard whose owner was the casualty: the
  // objects died with its process.  Unbind them — resolution answers
  // "unbound" and route() retires the parcel — and report each lost.
  for (const gas::gid id : agas_.drop_entries_owned_by(rank_, dead)) {
    note_lost_gid(id);
  }
  // Resident objects homed at the casualty survive here but their
  // directory authority is gone: re-register each at the successor (who
  // adopts the casualty's shard index; possibly us).  Objects that were
  // *resident at* the casualty have nobody to speak for them — their first
  // parcel resolves unbound at the successor and is reported lost there.
  const gas::locality_id succ =
      effective_home(gas::gid::make(gas::gid_kind::data, dead, 1));
  for (const gas::gid id : here().resident_objects_homed_at(dead)) {
    if (succ == rank_) {
      agas_.rebind(id, rank_);
      agas_.note_owner(rank_, id, rank_);
      continue;
    }
    send_agas_update(succ, id);
  }
}

void runtime::broadcast_peer_down(gas::locality_id dead) {
  for (std::size_t r = 0; r < params_.localities; ++r) {
    const auto lid = static_cast<gas::locality_id>(r);
    if (lid == rank_ || peer_lost(lid)) continue;
    parcel::parcel p;
    p.destination = locality_gid(lid);
    p.action = peer_down_action_id();
    p.arguments = util::to_bytes(static_cast<std::uint32_t>(dead));
    here().send(std::move(p));
  }
}

void runtime::send_migration(gas::locality_id to,
                             const parcel::migration_record& rec,
                             parcel::continuation ack) {
  apply_cont_from<&migrate_implant_action>(here(), locality_gid(to), ack, rec);
}

void runtime::send_agas_update(gas::locality_id home, gas::gid id,
                               parcel::continuation cont) {
  parcel::parcel p;
  p.destination = locality_gid(home);
  p.action = agas_update_action_id();
  p.cont = cont;
  p.arguments = util::to_bytes(
      std::tuple<std::uint64_t, gas::locality_id>(id.bits(), rank_));
  here().send(std::move(p));
}

}  // namespace px::core

namespace px::introspect {

lco::future<std::string> stats_pull(core::locality& from,
                                    gas::locality_id rank) {
  return core::async_from<&core::stats_pull_action>(
      from, from.rt().locality_gid(rank));
}

}  // namespace px::introspect
