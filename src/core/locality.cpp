#include "core/locality.hpp"

#include <algorithm>
#include <mutex>

#include "core/runtime.hpp"
#include "gas/resolve.hpp"
#include "introspect/stats.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace px::core {

namespace {
thread_local locality* tl_locality = nullptr;
}

// Not inlined: must be re-evaluated after suspension points (a ParalleX
// thread only ever resumes on workers of its own locality, but the
// compiler cannot know that TLS is stable across the switch).
__attribute__((noinline)) locality* this_locality() noexcept {
  return tl_locality;
}

void detail::set_this_locality(locality* loc) noexcept { tl_locality = loc; }

locality::locality(runtime& rt, gas::locality_id id,
                   threads::scheduler_params sched_params)
    : rt_(rt), id_(id), sched_(sched_params) {
  // Every worker OS thread of this scheduler serves exactly this locality;
  // establish the context once per worker so it holds for spawned *and*
  // resumed threads alike.
  sched_.set_worker_init([this](unsigned) { detail::set_this_locality(this); });
}

void locality::spawn(std::function<void()> fn) {
  threads_spawned_.fetch_add(1, std::memory_order_relaxed);
  sched_.spawn(std::move(fn));
}

void locality::put_object(gas::gid id, std::shared_ptr<void> object) {
  PX_ASSERT(object != nullptr);
  std::lock_guard lock(objects_lock_);
  objects_[id] = std::move(object);
}

std::shared_ptr<void> locality::get_object(gas::gid id) const {
  std::lock_guard lock(objects_lock_);
  const auto it = objects_.find(id);
  return it != objects_.end() ? it->second : nullptr;
}

bool locality::has_object(gas::gid id) const {
  std::lock_guard lock(objects_lock_);
  return objects_.count(id) != 0;
}

bool locality::erase_object(gas::gid id) {
  std::lock_guard lock(objects_lock_);
  return objects_.erase(id) != 0;
}

std::size_t locality::object_count() const {
  std::lock_guard lock(objects_lock_);
  return objects_.size();
}

std::vector<gas::gid> locality::resident_objects_homed_at(
    gas::locality_id home) const {
  std::vector<gas::gid> out;
  std::lock_guard lock(objects_lock_);
  for (const auto& [id, obj] : objects_) {
    (void)obj;
    if (id.home() == home) out.push_back(id);
  }
  return out;
}

gas::gid locality::register_sink(std::function<void(parcel::parcel)> fire) {
  const gas::gid id = rt_.gas().allocate(gas::gid_kind::lco, id_);
  std::lock_guard lock(sinks_lock_);
  sinks_.emplace(id, std::move(fire));
  return id;
}

bool locality::fire_sink(gas::gid id, parcel::parcel p) {
  std::function<void(parcel::parcel)> fn;
  {
    std::lock_guard lock(sinks_lock_);
    auto it = sinks_.find(id);
    if (it == sinks_.end()) return false;
    fn = std::move(it->second);
    sinks_.erase(it);
  }
  fn(std::move(p));
  return true;
}

void locality::send(parcel::parcel p) {
  parcels_sent_.fetch_add(1, std::memory_order_relaxed);
  p.source = id_;
  if (trace::enabled()) {
    trace::context ctx = trace::current();
    if (!ctx.valid()) {
      // This send is the root of a new causal chain (main thread, timer,
      // untraced machinery): mint a trace id here so everything downstream
      // shares it.
      ctx.trace_id = trace::new_id();
      ctx.span = trace::new_id();
      trace::set_current(ctx);
    }
    p.trace_id = ctx.trace_id;
    p.trace_span = trace::new_id();  // one span per parcel hop
    trace::emit(trace::event_kind::parcel_send, p.trace_id, p.trace_span,
                ctx.span, p.destination.bits(),
                static_cast<std::uint32_t>(p.action));
  }
  if (introspect::stats_armed()) {
    // Normalized to the rank-0 clock on both ends (offsets cancel within a
    // rank), so the receiving rank's histogram measures true cross-rank
    // send→dispatch latency.  Saturate at 1: 0 means "unstamped" on the
    // wire, and clock_sync skew could otherwise produce a nonpositive
    // stamp in the first nanoseconds of a run.
    const std::int64_t ts = util::now_ns() - rt_.clock_offset_ns();
    p.send_ts_ns = ts > 0 ? static_cast<std::uint64_t>(ts) : 1;
  }
  rt_.route(id_, std::move(p));
}

bool locality::arriving_needs_forward(gas::gid dest) {
  // Establish locality context for the delivery path: sink-fired
  // continuations (and anything they apply) run with the receiving locality
  // as "here".  The delivering thread is one of this locality's workers
  // (idempotent write) for the local fast path and for the user parcels of
  // a multi-parcel frame (runtime::deliver_from_fabric hands those over as
  // one task); otherwise it is a transport progress thread or — on the
  // zero-latency sim fabric — a sender of another locality, whose own
  // context deliver_from_fabric restores once the frame is done.
  detail::set_this_locality(this);

  // Ownership check for migratable kinds: if the object moved away and we
  // were reached through a stale cache, the parcel must be rerouted toward
  // the authoritative owner (bounded by runtime::route's forward cap; each
  // forward refreshes the sender-side cache).
  if (dest.kind() != gas::gid_kind::data &&
      dest.kind() != gas::gid_kind::process) {
    return false;
  }
  if (has_object(dest)) return false;
  // effective_home: after rank loss the casualty's directory duties fall to
  // its successor, so "are we the authority?" must be asked of the live
  // home, not the gid's encoded one (identical when nobody has died).
  if (rt_.distributed() && rt_.effective_home(dest) != id_) {
    // We are neither the owner (no object) nor the home: a stale
    // forwarding hint sent this parcel here.  Drop our own hint for this
    // gid — not because it is necessarily wrong (ours may be fresher than
    // the sender's), but so the reroute below goes through the *home*,
    // whose directory is authoritative.  Forwarding hint-to-hint could
    // chase a cycle of mutually stale piggybacked hints and burn the
    // whole hop budget without ever consulting an authority; paying at
    // most one extra hop via home can never loop.
    rt_.gas().invalidate_cache(id_, dest);
    return true;
  }
  // Home rank (or single-process): the local directory shard is the
  // authority.
  const auto owner = rt_.gas().resolve_authoritative(id_, dest);
  if (!owner.has_value()) {
    // Unbound at the authority.  With a rank down this is the expected
    // fate of an object that died with the casualty (its entry was purged,
    // or the adopted shard never saw a re-registration): report it lost
    // and reroute — runtime::route recognizes the unbound destination and
    // retires the parcel into the dropped books, keeping the conservation
    // identity balanced (delivered and forwarded cancel; dropped absorbs
    // the unit).  Without a casualty it remains the hard bug it always was.
    PX_ASSERT_MSG(rt_.has_lost_peers(), "parcel for unbound object gid");
    rt_.note_lost_gid(dest);
    return true;
  }
  // When the authoritative owner is us but the object is gone, creation is
  // racing delivery; dispatch and let the action handle or assert.
  return *owner != id_;
}

bool locality::hint_gate_allows(gas::gid dest, gas::locality_id source) {
  const std::int64_t now = util::now_ns();
  const std::uint64_t key =
      dest.bits() ^
      (static_cast<std::uint64_t>(source) * 0x9e3779b97f4a7c15ull);
  std::lock_guard lock(hint_gate_lock_);
  if (hint_gate_.size() >= kMaxHintGateEntries) hint_gate_.clear();
  const auto [it, inserted] = hint_gate_.try_emplace(key, now);
  if (inserted) return true;
  if (now - it->second < kHintGateIntervalNs) return false;
  it->second = now;
  return true;
}

void locality::send_forward_feedback(const parcel::parcel& p) {
  if (!rt_.distributed()) return;
  if (p.source == gas::invalid_locality || p.source == id_) return;
  if (!hint_gate_allows(p.destination, p.source)) return;
  if (rt_.effective_home(p.destination) == id_) {
    // resolve_authoritative just refreshed our cache with the directory's
    // answer; piggyback it to the sender.
    if (const auto owner = rt_.gas().cached(id_, p.destination)) {
      gas::send_owner_hint(*this, p.source, p.destination, *owner);
    }
  } else {
    gas::send_owner_hint(*this, p.source, p.destination,
                         gas::invalid_locality);
  }
}

void locality::note_heat(gas::gid dest) noexcept {
  if (!heat_enabled_.load(std::memory_order_relaxed)) return;
  if (dest.kind() != gas::gid_kind::data) return;  // only migratable heat
  // Heat is a rough rate signal (halved every rebalance round), so a 1-in-8
  // sample preserves its shape while keeping the delivery hot path off the
  // lock seven times out of eight — the dispatch path stays near the
  // lock-free budget PR 2 bought even with the rebalancer enabled.
  if ((heat_seq_.fetch_add(1, std::memory_order_relaxed) & 7u) != 0) return;
  std::lock_guard lock(heat_lock_);
  if (heat_.size() >= kMaxHeatEntries &&
      heat_.find(dest) == heat_.end()) {
    // Bound the table even when load stays balanced and the rebalancer
    // never drains it: age everything in place so entries for cooled-off
    // (or destroyed) objects fall out instead of accumulating forever.
    // The aging scan is rate-limited — a saturated table of persistently
    // hot entries must not turn every sampled delivery into an O(table)
    // walk under the lock, nor erode the heat signal between rounds.
    const std::int64_t now = util::now_ns();
    if (now - heat_last_age_ns_ < kHeatAgeIntervalNs) return;  // drop sample
    heat_last_age_ns_ = now;
    for (auto it = heat_.begin(); it != heat_.end();) {
      it->second /= 2;
      it = it->second == 0 ? heat_.erase(it) : std::next(it);
    }
    if (heat_.size() >= kMaxHeatEntries) return;  // everything still hot
  }
  heat_[dest] += 1;
}

std::vector<std::pair<gas::gid, std::uint64_t>> locality::hottest_objects(
    std::size_t n) {
  std::vector<std::pair<gas::gid, std::uint64_t>> out;
  std::lock_guard lock(heat_lock_);
  out.reserve(heat_.size());
  for (const auto& [id, count] : heat_) out.emplace_back(id, count);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (out.size() > n) out.resize(n);
  // Age everything: heat is a rate signal, not a lifetime total.
  for (auto it = heat_.begin(); it != heat_.end();) {
    it->second /= 2;
    it = it->second == 0 ? heat_.erase(it) : std::next(it);
  }
  return out;
}

void locality::note_dispatch_latency(std::uint64_t send_ts_ns) noexcept {
  const std::int64_t now = util::now_ns() - rt_.clock_offset_ns();
  const std::int64_t lat = now - static_cast<std::int64_t>(send_ts_ns);
  // Cross-rank clock-sync error can make a fast hop appear to arrive
  // "before" it was sent; clamp rather than wrap.
  dispatch_hist_.add(lat > 0 ? static_cast<double>(lat) : 0.0);
}

void locality::deliver(const parcel::parcel_view& pv) {
  parcels_delivered_.fetch_add(1, std::memory_order_relaxed);
  if (arriving_needs_forward(pv.destination())) {
    // Rare path: the view only borrows its bytes (a fabric frame, or the
    // local fast path's parcel), so the reroute needs an owning copy.
    parcel::parcel p = pv.to_parcel();
    send_forward_feedback(p);
    p.forwards += 1;
    parcels_forwarded_.fetch_add(1, std::memory_order_relaxed);
    rt_.route(id_, std::move(p));
    return;
  }
  note_heat(pv.destination());
  if (introspect::stats_armed() && pv.send_ts_ns() != 0) {
    note_dispatch_latency(pv.send_ts_ns());
  }
  if (pv.trace_id() != 0 && trace::enabled()) {
    trace::emit(trace::event_kind::parcel_dispatch, pv.trace_id(),
                pv.trace_span(), 0, pv.destination().bits(),
                static_cast<std::uint32_t>(pv.action()));
    // Run the action under the parcel's causal identity: a raw action
    // dispatches inline under this scope, and a typed action's fiber
    // inherits it through scheduler::spawn's context capture.
    trace::scope s(trace::context{pv.trace_id(), pv.trace_span()});
    parcel::action_registry::global().dispatch(this, pv);
    return;
  }
  parcel::action_registry::global().dispatch(this, pv);
}

locality_stats locality::stats() const {
  locality_stats s;
  s.parcels_sent = parcels_sent_.load(std::memory_order_relaxed);
  s.parcels_delivered = parcels_delivered_.load(std::memory_order_relaxed);
  s.parcels_forwarded = parcels_forwarded_.load(std::memory_order_relaxed);
  s.parcels_dropped = parcels_dropped_.load(std::memory_order_relaxed);
  s.threads_spawned = threads_spawned_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace px::core
