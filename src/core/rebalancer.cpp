#include "core/rebalancer.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "core/locality.hpp"
#include "core/runtime.hpp"
#include "introspect/query.hpp"
#include "lco/lco.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace px::core {

using util::now_ns;

namespace {
constexpr std::uint64_t kCountMask = 0xffffffffu;  // probes_: replies owed
}  // namespace

rebalancer::rebalancer(runtime& rt, rebalancer_params params)
    : rt_(rt), params_(params) {
  if (params_.enabled) {
    depths_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(rt_.num_localities());
    for (std::size_t i = 0; i < rt_.num_localities(); ++i) {
      depths_[i].store(0, std::memory_order_relaxed);
    }
  }
}

void rebalancer::poll() noexcept {
  // A one-locality machine has nowhere to push.
  if (!params_.enabled || rt_.num_localities() < 2) return;
  const std::int64_t now = now_ns();
  std::int64_t last = last_poll_ns_.load(std::memory_order_relaxed);
  auto interval_ns = static_cast<std::int64_t>(params_.interval_us) * 1000;
  if (rt_.distributed()) interval_ns *= params_.dist_interval_mult;
  if (now - last < interval_ns) return;
  if (!last_poll_ns_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    return;  // a concurrent poller took this slot
  }
  if (rt_.distributed()) {
    // Fire only while this rank has a real backlog: an idle rank owns
    // nothing worth pushing (decisions are push-only), and the gate is
    // what lets the machine quiesce — once the backlog drains, no new
    // round fires and the termination collective can settle.
    if (rt_.here().sched().ready_estimate() < params_.min_depth) return;
    abandon_lost_probes();
  }
  bool expected = false;
  if (!round_active_.compare_exchange_strong(expected, true)) return;
  observe();
}

void rebalancer::release_round_slot() {
  if (round_slots_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    round_active_.store(false, std::memory_order_release);
  }
}

void rebalancer::observe() {
  const std::size_t n = rt_.num_localities();
  if (!rt_.distributed()) {
    // Freshen every monitor (the overloaded locality never runs its own
    // idle hook), then read instantaneous depths.
    for (std::size_t i = 0; i < n; ++i) {
      const auto lid = static_cast<gas::locality_id>(i);
      rt_.monitor_at(lid).tick();
      depths_[i].store(rt_.at(lid).sched().ready_estimate(),
                       std::memory_order_relaxed);
    }
    decide_and_act();
    return;
  }
  if (depth_counter_gids_.empty()) {
    // Counter gids replay identically in every process at boot, so the
    // path -> gid resolution is purely local even for remote ranks.
    depth_counter_gids_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = rt_.introspection().find(
          "runtime/loc" + std::to_string(i) + "/sched/ready_depth");
      PX_ASSERT_MSG(id.has_value(), "ready_depth counter missing");
      depth_counter_gids_.push_back(*id);
    }
  }
  // Our own depth is a local read; every other live rank's is a
  // px.query_counter round trip.  The probes overlap, and this thread
  // holds one count of its own so no reply can finish the round while
  // probes are still going out.
  const auto rank = rt_.rank();
  depths_[rank].store(rt_.here().sched().ready_estimate(),
                      std::memory_order_relaxed);
  std::uint64_t probed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto lid = static_cast<gas::locality_id>(i);
    if (lid != rank && !rt_.peer_lost(lid)) probed |= 1ull << i;
  }
  const auto round =
      static_cast<std::uint32_t>(probes_.load(std::memory_order_relaxed) >> 32) +
      1;
  probed_mask_.store(probed, std::memory_order_relaxed);
  probes_.store((std::uint64_t{round} << 32) |
                    static_cast<std::uint64_t>(std::popcount(probed) + 1),
                std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) {
    if (((probed >> i) & 1u) == 0) continue;
    introspect::query_counter_cb(
        rt_.here(), depth_counter_gids_[i],
        [this, round, i](std::uint64_t d) {
          depths_[i].store(d == introspect::no_such_counter ? 0 : d,
                           std::memory_order_relaxed);
          count_down(round);
        });
  }
  count_down(round);
}

void rebalancer::count_down(std::uint32_t round) {
  std::uint64_t cur = probes_.load(std::memory_order_acquire);
  do {
    // A reply of an abandoned round (its count was zeroed) is ignored.
    if ((cur >> 32) != round || (cur & kCountMask) == 0) return;
  } while (!probes_.compare_exchange_weak(cur, cur - 1,
                                          std::memory_order_acq_rel));
  if ((cur & kCountMask) == 1) decide_and_act();
}

void rebalancer::abandon_lost_probes() {
  // A probe to a rank that died after it was sent is never answered (the
  // parcel is dropped), so the round would hold the latch for good.
  // Zeroing the count ends the round; its late replies see no count left.
  if ((probed_mask_.load(std::memory_order_relaxed) & rt_.lost_peer_mask()) ==
      0) {
    return;
  }
  std::uint64_t cur = probes_.load(std::memory_order_acquire);
  if ((cur & kCountMask) == 0) return;  // not waiting on probes
  if (probes_.compare_exchange_strong(cur, cur & ~kCountMask,
                                      std::memory_order_acq_rel)) {
    round_active_.store(false, std::memory_order_release);
  }
}

// Decide + act.  Distributed it runs inline in the last probe reply's
// delivery, so everything here must stay non-blocking.
void rebalancer::decide_and_act() {
  const std::size_t n = rt_.num_localities();
  rounds_.fetch_add(1, std::memory_order_relaxed);
  have_samples_.store(true, std::memory_order_release);

  // A lost rank's last sample is stale and it can take no objects, so it
  // counts neither toward the mean nor as a destination.
  std::uint64_t total = 0, max_depth = 0;
  std::size_t live = 0;
  gas::locality_id deepest = rt_.rank();
  for (std::size_t i = 0; i < n; ++i) {
    const auto lid = static_cast<gas::locality_id>(i);
    if (rt_.peer_lost(lid)) continue;
    const std::uint64_t d = depths_[i].load(std::memory_order_relaxed);
    total += d;
    ++live;
    if (d > max_depth) {
      max_depth = d;
      deepest = lid;
    }
  }
  const double mean = static_cast<double>(total) / static_cast<double>(live);
  const double imbalance =
      mean > 0.0 ? static_cast<double>(max_depth) / mean : 0.0;
  last_imbalance_milli_.store(static_cast<std::uint64_t>(imbalance * 1000.0),
                              std::memory_order_relaxed);

  // Push-only across ranks: only the deepest locality's own rank acts (it
  // owns the hot objects; every rank runs this same policy).
  if ((rt_.distributed() && deepest != rt_.rank()) ||
      max_depth < params_.min_depth || imbalance < params_.threshold) {
    round_active_.store(false, std::memory_order_release);
    return;
  }
  triggers_.fetch_add(1, std::memory_order_relaxed);

  // Every live locality at or below the mean is an eligible destination,
  // shallowest first; migrations cycle across them so one idle site does
  // not absorb the entire hot spot (which would just move the imbalance).
  std::vector<std::pair<std::uint64_t, gas::locality_id>> dests;
  for (std::size_t i = 0; i < n; ++i) {
    const auto lid = static_cast<gas::locality_id>(i);
    if (lid == deepest || rt_.peer_lost(lid)) continue;
    const std::uint64_t d = depths_[i].load(std::memory_order_relaxed);
    if (static_cast<double>(d) <= mean) dests.emplace_back(d, lid);
  }
  if (dests.empty()) {
    round_active_.store(false, std::memory_order_release);
    return;
  }
  std::sort(dests.begin(), dests.end());

  // Candidates: the heat list first, oversampled — entries for objects
  // that already moved away linger (cooling), and a sync reject (moved,
  // untagged across processes, already mid-flight) burns a list slot, not
  // migration budget.  When heat names fewer candidates than the budget
  // (a latency-bound backlog delivers too rarely for the 1-in-8 sampler
  // to chart it), fall back to any migratable resident: on a locality
  // this imbalanced, moving something beats moving nothing.  Each issued
  // move holds one round slot until its done callback (in-process: before
  // migrate_gid_async returns); the sentinel keeps the latch until every
  // move is issued.
  const std::size_t oversample = 4u * params_.max_migrations;
  std::vector<gas::gid> candidates;
  for (const auto& [id, heat] : rt_.at(deepest).hottest_objects(oversample)) {
    (void)heat;
    candidates.push_back(id);
  }
  for (const auto id : rt_.migratable_residents(deepest, oversample)) {
    candidates.push_back(id);  // dup retries sync-reject on the claim; cheap
  }
  round_slots_.store(1, std::memory_order_release);  // sentinel
  std::uint32_t issued = 0;
  std::size_t next_dest = 0;
  for (const auto id : candidates) {
    if (issued >= params_.max_migrations) break;
    const gas::locality_id to = dests[next_dest % dests.size()].second;
    round_slots_.fetch_add(1, std::memory_order_relaxed);
    const bool accepted =
        rt_.migrate_gid_async(id, deepest, to, [this](bool ok) {
          if (ok) migrated_.fetch_add(1, std::memory_order_relaxed);
          release_round_slot();
        });
    if (accepted) {
      ++issued;
      ++next_dest;
    } else {
      round_slots_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (issued > 0) {
    PX_LOG_DEBUG("rebalancer: moving %u hot objects off L%u "
                 "(imbalance %.2f, depth %llu)",
                 issued, deepest, imbalance,
                 static_cast<unsigned long long>(max_depth));
  }
  release_round_slot();  // drop the sentinel
}

gas::locality_id rebalancer::place(
    const std::vector<gas::locality_id>& span, std::uint64_t rr) {
  PX_ASSERT_MSG(!span.empty(), "placement over an empty span");
  const gas::locality_id fallback = span[rr % span.size()];
  if (!params_.enabled || span.size() < 2) return fallback;
  // Distributed: remote depths come from the rounds' last samples (a live
  // read would cost a parcel round trip per spawn); until a first round
  // has run there is nothing to steer by, so stay round-robin.
  const bool dist = rt_.distributed();
  if (dist && !have_samples_.load(std::memory_order_acquire)) return fallback;
  // Least-loaded placement over the span; round-robin breaks ties so a
  // balanced span degenerates to exactly the old static behaviour.  One
  // pass, one depth read per locality: re-reading the (constantly moving)
  // depths to pick among ties would race its own first scan.  Depths are
  // cached on the stack for typical spans — this runs per spawn_any, and
  // an allocator round trip per task would dwarf the fetch_add it
  // replaces.
  constexpr std::size_t kStackSpan = 64;
  std::uint64_t stack_depths[kStackSpan];
  std::vector<std::uint64_t> heap_depths;
  std::uint64_t* depths = stack_depths;
  if (span.size() > kStackSpan) {
    heap_depths.resize(span.size());
    depths = heap_depths.data();
  }
  std::uint64_t best = ~0ull;
  std::size_t ties = 0;
  for (std::size_t i = 0; i < span.size(); ++i) {
    depths[i] = dist && span[i] != rt_.rank()
                    ? depths_[span[i]].load(std::memory_order_relaxed)
                    : rt_.at(span[i]).sched().ready_estimate();
    if (depths[i] < best) {
      best = depths[i];
      ties = 1;
    } else if (depths[i] == best) {
      ++ties;
    }
  }
  std::size_t pick = rr % ties;
  gas::locality_id chosen = fallback;
  for (std::size_t i = 0; i < span.size(); ++i) {
    if (depths[i] == best && pick-- == 0) {
      chosen = span[i];
      break;
    }
  }
  if (chosen != fallback) redirects_.fetch_add(1, std::memory_order_relaxed);
  return chosen;
}

rebalancer_stats rebalancer::stats() const {
  rebalancer_stats s;
  s.rounds = rounds_.load(std::memory_order_relaxed);
  s.triggers = triggers_.load(std::memory_order_relaxed);
  s.objects_migrated = migrated_.load(std::memory_order_relaxed);
  s.placement_redirects = redirects_.load(std::memory_order_relaxed);
  s.last_imbalance =
      static_cast<double>(
          last_imbalance_milli_.load(std::memory_order_relaxed)) /
      1000.0;
  return s;
}

}  // namespace px::core
