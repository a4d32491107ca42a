// Two-process workloads: storm (shm) and mixed (tcp).  run.py launches one
// process per rank with PX_NET_* set; the runtime reads its backend, rank
// and peer addresses from there.  Rank 0 generates all load; rank 1
// serves it and checks what arrives.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <queue>
#include <tuple>
#include <string>
#include <thread>
#include <vector>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "parcel/migration.hpp"
#include "spans.hpp"
#include "threads/scheduler.hpp"
#include "workloads.hpp"

namespace pxbench {

namespace {

using namespace px;

constexpr int kSpanEvery = 8;        // traced request loops: 1 in k
constexpr int kApplySpanEvery = 64;  // traced apply loops: 1 in k
constexpr int kRequestRound = 10;    // requests per mixed round (as ping)

// Peak RSS is read after this much work on each rank: storm parcels sent
// by rank 0 or dispatched at rank 1 (about three quarters of a 20 s run on
// 4 cores); mixed requests issued by rank 0 or served at rank 1 (about a
// quarter).  Rank 1 of storm grows in steps, at times that differ from run
// to run, and levels off after about 8 M parcels; read earlier, the figure
// depended on where in that climb the mark fell.
rss_mark g_rss{0};
constexpr std::uint64_t kStormRssAt = 12'000'000;
constexpr std::uint64_t kMixedRssAt = 60'000;

// Seeded payloads, identical on both ranks: parcel `seq` carries
// pool[seq % size], so the receiver can check every byte it gets.
std::vector<std::vector<std::uint8_t>> payload_pool(std::uint64_t seed,
                                                    std::size_t min_bytes,
                                                    std::size_t max_bytes) {
  auto rng = stream(seed, 3);
  std::vector<std::vector<std::uint8_t>> pool(4096);
  for (auto& p : pool) {
    p.resize(min_bytes + rng() % (max_bytes - min_bytes + 1));
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  }
  return pool;
}
std::vector<std::vector<std::uint8_t>> g_pool;

// Exactly-once ledger for one parcel stream, written only by the
// receiving rank's single worker and read after a quiescent run().
struct once_ledger {
  std::vector<std::uint64_t> bits;
  std::uint64_t received = 0, dups = 0, bad = 0;

  void note(std::uint64_t seq, const std::vector<std::uint8_t>& payload) {
    if (payload != g_pool[seq % g_pool.size()]) bad += 1;
    const std::size_t word = seq >> 6;
    if (word >= bits.size()) bits.resize(std::max(word + 1, bits.size() * 2));
    const std::uint64_t mask = std::uint64_t{1} << (seq & 63);
    if ((bits[word] & mask) != 0) {
      dups += 1;
    } else {
      bits[word] |= mask;
      received += 1;
    }
  }
  void report(result& r, const std::string& pre) const {
    r.values[pre + "received"] = static_cast<double>(received);
    r.values[pre + "dups"] = static_cast<double>(dups);
    r.values[pre + "bad_payloads"] = static_cast<double>(bad);
  }
};

std::uint64_t rank_ping(std::uint64_t x) { return x + 1; }
PX_REGISTER_ACTION(rank_ping)

// The first collective: rank 0 stamps the moment it can issue requests
// (bootstrap and the schema-digest barrier are behind it) and checks one.
void first_run(core::runtime& rt, const options& o, result& r) {
  rt.run([&] {
    if (rt.rank() != 0) return;
    r.samples["setup_ns"].push_back(now_ns() - o.launch_ns);
    r.check(core::async<&rank_ping>(rt.locality_gid(1), std::uint64_t{41})
                    .get() == 42,
            "setup request reply");
  });
}

// ----------------------------------------------------------------- storm

constexpr std::uint32_t kBurst = 4096;
constexpr int kWarmupBursts = 20;

constexpr std::uint64_t kLatencyEvery = 64;  // storm parcels timed: 1 in k

once_ledger g_storm_rx;
std::vector<std::int64_t> g_storm_lat;  // send -> dispatch at rank 1
std::atomic<bool> g_storm_stop{false};

// One-way latency needs no clock sync: both ranks run on one host, and
// steady_clock is CLOCK_MONOTONIC, shared by every process there.
void storm_hit(std::uint64_t seq, std::int64_t sent_ns,
               std::vector<std::uint8_t> payload) {
  if (seq % kLatencyEvery == 0) g_storm_lat.push_back(now_ns() - sent_ns);
  g_storm_rx.note(seq, payload);
  g_rss.add(1);
}
PX_REGISTER_ACTION(storm_hit)

void storm_stop() { g_storm_stop.store(true); }
PX_REGISTER_ACTION(storm_stop)

// Bursts of fire-and-forget parcels, each burst one run(): the burst's
// time includes coalescing, the rings, dispatch at rank 1 and the
// distributed quiescence proof.  Rank 0 ends the phase by sending
// storm_stop inside its last burst; rank 1 leaves after that run.
void storm_phase(core::runtime& rt, double seconds, const std::string& pre,
                 result& r, std::uint64_t& seq) {
  const bool sender = rt.rank() == 0;
  const gas::gid dest = rt.locality_gid(1);
  if (!sender) {
    prefault(g_storm_lat, static_cast<std::size_t>(seconds * 60000));
    g_storm_rx.bits.resize(std::max(g_storm_rx.bits.size(),
                                    static_cast<std::size_t>(seconds * 62500)));
  }
  const auto before = counter_totals(rt);
  rt.run([] {});  // no parcel of this phase lands before both snapshots
  auto& bursts = r.samples[pre + "round_ns"];
  std::uint64_t sent = 0;
  std::int64_t deadline = 0;
  for (int burst = 0;; ++burst) {
    bool last = false;
    std::int64_t last_send = 0;
    std::uint64_t burst_span = 0;
    const bool timed = burst >= kWarmupBursts;
    if (burst == kWarmupBursts) {
      deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    }
    const std::int64_t t0 = now_ns();
    rt.run([&] {
      if (!sender) return;
      span b("storm.burst", 0, static_cast<std::uint64_t>(burst) + 1);
      burst_span = b.id();
      for (std::uint32_t i = 0; i < kBurst; ++i, ++seq) {
        span a("core.apply", b.id(), static_cast<std::uint64_t>(burst) + 1,
               i % kApplySpanEvery == 0);
        core::apply<&storm_hit>(dest, seq, now_ns(),
                                g_pool[seq % g_pool.size()]);
      }
      sent += kBurst;
      last = timed && now_ns() >= deadline;
      if (last) {
        core::apply<&storm_stop>(dest);
        sent += 1;
      }
      last_send = now_ns();
    });
    const std::int64_t t1 = now_ns();
    if (sender) {
      record_span("core.quiesce", burst_span,
                  static_cast<std::uint64_t>(burst) + 1, last_send, t1);
      if (timed) bursts.push_back(t1 - t0);
      g_rss.add(kBurst);
      if (last) break;
    } else if (g_storm_stop.exchange(false)) {
      break;
    }
  }
  r.values[pre + "sent"] += static_cast<double>(sent);
  r.values["stops"] += sender ? 1 : 0;
  r.add_counters(pre, counter_delta(before, counter_totals(rt)));
  if (!sender) {
    auto& lat = r.samples[pre + "lat_ns"];
    lat.insert(lat.end(), g_storm_lat.begin(), g_storm_lat.end());
    g_storm_lat.clear();
  }
}

// ----------------------------------------------------------------- mixed

constexpr std::uint32_t kObjects = 32;
constexpr double kStreamPerSec = 20000;   // well below storm capacity
constexpr std::int64_t kMigEveryNs = 8'000'000;  // one out-move per 8 ms
constexpr std::int64_t kMigHoldNs = 5'000'000;   // back home 5 ms later
constexpr std::int64_t kMigWaitNs = 200'000'000;
constexpr std::int64_t kMigRetryNs = 250'000;

// A migratable object with a seeded tag that no action ever changes
// (actions must not mutate an object while it migrates; see
// runtime::migrate_gid).
struct tagged_obj {
  std::uint64_t tag = 0;
  std::vector<std::uint8_t> blob;

  tagged_obj() = default;
  tagged_obj(std::uint64_t t, std::vector<std::uint8_t> b)
      : tag(t), blob(std::move(b)) {}

  template <typename Ar>
  friend void serialize(Ar& ar, tagged_obj& o) {
    ar & o.tag & o.blob;
  }
};

std::array<std::atomic<std::uint64_t>, kObjects> g_obj_bits{};
void announce_obj(std::uint32_t j, std::uint64_t bits) {
  g_obj_bits[j].store(bits);
}
PX_REGISTER_ACTION(announce_obj)

std::atomic<std::uint64_t> g_reroutes{0};

// Returns the object's tag, or 0 when it cannot be found.  The object can
// be retired here between the parcel's arrival check and this fiber's
// start (the source's copy lives until the destination acks); the read is
// then re-issued through AGAS, as a user program would.
std::uint64_t read_tag(std::uint64_t bits, std::uint64_t rid,
                       std::uint32_t hops) {
  span h("mixed.handler", 0, rid, rid % kSpanEvery == 0);
  const gas::gid id = gas::gid::from_bits(bits);
  const auto obj = core::this_locality()->get_object(id);
  if (obj != nullptr) {
    if (core::this_locality()->rt().rank() == 1) g_rss.add(1);
    return static_cast<const tagged_obj*>(obj.get())->tag;
  }
  g_reroutes.fetch_add(1);
  if (hops >= 8) return 0;
  return core::async<&read_tag>(id, bits, rid, hops + 1).get();
}
PX_REGISTER_ACTION(read_tag)

once_ledger g_stream_rx;
std::vector<std::int64_t> g_stream_late;  // due -> dispatch at rank 1
std::atomic<std::int64_t> g_window_end{0};  // rank 1: current phase's end
std::uint64_t g_stream_in_window = 0;       // dispatched before that end

void stream_hit(std::uint64_t seq, std::int64_t due_ns,
                std::vector<std::uint8_t> payload) {
  const std::int64_t now = now_ns();
  g_stream_late.push_back(now - due_ns);
  if (now <= g_window_end.load(std::memory_order_relaxed)) {
    g_stream_in_window += 1;
  }
  g_stream_rx.note(seq, payload);
}
PX_REGISTER_ACTION(stream_hit)

// Phase start/end, sent by rank 0 at the top of each phase's run().  One
// promise per phase (chunks() at most), made before the first run so a
// fast rank 0 can never reach one that does not exist yet.
struct window {
  std::int64_t start_ns = 0, end_ns = 0;
};
std::array<lco::promise<window>, 4> g_window;

void mixed_window(std::uint32_t phase, std::int64_t start, std::int64_t end) {
  g_window_end.store(end);
  g_window[phase].set_value(window{start, end});
}
PX_REGISTER_ACTION(mixed_window)

struct timeline_event {
  std::int64_t due_ns;
  std::int32_t object;  // -1: a stream parcel
  std::uint32_t to;     // migration destination
};

// The seeded open-loop schedule: Poisson stream arrivals (rank 0 sends
// them) and object moves 1 -> 0 -> 1 (each sent by the rank that owns the
// object at that moment).  Both ranks derive the same schedule.
std::vector<timeline_event> mixed_schedule(std::uint64_t seed, window w,
                                           gas::locality_id rank) {
  std::vector<timeline_event> ev;
  auto rng = stream(seed, 4);
  if (rank == 0) {
    double t = static_cast<double>(w.start_ns);
    for (;;) {
      const double u = (static_cast<double>(rng() >> 11) + 0.5) * 0x1p-53;
      t += -std::log(u) * (1e9 / kStreamPerSec);
      if (t >= static_cast<double>(w.end_ns)) break;
      ev.push_back(timeline_event{static_cast<std::int64_t>(t), -1, 0});
    }
  }
  auto mig = stream(seed, 5);
  std::vector<std::uint32_t> order(kObjects);
  for (std::uint32_t j = 0; j < kObjects; ++j) order[j] = j;
  std::uint32_t k = 0;
  for (std::int64_t t = w.start_ns + kMigEveryNs; t + kMigHoldNs < w.end_ns;
       t += kMigEveryNs, ++k) {
    if (k % kObjects == 0) {  // a fresh seeded order each cycle
      for (std::uint32_t j = kObjects - 1; j > 0; --j) {
        std::swap(order[j], order[mig() % (j + 1)]);
      }
    }
    const std::int64_t jitter = static_cast<std::int64_t>(mig() % 1'000'000);
    const auto j = static_cast<std::int32_t>(order[k % kObjects]);
    if (rank == 1) ev.push_back(timeline_event{t + jitter, j, 0});
    if (rank == 0) ev.push_back(timeline_event{t + jitter + kMigHoldNs, j, 1});
  }
  std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
    return a.due_ns < b.due_ns;
  });
  return ev;
}

void sleep_until_ns(std::int64_t t) {
  timespec ts{static_cast<time_t>(t / 1'000'000'000),
              static_cast<long>(t % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

struct mixed_books {
  std::mutex lock;  // guards the samples: fibers record them
  std::vector<std::int64_t> migrate_ns;
  // Timeline thread only.
  std::uint64_t migrations = 0, retries = 0, migrate_failures = 0;
};

// Fires the schedule from a plain OS thread (sleeping between events, so
// it is not a busy worker).  Stream parcels are sent from this thread.
// Moves run as fibers, since migrate_gid must run on a ParalleX thread;
// each fiber makes one attempt.  An attempt is refused while the object's
// previous move is still landing here or still waits for its home's
// directory ack, so the timeline checks back every kMigRetryNs and
// re-issues a refused move until kMigWaitNs has passed.  (Retrying on the
// worker instead would keep it busy, and a busy worker neither flushes
// its port nor sends the ack the move is waiting for.)
void run_timeline(core::runtime& rt, const std::vector<timeline_event>& ev,
                  std::vector<std::int64_t>& lag, std::uint64_t& stream_seq,
                  mixed_books& books, bool traced) {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1us: lag is measured
  const gas::gid dest = rt.locality_gid(1);
  enum : int { running, moved, refused };
  std::vector<std::atomic<int>> state(ev.size());
  auto attempt = [&](std::size_t i) {
    state[i].store(running);
    const gas::gid id = gas::gid::from_bits(g_obj_bits[ev[i].object].load());
    const auto to = static_cast<gas::locality_id>(ev[i].to);
    std::atomic<int>* st = &state[i];
    rt.here().spawn([&rt, &books, id, to, st] {
      if (!rt.here().has_object(id)) {
        st->store(refused);
        return;
      }
      const std::int64_t t0 = now_ns();
      if (!rt.migrate_gid(id, to)) {
        st->store(refused);
        return;
      }
      const std::int64_t t1 = now_ns();
      record_span("gas.migrate", 0, id.bits(), t0, t1);
      {
        std::lock_guard g(books.lock);
        books.migrate_ns.push_back(t1 - t0);
      }
      st->store(moved);
    });
  };
  // (time, event index, is a check-back) in due order.
  using item = std::tuple<std::int64_t, std::size_t, bool>;
  std::priority_queue<item, std::vector<item>, std::greater<item>> queue;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    queue.emplace(ev[i].due_ns, i, false);
  }
  while (!queue.empty()) {
    const auto [due, i, check] = queue.top();
    queue.pop();
    if (now_ns() < due) sleep_until_ns(due);
    const auto& e = ev[i];
    if (e.object < 0) {
      lag.push_back(now_ns() - e.due_ns);
      const std::uint64_t seq = stream_seq++;
      span a("core.apply", 0, 0, traced && seq % kApplySpanEvery == 0);
      core::apply_from<&stream_hit>(rt.here(), dest, seq, e.due_ns,
                                    g_pool[seq % g_pool.size()]);
      continue;
    }
    if (!check) {
      books.migrations += 1;
      attempt(i);
    } else if (state[i].load() == refused) {
      if (now_ns() - e.due_ns >= kMigWaitNs) {
        books.migrate_failures += 1;
        continue;
      }
      books.retries += 1;
      attempt(i);
    } else if (state[i].load() == moved) {
      continue;
    }
    queue.emplace(now_ns() + kMigRetryNs, i, true);
  }
}

void mixed_phase(core::runtime& rt, const options& o, std::uint32_t phase,
                 double seconds, const std::string& pre, result& r,
                 std::uint64_t& stream_seq) {
  const bool client = rt.rank() == 0;
  const auto cap = static_cast<std::size_t>(seconds * 30000);
  auto& rtt = r.samples[pre + "rtt_ns"];
  auto& rounds = r.samples[pre + "round_ns"];
  std::vector<std::int64_t> lag;
  if (client) {
    prefault(rtt, cap);
    prefault(rounds, cap / kRequestRound);
    prefault(lag, cap);
  } else {
    prefault(g_stream_late, cap);
    g_stream_in_window = 0;
  }
  const auto before = counter_totals(rt);
  rt.run([] {});  // no parcel of this phase lands before both snapshots
  mixed_books books;
  std::uint64_t requests = 0;
  const std::uint64_t sent_before = stream_seq;
  window w;
  const bool traced = span_log::global().on();
  rt.run([&] {
    if (client) {
      w.start_ns = now_ns() + 20'000'000;  // room for rank 1 to arm
      w.end_ns = w.start_ns + static_cast<std::int64_t>(seconds * 1e9);
      core::apply<&mixed_window>(rt.locality_gid(1), phase, w.start_ns,
                                 w.end_ns);
    } else {
      w = g_window[phase].get_future().get();
    }
    const auto schedule = mixed_schedule(o.seed + phase, w, rt.rank());
    lco::promise<void> timeline_done;
    auto done = timeline_done.get_future();
    std::thread timeline([&] {
      run_timeline(rt, schedule, lag, stream_seq, books, traced);
      timeline_done.set_value();
    });
    if (client) {
      auto rng = stream(o.seed + phase, 6);
      std::vector<std::uint64_t> tags(kObjects);
      auto tag_rng = stream(o.seed, 7);
      for (auto& t : tags) t = tag_rng() | 1;
      while (now_ns() < w.start_ns) threads::scheduler::yield();
      while (now_ns() < w.end_ns) {
        const std::int64_t round_start = now_ns();
        for (int k = 0; k < kRequestRound; ++k) {
          const auto j = static_cast<std::uint32_t>(rng() % kObjects);
          const gas::gid id = gas::gid::from_bits(g_obj_bits[j].load());
          const std::uint64_t rid = ++requests;
          const bool sampled = rid % kSpanEvery == 0;
          const std::int64_t t0 = now_ns();
          span req("mixed.request", 0, rid, sampled);
          lco::future<std::uint64_t> f;
          {
            span a("core.async", req.id(), rid, sampled);
            f = core::async<&read_tag>(id, id.bits(), rid, std::uint32_t{0});
          }
          std::uint64_t y = 0;
          {
            span g("lco.get", req.id(), rid, sampled);
            y = f.get();
          }
          req.end();
          rtt.push_back(now_ns() - t0);
          r.check(y == tags[j], "mixed reply does not match the object tag");
          g_rss.add(1);
        }
        rounds.push_back(now_ns() - round_start);
      }
    }
    done.get();
    timeline.join();
  });
  r.add_counters(pre, counter_delta(before, counter_totals(rt)));
  r.values[pre + "window_ns"] += static_cast<double>(w.end_ns - w.start_ns);
  r.values[pre + "ops"] += static_cast<double>(requests);
  r.values[pre + "stream_sent"] +=
      static_cast<double>(stream_seq - sent_before);
  r.values[pre + "migrations"] += static_cast<double>(books.migrations);
  r.values[pre + "migrate_retries"] += static_cast<double>(books.retries);
  auto& mig = r.samples[pre + "migrate_ns"];
  mig.insert(mig.end(), books.migrate_ns.begin(), books.migrate_ns.end());
  auto& lag_out = r.samples[pre + "lag_ns"];
  lag_out.insert(lag_out.end(), lag.begin(), lag.end());
  if (!client) {
    auto& late = r.samples[pre + "stream_late_ns"];
    late.insert(late.end(), g_stream_late.begin(), g_stream_late.end());
    g_stream_late.clear();
    r.values[pre + "stream_in_window"] +=
        static_cast<double>(g_stream_in_window);
  }
  r.attempted += books.migrations;
  for (std::uint64_t i = 0; i < books.migrate_failures; ++i) {
    r.fail("migrate_gid refused a scheduled move");
  }
}

void mixed_objects(core::runtime& rt, std::uint64_t seed) {
  rt.run([&] {
    if (rt.rank() != 1) return;
    auto rng = stream(seed, 7);
    auto sizes = stream(seed, 8);
    for (std::uint32_t j = 0; j < kObjects; ++j) {
      std::vector<std::uint8_t> blob(16 + sizes() % 240);
      for (auto& b : blob) b = static_cast<std::uint8_t>(sizes());
      const gas::gid id = rt.new_migratable<tagged_obj>(
          gas::locality_id{1}, rng() | 1, std::move(blob));
      g_obj_bits[j].store(id.bits());
      core::apply<&announce_obj>(rt.locality_gid(0), j, id.bits());
    }
  });
}

}  // namespace

}  // namespace pxbench

PX_REGISTER_MIGRATABLE(pxbench::tagged_obj)

namespace pxbench {

int run_rank(const options& o) {
  const bool storm = o.workload == "storm";
  if (!storm && o.workload != "mixed") {
    std::fprintf(stderr, "pxbench rank: %s is not a two-process workload\n",
                 o.workload.c_str());
    return 2;
  }
  result r;
  g_pool = storm ? payload_pool(o.seed, 0, 32) : payload_pool(o.seed, 8, 64);
  g_rss.at = storm ? kStormRssAt : kMixedRssAt;
  core::runtime rt;  // backend, rank and peers from PX_NET_*
  const std::string name = "rank" + std::to_string(rt.rank());
  first_run(rt, o, r);
  if (!o.setup_only) {
    span_log::global().set_id_base(std::uint64_t{rt.rank() + 1} << 40);
    if (!storm) mixed_objects(rt, o.seed);
    std::uint64_t seq = 0;
    for (int c = 0; c < chunks(o); ++c) {
      const bool traced = c % 2 == 1;
      const std::string pre = traced ? "traced." : "";
      const double seconds = o.seconds / chunks(o);
      if (traced) span_log::global().enable();
      if (storm) {
        storm_phase(rt, seconds, pre, r, seq);
      } else {
        mixed_phase(rt, o, static_cast<std::uint32_t>(c), seconds, pre, r,
                    seq);
      }
      span_log::global().disable();
    }
    if (rt.rank() == 1) {
      storm ? g_storm_rx.report(r, "") : g_stream_rx.report(r, "stream_");
    }
    if (!storm) r.values["reroutes"] = static_cast<double>(g_reroutes.load());
  }
  rt.stop();
  g_rss.report(r);
  bool ok = r.write(o.out_dir, name);
  if (o.trace && !o.setup_only) {
    ok = span_log::global().write(o.out_dir + "/spans." + name + ".tsv") && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "pxbench: cannot write results under %s\n",
                 o.out_dir.c_str());
    return 1;
  }
  return r.failed == 0 ? 0 : 1;
}

}  // namespace pxbench
