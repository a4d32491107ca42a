// Layer probes: unit costs of single public calls, measured on a quiet,
// private 2 x 1 sim runtime (and a standalone net::fabric), in their own
// process after the workload's processes have exited.  run.py uses a
// probe value for a per-layer metric only when the workload itself does
// not make that call; otherwise the workload's own spans win.
#include <sys/prctl.h>

#include <atomic>
#include <cstdio>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "net/fabric.hpp"
#include "parcel/parcel.hpp"
#include "patterns/patterns.hpp"
#include "spans.hpp"
#include "util/serialize.hpp"
#include "workloads.hpp"

namespace pxbench {

namespace {

using namespace px;

std::uint64_t probe_echo(std::uint64_t x) { return x + 1; }
PX_REGISTER_ACTION(probe_echo)

void probe_sink(std::uint64_t) {}
PX_REGISTER_ACTION(probe_sink)

std::uint64_t probe_map(std::uint64_t, std::uint64_t begin, std::uint64_t end) {
  std::uint64_t s = 0;
  for (std::uint64_t i = begin; i < end; ++i) s += i;
  return s;
}
std::uint64_t probe_add(std::uint64_t a, std::uint64_t b) { return a + b; }

void spin_for_ns(std::int64_t ns) {
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

// Stamp before locality::spawn on a plain OS thread (the parcel delivery
// path spawns from the transport's thread), stamp at fiber entry.
void probe_spawn(core::runtime& rt, result& r) {
  auto& out = r.samples["spawn_to_run_ns"];
  for (int i = 0; i < 3000; ++i) {
    std::atomic<std::int64_t> ran{0};
    const std::int64_t t0 = now_ns();
    rt.at(1).spawn([&ran] { ran.store(now_ns()); });
    while (ran.load() == 0) {
    }
    out.push_back(ran.load() - t0);
    spin_for_ns(20'000);  // let the worker go back to sleep, as in ping
  }
}

// set_value on a fiber of locality 0 -> the waiter parked on locality 1
// resumes.
void probe_resume(core::runtime& rt, result& r) {
  auto& out = r.samples["resume_ns"];
  rt.run([&] {
    for (int i = 0; i < 2000; ++i) {
      lco::promise<int> p;
      auto f = p.get_future();
      std::atomic<bool> waiting{false};
      std::int64_t resumed = 0;
      lco::promise<void> finished;
      auto fin = finished.get_future();
      rt.at(1).spawn([&] {
        waiting.store(true);
        f.get();
        resumed = now_ns();
        finished.set_value();
      });
      while (!waiting.load()) threads::scheduler::yield();
      spin_for_ns(20'000);  // the waiter parks well inside this
      const std::int64_t t_set = now_ns();
      p.set_value(1);
      fin.get();
      out.push_back(resumed - t_set);
    }
  });
}

void probe_requests(core::runtime& rt, result& r) {
  auto& call = r.samples["async_call_ns"];
  auto& wait = r.samples["get_wait_ns"];
  auto& apply = r.samples["apply_call_ns"];
  auto& quiesce = r.samples["quiesce_ns"];
  rt.run([&] {
    const gas::gid dest = rt.locality_gid(1);
    for (std::uint64_t i = 0; i < 3000; ++i) {
      const std::int64_t t0 = now_ns();
      auto f = core::async<&probe_echo>(dest, i);
      const std::int64_t t1 = now_ns();
      r.check(f.get() == i + 1, "probe async reply");
      call.push_back(t1 - t0);
      wait.push_back(now_ns() - t1);
    }
    for (std::uint64_t i = 0; i < 20000; ++i) {
      const std::int64_t t0 = now_ns();
      core::apply<&probe_sink>(dest, i);
      apply.push_back(now_ns() - t0);
    }
  });
  for (int rep = 0; rep < 50; ++rep) {
    std::int64_t last = 0;
    rt.run([&] {
      const gas::gid dest = rt.locality_gid(1);
      for (std::uint64_t i = 0; i < 4096; ++i) {
        core::apply<&probe_sink>(dest, i);
      }
      last = now_ns();
    });
    quiesce.push_back(now_ns() - last);
  }
}

// Per-call cost over batches of 1000 calls (one clock pair per batch).
void probe_gas(core::runtime& rt, result& r) {
  const gas::gid obj = rt.new_object<std::uint64_t>(1, std::uint64_t{5});
  auto& cached = r.samples["resolve_cached_batch_ns"];
  auto& auth = r.samples["resolve_authoritative_batch_ns"];
  for (int b = 0; b < 300; ++b) {
    std::int64_t t0 = now_ns();
    bool ok = true;
    for (int i = 0; i < 1000; ++i) ok &= rt.gas().resolve(0, obj) == 1u;
    cached.push_back(now_ns() - t0);
    t0 = now_ns();
    for (int i = 0; i < 1000; ++i) {
      ok &= rt.gas().resolve_authoritative(0, obj) == 1u;
    }
    auth.push_back(now_ns() - t0);
    r.check(ok, "probe resolve answer");
  }
  r.values["resolve_batch"] = 1000;
  auto& mig = r.samples["migrate_ns"];
  rt.run([&] {
    for (int i = 0; i < 400; ++i) {
      const auto to = static_cast<gas::locality_id>(i % 2 == 0 ? 0 : 1);
      const std::int64_t t0 = now_ns();
      r.check(rt.migrate_gid(obj, to), "probe migrate_gid");
      mig.push_back(now_ns() - t0);
    }
  });
}

void probe_patterns(core::runtime& rt, result& r) {
  constexpr std::uint64_t n = 256;
  auto& out = r.samples["map_reduce_ns"];
  rt.run([&] {
    for (int i = 0; i < 60; ++i) {
      const std::int64_t t0 = now_ns();
      const std::uint64_t s = patterns::map_reduce<&probe_map, &probe_add>(
          rt, {0, 1}, n, /*chunk=*/1);
      out.push_back(now_ns() - t0);
      r.check(s == n * (n - 1) / 2, "probe map_reduce sum");
    }
  });
  r.values["map_reduce_tasks"] = static_cast<double>(n);
}

// The mixed workload's open-loop sender, on a quiet runtime: how late a
// sleeping OS thread gets to each due time.
void probe_generator(core::runtime& rt, result& r) {
  auto& lag = r.samples["lag_ns"];
  rt.run([&] {
    lco::promise<void> done;
    auto f = done.get_future();
    std::thread gen([&] {
      prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
      const gas::gid dest = rt.locality_gid(1);
      std::int64_t due = now_ns() + 1'000'000;
      for (std::uint64_t i = 0; i < 5000; ++i, due += 50'000) {
        while (now_ns() < due) {
          const std::int64_t left = due - now_ns();
          if (left > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(left));
          }
        }
        lag.push_back(now_ns() - due);
        core::apply_from<&probe_sink>(rt.here(), dest, i);
      }
      done.set_value();
    });
    f.get();
    gen.join();
  });
}

// Standalone fabric, two endpoints, zero modeled latency: a message ping.
void probe_fabric(result& r) {
  net::fabric_params p;
  p.endpoints = 2;
  net::fabric f(p);
  std::atomic<bool> back{false};
  f.set_handler(1, [&f](net::message& m) {
    f.send(net::message{1, 0, 0, std::move(m.payload)});
  });
  f.set_handler(0, [&back](net::message&) { back.store(true); });
  auto& out = r.samples["fabric_rtt_ns"];
  for (int i = 0; i < 5000; ++i) {
    back.store(false);
    const std::int64_t t0 = now_ns();
    f.send(net::message{0, 1, 0, std::vector<std::byte>(16)});
    while (!back.load()) {
    }
    out.push_back(now_ns() - t0);
  }
}

// frame_append and frame_view::parse + iterate, 64 parcels per frame, on
// the argument shape of the workload's dominant parcel.
template <typename Tuple>
void probe_codec(result& r, std::uint64_t seed, bool with_cont,
                 Tuple (*make)(std::uint64_t, std::uint64_t&)) {
  constexpr int kPerFrame = 64;
  auto rng = stream(seed, 9);
  std::vector<parcel::parcel> ps(kPerFrame);
  for (auto& p : ps) {
    std::uint64_t draw = rng();
    p.destination = gas::gid::from_bits(rng() | 1);
    p.action = 7;
    p.source = 0;
    if (with_cont) {
      p.cont = parcel::continuation{gas::gid::from_bits(rng() | 1), 3};
    }
    p.arguments = util::to_bytes(make(rng(), draw));
  }
  std::vector<std::byte> buf;
  auto& enc = r.samples["encode_frame_ns"];
  auto& dec = r.samples["parse_frame_ns"];
  for (int f = 0; f < 3000; ++f) {
    const std::int64_t t0 = now_ns();
    parcel::frame_begin(buf);
    for (const auto& p : ps) parcel::frame_append(buf, p);
    const std::int64_t t1 = now_ns();
    std::size_t bytes = 0;
    const auto view =
        parcel::frame_view::parse(std::span<const std::byte>(buf));
    if (view) {
      for (const auto pv : *view) bytes += pv.arguments().size();
    }
    const std::int64_t t2 = now_ns();
    r.check(view.has_value() && view->count() == kPerFrame && bytes > 0,
            "probe frame round trip");
    enc.push_back(t1 - t0);
    dec.push_back(t2 - t1);
  }
  r.values["frame_parcels"] = kPerFrame;
}

}  // namespace

int run_probe(const options& o) {
  result r;
  {
    core::runtime_params p;
    p.localities = 2;
    p.workers_per_locality = 1;
    p.seed = o.seed;
    core::runtime rt(p);
    rt.start();
    probe_spawn(rt, r);
    probe_resume(rt, r);
    probe_requests(rt, r);
    probe_gas(rt, r);
    probe_patterns(rt, r);
    probe_generator(rt, r);
    rt.stop();
  }
  probe_fabric(r);
  using u64 = std::uint64_t;
  if (o.workload == "ping") {  // async<&ping_echo>(x, rid)
    probe_codec<std::tuple<u64, u64>>(
        r, o.seed, true,
        [](u64 x, u64&) { return std::tuple<u64, u64>{x, x}; });
  } else if (o.workload == "storm") {  // apply<&storm_hit>(seq, t, 0..32 B)
    using shape = std::tuple<u64, std::int64_t, std::vector<std::uint8_t>>;
    probe_codec<shape>(r, o.seed, false, [](u64 x, u64& d) {
      return shape{x, static_cast<std::int64_t>(d >> 1),
                   std::vector<std::uint8_t>(d % 33, 0x5a)};
    });
  } else if (o.workload == "mixed") {  // async<&read_tag>(bits, rid, hops)
    probe_codec<std::tuple<u64, u64, std::uint32_t>>(
        r, o.seed, true, [](u64 x, u64&) {
          return std::tuple<u64, u64, std::uint32_t>{x, x, 0};
        });
  } else {  // kernel: a tracked map chunk (cell, ctx, begin, end)
    probe_codec<std::tuple<u64, u64, u64, u64>>(
        r, o.seed, false, [](u64 x, u64& d) {
          return std::tuple<u64, u64, u64, u64>{x, d, 0, 1};
        });
  }
  if (!r.write(o.out_dir, "probe")) {
    std::fprintf(stderr, "pxbench: cannot write results under %s\n",
                 o.out_dir.c_str());
    return 1;
  }
  return r.failed == 0 ? 0 : 1;
}

}  // namespace pxbench
