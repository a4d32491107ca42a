// Single-process workloads on the sim backend: ping and kernel.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "patterns/patterns.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pxbench {

namespace {

using namespace px;

// Set-up trials per process.  Set-up time shifts as a whole from one
// process to the next, so run.py pools the trials of several processes.
// The first trial (cold code and allocator) is not counted.
constexpr int kSimSetupTrials = 20;

// solve_s is the median round time.  A round is short, so that a host
// stall lands in few rounds and the median steps over them.
constexpr int kPingRound = 10;  // requests per round
constexpr int kSpanEvery = 8;     // traced loops record one request in k

// Peak RSS is read after this many timed requests (ping) or solves
// (kernel): about a quarter of a 20 s run on 4 cores.
rss_mark g_rss{0};
constexpr std::uint64_t kPingRssAt = 100'000;
constexpr std::uint64_t kKernelRssAt = 2'000;

core::runtime_params sim_params(std::size_t localities, std::uint64_t seed) {
  core::runtime_params p;
  p.localities = localities;
  p.workers_per_locality = 1;
  p.fabric.base_latency_ns = 0;  // zero modeled latency: handoffs only
  p.seed = seed;
  return p;
}

// Runtime construct + start, timed; the trials' runtimes are torn down.
void measure_setup(result& r, const core::runtime_params& p) {
  for (int i = 0; i <= kSimSetupTrials; ++i) {
    const std::int64_t t0 = now_ns();
    core::runtime rt(p);
    rt.start();
    if (i > 0) r.samples["setup_ns"].push_back(now_ns() - t0);
    rt.stop();
  }
}

// ------------------------------------------------------------------ ping

std::uint64_t ping_expect(std::uint64_t x) {
  return (x ^ 0x5bd1e9955bd1e995ull) * 0x9e3779b97f4a7c15ull + 1;
}

std::uint64_t ping_echo(std::uint64_t x, std::uint64_t rid) {
  span h("ping.handler", 0, rid, rid % kSpanEvery == 0);
  return ping_expect(x);
}
PX_REGISTER_ACTION(ping_echo)

// One timed phase of closed-loop requests; keys are prefixed with `pre`.
void ping_phase(core::runtime& rt, std::uint64_t seed, double seconds,
                const std::string& pre, result& r) {
  auto rng = stream(seed, 1);
  std::map<std::string, std::uint64_t> before, after;
  std::uint64_t requests = 0;
  auto& rtt = r.samples[pre + "rtt_ns"];
  auto& rounds = r.samples[pre + "round_ns"];
  prefault(rtt, static_cast<std::size_t>(seconds * 60000));
  prefault(rounds, static_cast<std::size_t>(seconds * 6000));
  rt.run([&] {
    const gas::gid dest = rt.locality_gid(1);
    for (int i = 0; i < 200; ++i) {  // warm the pools and caches
      const std::uint64_t x = rng();
      r.check(core::async<&ping_echo>(dest, x, std::uint64_t{1}).get() ==
                  ping_expect(x),
              "ping warmup reply");
    }
    before = counter_totals(rt);
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      const std::int64_t round_start = now_ns();
      for (int k = 0; k < kPingRound; ++k) {
        const std::uint64_t x = rng();
        const std::uint64_t rid = ++requests;
        const bool sampled = rid % kSpanEvery == 0;
        const std::int64_t t0 = now_ns();
        span req("ping.request", 0, rid, sampled);
        lco::future<std::uint64_t> f;
        {
          span a("core.async", req.id(), rid, sampled);
          f = core::async<&ping_echo>(dest, x, rid);
        }
        std::uint64_t y = 0;
        {
          span g("lco.get", req.id(), rid, sampled);
          y = f.get();
        }
        req.end();
        rtt.push_back(now_ns() - t0);
        r.check(y == ping_expect(x), "ping reply mismatch");
        g_rss.add(1);
      }
      rounds.push_back(now_ns() - round_start);
    }
    after = counter_totals(rt);
  });
  r.values[pre + "ops"] += static_cast<double>(requests);
  r.add_counters(pre, counter_delta(before, after));
}

// ---------------------------------------------------------------- kernel
//
// A 3x3 convolution over a seeded image, as pipeline(gray -> sum) with the
// sum stage a nested map_reduce of one row per task: a chunk small enough
// that spawn, steal, termination and LCO costs are a large share of each
// task.

constexpr std::uint32_t kW = 768, kH = 512, kBand = 16;
constexpr std::uint64_t kRowsPerTask = 1;

struct image_coeffs {
  std::uint32_t a[6];
  std::uint32_t c[3];
};
image_coeffs g_img;  // set once per process from the seed, before any solve

void seed_image(std::uint64_t seed) {
  auto rng = stream(seed, 2);
  for (auto& v : g_img.a) v = static_cast<std::uint32_t>(rng() % 251) + 1;
  for (auto& v : g_img.c) v = static_cast<std::uint32_t>(rng() & 0xff);
}

inline std::uint8_t gray_at(std::uint32_t x, std::uint32_t y) {
  const auto r = static_cast<std::uint8_t>(x * g_img.a[0] + y * g_img.a[1] +
                                           g_img.c[0]);
  const auto g = static_cast<std::uint8_t>(x * g_img.a[2] + y * g_img.a[3] +
                                           g_img.c[1]);
  const auto b = static_cast<std::uint8_t>(x * g_img.a[4] + y * g_img.a[5] +
                                           g_img.c[2]);
  return static_cast<std::uint8_t>((77u * r + 150u * g + 29u * b) >> 8);
}

constexpr int kKernel[3][3] = {{1, 2, 1}, {2, 4, 2}, {1, 2, 1}};  // /16

inline std::uint32_t clamp_u(int v, int hi) {
  return static_cast<std::uint32_t>(v < 0 ? 0 : (v > hi ? hi : v));
}

struct band_desc {
  std::uint32_t index = 0, y0 = 0, y1 = 0;
  std::uint64_t rid = 0;
};
template <typename Ar>
void serialize(Ar& ar, band_desc& b) {
  ar & b.index & b.y0 & b.y1 & b.rid;
}

struct gray_band {
  band_desc d;
  std::uint32_t gy0 = 0;
  std::vector<std::uint8_t> gray;
};
template <typename Ar>
void serialize(Ar& ar, gray_band& b) {
  ar & b.d & b.gy0 & b.gray;
}

gray_band stage_gray(band_desc d) {
  gray_band gb;
  gb.d = d;
  gb.gy0 = d.y0 == 0 ? 0 : d.y0 - 1;
  const std::uint32_t gy1 = std::min(d.y1 + 1, kH);
  gb.gray.resize(static_cast<std::size_t>(gy1 - gb.gy0) * kW);
  for (std::uint32_t y = gb.gy0; y < gy1; ++y) {
    for (std::uint32_t x = 0; x < kW; ++x) {
      gb.gray[static_cast<std::size_t>(y - gb.gy0) * kW + x] = gray_at(x, y);
    }
  }
  return gb;
}

std::mutex g_bands_lock;
std::unordered_map<std::uint64_t, std::shared_ptr<const gray_band>> g_bands;

std::uint64_t sum_rows(std::uint64_t band_key, std::uint64_t begin,
                       std::uint64_t end) {
  std::shared_ptr<const gray_band> band;
  {
    std::lock_guard g(g_bands_lock);
    band = g_bands.at(band_key);
  }
  std::uint64_t sum = 0;
  for (std::uint64_t i = begin; i < end; ++i) {
    const std::uint32_t y = band->d.y0 + static_cast<std::uint32_t>(i);
    for (std::uint32_t x = 0; x < kW; ++x) {
      unsigned acc = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        const std::uint32_t yy = clamp_u(static_cast<int>(y) + dy, kH - 1);
        for (int dx = -1; dx <= 1; ++dx) {
          const std::uint32_t xx = clamp_u(static_cast<int>(x) + dx, kW - 1);
          acc += static_cast<unsigned>(kKernel[dy + 1][dx + 1]) *
                 band->gray[static_cast<std::size_t>(yy - band->gy0) * kW +
                            xx];
        }
      }
      sum += acc / 16;
    }
  }
  return sum;
}

std::uint64_t add_u64(std::uint64_t a, std::uint64_t b) { return a + b; }

// Per-solve collection point on locality 0 (the solving fiber waits on the
// semaphore; it exists only while a solve is in flight).
struct solve_state {
  std::atomic<std::uint64_t> sum{0};
  lco::counting_semaphore done{0};
  std::vector<std::int64_t> pushed_ns;
  std::vector<std::int64_t> done_ns;
};
solve_state* g_solve = nullptr;

void band_done(std::uint32_t index, std::uint64_t band_sum) {
  g_solve->done_ns[index] = now_ns();
  g_solve->sum.fetch_add(band_sum, std::memory_order_relaxed);
  g_solve->done.release(1);
}
PX_REGISTER_ACTION(band_done)

void stage_sum(gray_band gb) {
  const band_desc d = gb.d;
  core::runtime& rt = core::this_locality()->rt();
  {
    std::lock_guard g(g_bands_lock);
    g_bands.emplace(d.y0, std::make_shared<const gray_band>(std::move(gb)));
  }
  std::vector<gas::locality_id> all;
  for (std::size_t i = 0; i < rt.num_localities(); ++i) {
    all.push_back(static_cast<gas::locality_id>(i));
  }
  std::uint64_t band_sum = 0;
  {
    span m("patterns.map_reduce", 0, d.rid);
    band_sum = patterns::map_reduce<&sum_rows, &add_u64>(
        rt, std::move(all), d.y1 - d.y0, kRowsPerTask, /*ctx=*/d.y0,
        /*nested=*/true);
  }
  {
    std::lock_guard g(g_bands_lock);
    g_bands.erase(d.y0);
  }
  core::apply<&band_done>(rt.locality_gid(0), d.index, band_sum);
}

std::uint64_t serial_checksum() {
  std::uint64_t sum = 0;
  for (std::uint32_t y = 0; y < kH; ++y) {
    for (std::uint32_t x = 0; x < kW; ++x) {
      unsigned acc = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          acc += static_cast<unsigned>(kKernel[dy + 1][dx + 1]) *
                 gray_at(clamp_u(static_cast<int>(x) + dx, kW - 1),
                         clamp_u(static_cast<int>(y) + dy, kH - 1));
        }
      }
      sum += acc / 16;
    }
  }
  return sum;
}

constexpr std::uint32_t kBands = (kH + kBand - 1) / kBand;

// One solve through run(), so the quiescence that ends it is included.
// Returns false on a checksum mismatch.
bool kernel_solve(core::runtime& rt, std::uint64_t expect, std::uint64_t id,
                  const std::string& pre, result& r) {
  solve_state st;
  st.pushed_ns.assign(kBands, 0);
  st.done_ns.assign(kBands, 0);
  g_solve = &st;
  std::vector<gas::locality_id> all;
  for (std::size_t i = 0; i < rt.num_localities(); ++i) {
    all.push_back(static_cast<gas::locality_id>(i));
  }
  std::int64_t result_ns = 0;
  std::uint64_t solve_span = 0;
  const std::int64_t t0 = now_ns();
  rt.run([&] {
    span solve("kernel.solve", 0, id);
    solve_span = solve.id();
    patterns::pipeline<&stage_gray, &stage_sum> pipe(rt, all, /*window=*/6);
    for (std::uint32_t b = 0; b < kBands; ++b) {
      const std::uint32_t y0 = b * kBand;
      st.pushed_ns[b] = now_ns();
      span p("patterns.push", solve.id(), id);
      pipe.push(band_desc{b, y0, std::min(y0 + kBand, kH), id});
    }
    pipe.close();
    for (std::uint32_t b = 0; b < kBands; ++b) st.done.acquire();
    result_ns = now_ns();
  });
  const std::int64_t t1 = now_ns();
  g_solve = nullptr;
  record_span("core.quiesce", solve_span, id, result_ns, t1);
  r.samples[pre + "round_ns"].push_back(t1 - t0);
  auto& items = r.samples[pre + "rtt_ns"];
  for (std::uint32_t b = 0; b < kBands; ++b) {
    items.push_back(st.done_ns[b] - st.pushed_ns[b]);
  }
  return st.sum.load() == expect;
}

void kernel_phase(core::runtime& rt, std::uint64_t expect, double seconds,
                  const std::string& pre, result& r) {
  static std::uint64_t solves = 0;
  for (int i = 0; i < 3; ++i) {  // warm-up solves, checked but not timed
    r.check(kernel_solve(rt, expect, ++solves, "warmup.", r),
            "kernel warmup checksum");
  }
  r.samples.erase("warmup.round_ns");
  r.samples.erase("warmup.rtt_ns");
  prefault(r.samples[pre + "rtt_ns"],
           static_cast<std::size_t>(seconds * 40000));
  const auto before = counter_totals(rt);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    r.check(kernel_solve(rt, expect, ++solves, pre, r), "kernel checksum");
    g_rss.add(1);
  }
  r.add_counters(pre, counter_delta(before, counter_totals(rt)));
}

}  // namespace

int run_sim(const options& o) {
  result r;
  const bool ping = o.workload == "ping";
  if (!ping && o.workload != "kernel") {
    std::fprintf(stderr, "pxbench sim: %s is not a sim workload\n",
                 o.workload.c_str());
    return 2;
  }
  // ping: 2 localities; kernel: 3 localities (+ the fabric progress thread
  // = 4 busy threads on a 4-core box).
  const core::runtime_params p = sim_params(ping ? 2 : 3, o.seed);
  g_rss.at = ping ? kPingRssAt : kKernelRssAt;
  measure_setup(r, p);
  if (o.setup_only) return r.write(o.out_dir, "sim") ? 0 : 1;

  std::uint64_t expect = 0;
  if (!ping) {
    seed_image(o.seed);
    const std::int64_t t0 = now_ns();
    expect = serial_checksum();
    r.values["serial_ns"] = static_cast<double>(now_ns() - t0);
  }
  {
    core::runtime rt(p);
    rt.start();
    for (int c = 0; c < chunks(o); ++c) {
      const bool traced = c % 2 == 1;
      const std::string pre = traced ? "traced." : "";
      if (traced) span_log::global().enable();
      if (ping) {
        ping_phase(rt, o.seed + c, o.seconds / chunks(o), pre, r);
      } else {
        kernel_phase(rt, expect, o.seconds / chunks(o), pre, r);
      }
      span_log::global().disable();
    }
    rt.stop();
  }
  g_rss.report(r);
  bool ok = r.write(o.out_dir, "sim");
  if (o.trace) {
    ok = span_log::global().write(o.out_dir + "/spans.sim.tsv") && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "pxbench: cannot write results under %s\n",
                 o.out_dir.c_str());
    return 1;
  }
  return r.failed == 0 ? 0 : 1;
}

}  // namespace pxbench
