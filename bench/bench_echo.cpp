// ECHO-1: echo copy semantics vs home-anchored access (paper §2.2: "When a
// writable variable is to be used by many separate execution points during
// the same temporal interval, ParalleX may assert a copy semantics called
// echo ... This permits overlap between coherency verification and
// continued computation").
//
// K readers/writers spread across localities share one variable.  Each
// iteration does R reads, some compute, and occasionally a write.
//   home-anchored: every read and write is a round trip to the home
//                  locality (the no-replication discipline);
//   echo:          reads hit the local replica at zero fabric cost; writes
//                  are split-phase validated commits.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/action.hpp"
#include "core/echo.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "util/subproc.hpp"
#include "util/table.hpp"

namespace {

using namespace px;

constexpr int kIterations = 60;
constexpr int kReadsPerIter = 8;
constexpr double kComputeUs = 5.0;
constexpr int kWriteEvery = 10;  // one write per 10 iterations

double g_home_value = 0;

double home_read() { return g_home_value; }
PX_REGISTER_ACTION(home_read)

void home_write(double v) { g_home_value = v; }
PX_REGISTER_ACTION(home_write)

core::runtime_params make_params(std::size_t localities) {
  core::runtime_params p;
  p.localities = localities;
  p.workers_per_locality = 2;
  p.fabric.base_latency_ns = 20'000;  // 20us
  return p;
}

double run_home_anchored_ms(core::runtime& rt, int actors) {
  double ms = 0;
  rt.run([&] {
    ms = bench::time_ms([&] {
      lco::and_gate done(static_cast<std::uint64_t>(actors));
      for (int a = 0; a < actors; ++a) {
        const auto where =
            static_cast<gas::locality_id>(a % rt.num_localities());
        rt.at(where).spawn([&, a] {
          for (int it = 0; it < kIterations; ++it) {
            double acc = 0;
            for (int r = 0; r < kReadsPerIter; ++r) {
              acc += core::async<&home_read>(rt.locality_gid(0)).get();
            }
            bench::busy_spin_us(kComputeUs);
            if (it % kWriteEvery == a % kWriteEvery) {
              core::async<&home_write>(rt.locality_gid(0), acc + 1).get();
            }
          }
          done.signal();
        });
      }
      done.wait();
    });
  });
  return ms;
}

double run_echo_ms(core::runtime& rt, int actors) {
  double ms = 0;
  rt.run([&] {
    core::echo<double> var(rt, 0, 0.0);
    ms = bench::time_ms([&] {
      lco::and_gate done(static_cast<std::uint64_t>(actors));
      for (int a = 0; a < actors; ++a) {
        const auto where =
            static_cast<gas::locality_id>(a % rt.num_localities());
        rt.at(where).spawn([&, a] {
          for (int it = 0; it < kIterations; ++it) {
            double acc = 0;
            std::uint64_t version = 0;
            for (int r = 0; r < kReadsPerIter; ++r) {
              auto [v, ver] = var.read();  // local replica: no fabric
              acc += v;
              version = ver;
            }
            bench::busy_spin_us(kComputeUs);
            if (it % kWriteEvery == a % kWriteEvery) {
              // Split-phase: continue only when validation demands it.
              auto ack = var.commit(version, acc + 1);
              if (!ack.get()) {
                var.update([&](double cur) { return cur + 1; });
              }
            }
          }
          done.signal();
        });
      }
      done.wait();
    });
  });
  return ms;
}

// ---------------------------------------------- two-process net mode
//
// PX_BENCH_NET=1 turns this binary into a two-process transport benchmark:
// the parent forks itself as ranks once per backend — tcp loopback, then
// shm rings — and each pass has rank 0 measure (a) single-request action
// round-trip latency (the eager-flush path) and (b) batched
// fire-and-forget parcel throughput including the distributed quiescence
// wait.  The launcher collects both passes into one BENCH_net.json with a
// per-backend section each plus shm-vs-tcp speedup headlines.  This is the
// perf-trajectory probe for the real data planes, the wire counterpart of
// the modeled numbers in BENCH_latency.json/BENCH_overhead.json.

std::uint64_t net_ping(std::uint64_t x) { return x + 1; }
PX_REGISTER_ACTION(net_ping)

std::atomic<std::uint64_t> g_net_hits{0};
void net_storm_hit() { g_net_hits.fetch_add(1); }
PX_REGISTER_ACTION(net_storm_hit)

int net_rank_main() {
  const int rtt_iters = bench::smoke_mode() ? 200 : 5000;
  const int storm_parcels = bench::smoke_mode() ? 20'000 : 400'000;
  const char* backend_env = std::getenv("PX_NET_BACKEND");
  const std::string backend = backend_env != nullptr ? backend_env : "tcp";

  core::runtime rt;  // backend/rank/ranks from the launcher's PX_NET_* env
  double rtt_us = 0.0;
  util::log_histogram rtt_hist;  // per-request ns, for the tail columns
  rt.run([&] {
    if (rt.rank() != 0) return;
    for (int i = 0; i < 50; ++i) {  // warmup
      core::async<&net_ping>(rt.locality_gid(1), 1ull).get();
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < rtt_iters; ++i) {
      const auto r0 = std::chrono::steady_clock::now();
      core::async<&net_ping>(rt.locality_gid(1),
                             static_cast<std::uint64_t>(i))
          .get();
      rtt_hist.add(std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - r0)
                       .count());
    }
    rtt_us = std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - t0)
                 .count() /
             rtt_iters;
  });

  // Throughput storm, timed around run() so the figure includes shipping,
  // remote delivery, AND the distributed quiescence proof.
  const auto t0 = std::chrono::steady_clock::now();
  rt.run([&] {
    if (rt.rank() != 0) return;
    for (int i = 0; i < storm_parcels; ++i) {
      core::apply<&net_storm_hit>(rt.locality_gid(1));
    }
  });
  const double storm_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  int rc = 0;
  if (rt.rank() == 1 &&
      g_net_hits.load() != static_cast<std::uint64_t>(storm_parcels)) {
    std::fprintf(stderr, "net bench: rank 1 saw %llu of %d storm parcels\n",
                 static_cast<unsigned long long>(g_net_hits.load()),
                 storm_parcels);
    rc = 1;
  }
  if (rt.rank() == 0) {
    const auto books = rt.transport().stats(0);
    const double parcels_per_sec = storm_parcels / (storm_ms / 1000.0);
    std::printf("%s: %.1f us/round-trip, storm %d parcels in "
                "%.1f ms (%.0f parcels/s, %llu frames, %llu bytes tx)\n",
                backend.c_str(), rtt_us, storm_parcels, storm_ms,
                parcels_per_sec,
                static_cast<unsigned long long>(books.messages_sent),
                static_cast<unsigned long long>(books.bytes_sent));
    bench::json_writer json;
    bench::add_metadata(json, backend);
    json.add("rtt_iters", static_cast<std::int64_t>(rtt_iters));
    json.add("single_request_rtt_us", rtt_us);
    bench::add_hist_percentiles(json, "rtt_ns", rtt_hist);
    json.add("storm_parcels", static_cast<std::int64_t>(storm_parcels));
    json.add("storm_ms", storm_ms);
    json.add("parcels_per_sec", parcels_per_sec);
    json.add("frames_tx", static_cast<std::int64_t>(books.messages_sent));
    json.add("bytes_tx", static_cast<std::int64_t>(books.bytes_sent));
    // The launcher collates the per-backend sections; this rank only
    // drops its own where the launcher told it to.
    const char* out = std::getenv("PX_BENCH_NET_OUT");
    json.write(out != nullptr ? out : "BENCH_net.json");
  }
  rt.stop();
  return rc;
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

// Pulls `"key": <number>` out of a rendered section; 0.0 when absent.
double json_number(const std::string& body, const std::string& key) {
  const auto pos = body.find("\"" + key + "\": ");
  if (pos == std::string::npos) return 0.0;
  return std::strtod(body.c_str() + pos + key.size() + 4, nullptr);
}

// One backend pass: two ranks over `backend`, rank 0's section written to
// `out_path`.  Returns false if any rank failed.
bool net_run_backend(const std::string& backend, const std::string& out_path) {
  const int nranks = 2;
  const int root_port = util::pick_free_tcp_port();
  std::printf("-- %s pass: launching %d ranks\n", backend.c_str(), nranks);
  const std::vector<std::string> argv = {util::self_exe_path()};
  std::vector<pid_t> pids;
  for (int r = 0; r < nranks; ++r) {
    auto env = util::net_rank_env(r, nranks, root_port, backend);
    env.emplace_back("PX_BENCH_NET_OUT", out_path);
    pids.push_back(util::spawn_process(argv, env));
  }
  int failures = 0;
  for (int r = 0; r < nranks; ++r) {
    if (util::wait_exit(pids[r]) != 0) failures += 1;
  }
  if (failures != 0) {
    std::fprintf(stderr, "net bench: %d %s rank(s) failed\n", failures,
                 backend.c_str());
    return false;
  }
  return true;
}

int net_launcher_main() {
  std::printf("ECHO-net / two-process parcel bench: tcp loopback vs shm\n");
  bool ok = true;
  std::vector<std::string> sections;
  for (const std::string backend : {"tcp", "shm"}) {
    const std::string part = "BENCH_net." + backend + ".part.json";
    if (!net_run_backend(backend, part)) {
      ok = false;
      continue;
    }
    const std::string body = slurp(part);
    std::remove(part.c_str());
    if (body.empty()) {
      std::fprintf(stderr, "net bench: missing %s section\n",
                   backend.c_str());
      ok = false;
      continue;
    }
    sections.push_back(body);
  }
  if (!ok || sections.size() != 2) return 1;

  const std::string& tcp = sections[0];
  const std::string& shm = sections[1];
  bench::json_writer json;
  json.add("bench", std::string("net"));
  bench::add_metadata(json, "tcp+shm");
  json.add("smoke", static_cast<std::int64_t>(bench::smoke_mode() ? 1 : 0));
  json.add("ranks", static_cast<std::int64_t>(2));
  json.add_rows("backends", sections);
  // Headlines a dashboard can threshold without digging into sections.
  const double tcp_rtt = json_number(tcp, "single_request_rtt_us");
  const double shm_rtt = json_number(shm, "single_request_rtt_us");
  const double tcp_pps = json_number(tcp, "parcels_per_sec");
  const double shm_pps = json_number(shm, "parcels_per_sec");
  json.add("tcp_rtt_us", tcp_rtt);
  json.add("shm_rtt_us", shm_rtt);
  json.add("tcp_parcels_per_sec", tcp_pps);
  json.add("shm_parcels_per_sec", shm_pps);
  json.add("shm_speedup_rtt", shm_rtt > 0 ? tcp_rtt / shm_rtt : 0.0);
  json.add("shm_speedup_storm", tcp_pps > 0 ? shm_pps / tcp_pps : 0.0);
  json.write("BENCH_net.json");
  std::printf("shm vs tcp: rtt %.1fus -> %.1fus (%.1fx), storm %.0f -> "
              "%.0f parcels/s (%.2fx)\n",
              tcp_rtt, shm_rtt, shm_rtt > 0 ? tcp_rtt / shm_rtt : 0.0,
              tcp_pps, shm_pps, tcp_pps > 0 ? shm_pps / tcp_pps : 0.0);
  return 0;
}

}  // namespace

int main() {
  using namespace px;
  if (std::getenv("PX_BENCH_NET") != nullptr &&
      std::getenv("PX_BENCH_NET")[0] != '0') {
    // Children carry PX_NET_RANK (set by the launcher); the plain
    // invocation is the launcher itself.
    return std::getenv("PX_NET_RANK") != nullptr ? net_rank_main()
                                                 : net_launcher_main();
  }
  bench::banner(
      "ECHO-1 / echo copy semantics vs home-anchored sharing (section 2.2)",
      "\"echo ... identifies the tree of equivalent locations all of which "
      "are to be operated upon as if a single value ... reducing the "
      "apparent latency and increasing the available parallelism.\"");

  util::text_table table({"sharers", "home-anchored (ms)", "echo (ms)",
                          "speedup", "stale commits"});
  for (const int actors : {1, 2, 4, 8, 16}) {
    core::runtime rt(make_params(4));
    rt.start();
    const double home_ms = run_home_anchored_ms(rt, actors);
    const auto stale_before = rt.echo_mgr().stats().commits_stale;
    const double echo_ms = run_echo_ms(rt, actors);
    const auto stale =
        rt.echo_mgr().stats().commits_stale - stale_before;
    table.add_row(actors, home_ms, echo_ms, home_ms / echo_ms,
                  static_cast<std::int64_t>(stale));
    rt.stop();
  }
  table.print(
      "read-mostly sharing (8 reads : 0.1 writes per iter), 20us fabric");
  std::printf("%s", table.render_csv().c_str());
  std::printf(
      "\nshape check: home-anchored cost scales with reads x latency x "
      "sharers; echo reads are local so time stays near the compute+write "
      "bound, with occasional stale-commit retries under contention.\n");
  return 0;
}
