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
#include <cstdio>

#include "common.hpp"
#include "core/action.hpp"
#include "core/echo.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
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

}  // namespace

int main() {
  using namespace px;
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
