// Tests: echo copy semantics (split-phase commit, staleness, retry) and
// percolation (prestaging, back-pressure, completion).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "core/echo.hpp"
#include "core/percolation.hpp"
#include "core/runtime.hpp"

namespace {

using namespace px;
using core::runtime;
using core::runtime_params;

runtime_params quick_params(std::size_t localities, unsigned workers = 2) {
  runtime_params p;
  p.localities = localities;
  p.workers_per_locality = workers;
  return p;
}

// -------------------------------------------------------------------- echo

TEST(Echo, ReadReturnsInitialEverywhere) {
  runtime rt(quick_params(3));
  rt.start();
  core::echo<int> var(rt, 0, 41);
  rt.run([&] {
    auto [v0, ver0] = var.read();
    EXPECT_EQ(v0, 41);
    EXPECT_EQ(ver0, 1u);
  });
  // Read from a non-home locality's thread too.
  std::atomic<int> seen{0};
  rt.at(2).spawn([&] { seen.store(var.read().first); });
  rt.wait_quiescent();
  EXPECT_EQ(seen.load(), 41);
}

TEST(Echo, CommitWithCurrentVersionSucceedsAndPropagates) {
  runtime rt(quick_params(3));
  rt.start();
  core::echo<int> var(rt, 0, 1);
  rt.run([&] {
    auto [v, ver] = var.read();
    EXPECT_TRUE(var.commit(ver, v + 99).get());
  });
  // After quiescence every replica saw the broadcast.
  std::atomic<int> at2{0};
  rt.at(2).spawn([&] { at2.store(var.read().first); });
  rt.wait_quiescent();
  EXPECT_EQ(at2.load(), 100);
  EXPECT_EQ(rt.echo_mgr().stats().commits_ok, 1u);
}

TEST(Echo, StaleCommitIsRejected) {
  runtime rt(quick_params(2));
  rt.start();
  core::echo<int> var(rt, 0, 10);
  rt.run([&] {
    auto [v, ver] = var.read();
    EXPECT_TRUE(var.commit(ver, v + 1).get());   // version -> 2
    EXPECT_FALSE(var.commit(ver, v + 2).get());  // stale: still quotes ver 1
  });
  EXPECT_EQ(rt.echo_mgr().stats().commits_stale, 1u);
}

TEST(Echo, UpdateRetriesUntilCommitted) {
  runtime rt(quick_params(4));
  rt.start();
  core::echo<int> var(rt, 0, 0);
  constexpr int kWriters = 16;
  rt.run([&] {
    lco::and_gate done(kWriters);
    for (int i = 0; i < kWriters; ++i) {
      const auto where = static_cast<gas::locality_id>(i % 4);
      rt.at(where).spawn([&] {
        var.update([](int x) { return x + 1; });
        done.signal();
      });
    }
    done.wait();
  });
  rt.run([&] {
    // The home copy has all increments (update() validates at the home).
    auto [bytes, ver] = rt.echo_mgr().home_read(var.id());
    EXPECT_EQ(util::from_bytes<int>(bytes), kWriters);
    EXPECT_EQ(ver, static_cast<std::uint64_t>(kWriters) + 1);
  });
}

TEST(Echo, SplitPhaseOverlapsComputeWithVerification) {
  // The defining property: between commit() and .get() the thread keeps
  // computing with its optimistic value.
  runtime_params p = quick_params(2);
  p.fabric.base_latency_ns = 500'000;  // 0.5ms round trip, easily visible
  runtime rt(p);
  rt.start();
  core::echo<int> var(rt, 1, 5);
  rt.run([&] {
    auto [v, ver] = var.read();  // immediate, local
    auto ack = var.commit(ver, v * 2);
    // Overlapped work while the coherency verification is in flight.
    int local_progress = 0;
    while (!ack.is_ready()) ++local_progress;
    EXPECT_TRUE(ack.get());
    EXPECT_GT(local_progress, 0);  // we really did overlap
  });
}

TEST(Echo, StructuredValueType) {
  struct vec3 {
    double x = 0, y = 0, z = 0;
  };
  runtime rt(quick_params(2));
  rt.start();
  core::echo<std::vector<double>> var(rt, 0, {1.0, 2.0});
  rt.run([&] {
    auto [v, ver] = var.read();
    v.push_back(3.0);
    EXPECT_TRUE(var.commit(ver, v).get());
    auto [v2, ver2] = var.read();
    EXPECT_EQ(v2.size(), 3u);
    EXPECT_EQ(ver2, 2u);
  });
}

// ------------------------------------------------------------- percolation

int times_two(int x) { return 2 * x; }
PX_REGISTER_ACTION(times_two)

std::atomic<int> g_perc_running{0};
std::atomic<int> g_perc_peak{0};
// Until then a slow_task keeps its staging slot while the issuer has not
// yet had to wait for one; 0 = hold for the 64 yields only.
std::atomic<std::int64_t> g_perc_hold_until_ns{0};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void slow_task(int) {
  const int now = g_perc_running.fetch_add(1) + 1;
  int prev = g_perc_peak.load();
  while (prev < now && !g_perc_peak.compare_exchange_weak(prev, now)) {
  }
  // Holding the slot until the issuer blocks makes the full window an
  // observed fact rather than a race between how fast this locality
  // drains it and how fast the issuer (which may deliver its own parcels)
  // refills it.  The deadline turns missing back-pressure into a failed
  // expectation instead of a hang.
  const auto& pm = core::this_locality()->rt().percolation_mgr();
  for (int i = 0; i < 64 || (pm.stats().slot_waits == 0 &&
                             steady_ns() < g_perc_hold_until_ns.load());
       ++i) {
    px::threads::scheduler::yield();
  }
  g_perc_running.fetch_sub(1);
}
PX_REGISTER_ACTION(slow_task)

TEST(Percolation, RunsAtTargetAndReturnsResult) {
  runtime rt(quick_params(2));
  rt.start();
  int result = 0;
  rt.run([&] { result = core::percolate<&times_two>(1, 21).get(); });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(rt.percolation_mgr().stats().tasks_percolated, 1u);
}

TEST(Percolation, StagingSlotsApplyBackpressure) {
  runtime_params p = quick_params(2, 2);
  p.staging_slots_per_locality = 4;
  runtime rt(p);
  rt.start();
  g_perc_running.store(0);
  g_perc_peak.store(0);
  g_perc_hold_until_ns.store(steady_ns() + 2'000'000'000);
  rt.run([&] {
    std::vector<lco::future<void>> futs;
    for (int i = 0; i < 64; ++i) {
      futs.push_back(core::percolate<&slow_task>(1, i));
    }
    for (auto& f : futs) f.wait();
  });
  g_perc_hold_until_ns.store(0);
  // Never more tasks resident at the target than staging slots.
  EXPECT_LE(g_perc_peak.load(), 4);
  EXPECT_GT(rt.percolation_mgr().stats().slot_waits, 0u);
}

TEST(Percolation, SlotsRecycleAcrossBatches) {
  runtime_params p = quick_params(2);
  p.staging_slots_per_locality = 2;
  runtime rt(p);
  rt.start();
  for (int round = 0; round < 3; ++round) {
    int total = 0;
    rt.run([&] {
      auto a = core::percolate<&times_two>(1, 1);
      auto b = core::percolate<&times_two>(1, 2);
      auto c = core::percolate<&times_two>(1, 3);
      total = a.get() + b.get() + c.get();
    });
    EXPECT_EQ(total, 12);
  }
}

}  // namespace
