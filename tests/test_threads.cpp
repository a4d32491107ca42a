// Unit tests: context switching, stacks, and the work-stealing scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <set>
#include <vector>

#include "threads/context.hpp"
#include "threads/scheduler.hpp"
#include "threads/stack.hpp"

namespace {

using namespace px::threads;

// ---------------------------------------------------------------- context

struct ping_pong_state {
  context main_ctx;
  context fiber_ctx;
  std::vector<int> trace;
};
void ping_pong_entry(void* arg) {
  auto* st = static_cast<ping_pong_state*>(arg);
  st->trace.push_back(1);
  context::swap(st->fiber_ctx, st->main_ctx, nullptr);
  st->trace.push_back(3);
  context::swap(st->fiber_ctx, st->main_ctx, nullptr);
  // never reached
  st->trace.push_back(99);
}

TEST(Context, PingPongPreservesControlFlow) {
  std::vector<char> stack_mem(64 * 1024);
  ping_pong_state st;
  st.fiber_ctx =
      context::make(stack_mem.data() + stack_mem.size(), &ping_pong_entry);

  st.trace.push_back(0);
  context::swap(st.main_ctx, st.fiber_ctx, &st);
  st.trace.push_back(2);
  context::swap(st.main_ctx, st.fiber_ctx, nullptr);
  st.trace.push_back(4);

  EXPECT_EQ(st.trace, (std::vector<int>{0, 1, 2, 3, 4}));
}

void payload_entry(void* arg) {
  auto* st = static_cast<ping_pong_state*>(arg);
  void* got = context::swap(st->fiber_ctx, st->main_ctx, st);
  // Payload passed on resume arrives as swap's return value.
  st->trace.push_back(*static_cast<int*>(got));
  context::swap(st->fiber_ctx, st->main_ctx, nullptr);
}

TEST(Context, PayloadRoundTrip) {
  std::vector<char> stack_mem(64 * 1024);
  ping_pong_state st;
  st.fiber_ctx =
      context::make(stack_mem.data() + stack_mem.size(), &payload_entry);
  void* first = context::swap(st.main_ctx, st.fiber_ctx, &st);
  EXPECT_EQ(first, &st);
  int value = 42;
  context::swap(st.main_ctx, st.fiber_ctx, &value);
  EXPECT_EQ(st.trace, std::vector<int>{42});
}

// px_ctx_swap must save/restore mxcsr and the x87 control word: a fiber's
// FP environment is part of its context.  std::fesetround writes both
// control registers on x86-64, so round-tripping the rounding mode across
// swaps exercises exactly the stmxcsr/ldmxcsr + fnstcw/fldcw pairs.
struct fp_state {
  context main_ctx;
  context fiber_ctx;
  bool fiber_kept_downward = false;
};

void fp_entry(void* arg) {
  auto* st = static_cast<fp_state*>(arg);
  std::fesetround(FE_DOWNWARD);
  context::swap(st->fiber_ctx, st->main_ctx, nullptr);
  // Back in the fiber: its FE_DOWNWARD must have been restored even though
  // the main context ran (and checked) FE_TONEAREST in between.
  st->fiber_kept_downward = std::fegetround() == FE_DOWNWARD;
  std::fesetround(FE_TONEAREST);
  context::swap(st->fiber_ctx, st->main_ctx, nullptr);
}

TEST(Context, RoundTripsFpControlState) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  std::vector<char> stack_mem(64 * 1024);
  fp_state st;
  st.fiber_ctx =
      context::make(stack_mem.data() + stack_mem.size(), &fp_entry);
  context::swap(st.main_ctx, st.fiber_ctx, &st);
  // The fiber switched itself to FE_DOWNWARD; our environment is intact.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  context::swap(st.main_ctx, st.fiber_ctx, nullptr);
  EXPECT_TRUE(st.fiber_kept_downward);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// ------------------------------------------------------------------ stack

TEST(StackPool, RoundsUpToPages) {
  stack_pool pool(1);
  EXPECT_GE(pool.usable_bytes(), 4096u);
}

TEST(StackPool, StacksAreWritable) {
  stack_pool pool(16 * 1024);
  stack s = pool.allocate();
  auto* bytes = static_cast<char*>(s.top);
  // Touch the full usable area below top.
  for (std::size_t i = 1; i <= pool.usable_bytes(); ++i) bytes[-static_cast<std::ptrdiff_t>(i)] = 'x';
  pool.deallocate(s);
}

// -------------------------------------------------------------- scheduler

TEST(Scheduler, RunsASingleThread) {
  scheduler sched(scheduler_params{.workers = 2});
  sched.start();
  std::atomic<int> hits{0};
  sched.spawn([&] { hits.fetch_add(1); });
  sched.wait_quiescent();
  EXPECT_EQ(hits.load(), 1);
  sched.stop();
}

TEST(Scheduler, RunsManyThreadsFromExternalSpawner) {
  scheduler sched(scheduler_params{.workers = 4});
  sched.start();
  constexpr int kThreads = 10000;
  std::atomic<int> hits{0};
  for (int i = 0; i < kThreads; ++i) {
    sched.spawn([&] { hits.fetch_add(1, std::memory_order_relaxed); });
  }
  sched.wait_quiescent();
  EXPECT_EQ(hits.load(), kThreads);
  EXPECT_EQ(sched.stats().completed, static_cast<std::uint64_t>(kThreads));
  sched.stop();
}

TEST(Scheduler, NestedSpawnFanOut) {
  scheduler sched(scheduler_params{.workers = 4});
  sched.start();
  std::atomic<int> hits{0};
  // Binary fan-out tree of depth 10 => 2^10 leaves.
  std::function<void(int)> node = [&](int depth) {
    if (depth == 0) {
      hits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    sched.spawn([&, depth] { node(depth - 1); });
    sched.spawn([&, depth] { node(depth - 1); });
  };
  sched.spawn([&] { node(10); });
  sched.wait_quiescent();
  EXPECT_EQ(hits.load(), 1024);
  sched.stop();
}

TEST(Scheduler, YieldInterleavesThreads) {
  scheduler sched(scheduler_params{.workers = 1});
  sched.start();
  std::atomic<int> running{0};
  std::atomic<int> max_seen{0};
  std::atomic<bool> go{false};
  for (int i = 0; i < 4; ++i) {
    sched.spawn([&] {
      // Gate: yield until every sibling is spawned so the single worker
      // cannot run one thread to completion before the others exist.
      while (!go.load()) scheduler::yield();
      running.fetch_add(1);
      for (int k = 0; k < 50; ++k) {
        int cur = running.load();
        int prev = max_seen.load();
        while (prev < cur && !max_seen.compare_exchange_weak(prev, cur)) {
        }
        scheduler::yield();
      }
      running.fetch_sub(1);
    });
  }
  go.store(true);
  sched.wait_quiescent();
  // With one worker and cooperative yields, all 4 threads were live at once.
  EXPECT_EQ(max_seen.load(), 4);
  sched.stop();
}

TEST(Scheduler, SuspendResumeFromAnotherOsThread) {
  scheduler sched(scheduler_params{.workers = 2});
  sched.start();
  std::atomic<thread_descriptor*> parked{nullptr};
  std::atomic<bool> resumed_flag{false};

  sched.spawn([&] {
    scheduler::suspend(
        [](thread_descriptor* td, void* arg) {
          static_cast<std::atomic<thread_descriptor*>*>(arg)->store(td);
        },
        &parked);
    // Only reached after the external resume below.
    resumed_flag.store(true);
  });

  // Busy-wait for the suspend hook to publish the descriptor.
  while (parked.load() == nullptr) {
  }
  EXPECT_FALSE(resumed_flag.load());
  sched.resume(parked.load());
  sched.wait_quiescent();
  EXPECT_TRUE(resumed_flag.load());
  sched.stop();
}

TEST(Scheduler, SuspendHookMayResumeImmediately) {
  scheduler sched(scheduler_params{.workers = 2});
  sched.start();
  std::atomic<int> step{0};
  sched.spawn([&] {
    step.store(1);
    // Hook decides the wait is already satisfied and resumes in place.
    scheduler::suspend(
        [](thread_descriptor* td, void*) { td->owner->resume(td); }, nullptr);
    step.store(2);
  });
  sched.wait_quiescent();
  EXPECT_EQ(step.load(), 2);
  sched.stop();
}

TEST(Scheduler, StealsAcrossWorkers) {
  scheduler sched(scheduler_params{.workers = 4, .steal_rounds = 128});
  sched.start();
  std::atomic<int> done{0};
  // One producer thread spawns children that busy-spin briefly, forcing
  // distribution across workers.
  sched.spawn([&] {
    for (int i = 0; i < 256; ++i) {
      sched.spawn([&] {
        volatile int x = 0;
        for (int k = 0; k < 2000; ++k) x = x + k;
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  sched.wait_quiescent();
  EXPECT_EQ(done.load(), 256);
  sched.stop();
}

TEST(Scheduler, ThreadIdsAreDistinct) {
  scheduler sched(scheduler_params{.workers = 2});
  sched.start();
  std::mutex mu;
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    sched.spawn([&] {
      thread_descriptor* self = scheduler::self();
      ASSERT_NE(self, nullptr);
      std::lock_guard lock(mu);
      ids.insert(self->id);
    });
  }
  sched.wait_quiescent();
  EXPECT_EQ(ids.size(), 100u);
  sched.stop();
}

TEST(Scheduler, SelfIsNullOnPlainOsThread) {
  EXPECT_EQ(scheduler::self(), nullptr);
}

TEST(Scheduler, StatsCountCompletions) {
  scheduler sched(scheduler_params{.workers = 2});
  sched.start();
  for (int i = 0; i < 32; ++i) sched.spawn([] {});
  sched.wait_quiescent();
  auto st = sched.stats();
  EXPECT_EQ(st.spawned, 32u);
  EXPECT_EQ(st.completed, 32u);
  sched.stop();
}

}  // namespace
