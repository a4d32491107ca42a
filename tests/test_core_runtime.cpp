// Integration tests: the ParalleX runtime end to end — localities, typed
// actions, parcels with continuations, AGAS migration with stale-cache
// forwarding, processes, and quiescence.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/action.hpp"
#include "core/process.hpp"
#include "core/runtime.hpp"
#include "dispatch_probe.hpp"

namespace {

using namespace px;
using core::runtime;
using core::runtime_params;

std::atomic<int> g_side_effect{0};

void bump(int amount) { g_side_effect.fetch_add(amount); }
PX_REGISTER_ACTION(bump)

int add(int a, int b) { return a + b; }
PX_REGISTER_ACTION(add)

int which_locality() {
  return static_cast<int>(core::this_locality()->id());
}
PX_REGISTER_ACTION(which_locality)

std::uint64_t fib(std::uint64_t n) {
  if (n < 2) return n;
  // Distribute the left branch to a pseudo-random locality; keep the right
  // branch local.  Classic message-driven recursive decomposition.
  core::locality* here = core::this_locality();
  runtime& rt = here->rt();
  const auto target = static_cast<gas::locality_id>(
      (n * 2654435761u) % rt.num_localities());
  auto left = core::async<&fib>(rt.locality_gid(target), n - 1);
  const std::uint64_t right = fib(n - 2);
  return left.get() + right;
}
PX_REGISTER_ACTION(fib)

runtime_params quick_params(std::size_t localities, unsigned workers = 2) {
  runtime_params p;
  p.localities = localities;
  p.workers_per_locality = workers;
  return p;
}

TEST(Runtime, StartsAndStopsCleanly) {
  runtime rt(quick_params(2));
  rt.start();
  rt.stop();
}

TEST(Runtime, RunExecutesRootAndQuiesces) {
  runtime rt(quick_params(2));
  std::atomic<bool> ran{false};
  rt.run([&] { ran.store(true); });
  EXPECT_TRUE(ran.load());
}

TEST(Runtime, ApplyRunsOnTargetLocality) {
  runtime rt(quick_params(4));
  g_side_effect.store(0);
  rt.run([&] {
    for (int i = 0; i < 4; ++i) {
      core::apply<&bump>(rt.locality_gid(i), 10);
    }
  });
  EXPECT_EQ(g_side_effect.load(), 40);
}

TEST(Runtime, AsyncReturnsRemoteResult) {
  runtime rt(quick_params(2));
  int result = 0;
  rt.run([&] {
    auto f = core::async<&add>(rt.locality_gid(1), 20, 22);
    result = f.get();
  });
  EXPECT_EQ(result, 42);
}

TEST(Runtime, AsyncLandsOnTheNamedLocality) {
  runtime rt(quick_params(4));
  std::vector<int> where(4, -1);
  rt.run([&] {
    for (int i = 0; i < 4; ++i) {
      where[i] = core::async<&which_locality>(rt.locality_gid(i)).get();
    }
  });
  EXPECT_EQ(where, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Runtime, InlineDeliveryKeepsEachThreadsLocality) {
  // At zero modeled latency the sim fabric delivers on the sending thread:
  // locality 0's fiber runs locality 1's dispatch inside its own send, and
  // locality 1's worker delivers the reply into locality 0.  Each must come
  // back out still being its own locality.
  runtime rt(quick_params(2, 1));
  ASSERT_TRUE(rt.fabric().delivers_inline());
  std::vector<int> here_after_send;
  std::vector<int> remote_here;
  rt.run([&] {
    for (int i = 0; i < 8; ++i) {
      auto f = core::async<&which_locality>(rt.locality_gid(1));
      rt.port(0).flush(1);  // no-op when the eager flush already shipped it
      here_after_send.push_back(
          static_cast<int>(core::this_locality()->id()));
      remote_here.push_back(f.get());
    }
  });
  EXPECT_EQ(here_after_send, std::vector<int>(8, 0));
  EXPECT_EQ(remote_here, std::vector<int>(8, 1));
}

constexpr std::uint64_t kFrameSeqs = 2000;
std::array<std::atomic<std::uint32_t>, kFrameSeqs> g_frame_runs{};
std::atomic<std::uint64_t> g_frame_misplaced{0};

std::uint64_t frame_hit(std::uint64_t seq) {
  core::locality* here = core::this_locality();
  if (threads::scheduler::self() == nullptr || here == nullptr ||
      here->id() != 1 || !here->sched().on_worker()) {
    g_frame_misplaced.fetch_add(1);
  }
  g_frame_runs[seq].fetch_add(1);
  return seq + 1;
}
PX_REGISTER_ACTION(frame_hit)

TEST(Runtime, MultiParcelFrameRunsOnDestinationWorker) {
  // At zero modeled latency locality 0's worker delivers the frames it
  // ships, but their user actions are locality 1's work: each runs exactly
  // once on locality 1's worker, never on the sender's, and every
  // coalesced reply fires before run() returns.  The dispatch probe pins
  // the handoff: locality 1's worker dispatches the user parcels of a
  // multi-parcel frame, one task per frame, and only a frame's lone user
  // parcel is dispatched on the sender's thread.
  runtime_params p = quick_params(2, 1);
  p.parcel_flush_count = 256;
  p.parcel_eager_flush = false;
  runtime rt(p);
  ASSERT_TRUE(rt.fabric().delivers_inline());
  std::uint64_t sum = 0;
  rt.run([&] {
    std::vector<lco::future<std::uint64_t>> replies;
    for (std::uint64_t seq = 0; seq < kFrameSeqs; ++seq) {
      if (seq % 2 == 0) {
        replies.push_back(core::async<&frame_hit>(rt.locality_gid(1), seq));
      } else {
        core::apply<&frame_hit>(rt.locality_gid(1), seq);
      }
      px::test::dispatch_probe::send(*core::this_locality(), 1);
    }
    for (auto& f : replies) sum += f.get();
  });
  EXPECT_EQ(sum, kFrameSeqs * kFrameSeqs / 4);  // sum of seq + 1, even seq
  for (std::uint64_t seq = 0; seq < kFrameSeqs; ++seq) {
    ASSERT_EQ(g_frame_runs[seq].load(), 1u) << "seq " << seq;
  }
  EXPECT_EQ(g_frame_misplaced.load(), 0u);
  // The parcels really travelled in multi-parcel frames.
  const std::uint64_t frames = rt.fabric().stats(1).messages_received;
  EXPECT_LT(frames * 4, kFrameSeqs);
  namespace probe = px::test::dispatch_probe;
  EXPECT_EQ(probe::ran.load(), kFrameSeqs);
  EXPECT_LE(probe::off_worker.load(), frames);
  std::lock_guard g(probe::lock);
  EXPECT_GE(probe::dispatchers.size(), 1u);
  EXPECT_LE(probe::dispatchers.size(), frames);
}

TEST(Runtime, EagerFlushShipsIsolatedRequestImmediately) {
  // Isolated requests from an otherwise-idle locality: the first-parcel
  // eager flush must ship them from route() itself (the sender never has
  // to suspend and wait for the flush-on-idle pass), and the reply leg is
  // just as isolated, so both ports count eager flushes.  Several round
  // trips because any single one can lose the benign race where the
  // fabric progress thread's idle flush ships the frame first (counted as
  // a demand flush); all of them losing it is not a thing.
  runtime rt(quick_params(2, 1));
  int result = 0;
  rt.run([&] {
    for (int i = 0; i < 16; ++i) {
      result = core::async<&add>(rt.locality_gid(1), 20, i).get();
    }
  });
  EXPECT_EQ(result, 35);
  EXPECT_GE(rt.port(0).stats().eager_flushes, 1u);
  EXPECT_GE(rt.port(1).stats().eager_flushes, 1u);
}

TEST(Runtime, EagerFlushDisabledFallsBackToIdleFlush) {
  runtime_params p = quick_params(2, 1);
  p.parcel_eager_flush = 0;
  runtime rt(p);
  int result = 0;
  rt.run([&] {
    result = core::async<&add>(rt.locality_gid(1), 20, 22).get();
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(rt.port(0).stats().eager_flushes, 0u);
  EXPECT_EQ(rt.port(1).stats().eager_flushes, 0u);
  // The parcels still left — through demand (idle/quiescence) flushes.
  EXPECT_GE(rt.port(0).stats().demand_flushes, 1u);
}

TEST(Runtime, DistributedFibonacci) {
  runtime rt(quick_params(4, 2));
  std::uint64_t result = 0;
  rt.run([&] {
    result = core::async<&fib>(rt.locality_gid(0), 16).get();
  });
  EXPECT_EQ(result, 987u);
}

TEST(Runtime, DistributedFibonacciWithLatency) {
  runtime_params p = quick_params(4, 2);
  p.fabric.base_latency_ns = 20'000;  // 20us per parcel hop
  runtime rt(p);
  std::uint64_t result = 0;
  rt.run([&] {
    result = core::async<&fib>(rt.locality_gid(0), 12).get();
  });
  EXPECT_EQ(result, 144u);
}

TEST(Runtime, LocalityGidsAreRegisteredNames) {
  runtime rt(quick_params(3));
  auto g0 = rt.names().lookup("hw/locality/0");
  auto g2 = rt.names().lookup("hw/locality/2");
  ASSERT_TRUE(g0.has_value());
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(*g0, rt.locality_gid(0));
  EXPECT_EQ(*g2, rt.locality_gid(2));
  EXPECT_EQ(g0->kind(), gas::gid_kind::hardware);
}

// ------------------------------------------------------- object migration

struct counter_object {
  std::atomic<int> hits{0};
};

void hit_counter(std::uint64_t gid_bits) {
  auto* here = core::this_locality();
  auto obj = std::static_pointer_cast<counter_object>(
      here->get_object(gas::gid::from_bits(gid_bits)));
  ASSERT_NE(obj, nullptr);  // delivery path must have routed us correctly
  obj->hits.fetch_add(1);
}
PX_REGISTER_ACTION(hit_counter)

TEST(Runtime, ParcelsFollowMigratedObjects) {
  runtime rt(quick_params(3));
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(0);

  rt.run([&] { core::apply<&hit_counter>(obj, obj.bits()); });
  EXPECT_EQ(rt.get_local<counter_object>(0, obj)->hits.load(), 1);

  // Migrate 0 -> 2 and send again from locality 0, whose AGAS cache still
  // names itself: the parcel takes route()'s local fast path, finds the
  // object gone and is forwarded through an owning copy of the view.  The
  // hit on locality 2 shows the arguments survived the copy.
  EXPECT_TRUE(rt.migrate_gid(obj, 2));
  rt.run([&] { core::apply<&hit_counter>(obj, obj.bits()); });
  auto moved = rt.get_local<counter_object>(2, obj);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->hits.load(), 2);
  EXPECT_FALSE(rt.at(0).has_object(obj));
  EXPECT_EQ(rt.at(0).stats().parcels_forwarded, 1u);
}

// A move refused because the gid is still claimed says nothing while the
// claim is young; once the claim is over 100 ms old, the refusal names the
// leg that holds it, the peer it waits for and the claim's age, once per
// claim.
TEST(Runtime, RefusedMigrationNamesTheLegItWaitsOn) {
  runtime rt(quick_params(3));
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(0);
  ASSERT_TRUE(
      rt.claim_migration(obj, runtime::migration_leg::implant_ack, 2));

  testing::internal::CaptureStderr();
  EXPECT_FALSE(rt.migrate_gid(obj, 1));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  testing::internal::CaptureStderr();
  EXPECT_FALSE(rt.migrate_gid(obj, 1));
  EXPECT_FALSE(rt.migrate_gid(obj, 2));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("migration of " + obj.to_string() +
                     " refused: claim held for "),
            std::string::npos)
      << err;
  EXPECT_NE(err.find(" ms by the source awaiting the implant ack from "
                     "rank 2\n"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("refused"), err.rfind("refused")) << err;

  rt.release_migration(obj);
  EXPECT_TRUE(rt.migrate_gid(obj, 1));
  EXPECT_TRUE(rt.at(1).has_object(obj));
  rt.stop();
}

TEST(Runtime, ForwardBoundDropsWithDiagnostic) {
  runtime_params p = quick_params(2);
  p.max_forwards = 4;
  runtime rt(p);
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(1);

  // A parcel already past the hop bound is dropped, not bounced or
  // asserted on.
  parcel::parcel over;
  over.destination = obj;
  over.action = core::action<&hit_counter>::id();
  over.arguments = util::to_bytes(std::tuple<std::uint64_t>(obj.bits()));
  over.source = 0;
  over.forwards = 5;  // > max_forwards
  rt.route(0, std::move(over));
  rt.wait_quiescent();
  EXPECT_EQ(rt.at(0).stats().parcels_dropped, 1u);
  EXPECT_EQ(rt.get_local<counter_object>(1, obj)->hits.load(), 0);
}

std::atomic<int> g_chase_dispatched{0};

void chase_counter(std::uint64_t gid_bits) {
  // Tolerates the documented erase/rebind window: migration may leave the
  // object momentarily absent at its authoritative owner, in which case
  // the dispatch still counts (the parcel was not lost).
  auto obj = std::static_pointer_cast<counter_object>(
      core::this_locality()->get_object(gas::gid::from_bits(gid_bits)));
  if (obj != nullptr) obj->hits.fetch_add(1);
  g_chase_dispatched.fetch_add(1);
}
PX_REGISTER_ACTION(chase_counter)

TEST(Runtime, MigrationUnderLoadNeverWedgesOrCrashes) {
  // Regression for the forward bound: hammer an object with parcels while
  // it migrates between localities.  Some parcels chase the object through
  // stale caches; every one must end dispatched or cleanly dropped (the
  // pre-bound code asserted out at 8 hops), and quiescence must still
  // terminate.
  runtime_params p = quick_params(3, 2);
  p.max_forwards = 3;
  runtime rt(p);
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(0);
  constexpr int kParcels = 300;
  g_chase_dispatched.store(0);

  rt.run([&] {
    for (int i = 0; i < kParcels; ++i) {
      core::apply<&chase_counter>(obj, obj.bits());
      if (i % 25 == 24) {
        EXPECT_TRUE(
            rt.migrate_gid(obj, static_cast<gas::locality_id>((i / 25) % 3)));
      }
    }
  });

  std::uint64_t dropped = 0;
  for (gas::locality_id l = 0; l < 3; ++l) {
    dropped += rt.at(l).stats().parcels_dropped;
  }
  // Conservation: every parcel either reached a dispatch or was dropped at
  // the forward bound — none lost, no assert-crash, no wedge.
  EXPECT_EQ(static_cast<std::uint64_t>(g_chase_dispatched.load()) + dropped,
            static_cast<std::uint64_t>(kParcels));
  EXPECT_GT(g_chase_dispatched.load(), 0);
}

TEST(Runtime, CoalescedParcelsAllArriveAndQuiesce) {
  // Thresholds too large to trip on byte/count: delivery relies entirely
  // on the flush-on-idle hook and the quiescence loop's forced flush —
  // the paths that keep wait_quiescent sound with batching enabled.
  // (How *much* coalescing happens here is timing-dependent; the
  // deterministic frames-vs-parcels check lives in
  // ParcelPortCoalescesDeterministically.)
  runtime_params p = quick_params(4, 2);
  p.parcel_flush_bytes = 1 << 20;
  p.parcel_flush_count = 100000;
  runtime rt(p);
  g_side_effect.store(0);
  rt.run([&] {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 4; ++i) {
        core::apply<&bump>(rt.locality_gid(i), 1);
      }
    }
  });
  EXPECT_EQ(g_side_effect.load(), 200);
  EXPECT_EQ(rt.port(0).pending(), 0u);
  EXPECT_EQ(rt.port(0).stats().parcels_enqueued, 150u);  // 3 remote dests
}

TEST(Runtime, ParcelPortCoalescesDeterministically) {
  // Drive a port directly against a bare fabric: no schedulers and no
  // runtime idle backstop, so the frame accounting is exact.
  net::fabric_params fp;
  fp.endpoints = 2;
  net::fabric fabric(fp);
  std::atomic<std::uint64_t> parcels_received{0};
  std::atomic<std::uint64_t> frames_received{0};
  fabric.set_handler(0, [](net::message&) {});
  fabric.set_handler(1, [&](net::message& m) {
    const auto frame = parcel::frame_view::parse(m.payload);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->count(), m.units);
    parcels_received.fetch_add(m.units);
    frames_received.fetch_add(1);
  });

  core::parcel_port_params pp;
  pp.flush_bytes = 1 << 20;
  pp.flush_count = 10;
  core::parcel_port port(fabric, 0, pp);
  parcel::parcel t;
  t.destination = gas::gid::make(gas::gid_kind::data, 1, 1);
  t.action = 1;
  for (int i = 0; i < 25; ++i) port.enqueue(1, t);
  EXPECT_EQ(port.pending(), 5u);  // two threshold flushes of 10 shipped
  port.flush_all();
  EXPECT_EQ(port.pending(), 0u);
  fabric.drain();
  EXPECT_EQ(parcels_received.load(), 25u);
  EXPECT_EQ(frames_received.load(), 3u);  // 10 + 10 + 5
  const auto st = port.stats();
  EXPECT_EQ(st.parcels_enqueued, 25u);
  EXPECT_EQ(st.frames_sent, 3u);
  EXPECT_EQ(st.threshold_flushes, 2u);
  EXPECT_EQ(st.demand_flushes, 1u);
}

TEST(Runtime, MaxForwardsIsClampedBelowCounterWrap) {
  runtime_params p = quick_params(2);
  p.max_forwards = 255;  // would be unreachable for the u8 hop counter
  runtime rt(p);
  EXPECT_EQ(rt.params().max_forwards, 254);
}

TEST(Runtime, CoalescingDisabledMatchesSemantics) {
  runtime_params p = quick_params(3, 2);
  p.parcel_flush_count = 1;  // every parcel ships as its own frame
  runtime rt(p);
  g_side_effect.store(0);
  rt.run([&] {
    for (int i = 0; i < 60; ++i) {
      core::apply<&bump>(rt.locality_gid(i % 3), 2);
    }
  });
  EXPECT_EQ(g_side_effect.load(), 120);
  const auto st0 = rt.port(0).stats();
  EXPECT_EQ(st0.parcels_enqueued, st0.frames_sent);
}

TEST(Runtime, StaleCacheForwardingDelivers) {
  runtime rt(quick_params(3));
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(1);

  // Populate locality 0's cache with owner=1.
  rt.run([&] { core::apply<&hit_counter>(obj, obj.bits()); });
  // Move to 2; locality 0 still believes 1.
  EXPECT_TRUE(rt.migrate_gid(obj, 2));
  auto cached = rt.gas().resolve(0, obj);
  ASSERT_TRUE(cached.has_value());

  rt.run([&] { core::apply<&hit_counter>(obj, obj.bits()); });
  EXPECT_EQ(rt.get_local<counter_object>(2, obj)->hits.load(), 2);
  // The forward refreshed the authoritative route.
  EXPECT_EQ(rt.gas().resolve_authoritative(0, obj).value(), 2u);
}

TEST(Runtime, MigrationRefusesStaleSource) {
  // The rebalancer names a move's source from its heat list, which can
  // still list an object that has since moved on.  Such a move must be
  // refused, not yank the object off the locality it moved to.
  runtime rt(quick_params(3));
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(2);
  const auto migrations = rt.gas().stats().migrations;
  bool fired = false;
  EXPECT_FALSE(rt.migrate_gid_async(obj, 0, 1, [&](bool) { fired = true; }));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(rt.at(2).has_object(obj));
  EXPECT_FALSE(rt.at(1).has_object(obj));
  EXPECT_EQ(rt.gas().resolve_authoritative(0, obj).value(), 2u);

  // Already at the destination: success, and nothing moves.
  EXPECT_TRUE(rt.migrate_gid(obj, 2));
  EXPECT_TRUE(rt.at(2).has_object(obj));
  EXPECT_EQ(rt.gas().stats().migrations, migrations);

  // Named from its real owner it moves, and done fires before the return.
  bool moved = false;
  EXPECT_TRUE(rt.migrate_gid_async(obj, 2, 1, [&](bool ok) { moved = ok; }));
  EXPECT_TRUE(moved);
  EXPECT_TRUE(rt.at(1).has_object(obj));
  EXPECT_FALSE(rt.at(2).has_object(obj));
  EXPECT_EQ(rt.gas().resolve_authoritative(0, obj).value(), 1u);
}

// ---------------------------------------------------------------- process

TEST(Process, TerminationDetectsNestedChildren) {
  runtime rt(quick_params(3));
  rt.start();
  auto proc = core::create_process(rt, {0, 1, 2});
  std::atomic<int> work{0};

  rt.run([&] {
    for (int i = 0; i < 3; ++i) {
      proc->spawn_any([&, proc] {
        work.fetch_add(1);
        // Nested (grandchild) work, spawned from inside a child.
        proc->spawn_any([&] { work.fetch_add(10); });
      });
    }
    proc->seal();
    proc->terminated().wait();
    EXPECT_EQ(work.load(), 33);
  });
  EXPECT_EQ(proc->children_spawned(), 6u);
}

TEST(Process, IsAddressableInTheGlobalNamespace) {
  runtime rt(quick_params(2));
  rt.start();
  auto proc = core::create_process(rt, {0, 1});
  EXPECT_EQ(proc->id().kind(), gas::gid_kind::process);
  auto obj = rt.at(0).get_object(proc->id());
  EXPECT_EQ(obj.get(), proc.get());
  proc->seal();
  proc->terminated().wait();
}

}  // namespace
