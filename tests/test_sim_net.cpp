// Unit tests: discrete-event engine, simulated resources, and the fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace {

using namespace px;

// ----------------------------------------------------------------- engine

TEST(SimEngine, FiresInTimeThenSequenceOrder) {
  sim::engine eng;
  std::vector<int> order;
  eng.schedule_at(10 * sim::ns, [&] { order.push_back(2); });
  eng.schedule_at(5 * sim::ns, [&] { order.push_back(1); });
  eng.schedule_at(10 * sim::ns, [&] { order.push_back(3); });  // same time
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 10 * sim::ns);
}

TEST(SimEngine, EventsMayScheduleEvents) {
  sim::engine eng;
  int fired = 0;
  eng.schedule_after(1 * sim::ns, [&] {
    ++fired;
    eng.schedule_after(2 * sim::ns, [&] { ++fired; });
  });
  EXPECT_EQ(eng.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 3 * sim::ns);
}

TEST(SimEngine, RunUntilStopsAtDeadline) {
  sim::engine eng;
  int fired = 0;
  eng.schedule_at(5 * sim::ns, [&] { ++fired; });
  eng.schedule_at(15 * sim::ns, [&] { ++fired; });
  eng.run_until(10 * sim::ns);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 10 * sim::ns);
  EXPECT_EQ(eng.pending(), 1u);
}

TEST(SimEngine, DeterministicAcrossRuns) {
  auto trace = [] {
    sim::engine eng;
    std::vector<sim::time_ps> stamps;
    for (int i = 0; i < 50; ++i) {
      eng.schedule_at(static_cast<sim::time_ps>((i * 37) % 17) * sim::ns,
                      [&, i] { stamps.push_back(eng.now() + i); });
    }
    eng.run();
    return stamps;
  };
  EXPECT_EQ(trace(), trace());
}

// --------------------------------------------------------------- resource

TEST(SimResource, SerializesBeyondCapacity) {
  sim::engine eng;
  sim::resource r(eng, 2);
  std::vector<sim::time_ps> completions;
  for (int i = 0; i < 4; ++i) {
    r.use(10 * sim::ns, [&] { completions.push_back(eng.now()); });
  }
  eng.run();
  // Two run [0,10), two queue and run [10,20).
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_EQ(completions[0], 10 * sim::ns);
  EXPECT_EQ(completions[1], 10 * sim::ns);
  EXPECT_EQ(completions[2], 20 * sim::ns);
  EXPECT_EQ(completions[3], 20 * sim::ns);
}

TEST(SimResource, FifoGrantOrder) {
  sim::engine eng;
  sim::resource r(eng, 1);
  std::vector<int> grants;
  for (int i = 0; i < 3; ++i) {
    r.acquire([&, i] {
      grants.push_back(i);
      eng.schedule_after(1 * sim::ns, [&r] { r.release(); });
    });
  }
  eng.run();
  EXPECT_EQ(grants, (std::vector<int>{0, 1, 2}));
}

TEST(SimResource, BusyTimeTracksUtilization) {
  sim::engine eng;
  sim::resource r(eng, 1);
  r.use(30 * sim::ns, [] {});
  eng.run();
  EXPECT_EQ(r.busy_time(), 30 * sim::ns);
  EXPECT_EQ(r.total_grants(), 1u);
}

// ----------------------------------------------------------------- fabric

TEST(Fabric, DeliversToHandler) {
  net::fabric_params p;
  p.endpoints = 2;
  net::fabric f(p);
  std::atomic<int> got{0};
  f.set_handler(1, [&](net::message& m) {
    EXPECT_EQ(m.source, 0u);
    EXPECT_EQ(m.payload.size(), 3u);
    got.fetch_add(1);
  });
  f.set_handler(0, [](net::message&) {});
  f.send(net::message{0, 1, 0, std::vector<std::byte>(3)});
  f.drain();
  EXPECT_EQ(got.load(), 1);
}

TEST(Fabric, ImposesConfiguredLatency) {
  net::fabric_params p;
  p.endpoints = 2;
  p.base_latency_ns = 2'000'000;  // 2ms, comfortably measurable
  net::fabric f(p);
  f.set_handler(0, [](net::message&) {});
  std::atomic<bool> got{false};
  f.set_handler(1, [&](net::message&) { got.store(true); });
  const auto start = std::chrono::steady_clock::now();
  f.send(net::message{0, 1, 0, {}});
  f.drain();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(got.load());
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            1900);
}

TEST(Fabric, ModelLatencyReflectsTopologyAndBandwidth) {
  net::fabric_params p;
  p.endpoints = 16;
  p.base_latency_ns = 100;
  p.per_hop_ns = 50;
  p.bytes_per_ns = 2.0;
  p.topology = net::topology_kind::mesh2d;
  net::fabric f(p);
  // mesh 4x4: 0 -> 15 is 3+3=6 hops; 1000 bytes at 2 B/ns adds 500ns.
  EXPECT_EQ(f.model_latency_ns(0, 15, 1000), 100u + 6u * 50u + 500u);
  EXPECT_EQ(f.model_latency_ns(0, 0, 0), 100u);
}

TEST(Fabric, TopologyHopCounts) {
  using net::topology_hops;
  using net::topology_kind;
  EXPECT_EQ(topology_hops(topology_kind::crossbar, 64, 3, 60), 1u);
  EXPECT_EQ(topology_hops(topology_kind::crossbar, 64, 3, 3), 0u);
  // 8x8 mesh: (0,0) -> (7,7) = 14 hops.
  EXPECT_EQ(topology_hops(topology_kind::mesh2d, 64, 0, 63), 14u);
  // vortex: log2(64) = 6 levels.
  EXPECT_EQ(topology_hops(topology_kind::vortex, 64, 0, 63), 6u);
}

TEST(Fabric, ManyMessagesAllArriveAcrossEndpoints) {
  net::fabric_params p;
  p.endpoints = 4;
  p.base_latency_ns = 1000;
  p.jitter_ns = 2000;  // force reordering
  net::fabric f(p);
  std::atomic<int> got{0};
  for (unsigned i = 0; i < 4; ++i) {
    f.set_handler(i, [&](net::message&) { got.fetch_add(1); });
  }
  for (int k = 0; k < 500; ++k) {
    f.send(net::message{static_cast<net::endpoint_id>(k % 4),
                        static_cast<net::endpoint_id>((k + 1) % 4), 0, {}});
  }
  f.drain();
  EXPECT_EQ(got.load(), 500);
  EXPECT_EQ(f.stats(0).messages_sent, 125u);
  EXPECT_EQ(f.latency_histogram().count(), 500u);
}

TEST(Fabric, StatsCountBytes) {
  net::fabric_params p;
  p.endpoints = 2;
  net::fabric f(p);
  f.set_handler(0, [](net::message&) {});
  f.set_handler(1, [](net::message&) {});
  f.send(net::message{0, 1, 0, std::vector<std::byte>(100)});
  f.send(net::message{0, 1, 0, std::vector<std::byte>(20)});
  f.drain();
  EXPECT_EQ(f.stats(0).bytes_sent, 120u);
  EXPECT_EQ(f.stats(1).messages_received, 2u);
}

TEST(Fabric, BatchedMessageCountsParcelsNotFrames) {
  net::fabric_params p;
  p.endpoints = 2;
  net::fabric f(p);
  f.set_handler(0, [](net::message&) {});
  std::atomic<std::uint32_t> units_seen{0};
  f.set_handler(1, [&](net::message& m) { units_seen.store(m.units); });
  net::message m{0, 1, 0, std::vector<std::byte>(64)};
  m.units = 5;  // one frame carrying five coalesced parcels
  f.send(std::move(m));
  f.drain();
  EXPECT_EQ(units_seen.load(), 5u);
  EXPECT_EQ(f.messages_sent_total(), 5u);  // quiescence counts parcels
  EXPECT_EQ(f.in_flight(), 0u);
  EXPECT_EQ(f.stats(0).messages_sent, 1u);  // wire stats count frames
  EXPECT_EQ(f.stats(0).parcels_sent, 5u);
  EXPECT_EQ(f.latency_histogram().count(), 5u);  // one sample per parcel
}

TEST(Fabric, PayloadBuffersAreRecycled) {
  net::fabric_params p;
  p.endpoints = 2;
  net::fabric f(p);
  f.set_handler(0, [](net::message&) {});
  f.set_handler(1, [](net::message&) {});  // decodes in place, never steals
  for (int round = 0; round < 50; ++round) {
    auto buf = f.pool().acquire();
    buf.resize(256);
    f.send(net::message{0, 1, 0, std::move(buf)});
    f.drain();  // round-trip one at a time so the pool sees each release
  }
  const auto st = f.pool().stats();
  EXPECT_EQ(st.acquires, 50u);
  // After the first allocation warms the pool, every acquire must hit.
  EXPECT_GE(st.hits, 48u);
  EXPECT_GE(st.releases, 49u);
}

// ------------------------------------------ zero-latency inline delivery

// Fixed-layout payload for the inline-delivery tests.
struct hop_note {
  std::uint32_t origin = 0;  // injecting thread
  std::uint32_t seq = 0;     // per-origin sequence number
  std::uint32_t hops = 0;    // hops taken so far
};

net::message note_message(net::endpoint_id from, net::endpoint_id to,
                          hop_note n) {
  net::message m{from, to, 0, std::vector<std::byte>(sizeof(hop_note))};
  std::memcpy(m.payload.data(), &n, sizeof n);
  return m;
}

hop_note read_note(const net::message& m) {
  hop_note n;
  std::memcpy(&n, m.payload.data(), sizeof n);
  return n;
}

TEST(FabricInline, TimedModelsDeliverOffTheSendingThread) {
  net::fabric_params base;
  base.endpoints = 2;
  net::fabric_params jitter = base;
  jitter.jitter_ns = 1000;
  net::fabric_params hop = base;
  hop.per_hop_ns = 1000;
  const std::thread::id me = std::this_thread::get_id();
  for (const net::fabric_params& timed : {jitter, hop}) {
    net::fabric f(timed);
    EXPECT_FALSE(f.delivers_inline());
    std::atomic<int> on_sender{0};
    std::atomic<int> got{0};
    f.set_handler(0, [](net::message&) {});
    f.set_handler(1, [&](net::message&) {
      if (std::this_thread::get_id() == me) on_sender.fetch_add(1);
      got.fetch_add(1);
    });
    for (int i = 0; i < 16; ++i) f.send(net::message{0, 1, 0, {}});
    f.drain();
    EXPECT_EQ(got.load(), 16);
    EXPECT_EQ(on_sender.load(), 0);
  }
}

TEST(FabricInline, ZeroLatencyDeliversOnTheSendingThread) {
  net::fabric_params p;
  p.endpoints = 2;
  net::fabric f(p);
  ASSERT_TRUE(f.delivers_inline());
  const std::thread::id me = std::this_thread::get_id();
  int on_sender = 0;
  f.set_handler(0, [](net::message&) {});
  f.set_handler(1, [&](net::message&) {
    if (std::this_thread::get_id() == me) ++on_sender;
  });
  f.send(net::message{0, 1, 0, {}});
  // Delivered before send() returned: nothing is left for drain().
  EXPECT_EQ(on_sender, 1);
  EXPECT_EQ(f.in_flight(), 0u);
}

TEST(FabricInline, IdleBackstopFiresInBothModes) {
  net::fabric_params zero;
  zero.endpoints = 2;
  net::fabric_params timed = zero;
  timed.base_latency_ns = 1000;
  for (const net::fabric_params& p : {zero, timed}) {
    net::fabric f(p);
    std::atomic<int> calls{0};
    f.set_idle_callback([&] { calls.fetch_add(1); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (calls.load() < 3 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    EXPECT_GE(calls.load(), 3) << "inline=" << f.delivers_inline();
  }
}

TEST(FabricInline, HandlerChainsStayFifoAndNeverNest) {
  // Two threads inject chains that hop around an 8-endpoint ring for two
  // laps.  Every hop is a send made from inside a handler, so it must be
  // queued and delivered by the outermost pass, never recursively; and each
  // (source, dest, origin) stream must arrive in sequence order.
  constexpr net::endpoint_id kEndpoints = 8;
  constexpr std::uint32_t kLaps = 2;
  constexpr std::uint32_t kPerOrigin = 300;
  constexpr std::uint32_t kOrigins = 2;
  net::fabric_params p;
  p.endpoints = kEndpoints;
  net::fabric f(p);
  ASSERT_TRUE(f.delivers_inline());

  static thread_local int depth = 0;
  std::atomic<int> max_depth{0};
  std::atomic<int> out_of_order{0};
  std::atomic<std::uint64_t> finished{0};
  // Last seq seen per (dest, origin, hops).  A chain's hop count fixes the
  // source, so each key is one (source, dest) stream of one origin's lap.
  // Each endpoint's map is touched only by its own (serialized) handler.
  std::vector<std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t>>
      last(kEndpoints);
  for (net::endpoint_id e = 0; e < kEndpoints; ++e) {
    f.set_handler(e, [&, e](net::message& m) {
      const int d = ++depth;
      int seen = max_depth.load();
      while (d > seen && !max_depth.compare_exchange_weak(seen, d)) {
      }
      hop_note n = read_note(m);
      auto [it, fresh] = last[e].try_emplace({n.origin, n.hops}, -1);
      if (static_cast<std::int64_t>(n.seq) <= it->second) {
        out_of_order.fetch_add(1);
      }
      it->second = n.seq;
      n.hops += 1;
      if (n.hops < kLaps * kEndpoints) {
        f.send(note_message(e, (e + 1) % kEndpoints, n));
      } else {
        finished.fetch_add(1);
      }
      --depth;
    });
  }
  std::vector<std::thread> injectors;
  for (std::uint32_t o = 0; o < kOrigins; ++o) {
    injectors.emplace_back([&, o] {
      const auto src = static_cast<net::endpoint_id>(o * kEndpoints / 2);
      for (std::uint32_t seq = 0; seq < kPerOrigin; ++seq) {
        f.send(note_message(src, (src + 1) % kEndpoints,
                            hop_note{o, seq, 0}));
      }
    });
  }
  for (auto& t : injectors) t.join();
  f.drain();
  EXPECT_EQ(finished.load(), std::uint64_t{kOrigins} * kPerOrigin);
  EXPECT_EQ(out_of_order.load(), 0);
  EXPECT_EQ(max_depth.load(), 1);
  EXPECT_EQ(f.in_flight(), 0u);
}

TEST(FabricInline, StormedEndpointRunsOneHandlerAtATime) {
  // Four threads storm endpoint 0 (plus one self-free source each): the
  // delivery token must serialize its handler, and every message must
  // arrive exactly once.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kPerThread = 2000;
  net::fabric_params p;
  p.endpoints = kThreads + 1;
  net::fabric f(p);
  ASSERT_TRUE(f.delivers_inline());
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::atomic<int>> arrivals(kThreads * kPerThread);
  for (net::endpoint_id e = 1; e <= kThreads; ++e) {
    f.set_handler(e, [](net::message&) {});
  }
  f.set_handler(0, [&](net::message& m) {
    const int now = inside.fetch_add(1) + 1;
    int seen = max_inside.load();
    while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
    }
    const hop_note n = read_note(m);
    arrivals[n.origin * kPerThread + n.seq].fetch_add(1);
    std::this_thread::yield();  // widen the window for an overlap
    inside.fetch_sub(1);
  });
  std::vector<std::thread> stormers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    stormers.emplace_back([&, t] {
      for (std::uint32_t seq = 0; seq < kPerThread; ++seq) {
        f.send(note_message(t + 1, 0, hop_note{t, seq, 0}));
      }
    });
  }
  for (auto& t : stormers) t.join();
  f.drain();
  EXPECT_EQ(f.in_flight(), 0u);
  EXPECT_EQ(max_inside.load(), 1);
  const bool exactly_once = std::all_of(
      arrivals.begin(), arrivals.end(),
      [](const std::atomic<int>& a) { return a.load() == 1; });
  EXPECT_TRUE(exactly_once);
  EXPECT_EQ(f.stats(0).messages_received,
            std::uint64_t{kThreads} * kPerThread);
}

TEST(FabricDeath, SendToOutOfRangeEndpointAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  net::fabric_params p;
  p.endpoints = 2;
  net::fabric f(p);
  f.set_handler(0, [](net::message&) {});
  f.set_handler(1, [](net::message&) {});
  EXPECT_DEATH(f.send(net::message{0, 7, 0, {}}), "dest out of range");
  EXPECT_DEATH(f.send(net::message{9, 1, 0, {}}), "source out of range");
}

TEST(FabricDeath, SetHandlerAfterTrafficAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  net::fabric_params p;
  p.endpoints = 2;
  net::fabric f(p);
  f.set_handler(0, [](net::message&) {});
  f.set_handler(1, [](net::message&) {});
  f.send(net::message{0, 1, 0, {}});
  f.drain();
  EXPECT_DEATH(f.set_handler(1, [](net::message&) {}),
               "set_handler after traffic started");
}

}  // namespace
