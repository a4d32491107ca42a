// Unit tests for the shared-memory data plane: the whole-frame delivery
// seam (frame_assembler bypass + frame_view::parse poison path), the
// shm_segment RAII lifetime, two in-process shm_transport instances
// exercising the ring/doorbell protocol end to end, the traffic-book
// contract every multi-process backend (tcp and shm) shares, and how a
// 2-rank runtime dispatches the frames such a backend delivers.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "dispatch_probe.hpp"
#include "distributed_helpers.hpp"
#include "gas/resolve.hpp"
#include "net/shm_transport.hpp"
#include "net/tcp_transport.hpp"
#include "parcel/parcel.hpp"
#include "util/fault.hpp"
#include "util/serialize.hpp"
#include "util/shm_segment.hpp"

// The backends the traffic-book contract test runs over; at global scope
// so the typed test instances carry short names.
struct tcp_backend {
  using transport = px::net::tcp_transport;
  using params = px::net::tcp_params;
  static constexpr const char* name = "tcp";
};
struct shm_backend {
  using transport = px::net::shm_transport;
  using params = px::net::shm_params;
  static constexpr const char* name = "shm";
};

namespace {

using namespace px;
using namespace std::chrono_literals;

parcel::parcel sample_parcel(int salt = 0) {
  parcel::parcel p;
  p.destination = gas::gid::make(gas::gid_kind::data, 1, 42 + salt);
  p.action = 7 + static_cast<parcel::action_id>(salt);
  p.arguments = util::to_bytes(std::string("shm-payload"), 123 + salt);
  p.source = 0;
  return p;
}

std::vector<std::byte> make_frame(int records) {
  std::vector<std::byte> buf;
  parcel::frame_begin(buf);
  for (int i = 0; i < records; ++i) {
    parcel::frame_append(buf, sample_parcel(i));
  }
  return buf;
}

template <typename Pred>
bool eventually(Pred&& pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

bool shm_name_exists(const std::string& name) {
  const int fd = ::shm_open(("/" + name).c_str(), O_RDONLY, 0);
  if (fd >= 0) {
    ::close(fd);
    return true;
  }
  return errno != ENOENT;
}

// ------------------------------------------------- whole-frame ingest seam

TEST(WholeFrameIngest, AcceptsValidFrameAndReturnsCount) {
  net::whole_frame_ingest ingest;
  const auto frame = make_frame(3);
  const auto count = ingest.accept(frame);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 3u);
  EXPECT_FALSE(ingest.poisoned());
  // Repeated frames keep flowing — poison is for rejects only.
  EXPECT_TRUE(ingest.accept(make_frame(1)).has_value());
}

TEST(WholeFrameIngest, CorruptMagicPoisons) {
  net::whole_frame_ingest ingest;
  auto frame = make_frame(2);
  frame[0] = std::byte{0xEE};  // break the "PXBF" magic
  EXPECT_FALSE(ingest.accept(frame).has_value());
  EXPECT_TRUE(ingest.poisoned());
}

TEST(WholeFrameIngest, TruncatedRecordPoisons) {
  net::whole_frame_ingest ingest;
  auto frame = make_frame(2);
  frame.resize(frame.size() - 5);  // frame_view::parse must reject
  EXPECT_FALSE(ingest.accept(frame).has_value());
  EXPECT_TRUE(ingest.poisoned());
}

TEST(WholeFrameIngest, OversizeFramePoisons) {
  net::whole_frame_ingest ingest(64);  // tiny bound
  EXPECT_FALSE(ingest.accept(make_frame(4)).has_value());
  EXPECT_TRUE(ingest.poisoned());
}

TEST(WholeFrameIngest, PoisonIsSticky) {
  net::whole_frame_ingest ingest;
  auto bad = make_frame(1);
  bad[0] = std::byte{0x00};
  EXPECT_FALSE(ingest.accept(bad).has_value());
  // A perfectly valid frame after poison still refuses: there is no
  // trustworthy resync point on a corrupted link.
  EXPECT_FALSE(ingest.accept(make_frame(1)).has_value());
  EXPECT_TRUE(ingest.poisoned());
}

// ------------------------------------------------------ shm_segment RAII

TEST(ShmSegment, CreateAttachUnlinkLifetime) {
  const std::string name = "px.test-seg-" + std::to_string(::getpid());
  auto created = util::shm_segment::create(name, 4096);
  ASSERT_TRUE(created.valid());
  EXPECT_TRUE(shm_name_exists(name));

  auto opened = util::shm_segment::open_existing(name, 1000);
  ASSERT_TRUE(opened.valid());
  EXPECT_EQ(opened.size(), 4096u);

  // Both mappings alias the same physical pages.
  std::memcpy(created.data(), "hello", 6);
  EXPECT_STREQ(static_cast<const char*>(opened.data()), "hello");

  // Unlink retires the name; the mappings stay fully usable.
  created.unlink();
  EXPECT_FALSE(shm_name_exists(name));
  std::memcpy(opened.data(), "still", 6);
  EXPECT_STREQ(static_cast<const char*>(created.data()), "still");
}

TEST(ShmSegment, DestructorUnlinksWhatItCreated) {
  const std::string name = "px.test-raii-" + std::to_string(::getpid());
  {
    auto seg = util::shm_segment::create(name, 4096);
    EXPECT_TRUE(shm_name_exists(name));
  }
  EXPECT_FALSE(shm_name_exists(name));  // crash-safety backstop
}

// ---------------------------------------------- two-instance ring tests

struct shm_pair {
  std::unique_ptr<net::shm_transport> a;  // rank 0
  std::unique_ptr<net::shm_transport> b;  // rank 1

  explicit shm_pair(std::size_t ring_bytes = 1u << 20) {
    net::shm_params p;
    p.nranks = 2;
    p.ring_bytes = ring_bytes;
    p.rank = 0;
    a = std::make_unique<net::shm_transport>(p);
    p.rank = 1;
    b = std::make_unique<net::shm_transport>(p);
  }

  // The creator side of connect_peers blocks until its peer attaches, so
  // an in-process pair must connect from two threads.
  void connect() {
    const std::vector<std::string> table = {a->listen_address(),
                                            b->listen_address()};
    std::thread ta([&] { a->connect_peers(table); });
    b->connect_peers(table);
    ta.join();
  }
};

TEST(Shm, DeliversWholeFramesAndUnlinksSegments) {
  shm_pair pair;
  const std::string tok_a = pair.a->listen_address();
  const std::string tok_b = pair.b->listen_address();

  std::atomic<int> got_units{0};
  std::vector<std::byte> got_payload;
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message& m) {
    got_payload = m.payload;  // copy: the buffer recycles after return
    got_units.fetch_add(m.units);
  });
  pair.connect();

  // Crash-safe lifetime: every name is retired the moment the mesh is up.
  EXPECT_FALSE(shm_name_exists(tok_a));
  EXPECT_FALSE(shm_name_exists(tok_b));
  EXPECT_FALSE(shm_name_exists(tok_a + ".p1"));

  const auto frame = make_frame(3);
  net::message m;
  m.source = 0;
  m.dest = 1;
  m.units = 3;
  m.payload = frame;
  pair.a->send(std::move(m));

  ASSERT_TRUE(eventually([&] { return got_units.load() == 3; }));
  EXPECT_EQ(got_payload, frame);  // byte-exact whole-frame delivery
  pair.a->drain();
  EXPECT_EQ(pair.a->in_flight(), 0u);
  EXPECT_EQ(pair.a->messages_sent_total(), 3u);
  EXPECT_EQ(pair.b->parcels_received_total(), 3u);
  EXPECT_EQ(pair.b->parcels_dropped_total(), 0u);

  pair.a->expect_peer_disconnects();
  pair.b->expect_peer_disconnects();
}

TEST(Shm, InFlightCountsUntilPeerConsumes) {
  shm_pair pair;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message&) {
    entered.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
  });
  pair.connect();

  net::message m;
  m.source = 0;
  m.dest = 1;
  m.units = 2;
  m.payload = make_frame(2);
  pair.a->send(std::move(m));

  // The frame reached the peer, but its handler has not returned: the
  // contract says those units are still in flight on the sender.
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  EXPECT_EQ(pair.a->in_flight(), 2u);
  release.store(true);
  pair.a->drain();
  EXPECT_EQ(pair.a->in_flight(), 0u);
  EXPECT_EQ(pair.b->parcels_received_total(), 2u);

  pair.a->expect_peer_disconnects();
  pair.b->expect_peer_disconnects();
}

TEST(Shm, GarbageFramePoisonsLinkNothingDelivered) {
  shm_pair pair;
  std::atomic<bool> delivered{false};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message&) { delivered.store(true); });
  pair.connect();

  net::message m;
  m.source = 0;
  m.dest = 1;
  m.units = 1;
  m.payload = util::to_bytes(std::string("not a frame at all"));
  pair.a->send(std::move(m));

  // The receiver rejects via frame_view::parse and closes the link; with
  // no disconnect announced, the sender treats the closure as a death
  // verdict and conservatively charges the outstanding unit as lost.
  ASSERT_TRUE(
      eventually([&] { return pair.a->parcels_lost_total() == 1u; }));
  pair.a->drain();
  EXPECT_FALSE(delivered.load());
  EXPECT_EQ(pair.b->parcels_received_total(), 0u);
  EXPECT_EQ(pair.a->in_flight(), 0u);

  pair.a->expect_peer_disconnects();
  pair.b->expect_peer_disconnects();
}

TEST(Shm, OversizeFrameDropsWithDiagnosticNotWedge) {
  shm_pair pair(4096);  // tiny rings: max shippable record is 2048 bytes
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [](net::message&) {});
  pair.connect();

  net::message m;
  m.source = 0;
  m.dest = 1;
  m.units = 1;
  m.payload.resize(3000);
  pair.a->send(std::move(m));

  // Dropped at send: a frame that can never fit must not park forever.
  EXPECT_EQ(pair.a->parcels_dropped_total(), 1u);
  pair.a->drain();
  EXPECT_EQ(pair.a->in_flight(), 0u);

  pair.a->expect_peer_disconnects();
  pair.b->expect_peer_disconnects();
}

TEST(Shm, ManySmallFramesFlowThroughRingWrap) {
  shm_pair pair(8192);  // force plenty of wrap-marker traffic
  std::atomic<std::uint64_t> got{0};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message& m) { got.fetch_add(m.units); });
  pair.connect();

  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    net::message m;
    m.source = 0;
    m.dest = 1;
    m.units = 2;
    m.payload = make_frame(2);
    pair.a->send(std::move(m));
  }
  pair.a->drain();
  ASSERT_TRUE(eventually([&] { return got.load() == 2u * kFrames; }));
  EXPECT_EQ(pair.b->parcels_received_total(), 2u * kFrames);
  EXPECT_EQ(pair.a->parcels_dropped_total(), 0u);
  // Tiny ring + fast sender: the overflow queue must have engaged rather
  // than anything blocking or dropping.
  const auto extras = pair.a->extra_link_counters(0);
  ASSERT_EQ(extras.size(), 4u);
  EXPECT_STREQ(extras[0].name, "ring_full_waits");
  EXPECT_STREQ(extras[2].name, "peer_failed");
  EXPECT_STREQ(extras[3].name, "parcels_lost");

  pair.a->expect_peer_disconnects();
  pair.b->expect_peer_disconnects();
}

// ------------------------------------------- backend traffic-book contract

template <typename Backend>
class BackendBooks : public ::testing::Test {};
using multi_process_backends = ::testing::Types<tcp_backend, shm_backend>;
TYPED_TEST_SUITE(BackendBooks, multi_process_backends);

// One definition of a transmitted frame on every multi-process backend:
// tx counts what send() accepted, so a fault-dropped frame is counted as
// sent (and as dropped), exactly like a dead-link or oversize drop.  The
// books therefore agree with each other and read the same on tcp and shm.
TYPED_TEST(BackendBooks, FaultDroppedFrameCountsAsSent) {
  using transport = typename TypeParam::transport;
  typename TypeParam::params p;
  p.nranks = 2;
  p.rank = 0;
  auto a = std::make_unique<transport>(p);
  p.rank = 1;
  auto b = std::make_unique<transport>(p);
  EXPECT_STREQ(a->backend_name(), TypeParam::name);

  // Rank 0 drops the frame that carries its 5th and 6th parcels.
  util::fault_action drop;
  drop.what = util::fault_action::kind::drop;
  drop.after_parcels = 5;
  util::fault_injector faults({drop}, 0);
  a->arm_faults(&faults);

  std::atomic<std::uint64_t> got{0};
  a->set_handler(0, [](net::message&) {});
  b->set_handler(1, [&](net::message& m) { got.fetch_add(m.units); });
  const std::vector<std::string> table = {a->listen_address(),
                                          b->listen_address()};
  std::thread ta([&] { a->connect_peers(table); });
  b->connect_peers(table);
  ta.join();

  constexpr std::uint64_t kFrames = 4;
  const auto frame = make_frame(2);
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    net::message m;
    m.source = 0;
    m.dest = 1;
    m.units = 2;
    m.payload = frame;
    a->send(std::move(m));
  }
  a->drain();
  ASSERT_TRUE(eventually([&] { return got.load() == 2 * (kFrames - 1); }));

  const net::endpoint_stats tx = a->stats(0);
  EXPECT_EQ(tx.messages_sent, kFrames);
  EXPECT_EQ(tx.parcels_sent, 2 * kFrames);
  EXPECT_EQ(tx.bytes_sent, kFrames * frame.size());
  EXPECT_EQ(a->messages_sent_total(), tx.parcels_sent);
  EXPECT_EQ(a->units_sent_to(1), tx.parcels_sent);
  EXPECT_EQ(a->parcels_dropped_total(), 2u);
  EXPECT_EQ(a->units_dropped_to(1), 2u);

  ASSERT_TRUE(eventually(
      [&] { return b->parcels_received_total() == 2 * (kFrames - 1); }));
  const net::endpoint_stats rx = b->stats(1);
  EXPECT_EQ(rx.messages_received, kFrames - 1);
  EXPECT_EQ(rx.bytes_received, (kFrames - 1) * frame.size());
  EXPECT_EQ(b->units_received_from(0), 2 * (kFrames - 1));

  a->expect_peer_disconnects();
  b->expect_peer_disconnects();
}

// ------------------------------------ frame dispatch on a 2-rank runtime
//
// Each typed case runs as parent + two rank processes over its backend
// (distributed_helpers.hpp); the books below are rank-local.

template <typename Backend>
class FrameDispatch : public ::testing::Test {
 protected:
  // Re-executes this very case once per rank over the backend.
  static void run_ranks(const px::test::env_list& env) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    px::test::run_ranks_with_env(
        2, std::string(info->test_suite_name()) + "." + info->name(),
        Backend::name, env, {0, 0});
  }
};
TYPED_TEST_SUITE(FrameDispatch, multi_process_backends);

constexpr std::uint64_t kFrameSeqs = 3000;
std::array<std::atomic<std::uint32_t>, kFrameSeqs> g_frame_runs{};
std::atomic<std::uint64_t> g_frame_misplaced{0};

std::uint64_t frame_hit(std::uint64_t seq) {
  core::locality* here = core::this_locality();
  if (threads::scheduler::self() == nullptr || here == nullptr ||
      here->id() != 1 || !here->sched().on_worker()) {
    g_frame_misplaced.fetch_add(1);
  }
  g_frame_runs[seq].fetch_add(1);
  return 3 * seq + 1;
}
PX_REGISTER_ACTION(frame_hit)

// Frames that carry hundreds of parcels: every user action runs exactly
// once, on rank 1's worker, every coalesced async reply fires, and run()
// returns only after the last action has run.  The dispatch probe pins
// the handoff: rank 1's worker, not its progress thread, dispatches the
// user parcels of a multi-parcel frame, one task per frame — only a
// frame's lone user parcel is dispatched on the delivering thread.
TYPED_TEST(FrameDispatch, ManyParcelFramesRunOnDestinationWorker) {
  if (!px::test::is_rank_child()) {
    // No eager flush: a slow (sanitized) sender would otherwise find the
    // channel quiet before each parcel and ship it alone.
    this->run_ranks({{"PX_PARCEL_FLUSH_COUNT", "512"},
                     {"PX_PARCEL_EAGER_FLUSH", "0"}});
    return;
  }
  core::runtime rt;
  ASSERT_TRUE(rt.distributed());
  ASSERT_EQ(rt.port(rt.rank()).params().flush_count, 512u);
  rt.run([&] {
    if (rt.rank() != 0) return;
    std::vector<lco::future<std::uint64_t>> replies;
    for (std::uint64_t seq = 0; seq < kFrameSeqs; ++seq) {
      if (seq % 2 == 0) {
        replies.push_back(core::async<&frame_hit>(rt.locality_gid(1), seq));
      } else {
        core::apply<&frame_hit>(rt.locality_gid(1), seq);
      }
      px::test::dispatch_probe::send(*core::this_locality(), 1);
    }
    for (std::size_t i = 0; i < replies.size(); ++i) {
      EXPECT_EQ(replies[i].get(), 3 * (2 * i) + 1);
    }
  });
  if (rt.rank() == 1) {
    // run() is collective: rank 1 is past it only once every action ran.
    for (std::uint64_t seq = 0; seq < kFrameSeqs; ++seq) {
      ASSERT_EQ(g_frame_runs[seq].load(), 1u) << "seq " << seq;
    }
    EXPECT_EQ(g_frame_misplaced.load(), 0u);
    // The parcels really arrived in multi-parcel frames.
    const std::uint64_t frames = rt.transport().stats(1).messages_received;
    EXPECT_LT(frames * 4, kFrameSeqs);
    namespace probe = px::test::dispatch_probe;
    EXPECT_EQ(probe::ran.load(), kFrameSeqs);
    EXPECT_LE(probe::off_worker.load(), frames);
    std::lock_guard g(probe::lock);
    EXPECT_GE(probe::dispatchers.size(), 1u);
    EXPECT_LE(probe::dispatchers.size(), frames);
  }
  rt.stop();
}

std::atomic<std::uint64_t> g_pinned_hits{0};

void pinned_hit() { g_pinned_hits.fetch_add(1); }
PX_REGISTER_ACTION(pinned_hit)

const gas::gid kProbe = gas::gid::make(gas::gid_kind::data, 0, 0x5eed);

// Rank 0's half: one frame of user parcels with a control-plane parcel
// (px.agas_hint) coalesced behind them.
void send_pinned_frame() {
  core::locality& here = *core::this_locality();
  for (int i = 0; i < 64; ++i) {
    core::apply<&pinned_hit>(here.rt().locality_gid(1));
  }
  gas::send_owner_hint(here, 1, kProbe, 0);
}
PX_REGISTER_ACTION(send_pinned_frame)

// The control-plane invariant: a control parcel coalesced with user
// parcels is handled on the delivering thread even while the destination's
// only worker is pinned by a fiber that never yields — it must not queue
// behind the user parcels of its frame.
TYPED_TEST(FrameDispatch, ControlParcelSkipsPinnedWorker) {
  if (!px::test::is_rank_child()) {
    this->run_ranks({{"PX_PARCEL_FLUSH_COUNT", "512"},
                     {"PX_PARCEL_EAGER_FLUSH", "0"}});
    return;
  }
  core::runtime rt;  // one worker per locality
  ASSERT_TRUE(rt.distributed());
  ASSERT_EQ(rt.at(rt.rank()).sched().worker_count(), 1u);
  rt.run([&] {
    if (rt.rank() == 0) return;
    // Rank 1 pins its only worker here, then asks rank 0 for the frame.
    core::apply<&send_pinned_frame>(rt.locality_gid(0));
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!rt.gas().cached(1, kProbe).has_value() &&
           std::chrono::steady_clock::now() < deadline) {
    }
    EXPECT_EQ(rt.gas().cached(1, kProbe), std::optional<gas::locality_id>(0))
        << "px.agas_hint waited behind the pinned worker";
  });
  if (rt.rank() == 1) {
    EXPECT_EQ(g_pinned_hits.load(), 64u);
  }
  rt.stop();
}

}  // namespace
