#include "net/bootstrap.hpp"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "net/socket_util.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace px::net {

namespace {

// Control record tags.  Every record is [u32 len][u8 tag][payload]; len
// covers tag + payload.  The control plane is tiny and latency-tolerant,
// so records are blocking and unbatched.
constexpr std::uint8_t kTagHello = 1;    // rank -> root: u32 rank + endpoint
constexpr std::uint8_t kTagTable = 2;    // root -> rank: endpoints + blob
constexpr std::uint8_t kTagBarrier = 3;  // both directions, empty payload
constexpr std::uint8_t kTagQuiesce = 4;  // rank -> root: 5 x u64
constexpr std::uint8_t kTagVerdict = 5;  // root -> rank: u8 quiescent
constexpr std::uint8_t kTagClockPing = 6;  // rank -> root: empty
constexpr std::uint8_t kTagClockPong = 7;  // root -> rank: u64 root now_ns
// Heartbeat channel (dedicated second connection per rank).
constexpr std::uint8_t kTagHbHello = 8;    // rank -> root: u32 rank
constexpr std::uint8_t kTagHb = 9;         // both directions, empty payload
constexpr std::uint8_t kTagPeerDown = 10;  // root -> rank: u32 dead rank
constexpr std::uint8_t kTagGoodbye = 11;   // orderly-shutdown announcement

// Collective poll slice: how often a blocked collective rechecks the dead
// mask; bounds how long a casualty can stall the survivors beyond the
// lease itself.
constexpr int kPollSliceMs = 50;

// Thin std::byte-buffer wrappers over the shared little-endian codec in
// socket_util.hpp (one byte-order authority for the whole net layer).
void append_u32(std::vector<std::byte>& out, std::uint32_t v) {
  std::uint8_t tmp[4];
  detail::put_u32(tmp, v);
  for (const std::uint8_t b : tmp) out.push_back(static_cast<std::byte>(b));
}

void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  std::uint8_t tmp[8];
  detail::put_u64(tmp, v);
  for (const std::uint8_t b : tmp) out.push_back(static_cast<std::byte>(b));
}

std::uint32_t read_u32(const std::byte* p) {
  return detail::get_u32(reinterpret_cast<const std::uint8_t*>(p));
}

std::uint64_t read_u64(const std::byte* p) {
  return detail::get_u64(reinterpret_cast<const std::uint8_t*>(p));
}

}  // namespace

bootstrap::bootstrap(bootstrap_params params) : params_(params) {
  PX_ASSERT(params_.nranks >= 1);
  PX_ASSERT_MSG(params_.rank < params_.nranks, "bootstrap: rank out of range");
  PX_ASSERT_MSG(params_.nranks <= 64,
                "bootstrap: the dead mask caps the machine at 64 ranks");
  PX_ASSERT_MSG(params_.lease_ms >= 1 && params_.heartbeat_interval_us >= 1,
                "bootstrap: heartbeat interval and lease must be nonzero");
  const auto [host, port] = detail::split_host_port_impl(params_.root);
  if (params_.rank == 0) {
    listen_fd_ = detail::make_listener(host, port);
    rank_fds_.assign(params_.nranks, -1);
    hb_fds_.assign(params_.nranks, -1);
  } else {
    root_fd_ = detail::dial(host, port, params_.connect_timeout_ms);
    PX_ASSERT_MSG(root_fd_ >= 0,
                  "bootstrap: cannot reach rank 0 (PX_NET_ROOT)");
  }
}

bootstrap::~bootstrap() {
  closing_.store(true, std::memory_order_release);
  if (hb_thread_.joinable()) hb_thread_.join();
  for (const int fd : rank_fds_) {
    if (fd >= 0) close(fd);
  }
  for (const int fd : hb_fds_) {
    if (fd >= 0) close(fd);
  }
  if (root_fd_ >= 0) close(root_fd_);
  if (hb_fd_ >= 0) close(hb_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
}

void bootstrap::send_record(int fd, std::uint8_t tag,
                            std::span<const std::byte> payload) {
  std::vector<std::byte> rec;
  rec.reserve(5 + payload.size());
  append_u32(rec, static_cast<std::uint32_t>(1 + payload.size()));
  rec.push_back(static_cast<std::byte>(tag));
  rec.insert(rec.end(), payload.begin(), payload.end());
  PX_ASSERT_MSG(detail::send_all(fd, rec.data(), rec.size()),
                "bootstrap: control send failed (peer died?)");
}

std::vector<std::byte> bootstrap::recv_record(int fd,
                                              std::uint8_t expect_tag) {
  std::byte header[4];
  PX_ASSERT_MSG(detail::recv_all(fd, header, sizeof header),
                "bootstrap: control recv failed (peer died?)");
  const std::uint32_t len = read_u32(header);
  PX_ASSERT_MSG(len >= 1 && len <= (1u << 20),
                "bootstrap: corrupt control record length");
  std::vector<std::byte> body(len);
  PX_ASSERT_MSG(detail::recv_all(fd, body.data(), body.size()),
                "bootstrap: control recv failed (peer died?)");
  PX_ASSERT_MSG(std::to_integer<std::uint8_t>(body[0]) == expect_tag,
                "bootstrap: unexpected control record tag (collective "
                "calls out of order?)");
  body.erase(body.begin());
  return body;
}

bool bootstrap::try_send_record(int fd, std::uint8_t tag,
                                std::span<const std::byte> payload) {
  std::vector<std::byte> rec;
  rec.reserve(5 + payload.size());
  append_u32(rec, static_cast<std::uint32_t>(1 + payload.size()));
  rec.push_back(static_cast<std::byte>(tag));
  rec.insert(rec.end(), payload.begin(), payload.end());
  return detail::send_all(fd, rec.data(), rec.size());
}

std::optional<std::pair<std::uint8_t, std::vector<std::byte>>>
bootstrap::try_recv_record_any(int fd) {
  std::byte header[4];
  if (!detail::recv_all(fd, header, sizeof header)) return std::nullopt;
  const std::uint32_t len = read_u32(header);
  PX_ASSERT_MSG(len >= 1 && len <= (1u << 20),
                "bootstrap: corrupt control record length");
  std::vector<std::byte> body(len);
  if (!detail::recv_all(fd, body.data(), body.size())) return std::nullopt;
  const auto tag = std::to_integer<std::uint8_t>(body[0]);
  body.erase(body.begin());
  return std::make_pair(tag, std::move(body));
}

std::uint32_t bootstrap::live_ranks() const noexcept {
  std::uint32_t n = 0;
  const std::uint64_t mask = dead_mask_.load(std::memory_order_acquire);
  for (std::uint32_t r = 0; r < params_.nranks; ++r) {
    if (((mask >> r) & 1u) == 0) n += 1;
  }
  return n;
}

void bootstrap::set_peer_down_handler(std::function<void(std::uint32_t)> h) {
  std::lock_guard lock(handler_mutex_);
  on_peer_down_ = std::move(h);
}

void bootstrap::expect_shutdown() noexcept {
  if (closing_.exchange(true, std::memory_order_acq_rel)) return;
  // Tell the other side the silence to come is orderly, so its lease/EOF
  // detectors stand down even if our process exits before it reacts.
  std::lock_guard lock(hb_send_mutex_);
  if (params_.rank == 0) {
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      if (hb_fds_[r] >= 0 && is_alive(r)) {
        (void)try_send_record(hb_fds_[r], kTagGoodbye, {});
      }
    }
  } else if (hb_fd_ >= 0) {
    (void)try_send_record(hb_fd_, kTagGoodbye, {});
  }
}

void bootstrap::note_rank_dead(std::uint32_t rank) {
  if (rank < params_.nranks) death_verdict(rank, "reported by the runtime");
}

void bootstrap::fail_fast(std::uint32_t rank, const char* why) {
  PX_LOG_ERROR(
      "bootstrap: rank %u is lost (%s) and this machine cannot survive "
      "rank loss here -- exiting",
      rank, why);
  // _Exit, not abort: the diagnostic above *is* the product; a core dump
  // of the surviving process would only bury it.
  std::_Exit(1);
}

void bootstrap::require_survivable(std::uint32_t rank) {
  if (closing_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(handler_mutex_);
  // A thread that merely *observes* an existing verdict must die here in
  // fail-fast mode: the thread that issued the verdict may still be
  // between its dead-mask store and its _Exit, and an observer sailing
  // past the shrunk collective could beat it to a clean exit code.  The
  // issuing thread owns the diagnostic; this exit is silent on purpose.
  if (on_peer_down_ == nullptr || rank == 0) std::_Exit(1);
}

void bootstrap::death_verdict(std::uint32_t rank, const char* why) {
  if (closing_.load(std::memory_order_acquire)) return;
  const std::uint64_t bit = 1ull << rank;
  if (dead_mask_.fetch_or(bit, std::memory_order_acq_rel) & bit) {
    require_survivable(rank);
    return;
  }
  std::function<void(std::uint32_t)> handler;
  {
    std::lock_guard lock(handler_mutex_);
    handler = on_peer_down_;
  }
  // Rank 0 is the control plane: nobody survives its loss.  Everything
  // else is survivable once a peer-down handler is armed.
  if (handler == nullptr || rank == 0) fail_fast(rank, why);
  PX_LOG_WARN("bootstrap: rank %u declared dead (%s); continuing with %u "
              "live ranks",
              rank, why, live_ranks());
  if (params_.rank == 0) {
    // Broadcast the verdict so survivors that cannot see the casualty
    // directly (e.g. it died silently between heartbeats) converge fast.
    std::vector<std::byte> payload;
    append_u32(payload, rank);
    std::lock_guard lock(hb_send_mutex_);
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      if (r == rank || hb_fds_[r] < 0 || !is_alive(r)) continue;
      (void)try_send_record(hb_fds_[r], kTagPeerDown, payload);
    }
  }
  handler(rank);
}

std::optional<std::vector<std::byte>> bootstrap::recv_from_live(
    std::uint32_t r, std::uint8_t tag) {
  for (;;) {
    if (!is_alive(r)) {
      require_survivable(r);
      return std::nullopt;
    }
    pollfd p{rank_fds_[r], POLLIN, 0};
    const int rc = ::poll(&p, 1, kPollSliceMs);
    if (rc < 0) {
      PX_ASSERT_MSG(errno == EINTR, "bootstrap: poll() failed");
      continue;
    }
    if (rc == 0) continue;  // re-check the dead mask, poll again
    auto rec = try_recv_record_any(rank_fds_[r]);
    if (!rec.has_value()) {
      death_verdict(r, "control socket EOF mid-collective");
      return std::nullopt;
    }
    PX_ASSERT_MSG(rec->first == tag,
                  "bootstrap: unexpected control record tag (collective "
                  "calls out of order?)");
    return std::move(rec->second);
  }
}

void bootstrap::send_to_live(std::uint32_t r, std::uint8_t tag,
                             std::span<const std::byte> payload) {
  if (!is_alive(r)) {
    require_survivable(r);
    return;
  }
  if (!try_send_record(rank_fds_[r], tag, payload)) {
    death_verdict(r, "control socket reset mid-collective");
  }
}

bootstrap::exchange_result bootstrap::exchange(
    const std::string& my_endpoint, std::span<const std::byte> root_blob) {
  exchange_result out;
  // Boot has no heartbeats yet, so the accept loops are bounded by the
  // connect budget instead: a rank that dies before saying hello turns
  // into a clean root-side diagnostic and nonzero exit, never a hang (and
  // the root's exit EOFs every other rank out in turn).
  const auto boot_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(params_.connect_timeout_ms);
  const auto accept_or_die = [&](const char* phase) {
    for (;;) {
      pollfd p{listen_fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, kPollSliceMs);
      if (rc < 0) {
        PX_ASSERT_MSG(errno == EINTR, "bootstrap: poll() failed");
        continue;
      }
      if (rc > 0) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        PX_ASSERT_MSG(fd >= 0, "bootstrap: accept() failed");
        return fd;
      }
      if (std::chrono::steady_clock::now() >= boot_deadline) {
        PX_LOG_ERROR(
            "bootstrap: gave up waiting for %s after %llu ms -- a rank "
            "died (or never started) during boot; exiting",
            phase,
            static_cast<unsigned long long>(params_.connect_timeout_ms));
        std::_Exit(1);
      }
    }
  };
  if (params_.rank == 0) {
    // Collect every rank's hello; the launcher may start them in any
    // order, so accept until all are in.
    std::vector<std::string> endpoints(params_.nranks);
    endpoints[0] = my_endpoint;
    for (std::uint32_t seen = 1; seen < params_.nranks;) {
      const int fd = accept_or_die("rank hellos");
      const auto hello_rec = try_recv_record_any(fd);
      if (!hello_rec.has_value()) {
        PX_LOG_ERROR(
            "bootstrap: a rank's control connection died mid-hello; "
            "exiting");
        std::_Exit(1);
      }
      PX_ASSERT_MSG(hello_rec->first == kTagHello,
                    "bootstrap: unexpected control record tag (collective "
                    "calls out of order?)");
      const auto& hello = hello_rec->second;
      PX_ASSERT_MSG(hello.size() > 4, "bootstrap: malformed hello");
      const std::uint32_t r = read_u32(hello.data());
      PX_ASSERT_MSG(r >= 1 && r < params_.nranks,
                    "bootstrap: hello rank out of range");
      PX_ASSERT_MSG(rank_fds_[r] < 0, "bootstrap: duplicate rank hello "
                                      "(two processes share a rank?)");
      rank_fds_[r] = fd;
      endpoints[r].assign(
          reinterpret_cast<const char*>(hello.data()) + 4,
          hello.size() - 4);
      seen += 1;
    }
    // Broadcast the table + the root param blob: endpoints are
    // newline-joined (addresses never contain '\n').
    std::vector<std::byte> reply;
    std::string joined;
    for (std::uint32_t r = 0; r < params_.nranks; ++r) {
      joined += endpoints[r];
      joined += '\n';
    }
    append_u32(reply, static_cast<std::uint32_t>(joined.size()));
    for (const char c : joined) reply.push_back(static_cast<std::byte>(c));
    reply.insert(reply.end(), root_blob.begin(), root_blob.end());
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      send_record(rank_fds_[r], kTagTable, reply);
    }
    out.endpoints = std::move(endpoints);
    out.params_blob.assign(root_blob.begin(), root_blob.end());
    PX_LOG_INFO("bootstrap: %u ranks registered", params_.nranks);
  } else {
    std::vector<std::byte> hello;
    append_u32(hello, params_.rank);
    for (const char c : my_endpoint) {
      hello.push_back(static_cast<std::byte>(c));
    }
    auto table_rec = std::optional<
        std::pair<std::uint8_t, std::vector<std::byte>>>{};
    if (try_send_record(root_fd_, kTagHello, hello)) {
      table_rec = try_recv_record_any(root_fd_);
    }
    if (!table_rec.has_value()) {
      // Root exits with its own diagnostic when any rank dies during
      // boot; our EOF here is the echo of that.
      PX_LOG_ERROR(
          "bootstrap: rank 0 went away during boot (another rank died "
          "before hello?); exiting");
      std::_Exit(1);
    }
    PX_ASSERT_MSG(table_rec->first == kTagTable,
                  "bootstrap: unexpected control record tag (collective "
                  "calls out of order?)");
    const auto& reply = table_rec->second;
    PX_ASSERT_MSG(reply.size() >= 4, "bootstrap: malformed table");
    const std::uint32_t joined_len = read_u32(reply.data());
    PX_ASSERT_MSG(4 + joined_len <= reply.size(),
                  "bootstrap: malformed table");
    std::string joined(reinterpret_cast<const char*>(reply.data()) + 4,
                       joined_len);
    std::size_t pos = 0;
    for (std::uint32_t r = 0; r < params_.nranks; ++r) {
      const std::size_t nl = joined.find('\n', pos);
      PX_ASSERT_MSG(nl != std::string::npos, "bootstrap: short table");
      out.endpoints.push_back(joined.substr(pos, nl - pos));
      pos = nl + 1;
    }
    out.params_blob.assign(reply.begin() + 4 + joined_len, reply.end());
  }

  // Open the dedicated heartbeat channel (a second connection per rank)
  // and start the failure detector.  Kept off the main control sockets so
  // heartbeats never interleave with in-order collective records.
  if (params_.nranks > 1) {
    if (params_.rank == 0) {
      for (std::uint32_t seen = 1; seen < params_.nranks; ++seen) {
        const int fd = accept_or_die("heartbeat channels");
        const auto hb_hello = try_recv_record_any(fd);
        if (!hb_hello.has_value()) {
          PX_LOG_ERROR(
              "bootstrap: a rank died opening its heartbeat channel; "
              "exiting");
          std::_Exit(1);
        }
        PX_ASSERT_MSG(
            hb_hello->first == kTagHbHello && hb_hello->second.size() == 4,
            "bootstrap: malformed heartbeat hello");
        const std::uint32_t r = read_u32(hb_hello->second.data());
        PX_ASSERT_MSG(r >= 1 && r < params_.nranks && hb_fds_[r] < 0,
                      "bootstrap: heartbeat hello rank out of range");
        hb_fds_[r] = fd;
      }
    } else {
      const auto [host, port] = detail::split_host_port_impl(params_.root);
      hb_fd_ = detail::dial(host, port, params_.connect_timeout_ms);
      PX_ASSERT_MSG(hb_fd_ >= 0,
                    "bootstrap: cannot open heartbeat channel to rank 0");
      std::vector<std::byte> hb_hello;
      append_u32(hb_hello, params_.rank);
      send_record(hb_fd_, kTagHbHello, hb_hello);
    }
    start_heartbeat();
  }
  return out;
}

void bootstrap::start_heartbeat() {
  if (params_.rank == 0) {
    hb_thread_ = std::thread([this] { hb_loop_root(); });
  } else {
    hb_thread_ = std::thread([this] { hb_loop_rank(); });
  }
}

void bootstrap::hb_loop_root() {
  using clock = std::chrono::steady_clock;
  const auto interval =
      std::chrono::microseconds(params_.heartbeat_interval_us);
  const auto lease = std::chrono::milliseconds(params_.lease_ms);
  const int slice_ms = static_cast<int>(
      std::min<std::uint64_t>(params_.heartbeat_interval_us / 1000 + 1, 50));
  std::vector<clock::time_point> last_rx(params_.nranks, clock::now());
  auto last_tx = clock::now() - interval;
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> fd_rank;
  while (!closing_.load(std::memory_order_acquire)) {
    fds.clear();
    fd_rank.clear();
    const std::uint64_t gone = goodbye_mask_.load(std::memory_order_acquire);
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      if (!is_alive(r) || ((gone >> r) & 1u) != 0) continue;
      fds.push_back({hb_fds_[r], POLLIN, 0});
      fd_rank.push_back(r);
    }
    if (fds.empty()) return;  // every peer dead or said goodbye
    const int rc = ::poll(fds.data(), fds.size(), slice_ms);
    if (rc < 0 && errno != EINTR) return;
    const auto now = clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::uint32_t r = fd_rank[i];
      const auto rec = try_recv_record_any(hb_fds_[r]);
      if (!rec.has_value()) {
        death_verdict(r, "heartbeat channel EOF");
        continue;
      }
      if (rec->first == kTagHb) {
        last_rx[r] = now;
      } else if (rec->first == kTagGoodbye) {
        goodbye_mask_.fetch_or(1ull << r, std::memory_order_acq_rel);
      }
    }
    if (now - last_tx >= interval) {
      last_tx = now;
      // Verdicts re-take hb_send_mutex_ to broadcast kTagPeerDown, so a
      // verdict issued under the fan-out lock self-deadlocks this thread.
      // Collect the failed ranks and judge them after the lock drops.
      std::vector<std::uint32_t> reset;
      {
        std::lock_guard lock(hb_send_mutex_);
        for (const std::uint32_t r : fd_rank) {
          if (!is_alive(r)) continue;
          if (!try_send_record(hb_fds_[r], kTagHb, {})) reset.push_back(r);
        }
      }
      for (const std::uint32_t r : reset) {
        death_verdict(r, "heartbeat channel reset");
      }
    }
    for (const std::uint32_t r : fd_rank) {
      if (is_alive(r) && now - last_rx[r] > lease) {
        death_verdict(r, "heartbeat lease expired");
      }
    }
  }
}

void bootstrap::hb_loop_rank() {
  using clock = std::chrono::steady_clock;
  const auto interval =
      std::chrono::microseconds(params_.heartbeat_interval_us);
  const auto lease = std::chrono::milliseconds(params_.lease_ms);
  const int slice_ms = static_cast<int>(
      std::min<std::uint64_t>(params_.heartbeat_interval_us / 1000 + 1, 50));
  auto last_root_rx = clock::now();
  auto last_tx = clock::now() - interval;
  while (!closing_.load(std::memory_order_acquire)) {
    pollfd p{hb_fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, slice_ms);
    if (rc < 0 && errno != EINTR) return;
    const auto now = clock::now();
    if (rc > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const auto rec = try_recv_record_any(hb_fd_);
      if (!rec.has_value()) {
        death_verdict(0, "heartbeat channel EOF");
        return;
      }
      if (rec->first == kTagHb) {
        last_root_rx = now;
      } else if (rec->first == kTagPeerDown) {
        PX_ASSERT_MSG(rec->second.size() == 4,
                      "bootstrap: malformed peer-down record");
        // Wire-supplied rank: bounds-check before the 1<<rank inside
        // death_verdict (mirrors note_rank_dead's guard).
        const std::uint32_t dead = read_u32(rec->second.data());
        if (dead < params_.nranks) {
          death_verdict(dead, "announced dead by rank 0");
        }
      } else if (rec->first == kTagGoodbye) {
        // Root is shutting the machine down cleanly; everything that goes
        // silent from here is expected.
        closing_.store(true, std::memory_order_release);
        return;
      }
    }
    if (now - last_tx >= interval) {
      last_tx = now;
      std::lock_guard lock(hb_send_mutex_);
      if (!try_send_record(hb_fd_, kTagHb, {})) {
        death_verdict(0, "heartbeat channel reset");
        return;
      }
    }
    if (now - last_root_rx > lease) {
      death_verdict(0, "heartbeat lease expired");
      return;
    }
  }
}

void bootstrap::barrier(std::uint64_t digest) {
  std::vector<std::byte> payload;
  append_u64(payload, digest);
  if (params_.rank == 0) {
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      const auto rec = recv_from_live(r, kTagBarrier);
      if (!rec.has_value()) continue;  // casualty: the barrier shrinks
      PX_ASSERT(rec->size() == 8);
      PX_ASSERT_MSG(digest == 0 || read_u64(rec->data()) == digest,
                    "bootstrap: ranks disagree on the boot-time schema "
                    "digest (counter registration drift between "
                    "processes?)");
    }
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      send_to_live(r, kTagBarrier, payload);
    }
  } else {
    if (!try_send_record(root_fd_, kTagBarrier, payload)) {
      death_verdict(0, "control socket reset in barrier");
      return;  // unreachable: losing rank 0 is fatal
    }
    // Blocking is safe: rank 0's side of this collective is lease-bounded,
    // and its own death EOFs us out into the fatal path.
    const auto release = try_recv_record_any(root_fd_);
    if (!release.has_value()) {
      death_verdict(0, "control socket EOF in barrier");
      return;
    }
    PX_ASSERT_MSG(release->first == kTagBarrier,
                  "bootstrap: unexpected control record tag (collective "
                  "calls out of order?)");
  }
}

bool bootstrap::quiesce_round(bool locally_stable, std::uint64_t activity,
                              std::uint64_t parcels_sent_remote,
                              std::uint64_t parcels_delivered_remote) {
  constexpr std::size_t kFields = 5;  // per-rank report width
  const std::uint64_t my_mask = dead_mask_.load(std::memory_order_acquire);
  std::vector<std::byte> report;
  append_u64(report, locally_stable ? 1 : 0);
  append_u64(report, activity);
  append_u64(report, parcels_sent_remote);
  append_u64(report, parcels_delivered_remote);
  append_u64(report, my_mask);

  if (params_.rank != 0) {
    if (!try_send_record(root_fd_, kTagQuiesce, report)) {
      death_verdict(0, "control socket reset in quiesce");
      return false;  // unreachable: losing rank 0 is fatal
    }
    const auto verdict_rec = try_recv_record_any(root_fd_);
    if (!verdict_rec.has_value()) {
      death_verdict(0, "control socket EOF in quiesce");
      return false;
    }
    PX_ASSERT(verdict_rec->first == kTagVerdict &&
              verdict_rec->second.size() == 1);
    return std::to_integer<std::uint8_t>(verdict_rec->second[0]) != 0;
  }

  // Root: gather the live ranks (self included) into one rank-ordered
  // vector.  Dead ranks contribute constant all-zero rows, so once the
  // membership stabilizes the two-identical-gathers rule works exactly as
  // in the full-machine protocol; the round a casualty drops out, its row
  // changes and forces at least one more confirming round.
  std::vector<std::uint64_t> gather(params_.nranks * kFields, 0);
  gather[0] = locally_stable ? 1 : 0;
  gather[1] = activity;
  gather[2] = parcels_sent_remote;
  gather[3] = parcels_delivered_remote;
  gather[4] = my_mask;
  bool membership_changed = false;
  for (std::uint32_t r = 1; r < params_.nranks; ++r) {
    // A rank already confirmed dead contributes its constant zero row
    // without being polled — only a death *during* this gather is a
    // membership change.  (Flagging long-dead ranks every round would
    // veto the verdict forever.)
    if (!is_alive(r)) continue;
    const auto rec = recv_from_live(r, kTagQuiesce);
    if (!rec.has_value()) {
      // Died mid-gather: zero row, and never declare quiescence on the
      // round that shrank the membership.
      membership_changed = true;
      continue;
    }
    PX_ASSERT(rec->size() == kFields * 8);
    for (std::size_t f = 0; f < kFields; ++f) {
      gather[r * kFields + f] = read_u64(rec->data() + f * 8);
    }
  }

  bool all_stable = true;
  bool masks_agree = true;
  std::uint64_t sent_sum = 0, delivered_sum = 0;
  for (std::uint32_t r = 0; r < params_.nranks; ++r) {
    if (!is_alive(r)) continue;
    all_stable = all_stable && gather[r * kFields] == 1;
    sent_sum += gather[r * kFields + 2];
    delivered_sum += gather[r * kFields + 3];
    // Every survivor must have folded the same casualties into its books,
    // or the sent/delivered totals aren't comparable yet.
    masks_agree = masks_agree && gather[r * kFields + 4] == my_mask;
  }
  // Two identical consecutive gathers make round N-1 a consistent cut: any
  // parcel in flight (or delivered-then-reacting) between the gathers
  // would have moved a sent/delivered/activity counter somewhere.
  const bool quiescent = all_stable && masks_agree && !membership_changed &&
                         sent_sum == delivered_sum && gather == prev_gather_;
  {
    // Stuck-round diagnostic: if one wait spins without converging, say
    // why (which term of the verdict fails and with what numbers).  Only
    // the current wait's rounds count — healthy waits each take a couple
    // of rounds, and a process-wide tally would cry wolf on a long run.
    stalled_rounds_ = quiescent ? 0 : stalled_rounds_ + 1;
    if (stalled_rounds_ != 0 && stalled_rounds_ % 4096 == 0) {
      PX_LOG_WARN("quiesce not converging after %llu rounds: stable=%d "
                  "masks=%d membership=%d sent=%llu delivered=%llu",
                  static_cast<unsigned long long>(stalled_rounds_),
                  all_stable ? 1 : 0, masks_agree ? 1 : 0,
                  membership_changed ? 1 : 0,
                  static_cast<unsigned long long>(sent_sum),
                  static_cast<unsigned long long>(delivered_sum));
      for (std::uint32_t r = 0; r < params_.nranks; ++r) {
        if (!is_alive(r)) continue;
        PX_LOG_WARN("  rank %u: stable=%llu activity=%llu sent=%llu "
                    "delivered=%llu mask=%llx",
                    r,
                    static_cast<unsigned long long>(gather[r * kFields]),
                    static_cast<unsigned long long>(gather[r * kFields + 1]),
                    static_cast<unsigned long long>(gather[r * kFields + 2]),
                    static_cast<unsigned long long>(gather[r * kFields + 3]),
                    static_cast<unsigned long long>(gather[r * kFields + 4]));
      }
    }
  }
  prev_gather_ = quiescent ? std::vector<std::uint64_t>{} : std::move(gather);

  const std::byte verdict{static_cast<std::uint8_t>(quiescent ? 1 : 0)};
  for (std::uint32_t r = 1; r < params_.nranks; ++r) {
    send_to_live(r, kTagVerdict, std::span(&verdict, 1));
  }
  return quiescent;
}

std::int64_t bootstrap::clock_sync() {
  constexpr int kSamples = 5;
  if (params_.rank == 0) {
    // Serve each rank's pings in rank order; every rank has a dedicated
    // control socket, so serializing here just paces the dialers.
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      for (int s = 0; s < kSamples; ++s) {
        (void)recv_record(rank_fds_[r], kTagClockPing);
        std::vector<std::byte> pong;
        append_u64(pong, static_cast<std::uint64_t>(util::now_ns()));
        send_record(rank_fds_[r], kTagClockPong, pong);
      }
    }
    return 0;
  }
  std::int64_t best_rtt = 0;
  std::int64_t best_offset = 0;
  for (int s = 0; s < kSamples; ++s) {
    const std::int64_t t0 = util::now_ns();
    send_record(root_fd_, kTagClockPing, {});
    const auto pong = recv_record(root_fd_, kTagClockPong);
    const std::int64_t t1 = util::now_ns();
    PX_ASSERT(pong.size() == 8);
    const auto t_root = static_cast<std::int64_t>(read_u64(pong.data()));
    const std::int64_t rtt = t1 - t0;
    // The midpoint estimate is most trustworthy on the tightest round
    // trip (least asymmetric queueing).
    if (s == 0 || rtt < best_rtt) {
      best_rtt = rtt;
      best_offset = (t0 + t1) / 2 - t_root;
    }
  }
  return best_offset;
}

}  // namespace px::net
