#include "net/transport.hpp"

#include "net/socket_util.hpp"
#include "parcel/parcel.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace px::net {

// Key functions: anchor the transport vtables in one translation unit.
transport::~transport() = default;
distributed_transport::~distributed_transport() = default;

void transport::init_books(endpoint_id first, std::size_t count) {
  books_ = std::make_unique<books[]>(count);
  first_booked_ = first;
  booked_ = count;
}

transport::books& transport::books_of(endpoint_id ep) const {
  PX_ASSERT_MSG(ep - first_booked_ < booked_,
                "net stats: no books for this endpoint here (remote ranks "
                "keep their own books)");
  return books_[ep - first_booked_];
}

void transport::count_sent(const message& m) noexcept {
  books& b = books_of(m.source);
  b.messages_sent.fetch_add(1, std::memory_order_relaxed);
  // acq_rel: messages_sent_total() must see the units before any
  // deliverer can act on the frame.
  b.parcels_sent.fetch_add(m.units, std::memory_order_acq_rel);
  b.bytes_sent.fetch_add(m.payload.size(), std::memory_order_relaxed);
}

void transport::count_delivered(const message& m) noexcept {
  books& b = books_of(m.dest);
  b.messages_received.fetch_add(1, std::memory_order_relaxed);
  b.bytes_received.fetch_add(m.payload.size(), std::memory_order_relaxed);
}

std::uint64_t transport::messages_sent_total() const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < booked_; ++i) {
    sum += books_[i].parcels_sent.load(std::memory_order_acquire);
  }
  return sum;
}

endpoint_stats transport::stats(endpoint_id ep) const {
  const books& b = books_of(ep);
  endpoint_stats out;
  out.messages_sent = b.messages_sent.load(std::memory_order_relaxed);
  out.parcels_sent = b.parcels_sent.load(std::memory_order_relaxed);
  out.messages_received = b.messages_received.load(std::memory_order_relaxed);
  out.bytes_sent = b.bytes_sent.load(std::memory_order_relaxed);
  out.bytes_received = b.bytes_received.load(std::memory_order_relaxed);
  return out;
}

void distributed_transport::init_peer_books(std::size_t nranks,
                                            std::size_t self) {
  PX_ASSERT_MSG(nranks <= 64, "peer ledger caps the machine at 64 ranks");
  init_books(static_cast<endpoint_id>(self), 1);
  self_rank_ = self;
  units_to_ = std::vector<std::atomic<std::uint64_t>>(nranks);
  units_from_ = std::vector<std::atomic<std::uint64_t>>(nranks);
  dropped_to_ = std::vector<std::atomic<std::uint64_t>>(nranks);
}

void distributed_transport::account_sent(std::size_t rank,
                                         std::uint64_t units) noexcept {
  if (rank < units_to_.size()) units_to_[rank].fetch_add(units);
}

void distributed_transport::account_delivered(std::size_t rank,
                                              std::uint64_t units) noexcept {
  if (rank < units_from_.size()) units_from_[rank].fetch_add(units);
}

void distributed_transport::account_dropped(std::size_t rank,
                                            std::uint64_t units) noexcept {
  if (rank < dropped_to_.size()) dropped_to_[rank].fetch_add(units);
}

namespace {
std::uint64_t sum(const std::vector<std::atomic<std::uint64_t>>& column) {
  std::uint64_t total = 0;
  for (const auto& units : column) total += units.load();
  return total;
}
}  // namespace

std::uint64_t distributed_transport::parcels_received_total() const noexcept {
  return sum(units_from_);
}

std::uint64_t distributed_transport::parcels_dropped_total() const noexcept {
  return sum(dropped_to_);
}

std::vector<extra_link_counter> distributed_transport::link_rows(
    endpoint_id ep, std::initializer_list<extra_link_counter> own) const {
  PX_ASSERT_MSG(ep == self_rank_,
                "net link rows: remote ranks keep their own books");
  std::vector<extra_link_counter> rows(own);
  rows.push_back({"peer_failed", peers_failed_total()});
  rows.push_back({"parcels_lost", parcels_lost_total()});
  return rows;
}

std::uint64_t distributed_transport::fault_drop_units(
    std::size_t rank, std::uint64_t units) noexcept {
  if (fault_ == nullptr) return 0;
  return fault_->on_send(rank, units);
}

std::uint64_t distributed_transport::units_sent_to(
    std::size_t rank) const noexcept {
  return rank < units_to_.size() ? units_to_[rank].load() : 0;
}

std::uint64_t distributed_transport::units_received_from(
    std::size_t rank) const noexcept {
  return rank < units_from_.size() ? units_from_[rank].load() : 0;
}

std::uint64_t distributed_transport::units_dropped_to(
    std::size_t rank) const noexcept {
  return rank < dropped_to_.size() ? dropped_to_[rank].load() : 0;
}

std::uint64_t distributed_transport::live_units_sent(
    std::uint64_t dead_mask) const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < units_to_.size(); ++r) {
    if (r == self_rank_ || ((dead_mask >> r) & 1u)) continue;
    const std::uint64_t to = units_to_[r].load();
    const std::uint64_t dropped = dropped_to_[r].load();
    sum += to > dropped ? to - dropped : 0;
  }
  return sum;
}

std::uint64_t distributed_transport::live_units_received(
    std::uint64_t dead_mask) const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < units_from_.size(); ++r) {
    if (r == self_rank_ || ((dead_mask >> r) & 1u)) continue;
    sum += units_from_[r].load();
  }
  return sum;
}

void distributed_transport::mark_peer_dead(std::size_t rank) noexcept {
  if (rank >= units_to_.size() || rank == self_rank_) return;
  if (peer_confirmed_dead(rank)) return;  // verdict already landed
  close_link(rank);
}

void distributed_transport::note_peer_closed(std::size_t rank, bool orderly) {
  if (orderly) {
    orderly_disconnects_.fetch_add(1);
    return;
  }
  // One death verdict per peer, no matter how many sources observe it
  // (EOF + pid probe + lease can all fire for the same casualty).
  const std::uint64_t bit = 1ull << rank;
  if (dead_mask_.fetch_or(bit) & bit) return;
  unexpected_disconnects_.fetch_add(1);
  peers_failed_.fetch_add(1);
  // The link is closed and its queue folded, so the books are final:
  // everything sent toward the casualty minus what we already dropped
  // actually reached the wire, and its fate died with the peer.
  const std::uint64_t to = units_sent_to(rank);
  const std::uint64_t dropped = units_dropped_to(rank);
  parcels_lost_.fetch_add(to > dropped ? to - dropped : 0);
  PX_LOG_WARN("net: peer rank %zu confirmed dead (%llu units lost)", rank,
              static_cast<unsigned long long>(to > dropped ? to - dropped
                                                           : 0));
  // Publish the fold only now that the books are final: readers gating on
  // folded_peer_mask() may assume parcels_lost/peers_failed include this
  // casualty the moment they observe the bit.
  folded_mask_.fetch_or(bit, std::memory_order_acq_rel);
  if (on_peer_death_) on_peer_death_(rank);
}

std::optional<std::uint32_t> whole_frame_ingest::accept(
    std::span<const std::byte> frame) {
  if (poisoned_) return std::nullopt;
  if (frame.size() > max_frame_bytes_) {
    poisoned_ = true;
    return std::nullopt;
  }
  const auto view = parcel::frame_view::parse(frame);
  if (!view.has_value()) {
    poisoned_ = true;
    return std::nullopt;
  }
  return view->count();
}

std::pair<std::string, std::uint16_t> split_host_port(const std::string& s) {
  return detail::split_host_port_impl(s);
}

}  // namespace px::net
