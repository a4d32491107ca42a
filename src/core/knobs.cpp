#include "core/knobs.hpp"

#include <charconv>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "core/parcel_port.hpp"
#include "core/rebalancer.hpp"
#include "core/runtime.hpp"
#include "introspect/stats.hpp"
#include "net/bootstrap.hpp"
#include "net/shm_transport.hpp"
#include "net/tcp_transport.hpp"
#include "util/assert.hpp"
#include "util/serialize.hpp"

namespace px::core::knobs {

namespace {

template <typename T>
struct knob {
  const char* key;
  const char* env;  // nullptr: settable through runtime_params only
  T fallback;
  scope where;
  const char* doc;
};

// Rows that no runtime_params field carries, named for their accessors.
const knob<std::int64_t> kShmSpinUs{
    "shm.spin_us", "PX_SHM_SPIN_US", net::shm_params{}.spin_us, scope::rank,
    "shm backend: receiver spin before futex sleep (-1: by core count)"};
const knob<std::size_t> kShmRingBytes{
    "shm.ring_bytes", "PX_SHM_RING_BYTES", net::shm_params{}.ring_bytes,
    scope::rank, "shm backend: per-direction ring bytes per pair"};
// The heartbeat and lease must be live before the wire-params exchange (a
// rank that dies mid-boot must not hang the others), so they cannot ride
// rank 0's blob; launchers set them uniformly.
const knob<std::uint64_t> kHeartbeatIntervalUs{
    "heartbeat.interval_us", "PX_HEARTBEAT_INTERVAL_US",
    net::bootstrap_params{}.heartbeat_interval_us, scope::rank,
    "control-plane heartbeat cadence (tcp/shm)"};
const knob<std::uint64_t> kLeaseMs{
    "lease.ms", "PX_LEASE_MS", net::bootstrap_params{}.lease_ms, scope::rank,
    "failure lease: a rank silent this long is dead"};
const knob<std::string> kFault{
    "fault", "PX_FAULT", "", scope::rank,
    "fault-injection plan (docs/resilience.md grammar)"};
const knob<std::size_t> kTraceRingBytes{
    "trace.ring_bytes", "PX_TRACE_RING_BYTES", std::size_t{1} << 20,
    scope::rank, "per-thread trace ring size in bytes"};

template <typename T>
std::optional<T>* no_field(const knob<T>&) {
  return nullptr;
}

// The table.  Calls f(row, field) for every row in order, where `field`
// is the member of `p` an explicit value arrives in (nullptr for the
// named rows above).  Machine-scope rows encode in this order, so their
// relative order *is* the wire-params layout.
template <typename F>
void visit(runtime_params& p, F&& f) {
  f(knob<std::string>{"net.backend", "PX_NET_BACKEND", "sim", scope::rank,
                      "transport backend: \"sim\", \"tcp\", or \"shm\""},
    &p.net.backend);
  f(knob<std::int64_t>{"net.rank", "PX_NET_RANK", 0, scope::rank,
                       "this process's locality id (tcp/shm)"},
    &p.net.rank);
  f(knob<std::int64_t>{"net.ranks", "PX_NET_RANKS", 0, scope::rank,
                       "total rank count (tcp/shm, required)"},
    &p.net.ranks);
  f(knob<std::string>{"net.listen", "PX_NET_LISTEN", net::tcp_params{}.listen,
                      scope::rank, "data-plane bind address (tcp only)"},
    &p.net.listen);
  f(knob<std::string>{"net.root", "PX_NET_ROOT", net::bootstrap_params{}.root,
                      scope::rank, "rank 0 bootstrap listen address"},
    &p.net.root);
  f(kHeartbeatIntervalUs, no_field(kHeartbeatIntervalUs));
  f(kLeaseMs, no_field(kLeaseMs));
  f(kFault, no_field(kFault));
  f(kShmRingBytes, no_field(kShmRingBytes));
  f(kShmSpinUs, no_field(kShmSpinUs));
  f(knob<std::size_t>{"parcel.flush_bytes", "PX_PARCEL_FLUSH_BYTES",
                      parcel_port_params{}.flush_bytes, scope::machine,
                      "coalesced-frame byte threshold"},
    &p.parcel_flush_bytes);
  f(knob<std::uint32_t>{"parcel.flush_count", "PX_PARCEL_FLUSH_COUNT",
                        parcel_port_params{}.flush_count, scope::machine,
                        "coalesced-frame parcel-count threshold"},
    &p.parcel_flush_count);
  f(knob<std::uint8_t>{"max_forwards", nullptr, 16, scope::machine,
                       "stale-cache forwarding hop bound"},
    &p.max_forwards);
  f(knob<bool>{"parcel.eager_flush", "PX_PARCEL_EAGER_FLUSH", true,
               scope::machine, "first-parcel eager flush on/off"},
    &p.parcel_eager_flush);
  f(knob<bool>{"migration", "PX_MIGRATION", true, scope::machine,
               "cross-process object migration on/off (tcp/shm)"},
    &p.net.migration);
  f(knob<bool>{"rebalance", "PX_REBALANCE", rebalancer_params{}.enabled,
               scope::machine, "adaptive rebalancer on/off"},
    &p.rebalance);
  f(knob<double>{"rebalance.threshold", "PX_REBALANCE_THRESHOLD",
                 rebalancer_params{}.threshold, scope::rank,
                 "max/mean ready-depth trigger ratio"},
    &p.rebalance_threshold);
  f(knob<std::uint32_t>{"rebalance.min_depth", "PX_REBALANCE_MIN_DEPTH",
                        rebalancer_params{}.min_depth, scope::rank,
                        "minimum deepest-queue depth to act"},
    &p.rebalance_min_depth);
  f(knob<std::uint32_t>{"rebalance.max_migrations",
                        "PX_REBALANCE_MAX_MIGRATIONS",
                        rebalancer_params{}.max_migrations, scope::rank,
                        "object migrations per round"},
    &p.rebalance_max_migrations);
  f(knob<std::uint64_t>{"rebalance.interval_us", "PX_REBALANCE_INTERVAL_US",
                        rebalancer_params{}.interval_us, scope::rank,
                        "minimum spacing between rounds"},
    &p.rebalance_interval_us);
  f(knob<bool>{"trace", "PX_TRACE", false, scope::machine,
               "flight recorder on/off (docs/tracing.md)"},
    &p.trace);
  f(kTraceRingBytes, no_field(kTraceRingBytes));
  f(knob<std::string>{"trace.dir", "PX_TRACE_DIR", ".", scope::rank,
                      "directory for px_trace.<rank>.bin shards"},
    &p.trace_dir);
  f(knob<bool>{"stats", "PX_STATS", introspect::stats_params{}.enabled,
               scope::machine, "telemetry sampler on/off (docs/metrics.md)"},
    &p.stats);
  f(knob<std::uint64_t>{"stats.interval_us", "PX_STATS_INTERVAL_US",
                        introspect::stats_params{}.interval_us, scope::rank,
                        "telemetry sampling period"},
    &p.stats_interval_us);
  f(knob<std::string>{"stats.dir", "PX_STATS_DIR",
                      introspect::stats_params{}.dir, scope::rank,
                      "directory for px_stats.<rank>.jsonl shards"},
    &p.stats_dir);
  // util/log reads this one itself (util cannot depend on core).
  const knob<std::string> log_level{"log.level", "PX_LOG_LEVEL", "warn",
                                    scope::rank,
                                    "log verbosity: debug|info|warn|error|off"};
  f(log_level, no_field(log_level));
}

// ------------------------------------------------------ parse and render

template <typename T>
std::optional<T> parse(std::string_view s) {
  if constexpr (std::is_same_v<T, std::string>) {
    return std::string(s);
  } else if constexpr (std::is_same_v<T, bool>) {
    if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
    if (s == "0" || s == "false" || s == "no" || s == "off") return false;
    return std::nullopt;
  } else {
    // The whole value must parse: "12abc" is not 12, and an unsigned row
    // rejects "-1" instead of wrapping it.
    T v{};
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return v;
  }
}

template <typename T>
constexpr const char* type_name() {
  if constexpr (std::is_same_v<T, bool>) {
    return "flag (1|true|yes|on or 0|false|no|off)";
  } else if constexpr (std::is_floating_point_v<T>) {
    return "number";
  } else if constexpr (std::is_unsigned_v<T>) {
    return "non-negative integer in range";
  } else {
    return "integer in range";
  }
}

std::string render(bool v) { return v ? "on" : "off"; }
std::string render(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}
std::string render(const std::string& v) { return v.empty() ? "unset" : v; }
template <typename T>
  requires std::is_integral_v<T>
std::string render(T v) {
  return std::to_string(v);
}

// Environment, then default; explicit params are the caller's business.
template <typename T>
T from_env(const knob<T>& k) {
  const char* raw = k.env != nullptr ? std::getenv(k.env) : nullptr;
  if (raw == nullptr) return k.fallback;
  const std::optional<T> v = parse<T>(raw);
  PX_ASSERT_MSG(v.has_value(), (std::string(k.env) + "=\"" + raw +
                                "\" is not a valid " + type_name<T>())
                                   .c_str());
  return *v;
}

// Wire width of a machine-scope value: flags travel as one byte.
template <typename T>
using wire_t = std::conditional_t<std::is_same_v<T, bool>, std::uint8_t, T>;

}  // namespace

std::vector<row_info> rows() {
  std::vector<row_info> out;
  runtime_params scratch;
  visit(scratch, [&out](const auto& k, auto*) {
    out.push_back(row_info{k.key, k.env != nullptr ? k.env : "",
                           render(k.fallback), k.where, k.doc,
                           [k] { return render(from_env(k)); }});
  });
  return out;
}

void resolve(runtime_params& p) {
  visit(p, [](const auto& k, auto* field) {
    if (field != nullptr && !field->has_value()) *field = from_env(k);
  });
}

std::size_t shm_ring_bytes() { return from_env(kShmRingBytes); }
std::int64_t shm_spin_us() { return from_env(kShmSpinUs); }
std::uint64_t heartbeat_interval_us() {
  return from_env(kHeartbeatIntervalUs);
}
std::uint64_t lease_ms() { return from_env(kLeaseMs); }
std::string fault_plan() { return from_env(kFault); }
std::size_t trace_ring_bytes() { return from_env(kTraceRingBytes); }

std::vector<std::byte> encode_machine(runtime_params p,
                                      const std::string& tail) {
  util::output_archive ar;
  visit(p, [&ar](const auto& k, auto* field) {
    using T = decltype(k.fallback);
    if (k.where == scope::machine) {
      ar & static_cast<wire_t<T>>(field->value());
    }
  });
  ar & tail;
  return std::move(ar).take();
}

std::string apply_machine(runtime_params& p, std::span<const std::byte> blob) {
  util::input_archive ar(blob);
  visit(p, [&ar](const auto& k, auto* field) {
    if (k.where != scope::machine) return;
    using T = decltype(k.fallback);
    wire_t<T> v{};
    ar & v;
    *field = static_cast<T>(v);
  });
  std::string tail;
  ar & tail;
  PX_ASSERT_MSG(ar.exhausted(), "wire-params blob has trailing bytes");
  return tail;
}

}  // namespace px::core::knobs
