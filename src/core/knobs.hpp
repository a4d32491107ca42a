// The runtime's knob table: every setting a user can change, one row each.
//
// A row names the setting (dotted key), its environment variable, its
// type and default, its scope, and — when it has one — the runtime_params
// field an explicit value arrives in.  Every resolution reads the row:
// an explicit runtime_params value wins, then the environment variable,
// then the default.  A value that does not parse as the row's type (or a
// negative value for an unsigned row) aborts, naming the variable.
//
// Scope decides who owns the value in a distributed machine.  Rank 0's
// resolved machine-scope rows ride the bootstrap wire-params blob and
// overwrite every other rank's (ranks coalescing, forwarding, migrating or
// tracing differently would run "the same program, different machine");
// rank-scope rows stay with each process.  docs/counters.md documents each
// row, and tests/test_docs.cpp holds the two to each other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace px::core {

struct runtime_params;

namespace knobs {

enum class scope : std::uint8_t { machine, rank };

// One row as docs and diagnostics see it.
struct row_info {
  std::string key;
  std::string env;       // empty: settable through runtime_params only
  std::string fallback;  // the default, as docs/counters.md writes it
  scope where;
  std::string doc;
  // This process's value from the environment (or the default), rendered
  // like `fallback`; explicit runtime_params values do not enter.
  std::function<std::string()> resolved;
};

std::vector<row_info> rows();

// Fills every unset knob field of `p` from its row.
void resolve(runtime_params& p);

// Rank-scope rows that no runtime_params field carries, resolved at their
// single point of use.
std::size_t shm_ring_bytes();
std::int64_t shm_spin_us();
std::uint64_t heartbeat_interval_us();
std::uint64_t lease_ms();
std::string fault_plan();  // empty: no faults
std::size_t trace_ring_bytes();

// The machine-scope rows of a resolved `p` in table order, then `tail`.
std::vector<std::byte> encode_machine(runtime_params p,
                                      const std::string& tail);

// Overwrites the machine-scope fields of `p` from an encode_machine blob
// and returns its tail.  Asserts the blob holds nothing after the tail.
std::string apply_machine(runtime_params& p, std::span<const std::byte> blob);

}  // namespace knobs
}  // namespace px::core
