// Shared plumbing for the pxbench workloads: command line, seeded input
// streams, counter deltas, and the per-process result file that
// perfbench/run.py merges.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "util/rng.hpp"

namespace pxbench {

struct options {
  std::string role;      // sim | rank | probe
  std::string workload;  // ping | storm | mixed | kernel
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;   // rank: bootstrap, one request, exit
  std::int64_t launch_ns = 0;  // steady-clock stamp taken before launch
  std::string out_dir;
};

options parse_options(int argc, char** argv);

// With --trace 1 a run alternates untraced and traced chunks (untraced
// first), so drift over the run touches both alike; the untraced chunks
// are the baseline for trace.overhead_share, and only the traced chunks'
// spans and counters feed the per-layer metrics.
inline int chunks(const options& o) { return o.trace ? 4 : 1; }

// Seeded stream for one purpose (payload sizes, tags, schedules...): the
// same seed and purpose give the same draws in every process.
inline px::util::xoshiro256 stream(std::uint64_t seed, std::uint64_t purpose) {
  return px::util::xoshiro256(seed * 0x9e3779b97f4a7c15ull + purpose);
}

// Counter values keyed by path with the `runtime/` and `loc<i>/` prefixes
// stripped, summed over this process's localities (so `sched/sleeps` is
// the machine total in a sim process and this rank's in a rank process).
std::map<std::string, std::uint64_t> counter_totals(px::core::runtime& rt);
std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after);

// Reserves room for `cap` more samples and touches every page of it, so
// that peak RSS does not grow with how many samples a faster or slower
// run happens to collect.
inline void prefault(std::vector<std::int64_t>& v, std::size_t cap) {
  const std::size_t n = v.size();
  v.resize(n + cap);
  v.resize(n);  // keeps the capacity and its resident pages
}

// Peak resident set of this process (VmHWM), in KiB.
std::uint64_t peak_rss_kb();

struct result;

// Peak RSS read once, when a fixed amount of work is done.  The runtime
// keeps some memory per operation (README, "Behaviour the benchmark
// exposed"), so VmHWM at exit would grow with how many operations a
// faster run got through.  Work is counted by one thread per process.
struct rss_mark {
  std::uint64_t at;  // work units at which VmHWM is read
  std::uint64_t done = 0;
  std::uint64_t kb = 0, kb_work = 0;

  void add(std::uint64_t n) {
    done += n;
    if (kb == 0 && done >= at) {
      kb = peak_rss_kb();
      kb_work = done;
    }
  }
  // Writes rss_kb and rss_work (the work done when it was read).  A run
  // that ended before the mark reports VmHWM at its end.
  void report(result& r);
};

// What one process measured.  Raw samples, never summaries: run.py
// computes percentiles and medians, so every statistic has one
// implementation (perfbench/pxstats.py) and its own self-test.
struct result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  // Keyed by phase prefix ("" or "traced."), then by sample, value or
  // counter name; a phase run in several chunks accumulates into its key.
  std::map<std::string, std::vector<std::int64_t>> samples;
  std::map<std::string, double> values;
  std::map<std::string, std::map<std::string, std::uint64_t>> counters;

  void add_counters(const std::string& pre,
                    const std::map<std::string, std::uint64_t>& delta) {
    for (const auto& [k, v] : delta) counters[pre][k] += v;
  }

  void check(bool ok, const std::string& what) {
    attempted += 1;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    failed += 1;
    if (errors.size() < 20) errors.push_back(what);
  }
  // Writes <out_dir>/<name>.json; false on I/O failure.
  bool write(const std::string& out_dir, const std::string& name) const;
};

}  // namespace pxbench
