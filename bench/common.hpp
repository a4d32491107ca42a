// Shared helpers for the experiment harness binaries.
//
// Every binary prints (1) a header naming the experiment id from DESIGN.md
// and the paper statement it reproduces, and (2) one aligned table (plus
// CSV) with the measured series, so EXPERIMENTS.md can be regenerated by
// copy-paste.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

namespace px::bench {

// CI smoke mode: PX_BENCH_SMOKE=1 shrinks workloads to seconds-scale so
// the bench binaries double as machine-readable regression probes.
inline bool smoke_mode() {
  const char* v = std::getenv("PX_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// ------------------------------------------------------------ JSON output
//
// Minimal emitter for the BENCH_*.json perf-trajectory files: a flat
// object of scalars plus arrays of row objects, enough for a dashboard or
// CI threshold check to consume without parsing the human tables.
class json_writer {
 public:
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    fields_.push_back("\"" + key + "\": " + buf);
  }
  void add(const std::string& key, std::int64_t value) {
    fields_.push_back("\"" + key + "\": " + std::to_string(value));
  }
  void add(const std::string& key, const std::string& value) {
    fields_.push_back("\"" + key + "\": \"" + value + "\"");
  }
  // `rows` is a list of already-rendered "{...}" objects.
  void add_rows(const std::string& key,
                const std::vector<std::string>& rows) {
    std::string out = "\"" + key + "\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i != 0) out += ", ";
      out += rows[i];
    }
    out += "]";
    fields_.push_back(std::move(out));
  }

  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += fields_[i];
    }
    out += "}\n";
    return out;
  }

  // Writes to `path` (cwd-relative) and announces it on stdout.
  bool write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path);
      return false;
    }
    const std::string body = render();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return true;
  }

 private:
  std::vector<std::string> fields_;
};

// Short git sha of the working tree, "unknown" outside a repo (the JSON
// must stay well-formed wherever the binary runs).
inline std::string git_sha() {
  std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[64] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, p);
  ::pclose(p);
  std::string sha(buf, n);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

// Provenance header stamped into every BENCH_*.json: enough to interpret
// a perf-trajectory point months later without the CI log it came from.
// `backend` names the transport the numbers were taken over ("sim",
// "tcp", "shm", or a combination for collated files).
inline void add_metadata(json_writer& json, const std::string& backend) {
  json.add("git_sha", git_sha());
  json.add("backend", backend);
  json.add("hw_cores", static_cast<std::int64_t>(
                           std::thread::hardware_concurrency()));
  json.add("timestamp_unix",
           static_cast<std::int64_t>(std::time(nullptr)));
}

inline void banner(const char* experiment_id, const char* paper_claim) {
  std::printf("=== %s ===\n", experiment_id);
  std::printf("paper: %s\n\n", paper_claim);
}

// Wall-clock milliseconds of fn().
template <typename F>
double time_ms(F&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

// Calibrated busy work: spins for approximately `us` microseconds.  Used
// as the unit of "compute" in experiments so results are CPU-bound and
// reproducible (sleep would let the OS hide scheduling costs).
inline void busy_spin_us(double us) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::micro>(us);
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

}  // namespace px::bench
