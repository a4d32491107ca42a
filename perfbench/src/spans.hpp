// Benchmark-side span recorder for the traced run.
//
// Spans are taken by the benchmark around its own calls into each layer's
// public functions (core::async, lco::future::get, patterns::map_reduce,
// runtime::migrate_gid, ...); nothing inside the runtime is instrumented.
// Each span carries a name, start and end on the steady clock, the id of
// the span that caused it, and a request id shared by every span of one
// request — including spans recorded in another process, which learn the
// request id from the action's own arguments.
//
// Recording is off unless enable() was called, so an untraced phase pays
// one relaxed load per would-be span.  Each OS thread appends to its own
// buffer (fibers never migrate mid-record: a span is pushed whole when it
// ends), and write() dumps every buffer once the runtime has stopped.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pxbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct span_record {
  const char* name;  // string literal
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t rid;     // request id, 0 = none
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class span_log {
 public:
  static span_log& global() {
    static span_log log;
    return log;
  }

  // Call once, before any span: keeps span ids unique across the
  // processes of one run.
  void set_id_base(std::uint64_t id_base) {
    next_id_.store(id_base + 1, std::memory_order_relaxed);
  }
  void enable() { on_.store(true, std::memory_order_release); }
  void disable() { on_.store(false, std::memory_order_release); }
  bool on() const noexcept { return on_.load(std::memory_order_relaxed); }

  std::uint64_t new_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(const span_record& s) { local().push_back(s); }

  // Tab-separated: name id parent rid start_ns end_ns.  Call only after
  // every recording thread has stopped.
  bool write(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard g(lock_);
    for (const auto& buf : buffers_) {
      for (const auto& s : *buf) {
        std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\n", s.name,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.rid),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<span_record>& local() {
    thread_local std::vector<span_record>* buf = nullptr;
    if (buf == nullptr) {
      auto owned = std::make_unique<std::vector<span_record>>();
      owned->reserve(1 << 14);
      buf = owned.get();
      std::lock_guard g(lock_);
      buffers_.push_back(std::move(owned));
    }
    return *buf;
  }

  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex lock_;  // guards buffers_ (the list, not the buffers)
  std::vector<std::unique_ptr<std::vector<span_record>>> buffers_;
};

// RAII span around one call.  Inert (id 0, no clock reads) when recording
// is off or `active` is false (sampled loops record one request in k).
class span {
 public:
  span(const char* name, std::uint64_t parent = 0, std::uint64_t rid = 0,
       bool active = true)
      : name_(name), parent_(parent), rid_(rid) {
    if (active && span_log::global().on()) {
      id_ = span_log::global().new_id();
      start_ns_ = now_ns();
    }
  }
  ~span() { end(); }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  std::uint64_t id() const noexcept { return id_; }

  // Ends the span early (idempotent).
  void end() {
    if (id_ == 0 || done_) return;
    done_ = true;
    span_log::global().record(
        span_record{name_, id_, parent_, rid_, start_ns_, now_ns()});
  }

 private:
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t rid_;
  std::uint64_t id_ = 0;
  std::int64_t start_ns_ = 0;
  bool done_ = false;
};

// Records a span whose endpoints were stamped elsewhere (e.g. the
// quiescence leg, which starts on a fiber and ends on the main thread).
inline void record_span(const char* name, std::uint64_t parent,
                        std::uint64_t rid, std::int64_t start_ns,
                        std::int64_t end_ns) {
  auto& log = span_log::global();
  if (!log.on()) return;
  log.record(span_record{name, log.new_id(), parent, rid, start_ns, end_ns});
}

}  // namespace pxbench
