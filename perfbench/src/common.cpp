#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

namespace pxbench {

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pxbench: %s\n"
               "usage: pxbench sim|rank|probe --workload W --seed N "
               "--seconds S --trace 0|1 --out DIR [--setup-only] "
               "[--launch-ns T]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// "runtime/loc3/sched/sleeps" -> "sched/sleeps"; "runtime/agas/x" ->
// "agas/x".
std::string strip_counter_path(std::string_view path) {
  if (path.substr(0, 8) == "runtime/") path.remove_prefix(8);
  if (path.substr(0, 3) == "loc") {
    const auto slash = path.find('/');
    if (slash != std::string_view::npos) path.remove_prefix(slash + 1);
  }
  return std::string(path);
}

}  // namespace

options parse_options(int argc, char** argv) {
  options o;
  if (argc < 2) usage("missing role");
  o.role = argv[1];
  if (o.role != "sim" && o.role != "rank" && o.role != "probe") {
    usage("unknown role");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("flag without value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--out") {
      o.out_dir = value();
    } else if (a == "--launch-ns") {
      o.launch_ns = std::strtoll(value().c_str(), nullptr, 10);
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else {
      usage("unknown flag");
    }
  }
  if (o.workload != "ping" && o.workload != "storm" && o.workload != "mixed" &&
      o.workload != "kernel") {
    usage("unknown workload");
  }
  if (o.out_dir.empty()) usage("--out is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::map<std::string, std::uint64_t> counter_totals(px::core::runtime& rt) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& s : rt.introspection().snapshot_all()) {
    out[strip_counter_path(s.path)] += s.value;
  }
  return out;
}

std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    const std::uint64_t b = it == before.end() ? 0 : it->second;
    // Gauges (ready_depth, pending, in_flight) can fall; clamp rather than
    // wrap — only the monotonic counters are read as deltas downstream.
    out[k] = v >= b ? v - b : 0;
  }
  return out;
}

std::uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

void rss_mark::report(result& r) {
  if (kb == 0) {
    kb = peak_rss_kb();
    kb_work = done;
  }
  r.values["rss_kb"] = static_cast<double>(kb);
  r.values["rss_work"] = static_cast<double>(kb_work);
}

bool result::write(const std::string& out_dir, const std::string& name) const {
  std::ostringstream js;
  js << "{\"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    js << (i ? ", " : "") << '"' << json_escape(errors[i]) << '"';
  }
  js << "], \"values\": {";
  bool first = true;
  for (const auto& [k, v] : values) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    js << (first ? "" : ", ") << '"' << k << "\": " << buf;
    first = false;
  }
  js << "}, \"counters\": {";
  first = true;
  for (const auto& [pre, cs] : counters) {
    js << (first ? "" : ", ") << '"' << pre << "\": {";
    bool first_c = true;
    for (const auto& [k, v] : cs) {
      js << (first_c ? "" : ", ") << '"' << k << "\": " << v;
      first_c = false;
    }
    js << '}';
    first = false;
  }
  js << "}, \"samples\": {";
  first = true;
  for (const auto& [k, vs] : samples) {
    js << (first ? "" : ", ") << '"' << k << "\": [";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      js << (i ? "," : "") << vs[i];
    }
    js << ']';
    first = false;
  }
  js << "}}\n";
  const std::string path = out_dir + "/" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = js.str();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace pxbench
