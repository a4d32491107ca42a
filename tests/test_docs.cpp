// Doc-consistency suite: the reference pages under docs/ cannot rot.
//
// Checked against the *live* runtime rather than a hand-maintained list:
//
//   * every counter path the introspection registry actually exposes
//     appears in docs/counters.md (per-locality paths normalized to the
//     documented loc<i> placeholder);
//   * every row of the knob table (core/knobs.hpp) is documented in
//     docs/counters.md with its default and scope, and its variable
//     reaches the resolver; every PX_* token the doc mentions is a row or an
//     allowlisted bench-harness variable; and every PX_* string literal
//     under src/ names a row (or a macro), so a knob cannot bypass the
//     table.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "core/knobs.hpp"
#include "core/runtime.hpp"

namespace {

using namespace px;

std::string read_doc(const std::string& rel) {
  const std::string path = std::string(PX_SOURCE_DIR) + "/" + rel;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// runtime/loc3/sched/ready_depth -> runtime/loc<i>/sched/ready_depth
std::string normalize_locality(const std::string& path) {
  static const std::regex loc_re("loc[0-9]+");
  return std::regex_replace(path, loc_re, "loc<i>");
}

// The "| `PX_X` | default | meaning |" row for `env`, or "" when absent.
std::string doc_row(const std::string& doc, const std::string& env) {
  const std::string head = "| `" + env + "` |";
  const auto at = doc.find(head);
  if (at == std::string::npos) return "";
  return doc.substr(at, doc.find('\n', at) - at);
}

// The default column of a doc row, without backticks and without a
// trailing parenthetical ("`1048576` (1 MiB)" -> "1048576").
std::string default_cell(const std::string& row) {
  const auto a = row.find('|', 1);
  const auto b = row.find('|', a + 1);
  std::string cell;
  for (const char c : row.substr(a + 1, b - a - 1)) {
    if (c != '`') cell += c;
  }
  cell = cell.substr(0, cell.find(" ("));
  const auto first = cell.find_first_not_of(' ');
  const auto last = cell.find_last_not_of(' ');
  return first == std::string::npos ? "" : cell.substr(first, last - first + 1);
}

std::string join(const std::set<std::string>& items) {
  std::string out;
  for (const auto& i : items) out += "\n  " + i;
  return out;
}

TEST(Docs, EveryLiveCounterPathIsDocumented) {
  const std::string doc = read_doc("docs/counters.md");
  ASSERT_FALSE(doc.empty());

  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  core::runtime rt(p);  // counters register at construction; no start()

  const auto counters = rt.introspection().list("runtime");
  ASSERT_GT(counters.size(), 20u);
  std::set<std::string> missing;
  for (const auto& c : counters) {
    const std::string normalized = normalize_locality(c.path);
    if (doc.find(normalized) == std::string::npos) {
      missing.insert(normalized);
    }
  }
  EXPECT_TRUE(missing.empty())
      << "live counter paths absent from docs/counters.md:" << join(missing);
}

TEST(Docs, EveryKnownKnobIsDocumentedAndAccepted) {
  const std::string doc = read_doc("docs/counters.md");
  const auto rows = core::knobs::rows();
  ASSERT_GT(rows.size(), 20u);
  // The sentence that names the machine-scope rows.
  const auto scope_at = doc.find("Machine-scope rows");
  ASSERT_NE(scope_at, std::string::npos);
  const std::string machine_rows =
      doc.substr(scope_at, doc.find("every other row", scope_at) - scope_at);

  for (const auto& k : rows) {
    if (k.env.empty()) continue;  // runtime_params only
    const std::string row = doc_row(doc, k.env);
    ASSERT_FALSE(row.empty())
        << k.env << " (" << k.key << ") has no row in docs/counters.md";
    EXPECT_EQ(default_cell(row), k.fallback)
        << k.env << ": docs/counters.md default drifted from the table";
    EXPECT_EQ(machine_rows.find("`" + k.env + "`") != std::string::npos,
              k.where == core::knobs::scope::machine)
        << k.env << ": docs/counters.md scope drifted from the table";

    // Accepted: the row's variable reaches its resolver.  "1" parses as
    // every row type.
    const char* old = std::getenv(k.env.c_str());
    const std::string saved = old != nullptr ? old : "";
    ASSERT_EQ(setenv(k.env.c_str(), "1", 1), 0);
    EXPECT_EQ(k.resolved(), k.fallback == "on" || k.fallback == "off"
                                ? "on"
                                : "1")
        << k.env;
    if (old != nullptr) {
      setenv(k.env.c_str(), saved.c_str(), 1);
    } else {
      unsetenv(k.env.c_str());
    }
  }
}

TEST(Docs, NoUndocumentedKnobTokensInCountersDoc) {
  const std::string doc = read_doc("docs/counters.md");
  std::set<std::string> known;
  for (const auto& k : core::knobs::rows()) known.insert(k.env);
  // Bench/test-harness variables documented for completeness but resolved
  // by the bench drivers and launchers, not by the runtime.
  for (const char* extra : {"PX_BENCH_SMOKE", "PX_BENCH_DIST"}) {
    known.insert(extra);
  }

  const std::regex env_re("PX_[A-Z0-9_]+");
  std::set<std::string> unknown;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), env_re);
       it != std::sregex_iterator(); ++it) {
    const std::string tok = it->str();
    if (known.count(tok) == 0) unknown.insert(tok);
  }
  EXPECT_TRUE(unknown.empty())
      << "docs/counters.md mentions PX_* variables that are not rows of "
         "the knob table:"
      << join(unknown);
}

// A PX_* name inside a string literal under src/ is a variable read, set
// or reported somewhere; each must be a row of the knob table, so a new
// knob cannot be read around it.  Names of PX_* macros (which messages
// cite) are not variables.
TEST(Docs, EveryPxLiteralUnderSrcIsAKnobRow) {
  namespace fs = std::filesystem;
  std::set<std::string> rows;
  for (const auto& k : core::knobs::rows()) rows.insert(k.env);

  const std::regex define_re(R"(#\s*define\s+(PX_[A-Z0-9_]+))");
  const std::regex literal_re(R"("(?:[^"\\]|\\.)*")");
  const std::regex env_re("PX_[A-Z0-9_]+");
  std::set<std::string> macros;
  std::vector<std::pair<std::string, std::string>> found;  // (token, file)
  const fs::path src = fs::path(PX_SOURCE_DIR) / "src";
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    const auto ext = entry.path().extension();
    if (ext != ".cpp" && ext != ".hpp") continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      std::smatch m;
      if (std::regex_search(line, m, define_re)) macros.insert(m[1]);
      const auto code = line.find_first_not_of(' ');
      if (code != std::string::npos && line.compare(code, 2, "//") == 0) {
        continue;
      }
      for (auto lit = std::sregex_iterator(line.begin(), line.end(),
                                           literal_re);
           lit != std::sregex_iterator(); ++lit) {
        const std::string text = lit->str();
        for (auto tok = std::sregex_iterator(text.begin(), text.end(), env_re);
             tok != std::sregex_iterator(); ++tok) {
          found.emplace_back(tok->str(),
                             fs::relative(entry.path(), src).string());
        }
      }
    }
  }
  ASSERT_FALSE(found.empty());
  std::set<std::string> strays;
  for (const auto& [tok, file] : found) {
    if (rows.count(tok) == 0 && macros.count(tok) == 0) {
      strays.insert(tok + " (src/" + file + ")");
    }
  }
  EXPECT_TRUE(strays.empty())
      << "PX_* names in src/ string literals that are not knob-table rows:"
      << join(strays);
}

// The reference pages exist and README links into each of them.
TEST(Docs, ReferenceTreeExistsAndIsLinkedFromReadme) {
  const std::string readme = read_doc("README.md");
  for (const char* page :
       {"docs/architecture.md", "docs/agas.md", "docs/wire-protocol.md",
        "docs/counters.md", "docs/metrics.md", "docs/resilience.md"}) {
    EXPECT_FALSE(read_doc(page).empty()) << page;
    EXPECT_NE(readme.find(page), std::string::npos)
        << "README.md does not link " << page;
  }
}

}  // namespace
