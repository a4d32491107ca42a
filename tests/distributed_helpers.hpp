// Helpers for multi-process (distributed tcp/shm) gtest cases.
//
// Pattern: a distributed test runs twice.  The *parent* invocation (no
// PX_NET_RANK in the environment) re-executes this very test binary once
// per rank, each child filtered to the same test with PX_NET_* set; the
// *child* invocation takes the other branch and runs the rank body, its
// gtest failures surfacing to the parent as a nonzero exit code.
//
//   TEST(Distributed, Pingpong2) {
//     if (px::test::is_rank_child()) { /* rank body, EXPECTs ok */ return; }
//     px::test::run_ranks(2, "Distributed.Pingpong2");
//   }
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/subproc.hpp"

namespace px::test {

inline bool is_rank_child() {
  return std::getenv("PX_NET_RANK") != nullptr;
}

using env_list = std::vector<std::pair<std::string, std::string>>;

// Spawns `nranks` copies of the current test binary filtered to
// `test_name` and expects rank r to exit with `expected_exit[r]` (0 for a
// clean rank, -1 for one a fault plan SIGKILLs).  Every rank's environment
// is its PX_NET_* slot plus `extra`, then its own `rank_extra[r]` when
// given.  Children get 100 seconds — inside the parent's own 120s CTest
// timeout — so a wedged rank fails *this* test instead of wedging the
// suite.  `backend` picks the data plane the ranks talk over ("tcp" or
// "shm").
inline void run_ranks_with_env(int nranks, const std::string& test_name,
                               const std::string& backend,
                               const env_list& extra,
                               const std::vector<int>& expected_exit,
                               const std::vector<env_list>& rank_extra = {}) {
  ASSERT_EQ(static_cast<int>(expected_exit.size()), nranks);
  const int root_port = util::pick_free_tcp_port();
  const std::vector<std::string> argv = {
      util::self_exe_path(),
      "--gtest_filter=" + test_name,
      // A child must run even if the parent was invoked with a filter
      // that it would not match (e.g. ctest's exact-name invocation).
      "--gtest_also_run_disabled_tests",
  };
  std::vector<pid_t> pids;
  for (int r = 0; r < nranks; ++r) {
    auto env = util::net_rank_env(r, nranks, root_port, backend);
    env.insert(env.end(), extra.begin(), extra.end());
    if (static_cast<std::size_t>(r) < rank_extra.size()) {
      env.insert(env.end(), rank_extra[r].begin(), rank_extra[r].end());
    }
    pids.push_back(util::spawn_process(argv, env));
  }
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(util::wait_exit(pids[r], 100'000), expected_exit[r])
        << test_name << ": rank " << r << " of " << nranks
        << " failed (nonzero exit, signal, or timeout)";
  }
}

// Every rank with only its PX_NET_* environment, all expected to exit 0.
inline void run_ranks(int nranks, const std::string& test_name,
                      const std::string& backend = "tcp") {
  run_ranks_with_env(nranks, test_name, backend, {},
                     std::vector<int>(static_cast<std::size_t>(nranks), 0));
}

}  // namespace px::test
