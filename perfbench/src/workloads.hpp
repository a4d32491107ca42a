// The four pxbench workloads and the layer probes.  perfbench/README.md
// says why each exists and which layers it stresses or bypasses.
#pragma once

#include "common.hpp"

namespace pxbench {

// One process, sim backend: ping, kernel.
int run_sim(const options& o);

// One rank of a two-process machine (backend and rank from PX_NET_*):
// storm (shm), mixed (tcp).
int run_rank(const options& o);

// Layer unit costs on a private 2 x 1 sim runtime (traced runs only).
int run_probe(const options& o);

}  // namespace pxbench
