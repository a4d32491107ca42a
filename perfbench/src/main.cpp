// pxbench: the process-level half of the repository benchmark.
//
// perfbench/run.py builds this binary and launches it; it never computes
// a statistic itself.  Each process writes its raw samples, counter deltas
// and check results to <out>/<name>.json, and the traced phase's spans to
// <out>/spans.<name>.tsv; run.py merges and summarises them.
#include "workloads.hpp"

int main(int argc, char** argv) {
  const pxbench::options o = pxbench::parse_options(argc, argv);
  if (o.role == "sim") return pxbench::run_sim(o);
  if (o.role == "rank") return pxbench::run_rank(o);
  return pxbench::run_probe(o);
}
