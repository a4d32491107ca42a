#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--workloads ping,storm]

Runs each workload ten times, with seeds 100 to 109, and prints, per
end-to-end metric, the median of the runs and the spread (quartile
distance over median, see pxstats.spread) next to the metric's bound in
BENCHMARK.json.  Every spread, setup_s's too, must stay within its bound,
and should stay below a third of it to leave room for a change's own
effect.  --workloads limits the runs to some workloads while tuning.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import pxstats  # noqa: E402

SEEDS = range(100, 110)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="")
    a = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w for w in a.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    ok = True
    for w in workloads:
        runs = []
        for seed in SEEDS:
            cmd = ["python3", str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True,
                               cwd=HERE.parent)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if p.returncode != 0 or not res["correct"]:
                print(f"{w} seed {seed}: FAILED\n{p.stderr[-2000:]}")
                ok = False
                continue
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
        if len(runs) < 4:
            ok = False
            continue
        for name, bound in bounds.items():
            xs = [r[name] for r in runs]
            s = pxstats.spread(xs)
            verdict = "ok" if s < bound / 3 else (
                "WIDE" if s <= bound else "OVER")
            ok = ok and s <= bound
            print(f"{w:7s} {name:14s} median {statistics.median(xs):14.6g}"
                  f"  spread {s:6.3f}  bound {bound:5.2f}  {verdict}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
