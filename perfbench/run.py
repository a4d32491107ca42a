#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload ping --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Builds pxbench (perfbench/CMakeLists.txt, into .bench_build/), launches
the workload's processes, checks every output, and prints each metric by
name with its unit.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The
line before it records provenance (hardware, build, source, seed, sample
counts).  Exit status is 0 only when every check passed.

perfbench/README.md says why each workload and metric exists.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pxstats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BIN = CMAKE_DIR / "pxbench"

# Workload -> how it runs.  Two-process workloads run rank 0 and rank 1
# of one machine over the named backend.
WORKLOADS = {
    "ping": {"ranks": 0},
    "storm": {"ranks": 2, "backend": "shm"},
    "mixed": {"ranks": 2, "backend": "tcp"},
    "kernel": {"ranks": 0},
}

# Set-up time shifts from one process to the next and with the host's load
# over a run, so it is timed over this many extra set-up-only launches,
# half before the measured launch and half after it, plus the measured
# launch itself, and the median of all their trials is reported.
SETUP_LAUNCHES = 16
STORM_BURST = 4096  # parcels per storm burst (pxbench kBurst)
# rtt_p99_us is taken per round of this many operations (ten beyond the
# p99 in each) and the lower quartile across rounds is reported.
TAIL_ROUND = 1000
PROCESS_GRACE_S = 60  # on top of --seconds, per launched process
RUN_LIMIT_S = 170     # a workload's processes, all told (after the build)

END_TO_END = [
    ("setup_s", "s"), ("rtt_p50_us", "us"), ("rtt_p99_us", "us"),
    ("parcels_per_s", "1/s"), ("solve_s", "s"), ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("threads.spawn_to_run_us", "us"), ("threads.sleeps_per_op", "ratio"),
    ("threads.steals_per_task", "ratio"), ("lco.resume_us", "us"),
    ("lco.get_wait_us", "us"), ("parcel.encode_ns", "ns"),
    ("parcel.parse_ns", "ns"), ("parcel.bytes_per_parcel", "B"),
    ("core.async_call_us", "us"), ("core.apply_call_ns", "ns"),
    ("core.parcels_per_frame", "ratio"), ("core.eager_flush_share", "ratio"),
    ("core.quiesce_ms", "ms"), ("core.forwarded_share", "ratio"),
    ("net.fabric_hop_us", "us"), ("net.wakeups_per_frame", "ratio"),
    ("net.ring_full_waits", "count"), ("gas.resolve_cached_ns", "ns"),
    ("gas.resolve_authoritative_ns", "ns"), ("gas.migrate_ms", "ms"),
    ("gas.cache_hit_share", "ratio"), ("patterns.map_reduce_ms", "ms"),
    ("patterns.tasks_per_s", "1/s"), ("trace.overhead_share", "ratio"),
    ("mixed.generator_lag_us", "us"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failures:
    """Every check the run makes, counted against what it attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, failed, reason):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(f"{reason} ({failed} of {attempted})")

    def check(self, ok, reason):
        self.add(1, 0 if ok else 1, reason)


# ------------------------------------------------------------------ build

def build():
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as out:
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                      "pxbench", "-j4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                log(Path(log_path).read_text()[-4000:])
                log("perfbench: build failed; see .bench_build/build.log")
                sys.exit(1)


# ----------------------------------------------------------------- launch

def child_env(extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PX_")}
    env.update(extra or {})
    return env


_port_seq = 0


def free_port():
    """A port for rank 0's control plane.  Rank 0 binds it after this
    process has let it go, so a bind(:0) probe could hand the same port to
    a concurrent launcher.  Instead, walk a pid-salted sequence (concurrent
    launchers walk disjoint ones) and return the first bindable port."""
    global _port_seq
    salt = os.getpid() * 7919 + _port_seq * 131071
    _port_seq += 1
    for attempt in range(512):
        port = 15000 + (salt + attempt * 257) % 45000
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                continue
            return port
    raise RuntimeError("no bindable tcp port in 512 probes")


def wait_all(procs, deadline):
    """Waits for every (name, Popen); kills what outlives `deadline`.
    Returns {name: exit code, or None when killed or signalled}."""
    out = {}
    for name, p in procs:
        rc = None
        while True:
            pid, status = os.waitpid(p.pid, os.WNOHANG)
            if pid == p.pid:
                rc = os.waitstatus_to_exitcode(status)
                rc = rc if rc >= 0 else None
                break
            if time.monotonic() > deadline:
                p.kill()
                os.waitpid(p.pid, 0)
                log(f"perfbench: {name} timed out and was killed")
                break
            time.sleep(0.005)
        p.returncode = rc if rc is not None else -9
        out[name] = rc
    return out


def deadline(a, grace):
    """When a process launched now must have ended: its own grace, and
    never later than the workload's overall limit."""
    return min(time.monotonic() + grace, a.deadline)


def pxbench_cmd(role, a, out_dir, extra=()):
    return [str(BIN), role, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--out", str(out_dir), *extra]


def launch_sim(a, out_dir, setup_only):
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = ["--setup-only"] if setup_only else []
    p = subprocess.Popen(pxbench_cmd("sim", a, out_dir, extra),
                         env=child_env(), cwd=ROOT)
    grace = 30 if setup_only else a.seconds + PROCESS_GRACE_S
    return wait_all([("sim", p)], deadline(a, grace))


def launch_ranks(a, out_dir, setup_only):
    spec = WORKLOADS[a.workload]
    port = free_port()
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = ["--setup-only"] if setup_only else []
    procs = []
    launch_ns = time.monotonic_ns()  # CLOCK_MONOTONIC, as steady_clock
    grace = 30 if setup_only else a.seconds + PROCESS_GRACE_S
    until = deadline(a, grace)
    for r in range(spec["ranks"]):
        env = child_env({
            "PX_NET_BACKEND": spec["backend"], "PX_NET_RANK": str(r),
            "PX_NET_RANKS": str(spec["ranks"]),
            "PX_NET_ROOT": f"127.0.0.1:{port}",
            "PX_NET_LISTEN": "127.0.0.1:0",
        })
        cmd = pxbench_cmd("rank", a, out_dir,
                          extra + ["--launch-ns", str(launch_ns)])
        procs.append((f"rank{r}", subprocess.Popen(cmd, env=env, cwd=ROOT)))
        if r == 0 and not wait_listening(port, procs[0][1], until):
            break  # rank 0 died or never listened: its exit code tells
    return wait_all(procs, until)


def wait_listening(port, proc, until):
    """Waits until a socket listens on 127.0.0.1:`port` (the kernel's
    socket table, so nothing connects to it).  The other ranks are launched
    after that: a rank whose dial reaches rank 0 before it listens retries
    50 ms later, and whether it does depends on which process the host
    schedules first, which would make set-up time bimodal."""
    local = f"0100007F:{port:04X}"
    while time.monotonic() < until and proc.poll() is None:
        with open("/proc/net/tcp") as f:
            for line in f:
                fields = line.split()
                if fields[1] == local and fields[3] == "0A":  # LISTEN
                    return True
        time.sleep(0.0002)
    return False


def launch_probe(a, out_dir):
    p = subprocess.Popen(pxbench_cmd("probe", a, out_dir), env=child_env(),
                         cwd=ROOT)
    return wait_all([("probe", p)], deadline(a, PROCESS_GRACE_S))


def load(out_dir, name, fails):
    path = out_dir / f"{name}.json"
    try:
        with open(path) as f:
            res = json.load(f)
    except (OSError, ValueError):
        fails.check(False, f"{name} wrote no readable result")
        return None
    fails.add(res["attempted"], res["failed"], f"{name} checks")
    for e in res["errors"]:
        log(f"perfbench: {name}: {e}")
    return res


def load_spans(out_dir):
    spans = []
    for path in sorted(out_dir.glob("spans.*.tsv")):
        with open(path) as f:
            for line in f:
                name, *ids = line.rstrip("\n").split("\t")
                spans.append((name, *map(int, ids)))
    return spans


def shm_segments():
    return set(glob.glob("/dev/shm/px.*"))


def cpu_ticks():
    """(steal, total) jiffies of this machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


# ------------------------------------------------------------------ run

def run_workload(a, fails):
    """Runs one workload; returns (processes' results, probe result or
    None, spans, setup samples in ns, peak rss KiB)."""
    run_dir = BUILD / "runs" / f"{a.workload}-{a.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = WORKLOADS[a.workload]
    shm_before = shm_segments()
    steal0, total0 = cpu_ticks()
    setup_ns = []
    results = {}
    launch = launch_sim if spec["ranks"] == 0 else launch_ranks
    first = "sim" if spec["ranks"] == 0 else "rank0"

    def setup_launches(ks):
        for k in ks:
            d = run_dir / f"setup{k}"
            for name, rc in launch(a, d, setup_only=True).items():
                fails.check(rc == 0, f"setup launch {name} exit code {rc}")
            res = load(d, first, fails)
            if res:
                setup_ns.extend(res["samples"].get("setup_ns", []))

    setup_launches(range(SETUP_LAUNCHES // 2))
    exits = launch(a, run_dir, setup_only=False)
    names = ([first] if spec["ranks"] == 0
             else [f"rank{r}" for r in range(spec["ranks"])])
    for name, rc in exits.items():
        fails.check(rc == 0, f"{name} exit code {rc}")
    for name in names:
        res = load(run_dir, name, fails)
        if res is not None:
            results[name] = res
            setup_ns += res["samples"].get("setup_ns", [])
    setup_launches(range(SETUP_LAUNCHES // 2, SETUP_LAUNCHES))
    # Self-reported VmHWM, read by each process at a fixed amount of work
    # (rss_mark in src/common.hpp): wait4's ru_maxrss would also count the
    # Python image a child carries between fork and exec.
    peak_rss_kb = max((r["values"].get("rss_kb", 0) for r in results.values()),
                      default=0)
    probe = None
    spans = []
    if a.trace:
        ex = launch_probe(a, run_dir)
        fails.check(ex["probe"] == 0, "probe exit code")
        probe = load(run_dir, "probe", fails)
        spans = load_spans(run_dir)
        keep = BUILD / "trace" / a.workload
        shutil.rmtree(keep, ignore_errors=True)
        keep.mkdir(parents=True)
        for path in run_dir.glob("spans.*.tsv"):
            shutil.copy(path, keep / path.name)
    steal1, total1 = cpu_ticks()
    a.host_steal_share = pxstats.ratio(steal1 - steal0, total1 - total0)
    leftover = shm_segments() - shm_before
    fails.add(1, len(leftover), "shared-memory segments left in /dev/shm")
    check_delivery(a, results, fails)
    shutil.rmtree(run_dir, ignore_errors=True)
    return results, probe, spans, setup_ns, peak_rss_kb


def check_delivery(a, results, fails):
    """Exactly-once delivery, from both ends of each parcel stream."""
    for name, res in results.items():
        dropped = sum(c.get("parcels/dropped", 0)
                      for c in res["counters"].values())
        fails.check(dropped == 0, f"{name} dropped parcels")
    if a.workload not in ("storm", "mixed"):
        return
    r0, r1 = results.get("rank0"), results.get("rank1")
    if r0 is None or r1 is None:
        fails.check(False, "a rank's result is missing")
        return
    v0, v1 = r0["values"], r1["values"]
    phases = ["traced.", ""] if a.trace else [""]
    if a.workload == "storm":
        sent = sum(v0.get(p + "sent", 0) for p in phases)
        storm = int(sent - v0.get("stops", 0))  # one storm_stop per phase
        got = int(v1.get("received", 0))
        fails.add(storm, abs(storm - got), "storm parcels not delivered once")
        fails.add(storm, int(v1.get("dups", 0)), "storm duplicates")
        fails.add(storm, int(v1.get("bad_payloads", 0)), "storm payloads")
        # Rank 1 receives nothing but the phases' applies, so its delivered
        # counter must match rank 0's send count exactly.
        for p in phases:
            fails.check(r1["counters"].get(p, {}).get("parcels/delivered")
                        == int(v0.get(p + "sent", -1)),
                        f"rank 1 parcels/delivered != parcels sent ({p}phase)")
    else:
        sent = int(sum(v0.get(p + "stream_sent", 0) for p in phases))
        got = int(v1.get("stream_received", 0))
        fails.add(sent, abs(sent - got), "stream parcels not delivered once")
        fails.add(sent, int(v1.get("stream_dups", 0)), "stream duplicates")
        fails.add(sent, int(v1.get("stream_bad_payloads", 0)),
                  "stream payloads")


# ---------------------------------------------------------------- metrics

def primary(results):
    """The process that measured end-to-end samples (sim or rank 0)."""
    return results.get("sim") or results.get("rank0")


def end_to_end(a, results, setup_ns, peak_rss_kb, counts):
    res = primary(results)
    s, v, c = res["samples"], res["values"], res["counters"][""]
    rounds = s["round_ns"]
    if a.workload == "storm":
        ops = results["rank1"]["samples"]["lat_ns"]  # one-way, 1 in 64
        per_round = STORM_BURST
    else:
        ops = s["rtt_ns"]
        per_round = c["parcels/delivered"] / len(rounds)
    if a.workload == "mixed":
        # The rate the open-loop stream achieved inside its window.
        got = results["rank1"]["values"]["stream_in_window"]
        pps = got / v["window_ns"] * 1e9
    else:
        pps = per_round / pxstats.median(rounds) * 1e9
    tail_rounds = len(ops) // TAIL_ROUND
    counts.update({"setup_s": len(setup_ns), "rtt_p50_us": len(ops),
                   "rtt_p99_us": len(ops), "rtt_p99_rounds": tail_rounds,
                   "solve_s": len(rounds), "parcels_per_s": len(rounds),
                   "peak_rss_mb": len(results)})
    # The work done in each process when its peak RSS was read.
    counts["rss_read_at_work"] = {n: r["values"].get("rss_work", 0)
                                  for n, r in results.items()}
    counts["rtt_p99_pooled_us"] = pxstats.percentile(ops, 99) / 1e3
    if "serial_ns" in v:
        counts["serial_reference_s"] = v["serial_ns"] / 1e9
    if a.workload == "mixed":
        for key in ("migrations", "migrate_retries", "reroutes"):
            counts[key] = sum(r["values"].get(key, 0) for r in results.values())
    return {
        "setup_s": pxstats.median(setup_ns) / 1e9,
        "rtt_p50_us": pxstats.percentile(ops, 50) / 1e3,
        "rtt_p99_us": pxstats.round_percentile(ops, 99, TAIL_ROUND) / 1e3,
        "parcels_per_s": pps,
        "solve_s": pxstats.median(rounds) / 1e9,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def summed_counters(results, prefix):
    out = {}
    for res in results.values():
        for k, val in res["counters"].get(prefix, {}).items():
            out[k] = out.get(k, 0) + val
    return out


def per_layer(a, results, probe, spans, counts):
    res = primary(results)
    s, v = res["samples"], res["values"]
    c = summed_counters(results, "traced.")
    ps = probe["samples"]
    pv = probe["values"]
    by_name = {}
    for name, dur, _ in pxstats.self_times(spans).values():
        by_name.setdefault(name, []).append(dur)

    sources = counts.setdefault("sources", {})

    def p50(name, probe_key, scale):
        """p50 of the workload's own spans for this call, else of the
        probe's samples."""
        own = by_name.get(name)
        xs = own or ps[probe_key]
        counts[name] = len(xs)
        sources[name] = "workload" if own else "probe"
        return pxstats.median(xs) / scale

    if a.workload == "storm":
        ops = v["traced.sent"]
    elif a.workload == "kernel":
        ops = c["patterns/map_tasks"]
    else:
        ops = v["traced.ops"]
    base = s["rtt_ns"] if a.workload in ("ping", "mixed") else s["round_ns"]
    traced = s["traced.rtt_ns" if a.workload in ("ping", "mixed")
               else "traced.round_ns"]
    if a.workload == "kernel":
        tasks_per_s = (c["patterns/map_tasks"] / len(s["traced.round_ns"])
                       / (pxstats.median(s["traced.round_ns"]) / 1e9))
    else:
        tasks_per_s = (pv["map_reduce_tasks"]
                       / (pxstats.median(ps["map_reduce_ns"]) / 1e9))
    lag = s.get("traced.lag_ns") or ps["lag_ns"]
    counts["mixed.generator_lag_us"] = len(lag)
    sources["mixed.generator_lag_us"] = ("workload" if s.get("traced.lag_ns")
                                         else "probe")
    frame = pv["frame_parcels"]
    out = {
        "threads.spawn_to_run_us": pxstats.median(ps["spawn_to_run_ns"]) / 1e3,
        "threads.sleeps_per_op": pxstats.ratio(c["sched/sleeps"], ops),
        "threads.steals_per_task": pxstats.ratio(c["sched/steals"],
                                                 c["sched/spawned"]),
        "lco.resume_us": pxstats.median(ps["resume_ns"]) / 1e3,
        "lco.get_wait_us": p50("lco.get", "get_wait_ns", 1e3),
        "parcel.encode_ns": pxstats.median(ps["encode_frame_ns"]) / frame,
        "parcel.parse_ns": pxstats.median(ps["parse_frame_ns"]) / frame,
        "parcel.bytes_per_parcel": pxstats.ratio(c["net/bytes_tx"],
                                                 c["port/enqueued"]),
        "core.async_call_us": p50("core.async", "async_call_ns", 1e3),
        "core.apply_call_ns": p50("core.apply", "apply_call_ns", 1),
        "core.parcels_per_frame": pxstats.ratio(c["port/enqueued"],
                                                c["port/frames_sent"]),
        "core.eager_flush_share": pxstats.ratio(c["port/eager_flushes"],
                                                c["port/frames_sent"]),
        "core.quiesce_ms": p50("core.quiesce", "quiesce_ns", 1e6),
        "core.forwarded_share": pxstats.ratio(c["parcels/forwarded"],
                                              c["parcels/delivered"]),
        "net.fabric_hop_us": pxstats.median(ps["fabric_rtt_ns"]) / 2 / 1e3,
        "net.wakeups_per_frame": pxstats.ratio(c.get("net/wakeups", 0),
                                               c["net/msgs_tx"]),
        "net.ring_full_waits": float(c.get("net/ring_full_waits", 0)),
        "gas.resolve_cached_ns": (pxstats.median(ps["resolve_cached_batch_ns"])
                                  / pv["resolve_batch"]),
        "gas.resolve_authoritative_ns": (
            pxstats.median(ps["resolve_authoritative_batch_ns"])
            / pv["resolve_batch"]),
        "gas.migrate_ms": p50("gas.migrate", "migrate_ns", 1e6),
        "gas.cache_hit_share": pxstats.ratio(
            c["agas/cache_hits"],
            c["agas/cache_hits"] + c["agas/cache_misses"]),
        "patterns.map_reduce_ms": p50("patterns.map_reduce", "map_reduce_ns",
                                      1e6),
        "patterns.tasks_per_s": tasks_per_s,
        "trace.overhead_share": (pxstats.median(traced)
                                 / pxstats.median(base) - 1),
        "mixed.generator_lag_us": pxstats.percentile(lag, 99) / 1e3,
    }
    for key in ("spawn_to_run_ns", "resume_ns", "encode_frame_ns",
                "parse_frame_ns", "fabric_rtt_ns", "resolve_cached_batch_ns"):
        counts["probe." + key] = len(ps[key])
    counts["trace.spans"] = len(spans)
    return out


def layer_self_times(spans):
    """Total self time per layer (the span name's first component)."""
    totals = {}
    for name, _dur, self_ns in pxstats.self_times(spans).values():
        layer = name.split(".")[0]
        n, t = totals.get(layer, (0, 0))
        totals[layer] = (n + 1, t + self_ns)
    return totals


# ------------------------------------------------------------- provenance

def provenance(a, counts):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith("//"):
                key, val = line.split("=", 1)
                cache[key.split(":")[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": version,
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "none",
        "source_sha256": digest.hexdigest()[:16],
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "samples": counts,
    }


# ------------------------------------------------------------------- main

def run_one(a):
    """Runs, checks and reports one workload; returns (failures, metrics)."""
    fails = Failures()
    results, probe, spans, setup_ns, rss = run_workload(a, fails)
    counts = {}
    metrics = {}
    units = dict(END_TO_END if not a.trace else PER_LAYER)
    try:
        if a.trace:
            metrics = per_layer(a, results, probe, spans, counts)
        else:
            metrics = end_to_end(a, results, setup_ns, rss, counts)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        fails.check(False, f"metrics could not be computed: {e!r}")
    for name, val in metrics.items():
        print(f"{a.workload:7s} {name:30s} {val:16.6g} {units[name]}")
    counts["host_steal_share"] = a.host_steal_share
    for name in ("rtt_p99_pooled_us", "serial_reference_s", "migrations",
                 "migrate_retries", "reroutes", "host_steal_share"):
        if name in counts:  # reference values, not gated
            print(f"{a.workload:7s} ({name}){'':{28 - len(name)}s} "
                  f"{counts[name]:16.6g}")
    if a.trace:
        for layer, (n, t) in sorted(layer_self_times(spans).items()):
            print(f"{a.workload:7s} self-time {layer:20s} {t / 1e6:12.3f} ms "
                  f"over {n} spans")
    fail_ratio = pxstats.ratio(fails.failed, fails.attempted)
    print(f"{a.workload:7s} {'fail_ratio':30s} {fail_ratio:16.6g} ratio "
          f"({fails.failed} failed of {fails.attempted} attempted)")
    for reason in fails.reasons:
        log(f"perfbench: FAILED: {reason}")
    print("provenance " + json.dumps(provenance(a, counts), sort_keys=True))
    return fails, {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not ((ROOT / "CMakeLists.txt").is_file()
            and (ROOT / "src" / "core" / "runtime.hpp").is_file()):
        log("perfbench: the parallex sources are not next to perfbench/; "
            "run from a checkout of the repository")
        return 2
    build()

    total = Failures()
    metrics = {}
    for w in (sorted(WORKLOADS) if a.workload == "all" else [a.workload]):
        one = argparse.Namespace(**{**vars(a), "workload": w,
                                    "deadline": time.monotonic() + RUN_LIMIT_S})
        fails, m = run_one(one)
        total.add(fails.attempted, fails.failed, w)
        prefix = f"{w}." if a.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    correct = total.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(total.attempted, 1),
                      "failed": total.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
