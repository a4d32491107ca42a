"""Statistics for the repository benchmark, in one place.

Every percentile, median, ratio and self time that perfbench/run.py
reports is computed here from raw samples, so each has one
implementation and a self-test (perfbench/tests/test_pxstats.py).
"""

import math
import statistics


def percentile(values, q):
    """Exact percentile of raw samples, 0 <= q <= 100.

    Linear interpolation between the two closest ranks (the method numpy
    calls "linear"), on the sorted samples themselves: no bucketing, so a
    shift of any size moves it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def ratio(num, den):
    """num / den, and 0.0 when nothing happened (den == 0)."""
    return float(num) / den if den else 0.0


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives
    them; 0.0 for a zero median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def rounds(values, size):
    """Consecutive, complete groups of `size` samples (a trailing partial
    group is dropped)."""
    return [values[i:i + size] for i in range(0, len(values) - size + 1, size)]


def round_percentile(values, q, size):
    """Lower quartile over rounds of `size` samples of each round's exact
    q-th percentile.  With size * (100 - q) / 100 >= 10 every round has ten
    samples beyond its percentile.  Taking the lower quartile across rounds
    keeps host stalls that hit up to three rounds in four from moving the
    result; a tail the program itself adds is in every round."""
    return percentile([percentile(r, q) for r in rounds(values, size)], 25)


def self_times(spans):
    """Self time of each span: its duration minus the part of it covered
    by its children (the union of the children's intervals, clipped to
    the parent).

    `spans` is a list of (name, id, parent, rid, start, end).  Returns
    {id: (name, duration, self_time)}.
    """
    children = {}
    for s in spans:
        if s[2]:
            children.setdefault(s[2], []).append((s[4], s[5]))
    out = {}
    for name, sid, _parent, _rid, start, end in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (name, end - start, end - start - covered)
    return out
