"""Statistics shared by the benchmark runner, the A/B runner and their tests.

Everything that turns samples into a reported number lives here, so the
rules are written (and tested) once:
  * medians, quartiles and percentiles of samples;
  * which tail percentile a sample count supports;
  * self time of spans whose children may overlap;
  * the A/B verdict for one workload x metric;
  * the name and unit rules of BENCHMARK.json.
"""

import math
import re
import statistics

# --- Samples -----------------------------------------------------------------


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile, as statistics.quantiles(n=4)
    gives them (one sample is its own quartiles)."""
    values = list(values)
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def iqr(values):
    q1, _, q3 = quartiles(values)
    return q3 - q1


def percentile(values, p):
    """The p-th percentile (0..100), interpolating linearly between the
    closest ranks (the 'inclusive' method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    h = (len(xs) - 1) * p / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count, candidates=TAIL_CANDIDATES, beyond=10):
    """The highest candidate percentile with at least `beyond` samples
    above it among `count` samples, or None when none qualifies."""
    for p in sorted(candidates, reverse=True):
        # Samples beyond the p-th percentile: count * (100 - p) / 100,
        # compared in tenths of a percent so 99.9 stays exact.
        if count * (1000 - round(p * 10)) >= beyond * 1000:
            return p
    return None


# --- Spans -------------------------------------------------------------------


def check_nesting(spans, slack=1e-9):
    """Problems with span nesting: every span must lie inside its parent,
    and exactly one span (the root) may have no parent."""
    problems = []
    roots = [i for i, s in enumerate(spans) if s["parent"] < 0]
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans, expected 1")
    for i, s in enumerate(spans):
        if s["end"] < s["start"]:
            problems.append(f"span {i} ({s['name']}) ends before it starts")
        p = s["parent"]
        if p >= 0:
            ps = spans[p]
            if s["start"] < ps["start"] - slack or s["end"] > ps["end"] + slack:
                problems.append(
                    f"span {i} ({s['name']}) leaves its parent {p} ({ps['name']})")
    return problems


def self_times(spans):
    """Self time of every span.

    A span's self time is the part of its interval that none of its
    children covers.  Where children overlap (engine threads run injections
    side by side), each instant is shared equally among the spans active at
    that instant that have no active child.  So the self times of a tree
    always add up to its root's duration, and for a tree without overlap
    they equal duration minus the children's durations.
    """
    depth = [0] * len(spans)
    for i, s in enumerate(spans):
        p, d = s["parent"], 0
        while p >= 0:
            d += 1
            p = spans[p]["parent"]
        depth[i] = d
    events = []
    for i, s in enumerate(spans):
        # At one instant: starts before ends, parents start first and
        # children end first.
        events.append((s["start"], 0, depth[i], i))
        events.append((s["end"], 1, -depth[i], i))
    events.sort()

    result = [0.0] * len(spans)
    active = set()
    active_children = [0] * len(spans)
    frontier = set()
    last = None
    for t, kind, _, i in events:
        if last is not None and t > last and frontier:
            share = (t - last) / len(frontier)
            for f in frontier:
                result[f] += share
        last = t
        p = spans[i]["parent"]
        if kind == 0:
            active.add(i)
            frontier.add(i)
            if p in active:
                active_children[p] += 1
                frontier.discard(p)
        else:
            active.discard(i)
            frontier.discard(i)
            if p in active:
                active_children[p] -= 1
                if active_children[p] == 0:
                    frontier.add(p)
    return result


# --- A/B verdict -------------------------------------------------------------


def verdict(a, b, better, bound):
    """Verdict for one workload x metric from paired runs: a[k] and b[k]
    ran as pair k.  `better` is "higher" or "lower"; `bound` is the share
    of A's median by which B may be worse.

    improved    at least ten pairs ran, B wins at least nine tenths of them
                (ties count for neither), and the medians differ, in B's
                favour, by more than A's own spread (its interquartile range);
    unresolved  otherwise, when either side's spread (interquartile range
                over median) is wider than the bound, unless every B run
                reads better than every A run;
    worse       B's median is worse than A's by more than the bound;
    no-worse    otherwise.
    """
    if len(a) != len(b) or not a:
        raise ValueError("verdict needs paired runs")
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = median(a), median(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    gain = sign * (mb - ma)
    if len(a) >= 10 and wins >= 0.9 * len(a) and gain > iqr(a):
        return "improved"
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    spread = max(iqr(a) / abs(ma) if ma else math.inf,
                 iqr(b) / abs(mb) if mb else math.inf)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(ma):
        return "worse"
    return "no-worse"


# --- BENCHMARK.json rules ----------------------------------------------------

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {"workloads": {"name", "why"},
        "end_to_end": {"name", "unit", "better", "bound"},
        "per_layer": {"name", "unit", "better"}}


def validate_benchmark(doc):
    """Problems with the names and units of a BENCHMARK.json document:
    each entry's keys, the name and unit charsets, and names used once.
    Empty when there are none."""
    problems = []
    names = []
    for section, keys in KEYS.items():
        for entry in doc.get(section, []):
            if set(entry) != keys:
                problems.append(f"{section} entry keys {sorted(entry)} != "
                                f"{sorted(keys)}")
                continue
            name = entry["name"]
            if not isinstance(name, str) or not NAME_RE.match(name):
                problems.append(f"bad name {name!r}")
            names.append(name)
            unit = entry.get("unit")
            if "unit" in keys and not (isinstance(unit, str)
                                       and UNIT_RE.match(unit)):
                problems.append(f"bad unit {unit!r} on {name!r}")
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        problems.append(f"names used more than once: {sorted(dupes)}")
    return problems
