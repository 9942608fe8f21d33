"""Pure helpers of the benchmark: the inline graph family, Chaco text,
the arrival schedule, percentile rules and the result validator.

Nothing here touches a process or a socket, so the self-tests
(test_common.py) can exercise every rule directly.
"""

import json
import random
import re
import statistics
from collections import Counter

# Mirrors kZeroDenominatorPenalty in src/partition/objectives.hpp: a part
# with crossing edges but no internal weight costs cut * 1e6.
ZERO_DENOMINATOR_PENALTY = 1e6
VALUE_RTOL = 1e-9


# ---------------------------------------------------------------- graphs ---

class Graph:
    """An unweighted undirected graph as an edge list (u < v, 0-based)."""

    def __init__(self, n, edges):
        self.n = n
        self.us = [u for u, _ in edges]
        self.vs = [v for _, v in edges]

    @property
    def m(self):
        return len(self.us)

    def edges(self):
        return zip(self.us, self.vs)


def shortcut_grid(rows, cols, rng):
    """A rows x cols grid plus one seeded diagonal shortcut per 25 cells:
    grid-like solve cost, but a distinct digest per seed. (The file
    workloads' graphs come from the repository's own generators through
    ffp_gen; this family has no counterpart there.)"""
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.add((v, v + 1))
            if r + 1 < rows:
                edges.add((v, v + cols))
    for _ in range(rows * cols // 25):
        r, c = rng.randrange(rows - 1), rng.randrange(cols - 1)
        edges.add((r * cols + c, (r + 1) * cols + c + 1))
    return Graph(rows * cols, sorted(edges))


def chaco_text(g):
    """Chaco/METIS text: header `n m`, then one 1-based neighbour line per
    vertex."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].append(v + 1)
        adj[v].append(u + 1)
    lines = [f"{g.n} {g.m}"]
    lines.extend(" ".join(map(str, a)) for a in adj)
    return "\n".join(lines) + "\n"


def read_chaco(path):
    """The unweighted Chaco/METIS files ffp_gen writes (header `n m`, then
    one 1-based neighbour line per vertex), as a Graph for the
    validator."""
    with open(path) as f:
        n = int(f.readline().split()[0])
        edges = []
        for u, line in enumerate(f):
            if u >= n:
                break
            edges.extend((u, v - 1) for v in map(int, line.split())
                         if v - 1 > u)
    return Graph(n, edges)


def inline_graph_json(g):
    """The `graph` member of an inline submit."""
    return ('{"n":%d,"edges":[' % g.n +
            ",".join("[%d,%d]" % e for e in g.edges()) + "]}")


# -------------------------------------------------------------- schedule ---

def poisson_schedule(rng, rate, seconds, pool_size, fresh_every):
    """Open-loop arrivals: a Poisson process at `rate` per second over
    `seconds`, conditioned on its expected count (round(rate * seconds)
    uniform arrival times, sorted), so every seed offers the same load.
    Each arrival is a (graph index, solver seed) pair. Every
    `fresh_every`-th arrival is fresh (a new seed; graphs round-robin);
    the others repeat a uniformly chosen earlier fresh pair (a cache read).
    Returns [(due_s, graph_index, seed, is_repeat)]."""
    times = sorted(rng.uniform(0.0, seconds)
                   for _ in range(round(rate * seconds)))
    out = []
    fresh = []
    for i, t in enumerate(times):
        if i % fresh_every == 0:
            graph, seed = len(fresh) % pool_size, rng.randrange(1, 2**31)
            fresh.append((graph, seed))
            out.append((t, graph, seed, False))
        else:
            graph, seed = fresh[rng.randrange(len(fresh))]
            out.append((t, graph, seed, True))
    return out


# ----------------------------------------------------------- statistics ---

def tail(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Sorted samples x[0..n-1]: x[n-1-beyond] has exactly `beyond` samples
    beyond it and sits at percentile 100*(n-beyond)/n. Below 2*beyond+1
    samples that point would fall under the median, so no tail is
    resolvable and the median is reported instead. Returns
    (value, percentile, n)."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 2 * beyond + 1:
        return statistics.median(s), 50.0, n
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n, n


# ------------------------------------------------------------ validation ---

class InvalidResult(Exception):
    pass


def mcut(g, parts, k):
    """Min-max cut, the repo's convention: sum over non-empty parts of
    cut(A) / W(A), where W(A) counts every internal edge twice (ordered
    pairs) and a part with cut but no internal weight costs cut * 1e6."""
    pu = list(map(parts.__getitem__, g.us))
    pv = list(map(parts.__getitem__, g.vs))
    cut = [0.0] * k
    internal = [0.0] * k
    for (a, b), count in Counter(zip(pu, pv)).items():
        if a == b:
            internal[a] += 2.0 * count
        else:
            cut[a] += count
            cut[b] += count
    total = 0.0
    for q in range(k):
        if cut[q] <= 0.0:
            continue
        total += cut[q] / internal[q] if internal[q] > 0.0 else \
            cut[q] * ZERO_DENOMINATOR_PENALTY
    return total


def validate_result(g, k, line):
    """Checks one `result` line: a partition of length n with ids in
    [0, k), exactly k non-empty parts, and a reported value equal to the
    recomputed Mcut within VALUE_RTOL. Returns the value; raises
    InvalidResult."""
    try:
        event = json.loads(line)
    except ValueError as e:
        raise InvalidResult(f"unparseable result line: {e}") from None
    if event.get("event") != "result" or event.get("state") != "done":
        raise InvalidResult(f"not a finished result: {line[:200]}")
    parts = event.get("partition")
    if not isinstance(parts, list) or len(parts) != g.n:
        raise InvalidResult(f"partition length {len(parts or [])} != n={g.n}")
    if not all(isinstance(p, int) and 0 <= p < k for p in parts):
        raise InvalidResult(f"part id outside [0, {k})")
    used = len(set(parts))
    if used != k:
        raise InvalidResult(f"{used} non-empty parts, expected {k}")
    value = event.get("value")
    expect = mcut(g, parts, k)
    if not isinstance(value, (int, float)) or \
            abs(value - expect) > VALUE_RTOL * max(abs(expect), 1e-300):
        raise InvalidResult(f"reported value {value} != recomputed {expect}")
    return float(value)


_VOLATILE = re.compile(r'"(id|seconds)":("(?:[^"\\]|\\.)*"|[-+0-9.eE]+),')


def result_payload(line):
    """The result line minus its per-delivery fields (client id and the
    run's wall-clock seconds, which a cache hit reports as 0): what must
    be byte-identical between a solve and every cache hit of it."""
    return _VOLATILE.sub("", line)


def job_seed(workload_seed, index):
    """Distinct solver seed of job `index`: a pure function of the
    workload seed, so the same --seed replays the same jobs."""
    return random.Random(workload_seed * 1_000_003 + index).randrange(1, 2**31)
