#!/usr/bin/env python3
"""The repository benchmark: the shipped ffp_serve / ffp_router binaries
under one load-generator process, on three generated workloads.

    python3 perfbench/run.py --workload mlff_large --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds the servers, ffp_gen
and the layer ladder into .bench_build (perfbench/CMakeLists.txt);
inputs, server state and traces go to .bench_run. Every result is
validated (see common.validate_result); an invalid or failed job makes
the run exit 1.

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end");
--trace 1 is the traced run: the same load with spans recorded on
alternate blocks of jobs, status counters and hit/miss probes against the
servers, then the in-process ladder (ladder.cpp); it prints the per-layer
metrics. The last
stdout line is always one JSON object. LAYERS.md maps every metric to its
layer and workload.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import common  # noqa: E402

SLICES = 3            # consecutive parts of the window, timed separately
# Traced runs record spans on alternate blocks of this many jobs; a block
# holds exactly one fresh job of serve_mixed (fresh_every), so traced and
# untraced jobs see the same hit/miss mix.
TRACE_BLOCK = 4
# Closed loops finish as many jobs as the host's speed allows, so quality
# and memory are read over their first FIXED_JOBS jobs: the same seed then
# gives the same mcut_p50 and nearly the same peak RSS on a slow host.
FIXED_JOBS = 12
PROBE_PAIRS = 3       # finished (graph, spec) pairs re-sent as cache hits
PROBE_ROUNDS = 3
LADDER_TIMEOUT_S = 150
STATUS_PROBE = ('{"op":"submit","id":"probe","graph":{"n":4,"edges":'
                '[[0,1],[1,2],[2,3]]},"k":2,"steps":10,"seed":%d}')

WORKLOADS = {
    # "graph" is an ffp_gen family and its --args, or the inline
    # shortcut_grid family (common.shortcut_grid) with its rows and cols.
    #
    # One 512x512 grid (n=262144) by graph_file; mlff k=64, 20000 coarse
    # steps, a fresh seed per job; one connection, closed loop, straight
    # to one ffp_serve. No job repeats, so the result cache only holds
    # memory: each entry keeps a 262144-vertex partition, and with the
    # default 64 entries the peak RSS would track how many jobs the window
    # happened to finish rather than the server's footprint.
    "mlff_large": {
        "graph": ("grid2d", "512,512"), "pool": 1, "inline": False,
        "method": "mlff", "k": 64, "steps": 20000, "restarts": 1,
        "budget": 1, "fleet": False, "loop": "closed", "ladder_jobs": 3,
        "setups": 3, "cache_entries": 8,
    },
    # A random geometric graph, n=16384, radius 0.027 ~ sqrt(12/n) (~300k
    # edges; ffp_gen takes the radius in thousandths), by graph_file;
    # fusion_fission k=64 with 4 restarts at budget 4.
    "ff_portfolio": {
        "graph": ("geometric", "16384,27"), "pool": 1,
        "inline": False, "method": "fusion_fission", "k": 64,
        "steps": 1500, "restarts": 4, "budget": 4, "fleet": False,
        "loop": "closed", "ladder_jobs": 3, "setups": 3, "cache_entries": 64,
    },
    # ffp_router over two durable shards; inline 50x50 grids with seeded
    # shortcut edges (256 distinct graphs, so the digest ring splits the
    # traffic between the shards evenly whatever the seed);
    # fusion_fission k=16, 1000 steps; 3 in 4 jobs repeat an earlier
    # (graph, spec). Poisson arrivals over 4 connections at 30 jobs/s:
    # capacity (where the generator's lag starts to grow) measured ~123
    # jobs/s on a quiet 4-core host and ~76 on a busy one; the rate stays
    # below half of the lower figure.
    "serve_mixed": {
        "graph": ("shortcut_grid", 50, 50), "pool": 256, "inline": True,
        "method": "fusion_fission", "k": 16, "steps": 1000, "restarts": 1,
        "budget": 1, "fleet": True, "loop": "open", "rate": 30.0,
        "connections": 4, "fresh_every": 4, "ladder_jobs": 10, "setups": 7,
        "cache_entries": 4096,
    },
}

# (name, unit, better) of every metric, as BENCHMARK.json declares them.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    DECLARED = json.load(_f)
END_TO_END = [(m["name"], m["unit"], m["better"])
              for m in DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"], m["better"])
             for m in DECLARED["per_layer"]]


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build ---

def build(root):
    """Configures (once) and builds the servers, ffp_gen and the ladder;
    returns the binary directory."""
    for need in ("CMakeLists.txt", "src", "tools/ffp_serve.cpp",
                 "tools/ffp_router.cpp"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"repository source '{need}' not found under "
                             f"{root}; run from the repository root")
    bdir = os.path.join(root, ".bench_build")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", "4", "--target",
                      "ffp_serve", "ffp_router", "ffp_gen",
                      "perfbench_ladder"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                raise BenchError(f"build failed; see {log_path}")
    return bdir


# ----------------------------------------------------------------- inputs ---

class Inputs:
    """Everything the workload sends, generated from the seed: the graph
    pool (Chaco files, plus inline JSON for inline workloads) and the
    submit lines."""

    def __init__(self, name, cfg, seed, work, bin_dir):
        self.cfg = cfg
        self.files = []
        if cfg["inline"]:
            # Inline graphs; graph 0 is also written as a file for the
            # ladder.
            rng = random.Random(seed)
            self.graphs = [common.shortcut_grid(*cfg["graph"][1:], rng)
                           for _ in range(cfg["pool"])]
            self.files.append(os.path.join(work, f"{name}-0.graph"))
            with open(self.files[0], "w") as f:
                f.write(common.chaco_text(self.graphs[0]))
            self.sources = ['"graph":' + common.inline_graph_json(g)
                            for g in self.graphs]
            return
        for i in range(cfg["pool"]):
            path = os.path.join(work, f"{name}-{i}.graph")
            proc = subprocess.run(
                [os.path.join(bin_dir, "ffp", "ffp_gen"),
                 "--family", cfg["graph"][0], "--args", cfg["graph"][1],
                 "--seed", str(seed + i), "--out", path],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise BenchError(f"ffp_gen failed: {proc.stderr[-500:]}")
            self.files.append(path)
        self.graphs = [common.read_chaco(p) for p in self.files]
        self.sources = ['"graph_file":' + json.dumps(p) for p in self.files]

    def submit(self, jid, graph, seed):
        c = self.cfg
        line = ('{"op":"submit","id":"%s",%s,"k":%d,"method":"%s",'
                '"objective":"mcut","seed":%d,"steps":%d' %
                (jid, self.sources[graph], c["k"], c["method"], seed,
                 c["steps"]))
        if c["restarts"] > 1:
            line += ',"restarts":%d' % c["restarts"]
        return line + "}"


# ---------------------------------------------------------------- servers ---

class Server:
    """One spawned binary listening on an ephemeral 127.0.0.1 port."""

    def __init__(self, argv, cwd):
        self.proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.log = []
        self.port = None
        while self.port is None:
            line = self.proc.stderr.readline()
            if not line:
                self.proc.wait()
                raise BenchError(f"{argv[0]} exited before listening: "
                                 f"{''.join(self.log)[-500:]}")
            self.log.append(line)
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if m:
                self.port = int(m.group(1))
        self.drain = threading.Thread(target=self._drain, daemon=True)
        self.drain.start()

    def _drain(self):
        for line in self.proc.stderr:
            self.log.append(line)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not reported")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.drain.join(timeout=5)


class Fleet:
    """The workload's server processes: one ffp_serve, or ffp_router in
    front of two durable shards. `entry` takes the load; `direct` lists the
    ffp_serve ports (status counters, direct probes)."""

    def __init__(self, cfg, bin_dir, root, state_dir):
        self.servers = []
        try:
            serve = [os.path.join(bin_dir, "ffp", "ffp_serve"), "--listen", "0",
                     "--event-loop", "--runners", "1",
                     "--budget", str(cfg["budget"]),
                     "--cache-entries", str(cfg["cache_entries"])]
            if not cfg["fleet"]:
                self.servers.append(Server(serve, root))
                self.direct = [self.servers[0].port]
                self.entry = self.direct[0]
                return
            for shard in range(2):
                path = os.path.join(state_dir, f"shard{shard}")
                self.servers.append(Server(
                    serve + ["--state-dir", path, "--max-clients", "32"],
                    root))
            self.direct = [s.port for s in self.servers]
            self.servers.append(Server(
                [os.path.join(bin_dir, "ffp", "ffp_router"), "--listen", "0",
                 "--shards", ",".join(map(str, self.direct))], root))
            self.entry = self.servers[-1].port
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        return sum(s.peak_rss_mb() for s in self.servers)

    def stop(self):
        for s in reversed(self.servers):
            s.stop()


class Client:
    """One connection speaking the line protocol."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")

    def call(self, line):
        self.sock.sendall(line.encode() + b"\n")
        reply = self.reader.readline()
        if not reply:
            raise BenchError("connection closed by server")
        return reply.decode()

    def job(self, submit, jid, spans=None, job=None):
        """submit + result; returns the result line (or the error event).
        With `spans`, records submit/result spans under the job span."""
        t0 = time.perf_counter()
        ack = self.call(submit)
        t1 = time.perf_counter()
        if not ack.startswith('{"event":"ack"'):
            return ack
        reply = self.call('{"op":"result","id":"%s"}' % jid)
        if spans is not None:
            t2 = time.perf_counter()
            spans.append(("loadgen.submit", t0, t1, "loadgen.job", job))
            spans.append(("loadgen.result", t1, t2, "loadgen.job", job))
        return reply

    def close(self):
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


def status_counters(port, probe_seed):
    """The server's cache and event-loop counters, read from a status
    reply on a probe connection. A tiny job gives the op an id; each call
    passes its own seed, so the probe is always one cache miss."""
    c = Client(port)
    try:
        c.job(STATUS_PROBE % probe_seed, "probe")
        reply = json.loads(c.call('{"op":"status","id":"probe"}'))
    finally:
        c.close()
    return {k: reply.get(k, 0) for k in
            ("cache_hits", "cache_misses", "loop_wakeups")}


# -------------------------------------------------------------- load loops ---

class Record:
    __slots__ = ("index", "graph", "seed", "latency", "lag", "done", "line",
                 "traced")

    def __init__(self, index, graph, seed):
        self.index, self.graph, self.seed = index, graph, seed
        self.latency = self.lag = self.done = None
        self.line = None
        self.traced = False


def error_event(e):
    """A transport failure, recorded like a server error event."""
    return '{"event":"error","message":%s}' % json.dumps(str(e))


def run_closed(inputs, fleet, seed, seconds, spans):
    """One connection; the next job is sent when the previous result has
    arrived. Latency is submit to last byte of the result line. Returns
    (records, window start, peak RSS after FIXED_JOBS jobs)."""
    client = Client(fleet.entry)
    records = []
    rss = None
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < seconds:
            i = len(records)
            rec = Record(i, 0, common.job_seed(seed, i))
            rec.traced = spans is not None and (i // TRACE_BLOCK) % 2 == 0
            jid = "j%d" % i
            t0 = time.perf_counter()
            try:
                rec.line = client.job(inputs.submit(jid, 0, rec.seed), jid,
                                      spans if rec.traced else None, i)
            except (OSError, BenchError) as e:
                rec.line = error_event(e)
                client.close()
                client = Client(fleet.entry)
            rec.done = time.perf_counter()
            rec.latency, rec.lag = rec.done - t0, 0.0
            if rec.traced:
                spans.append(("loadgen.job", t0, rec.done, None, i))
            records.append(rec)
            if len(records) == FIXED_JOBS:
                rss = fleet.peak_rss_mb()
    finally:
        client.close()
    return records, start, rss if rss is not None else fleet.peak_rss_mb()


def run_open(inputs, fleet, seed, seconds, spans):
    """Poisson arrivals served by `connections` workers in due order; a
    job waits for a free connection. Latency is timed from the due time,
    so a stall also charges the jobs queued behind it. Returns (records,
    window start, peak RSS at the end)."""
    cfg = inputs.cfg
    schedule = common.poisson_schedule(random.Random(seed), cfg["rate"],
                                       seconds, cfg["pool"],
                                       cfg["fresh_every"])
    records = [Record(i, g, s) for i, (_, g, s, _) in enumerate(schedule)]
    lock = threading.Lock()
    cursor = [0]
    errors = []
    start = time.perf_counter() + 0.05

    def worker(w):
        client = Client(fleet.entry)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(records):
                    return
                rec = records[i]
                rec.traced = spans is not None and (i // TRACE_BLOCK) % 2 == 0
                due = start + schedule[i][0]
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                sent = time.perf_counter()
                jid = "j%d" % i
                local = [] if rec.traced else None
                try:
                    rec.line = client.job(inputs.submit(jid, rec.graph,
                                                        rec.seed),
                                          jid, local, i)
                except (OSError, BenchError) as e:
                    rec.line = error_event(e)
                    client.close()
                    client = Client(fleet.entry)
                rec.done = time.perf_counter()
                rec.latency, rec.lag = rec.done - due, sent - due
                if rec.traced:
                    with lock:
                        spans.extend(local)
                        spans.append(("loadgen.job", due, rec.done, None, i))
        except BaseException as e:  # surfaced after join
            errors.append(e)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(cfg["connections"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return records, start, fleet.peak_rss_mb()


def validate(inputs, records):
    """Validates every result; results for one (graph, spec) must agree
    byte for byte (minus id and seconds). Returns ({job index: value} of
    the first result of each distinct pair, failure messages)."""
    k = inputs.cfg["k"]
    first = {}
    values = {}
    failures = []
    for rec in sorted(records, key=lambda r: r.done):
        key = (rec.graph, rec.seed)
        payload = common.result_payload(rec.line)
        if key in first:
            if payload != first[key]:
                failures.append(f"job {rec.index}: repeat of {key} differs "
                                f"from its first result")
            continue
        try:
            values[rec.index] = common.validate_result(
                inputs.graphs[rec.graph], k, rec.line)
            first[key] = payload
        except common.InvalidResult as e:
            failures.append(f"job {rec.index}: {e}")
    return values, failures


# ------------------------------------------------------------- the runs ---

def setup_once(inputs, cfg, bin_dir, root, work, seed, r):
    """Spawns the fleet and completes one warm-up job through it; returns
    (fleet, seconds). Input generation is not part of the time."""
    state = os.path.join(work, f"state{r}")
    t0 = time.perf_counter()
    fleet = Fleet(cfg, bin_dir, root, state)
    try:
        client = Client(fleet.entry)
        try:
            jid = "warm%d" % r
            warm_seed = common.job_seed(seed, -1 - r)
            line = client.job(inputs.submit(jid, 0, warm_seed), jid)
        finally:
            client.close()
        elapsed = time.perf_counter() - t0
        common.validate_result(inputs.graphs[0], cfg["k"], line)
    except BaseException:
        fleet.stop()
        raise
    return fleet, elapsed


def measure(inputs, cfg, fleet, seed, seconds, spans):
    if cfg["loop"] == "closed":
        return run_closed(inputs, fleet, seed, seconds, spans)
    return run_open(inputs, fleet, seed, seconds, spans)


def slice_metrics(jobs):
    """Throughput and latency of the jobs that started (open loop: were
    due) in one slice of the window. Throughput counts from the first of
    them, not from the slice boundary: in a closed loop the job running
    across the boundary belongs to the slice before, and the gap it leaves
    would otherwise count as idle time."""
    lat = [r.latency * 1e3 for r in jobs]
    tail, pct, n = common.tail(lat)
    first = min(r.done - r.latency for r in jobs)
    return {"jobs_per_sec": len(jobs) / (max(r.done for r in jobs) - first),
            "latency_p50_ms": statistics.median(lat),
            "latency_tail_ms": tail, "tail": "p%.1f of n=%d" % (pct, n)}


def summarize(inputs, records, start, seconds):
    """Validates the window's results and computes its metrics. Timings
    are taken per slice (SLICES consecutive equal parts of the window, by
    job start) and reported as the median over the slices, so a host
    hiccup that spoils one slice does not move the run's figure."""
    ok = [r for r in records if r.line and r.line.startswith(
        '{"event":"result"')]
    values, failures = validate(inputs, ok)
    errors = [r for r in records if r not in ok]
    failures += [f"job {r.index}: {(r.line or 'no reply')[:200]}"
                 for r in errors]
    if not ok:
        raise BenchError("no job completed")
    width = seconds / SLICES
    slices = [[] for _ in range(SLICES)]
    for r in ok:
        began = r.done - r.latency - start
        slices[min(SLICES - 1, max(0, int(began // width)))].append(r)
    per_slice = [slice_metrics(jobs) for jobs in slices if jobs]
    out = {k: statistics.median([s[k] for s in per_slice])
           for k in ("jobs_per_sec", "latency_p50_ms", "latency_tail_ms")}
    quality = [values[i] for i in sorted(values)]
    if inputs.cfg["loop"] == "closed":
        quality = quality[:FIXED_JOBS]
    out.update({
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "tails": ", ".join(s["tail"] for s in per_slice),
        "mcut_p50": statistics.median(quality),
        "distinct": len(values),
        "lag_p50_ms": statistics.median([r.lag * 1e3 for r in records
                                     if r.lag is not None]),
        "ok": ok,
    })
    return out


def untraced_run(name, cfg, inputs, bin_dir, root, work, seed, seconds):
    setups = []
    fleet = None
    try:
        for r in range(cfg["setups"]):
            fleet, elapsed = setup_once(inputs, cfg, bin_dir, root, work,
                                        seed, r)
            setups.append(elapsed)
            if r + 1 < cfg["setups"]:
                fleet.stop()
                fleet = None
        records, start, rss = measure(inputs, cfg, fleet, seed, seconds,
                                      None)
    finally:
        if fleet is not None:
            fleet.stop()
    s = summarize(inputs, records, start, seconds)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_sec": s["jobs_per_sec"],
        "latency_p50_ms": s["latency_p50_ms"],
        "latency_tail_ms": s["latency_tail_ms"],
        "mcut_p50": s["mcut_p50"],
        "peak_rss_mb": rss,
    }
    assert list(metrics) == [m for m, _, _ in END_TO_END]
    print(f"# {name}: {s['attempted']} jobs, {s['distinct']} distinct "
          f"(graph, spec), generator lag p50 {s['lag_p50_ms']:.3f} ms, "
          f"failed_ratio {s['failed'] / s['attempted']:.4f} "
          f"(lower is better)")
    print(f"# timings are medians over {SLICES} slices of the window; "
          f"latency_tail_ms per slice: {s['tails']}")
    for metric, unit, better in END_TO_END:
        print(f"{metric:>16} {metrics[metric]:14.4f} {unit:<7} "
              f"({better} is better)")
    return s, {m: {"value": metrics[m], "unit": u} for m, u, _ in END_TO_END}


def probe_rtts(inputs, fleet, pairs, port):
    """Submit+result round trips of already-solved pairs (cache hits) on
    one port, in ms."""
    c = Client(port)
    out = []
    try:
        for r in range(PROBE_ROUNDS):
            for i, (graph, seed) in enumerate(pairs):
                jid = "h%d_%d_%d" % (port, r, i)
                t0 = time.perf_counter()
                line = c.job(inputs.submit(jid, graph, seed), jid)
                out.append((time.perf_counter() - t0) * 1e3)
                if not line.startswith('{"event":"result"'):
                    raise BenchError(f"probe failed: {line[:200]}")
    finally:
        c.close()
    return out


def traced_run(name, cfg, inputs, bin_dir, root, work, seed, seconds):
    spans = []
    ladder_seeds = [common.job_seed(seed, 2_000_000 + j)
                    for j in range(cfg["ladder_jobs"])]
    ladder_lines = [inputs.submit("L%d" % j, 0, s)
                    for j, s in enumerate(ladder_seeds)]
    fleet, _ = setup_once(inputs, cfg, bin_dir, root, work, seed, 0)
    try:
        before = [status_counters(p, 1) for p in fleet.direct]
        records, start, _ = measure(inputs, cfg, fleet, seed, seconds,
                                    spans)
        after = [status_counters(p, 2) for p in fleet.direct]
        s = summarize(inputs, records, start, seconds)
        pairs = []  # the most recent results: still in every LRU cache
        for rec in sorted(s["ok"], key=lambda r: -r.done):
            if (rec.graph, rec.seed) not in pairs:
                pairs.append((rec.graph, rec.seed))
        pairs = pairs[:PROBE_PAIRS]
        if cfg["fleet"]:
            probe_rtts(inputs, fleet, pairs, fleet.direct[0])  # warm shard 0
        direct_hit = probe_rtts(inputs, fleet, pairs, fleet.direct[0])
        routed_hit = probe_rtts(inputs, fleet, pairs, fleet.entry) \
            if cfg["fleet"] else []
        direct_miss = probe_misses(ladder_lines, fleet.direct[0])
    finally:
        fleet.stop()

    ladder = run_ladder(cfg, inputs, bin_dir, work, ladder_seeds,
                        ladder_lines)
    return s, per_layer(name, cfg, s, before, after, direct_hit, routed_hit,
                        direct_miss, ladder, spans, work, seed)


def probe_misses(lines, port):
    """TCP rung of the ladder: the ladder's own submit lines (fresh specs,
    so cache misses) sent straight to one ffp_serve; RTTs in ms."""
    c = Client(port)
    out = []
    try:
        for j, line in enumerate(lines):
            jid = "L%d" % j
            t0 = time.perf_counter()
            reply = c.job(line, jid)
            out.append((time.perf_counter() - t0) * 1e3)
            if not reply.startswith('{"event":"result"'):
                raise BenchError(f"miss probe failed: {reply[:200]}")
    finally:
        c.close()
    return out


def run_ladder(cfg, inputs, bin_dir, work, seeds, lines):
    """The in-process rungs on graph 0 with the workload's spec."""
    lines_path = os.path.join(work, "ladder-lines.jsonl")
    with open(lines_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    out = os.path.join(work, "ladder.json")
    argv = [os.path.join(bin_dir, "perfbench_ladder"),
            "--graph", inputs.files[0], "--method", cfg["method"],
            "--k", str(cfg["k"]), "--steps", str(cfg["steps"]),
            "--restarts", str(cfg["restarts"]),
            "--budget", str(cfg["budget"]),
            "--cache-entries", str(cfg["cache_entries"]),
            "--seeds", ",".join(map(str, seeds)), "--lines", lines_path,
            "--out", out]
    if not cfg["inline"]:
        argv.append("--load-graph")
    if cfg["fleet"]:
        argv += ["--state-dir", os.path.join(work, "ladder-state")]
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=LADDER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"ladder failed: {proc.stderr[-500:]}")
    with open(out) as f:
        return json.load(f)


def per_layer(name, cfg, s, before, after, direct_hit, routed_hit,
              direct_miss, ladder, spans, work, seed):
    by_job = {}
    for x in ladder["spans"]:  # first span of each (name, job)
        by_job.setdefault((x["name"], x["job"]), x["end_ms"] - x["start_ms"])
    jobs_run = range(cfg["ladder_jobs"])

    def med(span_name):
        d = [by_job[(span_name, j)] for j in jobs_run
             if (span_name, j) in by_job]
        return statistics.median(d) if d else 0.0

    def paired(upper, lower):
        """Median over ladder jobs of upper - lower: every rung of one job
        runs the same seed, hence the same search."""
        d = [upper(j) - lower(j) for j in jobs_run]
        return statistics.median(d)

    def rung(span_name):
        return lambda j: by_job.get((span_name, j), 0.0)

    def count(count_name):
        v = [c["value"] for c in ladder["counts"] if c["name"] == count_name]
        return statistics.median(v) if v else 0.0

    jobs = len(s["ok"])
    delta = {k: sum(a[k] - b[k] for a, b in zip(after, before))
             for k in before[0]}
    delta["cache_misses"] -= len(after)  # the after-probes' own misses
    lookups = delta["cache_hits"] + delta["cache_misses"]
    mlff = cfg["method"] == "mlff"
    portfolio = cfg["restarts"] > 1
    kernel = rung("multilevel.mlff" if mlff else "core.ff_run")
    solver = rung("solver.run")
    below_engine = rung("solver.portfolio") if portfolio else solver
    tcp = lambda j: direct_miss[j]  # noqa: E731
    steps = count("core.steps")
    traced = [r.latency * 1e3 for r in s["ok"] if r.traced]
    untraced = [r.latency * 1e3 for r in s["ok"] if not r.traced]
    hop = (statistics.median(routed_hit) - statistics.median(direct_hit)
           if routed_hit else 0.0)

    m = {
        "shard.hop_ms": hop,
        "net.self_ms": statistics.median(direct_hit) - med("service.session_hit"),
        "net.wakeups_per_job": delta["loop_wakeups"] / jobs,
        "service.parse_ms": med("service.parse"),
        "service.request_kb": count("service.request_kb"),
        "service.format_ms": med("service.format"),
        "service.result_kb": count("service.result_kb"),
        "service.queue_wait_ms": count("service.queue_wait_ms"),
        "api.hit_ms": med("api.submit_hit"),
        "api.miss_submit_ms": med("api.submit_miss"),
        "api.digest_ms": med("api.digest"),
        "api.cache_hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
        "api.solves_per_spec": delta["cache_misses"] / s["distinct"],
        "persist.self_ms": (paired(rung("persist.solve_durable"),
                                   rung("persist.solve_plain"))
                            if cfg["fleet"] else 0.0),
        "evolve.admit_ms": med("evolve.admit"),
        "graph.load_ms": med("graph.load"),
        "solver.run_ms": med("solver.run"),
        "solver.portfolio_ms": med("solver.portfolio") if portfolio else 0.0,
        "solver.portfolio_speedup": (
            statistics.median([rung("solver.serial_restarts")(j) /
                           rung("solver.portfolio")(j) for j in jobs_run])
            if portfolio else 0.0),
        "multilevel.coarsen_ms": med("multilevel.coarsen"),
        "multilevel.mlff_ms": med("multilevel.mlff"),
        "multilevel.refine_ms": (paired(kernel, lambda j: (
            rung("multilevel.coarsen")(j) + rung("core.ff_run")(j))))
        if mlff else 0.0,
        "multilevel.levels": count("multilevel.levels"),
        "multilevel.coarse_vertices": count("multilevel.coarse_vertices"),
        "multilevel.refine_moves": count("multilevel.refine_moves"),
        "core.ff_init_ms": med("core.ff_init"),
        "core.ff_step_us": (paired(rung("core.ff_run"), rung("core.ff_init"))
                            * 1e3 / steps) if steps else 0.0,
        "core.fusions": count("core.fusions"),
        "core.fissions": count("core.fissions"),
        "core.reheats": count("core.reheats"),
        # The latency ladder on the cache-miss path: each rung's self time
        # is the rung minus the rung below, paired per job.
        # mlff's kernel rung is multilevel.mlff_ms.
        "ladder.kernel_ms": 0.0 if mlff else med("core.ff_run"),
        "ladder.solver_self_ms": paired(solver, kernel),
        "ladder.portfolio_self_ms": (paired(rung("solver.portfolio"), solver)
                                     if portfolio else 0.0),
        "ladder.engine_self_ms": paired(rung("api.engine"), below_engine),
        "ladder.session_self_ms": paired(rung("service.session_miss"),
                                         rung("api.engine")),
        "ladder.tcp_self_ms": paired(tcp, rung("service.session_miss")),
        "trace.overhead_ms": (statistics.median(traced) - statistics.median(untraced)
                              if traced and untraced else 0.0),
        "loadgen.lag_ms": s["lag_p50_ms"],
    }
    assert list(m) == [name for name, _, _ in PER_LAYER]

    trace_path = os.path.join(work, "trace.json")
    with open(trace_path, "w") as f:
        json.dump({
            "workload": name, "seed": seed,
            "loadgen_spans": [
                {"name": n, "start_ms": a * 1e3, "end_ms": b * 1e3,
                 "parent": p, "job": j} for n, a, b, p, j in spans],
            "ladder": ladder,
            "counters_delta": delta,
            "probe_direct_hit_ms": direct_hit,
            "probe_routed_hit_ms": routed_hit,
            "probe_direct_miss_ms": direct_miss,
        }, f)
    print(f"# {name} traced: spans in {os.path.relpath(trace_path)}; "
          f"{jobs} jobs ({len(traced)} traced); cache base "
          f"{lookups} lookups; speedup base {cfg['restarts']} restarts")
    print("# ladder (cache-miss path, median ms): kernel %.3f | Solver::run "
          "%.3f | PortfolioRunner %.3f | Engine %.3f | handle_line %.3f | "
          "TCP %.3f" % (med("multilevel.mlff" if mlff else "core.ff_run"),
                        med("solver.run"),
                        m["solver.portfolio_ms"], med("api.engine"),
                        med("service.session_miss"),
                        statistics.median(direct_miss)))
    print("# hit path (ms): handle_line %.3f | direct TCP %.3f | routed %s"
          % (med("service.session_hit"), statistics.median(direct_hit),
             "%.3f" % statistics.median(routed_hit) if routed_hit else "-"))
    for metric, unit, better in PER_LAYER:
        print(f"{metric:>28} {m[metric]:14.6f} {unit:<6} ({better} is better)")
    return {name: {"value": m[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    cfg = WORKLOADS[args.workload]
    try:
        bin_dir = build(root)
        work = os.path.join(root, ".bench_run", f"{args.workload}-{args.seed}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        inputs = Inputs(args.workload, cfg, args.seed, work, bin_dir)
        run = traced_run if args.trace else untraced_run
        s, metrics = run(args.workload, cfg, inputs, bin_dir, root, work,
                         args.seed, args.seconds)
    except (BenchError, OSError, subprocess.SubprocessError,
            common.InvalidResult) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for f in s["failures"][:10]:
        print(f"perfbench: invalid: {f}", file=sys.stderr)
    print(json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0 if s["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
