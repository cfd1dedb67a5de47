#!/usr/bin/env python3
"""drw benchmark: times the live `drw serve --listen` from outside.

Usage (from the root of a checkout):

    python3 drwbench/run.py --workload cold-start|steady-mixed|durable-paths
                            --seed N --seconds S --trace 0|1

Builds `drw` and the `drwbench` load generator from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), generates the workload's inputs from
--seed, starts the real server, drives it over the wire protocol and checks
every response. --trace 0 prints the end-to-end metrics; --trace 1 also
replays the same requests in-process with spans around each layer's calls
and prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See drwbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
WORK_ROOT = ".bench_work"

# Fixed program inputs (never derived from --seed).
THREADS = 2          # drw --threads: one core of four stays free for load
PROGRAM_SEED = 42    # drw --seed
COLD_GRAPH = "regular:10000,6"
COLD_REQUEST = (0, 4096, 8)         # source, length, count
LIGHT_LENGTHS = [256, 512, 1024]    # count 1
HEAVY_LENGTHS = [2048, 4096]        # count 4
PATH_LENGTHS = [512, 1024, 2048]    # count 1, record=1
LIGHT_RATE = 10.0    # nominal offered rate, requests/s
HEAVY_RATE = 1.0
LADDER = [1.0, 2.0, 3.0]            # multiples of the nominal rates
LIGHT_LIMIT_MS = 500.0              # light tail limit for max_rate_rps
NOOPS = 20                          # length-0 requests for net.noop_rtt_ms
TRACE_COVERAGE = 0.95  # program layers must cover this share of replay wall

# Tail percentile per workload: the highest one with at least ten samples
# beyond it, for the sample counts the schedules below guarantee.
TAIL_PCT = {"steady-mixed": 97, "durable-paths": 75}
# Graph files are generated from fixed seeds, so every run serves the same
# topology; --seed varies sources, length order and arrival times.
GRAPH_SEED = {"steady-mixed": 11, "durable-paths": 12}

WORKLOADS = ("cold-start", "steady-mixed", "durable-paths")


def log(msg):
    print(msg, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def build():
    """Configures once, then rebuilds incrementally; returns binary paths."""
    os.makedirs(BUILD, exist_ok=True)
    blog = os.path.join(BUILD, "drwbench-build.log")
    with open(blog, "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=out, stderr=out, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "drw_cli",
                        "drwbench", "-j", str(os.cpu_count() or 2)],
                       stdout=out, stderr=out, check=True)
    return (os.path.join(BUILD, "repo", "drw"),
            os.path.join(BUILD, "drwbench"))


def source_digest():
    """Hash of everything the build compiles: keys the cold-start counters
    a run compares against the earlier runs of the same code."""
    h = hashlib.sha256()
    for top in ("src", "tools", "drwbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


# ------------------------------------------------------------------ stats

def pct(values, p):
    """Nearest-rank percentile (p in 0..100) of a non-empty list."""
    v = sorted(values)
    rank = max(1, -(-len(v) * p // 100))
    return v[min(len(v), int(rank)) - 1]


def tail_of(values, p):
    if len(values) - len(values) * p / 100.0 < 10 and p < 100:
        raise BenchError("%d samples are too few for p%d" % (len(values), p))
    return pct(values, p)


def highest_tail(values):
    """(percentile, value): the highest whole percentile with >= 10 beyond."""
    for p in range(99, 0, -1):
        if len(values) - len(values) * p / 100.0 >= 10:
            return p, pct(values, p)
    return 100, max(values)


# ------------------------------------------------------------------ server

class Server:
    """One `drw serve --listen` process; setup_s is spawn to `listening:`."""

    def __init__(self, drw, graph, extra, workdir, tag):
        self.stats_path = os.path.join(workdir, "stats-%s.json" % tag)
        self.log_path = os.path.join(workdir, "admission-%s.log" % tag)
        self.phases = []  # rows of each replayable load, in order
        self.err = open(os.path.join(workdir, "server-%s.err" % tag), "w")
        cmd = [drw, "serve", "--graph=" + graph, "--seed=%d" % PROGRAM_SEED,
               "--threads=%d" % THREADS, "--listen=127.0.0.1:0",
               "--stats-json=" + self.stats_path,
               "--admission-log=" + self.log_path] + extra
        start = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True)
        # Raw reads: a buffered readline could hold the `listening:` line
        # while select() waits on an empty pipe.
        fd = self.proc.stdout.fileno()
        seen = b""
        deadline = start + 150
        while b"\nlistening:" not in b"\n" + seen or not seen.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.kill()
                raise BenchError("server did not start listening")
            chunk = os.read(fd, 65536)
            if not chunk:
                self.kill()
                raise BenchError("server exited before listening")
            seen += chunk
        self.setup_s = time.monotonic() - start
        line = (b"\n" + seen).split(b"\nlistening:", 1)[1].split(b"\n")[0]
        self.port = int(line.strip().rsplit(b":", 1)[1])

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        """SIGTERM, wait for the clean shutdown, return the lifetime stats."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not shut down")
        self.err.close()
        if self.proc.returncode != 0 or "shutdown: clean" not in out:
            raise BenchError("server shutdown was not clean")
        with open(self.stats_path) as f:
            return json.load(f)["lifetime"]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.err.close()


class Bench:
    def __init__(self, workload, seed, seconds, workdir, drw, tool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.drw = drw
        self.tool = tool
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.servers = []  # running
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.schedules = {}  # path -> request tuples, tag = index
        self.closed = {}     # path -> ids of closed-loop connections

    def path(self, name):
        return os.path.join(self.workdir, name)

    def server(self, graph, extra=()):
        s = Server(self.drw, graph, list(extra), self.workdir,
                   str(self.spawned))
        self.spawned += 1
        self.servers.append(s)
        return s

    def stop(self, server):
        rss = server.peak_rss_mb()
        life = server.stop()
        self.servers.remove(server)
        return rss, life

    def write_schedule(self, conns, reqs):
        """conns: [(id, class, open|closed)]; reqs: [(conn, due_ms, source,
        length, count, record)] in due order. Returns the file path."""
        path = self.path("requests-%02d.txt" % (len(self.schedules) + 1))
        with open(path, "w") as f:
            for c in conns:
                f.write("conn %d %s %s\n" % c)
            for r in reqs:
                f.write("req %d %.3f %d %d %d %d\n" % r)
        self.schedules[path] = reqs
        self.closed[path] = {c[0] for c in conns if c[2] == "closed"}
        return path

    def load(self, server, schedule, edges=None, replayed=True):
        """Runs one schedule against `server`; returns per-request rows."""
        out = schedule + ".out"
        cmd = [self.tool, "load", "--port=%d" % server.port,
               "--requests=" + schedule, "--out=" + out]
        if edges:
            cmd.append("--edges=" + edges)
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if r.returncode not in (0, 1) or not os.path.exists(out):
            raise BenchError("load generator failed: " + r.stderr.strip())
        rows = []
        with open(out) as f:
            for line in f:
                if line.startswith("#"):
                    continue
                tag, conn, due, sent, recv, status, ok, steps = line.split()
                req = self.schedules[schedule][int(tag)]
                rows.append({"tag": int(tag), "conn": int(conn),
                             "closed": int(conn) in self.closed[schedule],
                             "due": float(due), "sent": float(sent),
                             "recv": float(recv),
                             "ok": ok == "1" and status == "0",
                             "steps": int(steps), "request": req[2:]})
        self.attempted += len(rows)
        bad = sum(1 for row in rows if not row["ok"])
        self.failed += bad
        if bad:
            self.problems.append("%d failed response check(s): %s" % (
                bad, json.loads(r.stdout.strip().splitlines()[-1])
                ["first_failure"]))
        if replayed:
            server.phases.append(rows)
        return rows

    def noop_probe(self, server, source):
        """RTT of length-0 requests: server, admission and wire, no engine.
        Measured live only; the replay leaves these requests out."""
        sched = self.write_schedule(
            [(0, "noop", "closed")],
            [(0, 0.0, source, 0, 1, 0) for _ in range(NOOPS)])
        rows = self.load(server, sched, replayed=False)
        return statistics.median(r["recv"] - r["sent"] for r in rows)

    def cleanup(self):
        for s in list(self.servers):
            s.kill()


def latencies(rows, conn=None, from_due=True):
    return [r["recv"] - (r["due"] if from_due else r["sent"]) for r in rows
            if conn is None or r["conn"] == conn]


def steps_rate(rows):
    """Successful walk steps per second over first due to last response."""
    span_s = (max(r["recv"] for r in rows) - min(r["due"] for r in rows)) / 1e3
    return sum(r["steps"] for r in rows if r["ok"]) / span_s


def gen_lag(rows):
    return statistics.fmean(r["sent"] - r["due"] for r in rows)


# ------------------------------------------------------------------ workloads

def cold_start(b):
    """regular:10000,6 generator graph; one connection, one request for 8
    walks of length 4096, then shutdown. Repeated on fresh servers."""
    source, length, count = COLD_REQUEST
    sched = b.write_schedule([(0, "cold", "closed")],
                             [(0, 0.0, source, length, count, 0)])
    cycles = max(2, min(4, int(b.seconds // 12)))
    setups, walks, rss, counters = [], [], [], []
    noop = lag = None
    for i in range(cycles):
        server = b.server(COLD_GRAPH)
        setups.append(server.setup_s)
        rows = b.load(server, sched)
        walks.append(latencies(rows, from_due=False)[0])
        lag = gen_lag(rows)
        if i == cycles - 1:
            noop = b.noop_probe(server, source)
        peak, life = b.stop(server)
        rss.append(peak)
        counters.append(deterministic_counters(life, 0))
    if any(c != counters[0] for c in counters):
        b.problems.append("cold-start counters differ between servers: %s"
                          % counters)
    steps = length * count
    first = statistics.median(walks)
    return {
        "e2e": {"setup_s": statistics.median(setups),
                "first_walk_s": first / 1e3,
                "p50_ms": statistics.median(walks),
                "steps_per_s": steps / (first / 1e3),
                "peak_rss_mb": statistics.median(rss)},
        "figures": {"first_walk_s": first / 1e3,
                    "steps_per_s": steps / (first / 1e3)},
        "samples": {"servers": cycles, "timed_requests": cycles},
        "counters": counters[-1],
        "live_layers": {"gen.lag_ms": lag, "net.noop_rtt_ms": noop},
        "replay": {"graph": COLD_GRAPH, "server": server, "extra": []},
    }


def deterministic_counters(life, snapshot_bytes):
    return {"rounds": life["rounds"], "messages": life["messages"],
            "stitches": life["stitches"],
            "full_prepares": life["full_prepares"],
            "snapshot_bytes": snapshot_bytes}


def spawn_series(b, graph, extra, warm, edges, servers=7):
    """Starts `servers` servers one after another; each serves the warm-up
    request (first_walk_s) and gives a setup_s sample. The last stays up."""
    setup_s, first = [], []
    for i in range(servers):
        server = b.server(graph, extra)
        setup_s.append(server.setup_s)
        rows = b.load(server, warm, edges)
        first.append(latencies(rows, from_due=False)[0])
        if i < servers - 1:
            b.stop(server)
    return server, statistics.median(setup_s), statistics.median(first)


def steady_mixed(b):
    """Power-law edge list; open-loop Poisson light + heavy classes on two
    connections over a ladder of offered rates."""
    n = 4000
    edges = b.path("powerlaw.txt")
    subprocess.run([b.tool, "graph", "--kind=powerlaw", "--n=%d" % n,
                    "--d=3", "--seed=%d" % GRAPH_SEED[b.workload],
                    "--out=" + edges],
                   check=True)
    # Warm-up: one walk of length 3072 puts the inventory's lambda where the
    # service's 4x re-plan window covers a lone 256-step light request as
    # well as a heavy request batched with up to seven lights, so nominal
    # load reuses the inventory. Heavier mixing re-runs Phase 1; the upper
    # ladder steps show it.
    warm = b.write_schedule([(0, "warm", "closed")],
                            [(0, 0.0, b.rng.randrange(n), 3072, 1, 0)])
    server, setup_s, first = spawn_series(b, edges, [], warm, None)
    steps = []  # per ladder step: (factor, rows)
    # The nominal step offers at least 400 light requests (p97 tail).
    durations = ([max(40.0, 4 * b.seconds / 3)]
                 + [0.1 * b.seconds] * (len(LADDER) - 1))
    for factor, dur in zip(LADDER, durations):
        reqs = []
        # Distinct sources within a step key each admission-log line to
        # its request for the replay.
        sources = iter(b.rng.sample(range(n), n))
        for conn, rate, lengths, count in ((0, LIGHT_RATE, LIGHT_LENGTHS, 1),
                                           (1, HEAVY_RATE, HEAVY_LENGTHS, 4)):
            # A Poisson process conditioned on its count: that many uniform
            # arrival times. Lengths come in equal shares, so every seed
            # offers the same work.
            k = int(round(rate * factor * dur))
            lens = [lengths[i % len(lengths)] for i in range(k)]
            b.rng.shuffle(lens)
            times = sorted(b.rng.uniform(0, dur * 1e3) for _ in range(k))
            reqs += [(conn, t, next(sources), l, count, 0)
                     for t, l in zip(times, lens)]
        reqs.sort(key=lambda r: r[1])
        sched = b.write_schedule([(0, "light", "open"), (1, "heavy", "open")],
                                 reqs)
        steps.append((factor, b.load(server, sched)))
    noop = b.noop_probe(server, 0)
    rss, life = b.stop(server)

    nominal = steps[0][1]
    light = latencies(nominal, 0)
    heavy = latencies(nominal, 1)
    tail = tail_of(light, TAIL_PCT["steady-mixed"])
    max_rate, ladder = 0.0, []
    for factor, rows in steps:
        lt = latencies(rows, 0)
        p, t = highest_tail(lt)
        half = len(rows) // 2
        early = statistics.median(latencies(rows[:half]))
        late = statistics.median(latencies(rows[half:]))
        ok = (t <= LIGHT_LIMIT_MS and late <= 2 * early + 50
              and all(r["ok"] for r in rows))
        rate = (LIGHT_RATE + HEAVY_RATE) * factor
        ladder.append("%.1f/s: light p%d %.1f ms, median %.1f -> %.1f ms %s"
                      % (rate, p, t, early, late, "ok" if ok else "over"))
        if ok:
            max_rate = rate
    all_rows = [r for _, rows in steps for r in rows]
    sps = steps_rate(nominal)
    return {
        "e2e": {"setup_s": setup_s, "first_walk_s": first / 1e3,
                "p50_ms": statistics.median(light),
                "steps_per_s": sps, "peak_rss_mb": rss},
        "figures": {"light_p50_ms": statistics.median(light),
                    "light_tail_ms": tail,
                    "heavy_p50_ms": statistics.median(heavy),
                    "heavy_tail_ms": highest_tail(heavy)[1],
                    "max_rate_rps": max_rate, "steps_per_s": sps},
        "notes": ["heavy tail is p%d of %d" % (highest_tail(heavy)[0],
                                               len(heavy))] + ladder,
        "samples": {"light": len(light), "heavy": len(heavy),
                    "ladder_requests": len(all_rows)},
        "counters": deterministic_counters(life, 0),
        "live_layers": {"gen.lag_ms": gen_lag(all_rows),
                        "net.noop_rtt_ms": noop},
        "replay": {"graph": edges, "server": server, "extra": []},
    }


def durable_paths(b):
    """6-regular edge list served with --paths --snapshot; two closed-loop
    connections of recorded walks."""
    n = 2000
    edges = b.path("regular.txt")
    subprocess.run([b.tool, "graph", "--kind=regular", "--n=%d" % n,
                    "--d=6", "--seed=%d" % GRAPH_SEED[b.workload],
                    "--out=" + edges],
                   check=True)
    snap = b.path("snap")
    extra = ["--paths", "--snapshot=" + snap]
    warm = b.write_schedule([(0, "warm", "closed")],
                            [(0, 0.0, b.rng.randrange(n), 1024, 1, 1)])
    server, setup_s, first = spawn_series(b, edges, extra, warm, edges)
    k = max(40, int(4 * b.seconds / 3))
    lens = [PATH_LENGTHS[i % len(PATH_LENGTHS)] for i in range(k)]
    b.rng.shuffle(lens)
    sources = b.rng.sample(range(n), k)
    sched = b.write_schedule(
        [(0, "paths", "closed"), (1, "paths", "closed")],
        [(i % 2, 0.0, sources[i], l, 1, 1) for i, l in enumerate(lens)])
    rows = b.load(server, sched, edges)
    noop = b.noop_probe(server, 0)
    rss, life = b.stop(server)
    lat = latencies(rows, from_due=False)
    tail = tail_of(lat, TAIL_PCT["durable-paths"])
    sps = steps_rate(rows)
    return {
        "e2e": {"setup_s": setup_s, "first_walk_s": first / 1e3,
                "p50_ms": statistics.median(lat),
                "steps_per_s": sps, "peak_rss_mb": rss},
        "figures": {"paths_p50_ms": statistics.median(lat),
                    "paths_tail_ms": tail, "steps_per_s": sps},
        "samples": {"paths": len(lat)},
        "counters": deterministic_counters(life, os.path.getsize(snap)),
        "live_layers": {"gen.lag_ms": gen_lag(rows), "net.noop_rtt_ms": noop},
        "replay": {"graph": edges, "server": server,
                   "extra": ["--paths=1", "--edges=" + edges,
                             "--snapshot=" + b.path("replay-snap")]},
    }


# ------------------------------------------------------------------ replay

def write_batches(b, server):
    """The replay's input: the server's admitted batches, from its admission
    log, each request keyed back to its live send time by (source, length,
    count, record). A closed-loop request also names the response it waited
    for. Length-0 probe requests are left out."""
    pending = {}
    after = {}  # tag -> (previous tag on its connection, live gap ms)
    for phase, rows in enumerate(server.phases):
        last = {}
        for row in sorted(rows, key=lambda r: r["sent"]):
            prev = last.get(row["conn"])
            if row["closed"] and prev is not None:
                after[(phase, row["tag"])] = (prev["tag"],
                                              row["sent"] - prev["recv"])
            last[row["conn"]] = row
        for row in rows:
            pending.setdefault(row["request"], []).append((phase, row))
    batches, batch = [], []
    with open(server.log_path) as f:
        for line in f:
            if line.startswith("# batch"):
                if batch:
                    batches.append(batch)
                batch = []
                continue
            key = tuple(int(x) for x in line.split())
            if key[1] == 0:
                continue
            if not pending.get(key):
                raise BenchError("admission log line %r matches no request"
                                 % line.strip())
            batch.append(pending[key].pop(0))
    if any(pending.values()):
        raise BenchError("requests missing from the admission log")
    path = b.path("batches.txt")
    with open(path, "w") as f:
        last = None
        for batch in batches:
            if batch[0][0] != last:
                f.write("phase\n")
                last = batch[0][0]
            f.write("batch\n")
            for phase, row in batch:
                if phase != last:
                    raise BenchError("a logged batch spans two loads")
                prev, gap = after.get((phase, row["tag"]), (-1, 0.0))
                f.write("req %d %.4f %d %d %d %d %d %.4f\n"
                        % ((row["tag"], row["sent"]) + row["request"]
                           + (prev, gap)))
    return path


def spans_path(b):
    """Outside the run's scratch directory, so it outlives the run."""
    return os.path.join(WORK_ROOT, "spans-%s-%d.txt" % (b.workload, b.seed))


def replay(b, spec, batches, traced):
    cmd = [b.tool, "replay", "--graph=" + spec["graph"],
           "--seed=%d" % PROGRAM_SEED, "--threads=%d" % THREADS,
           "--traced=%d" % traced, "--spans=" + spans_path(b),
           "--batches=" + batches] + spec["extra"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if r.returncode not in (0, 1):
        raise BenchError("replay failed: " + r.stderr.strip())
    out = json.loads(r.stdout.strip().splitlines()[-1])
    if out["failures"]:
        b.problems.append("replay: %d failed check(s): %s"
                          % (out["failures"], out["first_failure"]))
    return out


def layer_metrics(b, res):
    batches = write_batches(b, res["replay"]["server"])
    plain = replay(b, res["replay"], batches, 0)
    traced = replay(b, res["replay"], batches, 1)
    m = dict(traced["metrics"])
    m.update(res["live_layers"])
    wall = traced["wall_ms"]
    self_ms = traced["self_ms"]
    for layer in ("graph", "congest", "service", "admission", "net", "resil",
                  "harness"):
        m["self.%s_ms" % layer] = self_ms.get(layer, 0.0)
    covered = sum(v for k, v in self_ms.items() if k != "harness")
    m["trace.wall_ms"] = wall
    m["trace.coverage_frac"] = covered / wall
    m["trace.overhead_frac"] = wall / plain["wall_ms"] - 1.0
    total = sum(self_ms.values())
    if abs(total - wall) > 0.01 * wall:
        b.problems.append("layer self times sum to %.1f ms of %.1f ms wall"
                          % (total, wall))
    if covered < TRACE_COVERAGE * wall:
        b.problems.append("program layers cover %.3f of the traced wall "
                          "(< %.2f)" % (covered / wall, TRACE_COVERAGE))
    # Results are a function of (seed, admitted order), so replaying the
    # logged batches must reproduce the live server's counts exactly.
    replayed = {"rounds": m["congest.rounds"],
                "messages": m["congest.messages"],
                "stitches": m["core.stitches"],
                "full_prepares": m["service.full_prepares"],
                "snapshot_bytes": m["resil.snapshot_bytes"]}
    if replayed != res["counters"]:
        b.problems.append("replay counters %s differ from the live "
                          "server's %s" % (replayed, res["counters"]))
    return m


def check_cold_counters(b, counters):
    """Every run of the same code must report the same cold-start counts."""
    ref = os.path.join(WORK_ROOT, "cold-start-counters-%s.json"
                       % source_digest())
    if os.path.exists(ref):
        with open(ref) as f:
            expected = json.load(f)
        if expected != counters:
            b.problems.append("cold-start counters %s differ from an earlier "
                              "run's %s" % (counters, expected))
    else:
        with open(ref, "w") as f:
            json.dump(counters, f)


# ------------------------------------------------------------------ main

def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def run(workload, args, drw, tool):
    """One workload: human-readable lines, then the JSON line. Returns the
    exit code: 0 when every check held."""
    workdir = os.path.join(WORK_ROOT, "%s-%d-%d" % (workload, args.seed,
                                                     os.getpid()))
    os.makedirs(workdir)
    b = Bench(workload, args.seed, args.seconds, workdir, drw, tool)
    try:
        res = {"cold-start": cold_start, "steady-mixed": steady_mixed,
               "durable-paths": durable_paths}[workload](b)
        if workload == "cold-start":
            check_cold_counters(b, res["counters"])
        layers = layer_metrics(b, res) if args.trace else None
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print("drwbench: %s (inputs kept in %s)" % (e, workdir),
              file=sys.stderr)
        return 1
    finally:
        b.cleanup()

    log("workload %s seed %d: drw --threads=%d --seed=%d" % (
        workload, args.seed, THREADS, PROGRAM_SEED))
    figures = dict(res["figures"])
    figures.update({"setup_s": res["e2e"]["setup_s"],
                  "first_walk_s": res["e2e"]["first_walk_s"],
                  "peak_rss_mb": res["e2e"]["peak_rss_mb"],
                  "failed_frac": b.failed / b.attempted})
    units = {"setup_s": "s", "first_walk_s": "s", "max_rate_rps": "1/s",
             "steps_per_s": "steps/s", "failed_frac": "frac",
             "peak_rss_mb": "MB"}
    for name in ("setup_s", "first_walk_s", "light_p50_ms", "light_tail_ms",
                 "heavy_p50_ms", "heavy_tail_ms", "max_rate_rps",
                 "paths_p50_ms", "paths_tail_ms", "steps_per_s",
                 "failed_frac", "peak_rss_mb"):
        value = figures.get(name)
        log("  %-14s %s" % (name, "n/a on this workload" if value is None
                            else "%s %s" % (fmt(value),
                                            units.get(name, "ms"))))
    for note in res.get("notes", []):
        log("  note: " + note)
    log("  samples: %s%s" % (res["samples"], "; tail = p%d" % TAIL_PCT[workload]
                             if workload in TAIL_PCT else ""))
    log("  counters: %s" % json.dumps(res["counters"], sort_keys=True))
    if args.trace:
        log("  spans: %s" % spans_path(b))
    for p in b.problems:
        log("  CHECK FAILED: " + p)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    values = layers if args.trace else res["e2e"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    correct = not b.problems
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        drw, tool = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("drwbench: build failed (%s); see %s/drwbench-build.log"
              % (e, BUILD), file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run(w, args, drw, tool) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
