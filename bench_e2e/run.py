#!/usr/bin/env python3
"""End-to-end benchmark of the qarm CLI: convert -> mine -> render -> serve.

Run from the repository root:

    python3 bench_e2e/run.py --workload rules-wide --seed 1 --seconds 36 \
        --trace 0

It builds `qarm` and the in-process probe from source into .bench_build/,
generates the workload's seeded financial table with `qarm gen`, and runs
the user's commands as subprocesses of the built binary:

    qarm convert --input=F.csv --schema=... --output=F.qbt ...
    qarm --input-qbt=F.qbt ... --format=csv --output-rules=F.qrs > F.csv
    qarm serve --rules=F.qrs --serve-threads=2 --cache-mb=64

the last under a query load over two keep-alive connections (50% /match,
30% /topk, 20% /rules over ~64K targets with Zipf(0.9) popularity): timed
closed-loop bursts, each also timed by the server's CPU-time clock, and in
the traced run also an open-loop rate ladder and a 200 qps reference rung.
Every workload runs the whole chain; they differ in the mining flags, so
each stresses different layers. Every output is checked: the QBT, QRS and
CSV of every run must equal (streaming SHA-256) what the library produces
in-process for the same input, and a fixed subset of served responses is
byte-compared with an uncached in-process RuleService.

--trace 0 prints the end-to-end metrics (untraced). --trace 1 runs the
same chain in-process with a span around every layer call, writes the
spans as Chrome Trace Event JSON under .bench_build/traces/, and prints
the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT, "cmake")
QARM = os.path.join(BUILD_DIR, "qarm")
PROBE = os.path.join(BUILD_DIR, "e2e_probe")

SCHEMA = ("monthly_income:quant,credit_limit:quant,current_balance:quant,"
          "ytd_balance:quant,ytd_interest:quant:double,"
          "employee_category:cat,marital_status:cat")

# 200K rows: the rule counts (set by the support thresholds, not the row
# count) keep the shape of the 500K-row Section 6 workload, and a run of
# one workload stays near 30 s.
RECORDS = 200_000
WIDE_CONVERT = "--k=3 --minsup=0.20"
WIDE_MINE = ("--minsup=0.20 --maxsup=0.45 --minconf=0.5 --interest=1.1 "
             "--threads=2")
DEEP_CONVERT = "--k=3 --minsup=0.16"
DEEP_MINE = "--minsup=0.16 --maxsup=0.45 --minconf=0.95 --threads=2"

WORKLOADS = {
    "rules-wide": dict(convert=WIDE_CONVERT, mine=WIDE_MINE),
    "itemsets-deep": dict(convert=DEEP_CONVERT, mine=DEEP_MINE),
}

# A run alternates BLOCKS blocks of mine repetitions with BLOCKS blocks of
# timed closed-loop serve bursts, so each metric's samples span the whole
# run rather than one stretch of it. MINE_SHARE of --seconds goes to the
# mine blocks and the rest to the bursts (at least MIN_BURSTS per block);
# the first CONVERT_REPS repetitions also time `qarm convert`.
# Wall-clock serve figures -- open-loop latencies (200 qps p50/p99), the
# rate ladder's highest passing rung and closed-loop throughput -- swing
# 20-80% between runs on a shared 4-vCPU host, which schedules the two ends
# of the loop, so they are per-layer figures of the traced run. The gated
# serve metric is the server's CPU time per request, which leaves out
# run-queue waits and (with paravirtual steal accounting) time the
# hypervisor takes away.
BLOCKS = 4
MIN_BURSTS = 2
MINE_SHARE = 0.6
CONVERT_REPS = 5
MIN_MINE_REPS = 2         # per block
MAX_MINE_REPS = 60
SERVE_THREADS = 2
CACHE_MB = 64
RUN_DEADLINE_S = 150      # stop repeating work past this point of a run

# Share of a traced mine span that no layer span or program phase timer
# covers (option set-up, decoding the frequent itemsets, freeing the
# result). More than this means a layer call is missing a span.
MAX_UNATTRIBUTED_SHARE = 0.10

# Deterministic for a given seed and source tree: any drift between runs
# is a failure (checked against .bench_build/exact/).
EXACT_COUNTERS = [
    "core.candidates", "core.frequent", "core.rules", "core.interesting",
    "storage.qbt_bytes", "storage.qrs_bytes", "core.render_bytes",
    "dist.bytes_sent", "dist.bytes_received",
]

END_TO_END_UNITS = {
    "setup_s": "s", "mine_s": "s", "peak_rss_mb": "MiB",
    "serve_peak_rss_mb": "MiB", "serve_cpu_us_per_req": "us",
}

PER_LAYER_UNITS = {
    "table.read_csv_s": "s",
    "partition.map_s": "s",
    "storage.write_qbt_s": "s", "storage.qbt_bytes": "bytes",
    "storage.open_s": "s", "storage.blocks_read": "count",
    "storage.bytes_read": "bytes", "storage.checksum_s": "s",
    "storage.write_qrs_s": "s", "storage.qrs_bytes": "bytes",
    "core.pass1_s": "s", "core.count_s": "s", "core.candgen_s": "s",
    "core.candidates": "count", "core.frequent": "count",
    "core.frequent_per_candidate": "ratio",
    "core.rulegen_s": "s", "core.rules": "count",
    "core.interest_s": "s", "core.interesting": "count",
    "core.interesting_per_rule": "ratio",
    "core.export_s": "s", "core.render_s": "s", "core.render_bytes": "bytes",
    "core.unattributed_s": "s",
    "index.counter_bytes": "bytes", "index.kernel_groups": "count",
    "index.hash_groups": "count",
    "dist.mine_s": "s", "dist.exchange_s": "s", "dist.merge_s": "s",
    "dist.bytes_sent": "bytes", "dist.bytes_received": "bytes",
    "dist.respawns": "count",
    "serve.catalog_load_s": "s", "serve.index_bytes": "bytes",
    "serve.handle_match_p50_ms": "ms", "serve.handle_match_p99_ms": "ms",
    "serve.handle_topk_p50_ms": "ms", "serve.handle_topk_p99_ms": "ms",
    "serve.handle_rules_p50_ms": "ms", "serve.handle_rules_p99_ms": "ms",
    "serve.cache_hit_ratio": "ratio", "serve.cache_evictions": "count",
    "serve.max_qps": "req/s", "serve.burst_qps": "req/s",
    "serve.p50_ms": "ms", "serve.p99_ms": "ms",
    "serve.gen_lateness_ms": "ms",
    "trace.mine_span_s": "s", "trace.cli_mine_s": "s",
}

# Spans of the traced mine, by the per-layer metric their self time feeds.
MINE_SPAN_METRICS = {
    "storage.open": "storage.open_s", "core.pass1": "core.pass1_s",
    "core.count": "core.count_s", "core.candgen": "core.candgen_s",
    "core.rulegen": "core.rulegen_s", "core.interest": "core.interest_s",
    "core.export": "core.export_s", "storage.write_qrs": "storage.write_qrs_s",
    "core.render": "core.render_s",
}
DIST_SPAN_METRICS = {
    "dist.mine": "dist.mine_s", "dist.exchange": "dist.exchange_s",
    "dist.merge": "dist.merge_s",
}


class BenchError(Exception):
    """A set-up step failed: the run cannot produce a result."""


class Run:
    """One benchmark invocation: its children, failure tally and log."""

    def __init__(self, workload, seed, seconds, trace):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.children = []
        self.work = os.path.join(
            OUT, "runs", "%s-seed%d-%d" % (workload, seed, os.getpid()))

    def elapsed(self):
        return time.monotonic() - self.started

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)
        print("# FAILED: " + what, flush=True)

    def path(self, name):
        return os.path.join(self.work, name)

    # -- processes ---------------------------------------------------------

    def spawn(self, argv, stdout=None, stderr=None):
        out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        err = open(stderr, "wb") if stderr else subprocess.DEVNULL
        try:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        finally:
            for f in (out, err):
                if f is not subprocess.DEVNULL:
                    f.close()
        self.children.append(proc)
        return proc

    def reap(self, proc, timeout=120):
        """Waits for `proc`; returns (exit code, peak RSS in MiB).

        wait4's rusage covers the child and every descendant it reaped, so
        a coordinator's figure includes its forked workers.
        """
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.001)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def timed(self, argv, stdout=None, stderr=None):
        """Runs argv to completion: (exit code, wall seconds, RSS MiB)."""
        start = time.perf_counter()
        proc = self.spawn(argv, stdout, stderr)
        code, rss = self.reap(proc)
        return code, time.perf_counter() - start, rss

    def must(self, argv, stdout=None, what=None):
        err = self.path("stderr.txt")
        code, _, _ = self.timed(argv, stdout, err)
        if code != 0:
            with open(err, "rb") as f:
                tail = f.read()[-2000:].decode("utf-8", "replace")
            raise BenchError("%s exited %d: %s" % (what or argv[0], code, tail))

    def stop_all(self):
        for proc in list(self.children):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.children.clear()


# -- helpers ----------------------------------------------------------------

def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(OUT, "build.log")
    with open(log, "ab") as out:
        steps = []
        if not any(os.path.exists(os.path.join(BUILD_DIR, f))
                   for f in ("build.ninja", "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "qarm",
                      "e2e_probe", "-j", str(os.cpu_count() or 2)])
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=out) != 0:
                with open(log, "rb") as f:
                    tail = f.read()[-3000:].decode("utf-8", "replace")
                raise BenchError("build failed (%s):\n%s" % (step[1], tail))


def source_tree_hash():
    """Digest of the sources the benchmark builds (the checkout need not be
    a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "bench_e2e", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            h.update(digest(p).encode())
    return h.hexdigest()[:16]


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def check_rules_csv(path, minsup, minconf, num_records, rules, interesting):
    """Independent sanity check of rendered rules against the paper's
    definitions: support >= minsup, confidence >= minconf, support =
    count / records. Streams the file. Returns a problem or None."""
    rows = flagged = 0
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != ["antecedent", "consequent", "support",
                                  "confidence", "count", "interesting"]:
            return "bad CSV header"
        for row in reader:
            rows += 1
            sup, conf, count = float(row[2]), float(row[3]), int(row[4])
            if sup < minsup - 5e-7 or conf < minconf - 5e-7:
                return "rule below minsup/minconf: %r" % (row,)
            if abs(count / num_records - sup) > 5e-7:
                return "support disagrees with count: %r" % (row,)
            flagged += row[5] == "true"
    if rows != rules or flagged != interesting:
        return "CSV has %d rules (%d interesting), library made %d (%d)" % (
            rows, flagged, rules, interesting)
    return None


def flag_value(flags, name):
    for word in flags.split():
        if word.startswith("--%s=" % name):
            return float(word.split("=", 1)[1])
    raise KeyError(name)


def check_exact(run, values):
    """Compares deterministic counters and digests with the first run of
    this workload, seed and source tree in this checkout."""
    path = os.path.join(OUT, "exact", "%s-seed%d-%s.json" % (
        run.name, run.seed, run.tree))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    run.attempted += 1
    drift = {k: (known[k], v) for k, v in values.items()
             if k in known and known[k] != v}
    if drift:
        run.fail("exact counters drifted between runs of seed %d: %r" % (
            run.seed, drift))
    known.update({k: v for k, v in values.items() if k not in known})
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


# -- steps ------------------------------------------------------------------

def reference(run, traced):
    """The in-process pipeline: ref.{qbt,qrs,csv} and its counters."""
    argv = [PROBE, "pipeline", "--csv=" + run.path("input.csv"),
            "--dir=" + run.work, "--workload=" + run.name,
            "--convert=--schema=%s %s" % (SCHEMA, run.spec["convert"]),
            "--mine=" + run.spec["mine"], "--seed=%d" % run.seed]
    if traced:
        argv.append("--trace=" + run.path("trace.json"))
    run.must(argv, stdout=run.path("probe.json"), what="probe pipeline")
    with open(run.path("probe.json")) as f:
        ref = json.loads(f.read().strip().splitlines()[-1])
    run.host.update(ref["host"])
    ref["digests"] = {ext: digest(run.path("ref." + ext))
                      for ext in ("qbt", "qrs", "csv")}
    problem = check_rules_csv(
        run.path("ref.csv"), flag_value(run.spec["mine"], "minsup"),
        flag_value(run.spec["mine"], "minconf"), RECORDS,
        ref["rules"], ref["interesting"])
    run.attempted += 1
    if problem:
        run.fail("reference rules: " + problem)
    return ref


def cli_convert(run, ref):
    argv = [QARM, "convert", "--input=" + run.path("input.csv"),
            "--schema=" + SCHEMA, "--output=" + run.path("cli.qbt")]
    argv += run.spec["convert"].split()
    code, wall, _ = run.timed(argv, stderr=run.path("stderr.txt"))
    run.attempted += 1
    if code != 0:
        run.fail("qarm convert exited %d" % code)
        return None
    if digest(run.path("cli.qbt")) != ref["digests"]["qbt"]:
        run.fail("qarm convert wrote a QBT that differs from the library's")
        return None
    return wall


def cli_mine(run, ref):
    argv = [QARM, "--input-qbt=" + run.path("cli.qbt")]
    argv += run.spec["mine"].split()
    argv += ["--format=csv", "--output-rules=" + run.path("cli.qrs")]
    code, wall, rss = run.timed(argv, stdout=run.path("cli.csv"),
                                stderr=run.path("stderr.txt"))
    run.attempted += 1
    if code != 0:
        run.fail("qarm mine exited %d" % code)
        return None
    for ext in ("csv", "qrs"):
        if digest(run.path("cli." + ext)) != ref["digests"][ext]:
            run.fail("qarm mine %s differs from the library's" % ext)
            return None
    return wall, rss


def mine_reps(run, ref, budget, setups, mines, rsses):
    """Repeats the mine for `budget` seconds (at least MIN_MINE_REPS
    times), appending to the sample lists; the first CONVERT_REPS
    repetitions of the run convert afresh first."""
    start = time.monotonic()
    done = len(mines)
    while len(mines) < MAX_MINE_REPS and run.elapsed() < RUN_DEADLINE_S:
        if (len(mines) - done >= MIN_MINE_REPS
                and time.monotonic() - start >= budget):
            break
        if len(setups) < CONVERT_REPS:
            wall = cli_convert(run, ref)
            if wall is None:
                break
            setups.append(wall)
        result = cli_mine(run, ref)
        if result is None:
            break
        mines.append(result[0])
        rsses.append(result[1])
    if len(mines) == done:
        raise BenchError("no mine completed: %s" % "; ".join(run.problems))


def http_ok(port, target):
    """One GET on a fresh connection, closed after the reply (the server
    gives each of its threads one connection at a time)."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(b"GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      b"Connection: close\r\n\r\n" % target.encode())
            return s.recv(64).startswith(b"HTTP/1.1 200")
    except OSError:
        return False


def launch_server(run, qrs):
    """Starts `qarm serve`; returns (process, port) once it answers."""
    port_file = run.path("port.txt")
    if os.path.exists(port_file):
        os.remove(port_file)
    argv = [QARM, "serve", "--rules=" + qrs, "--port=0",
            "--port-file=" + port_file,
            "--serve-threads=%d" % SERVE_THREADS, "--cache-mb=%d" % CACHE_MB]
    proc = run.spawn(argv, stderr=run.path("serve.err"))
    run.attempted += 1
    deadline = time.monotonic() + 60
    while not os.path.exists(port_file):
        if proc.poll() is not None or time.monotonic() > deadline:
            run.stop_all()
            raise BenchError("qarm serve did not start")
        time.sleep(0.0005)
    with open(port_file) as f:
        port = int(f.read())
    # /healthz takes one of the server's threads for a one-shot connection
    # that is closed right after, freeing it for the load's connections.
    if not http_ok(port, "/healthz"):
        run.stop_all()
        raise BenchError("qarm serve did not answer /healthz")
    return proc, port


def stop_server(run, proc):
    proc.send_signal(signal.SIGTERM)
    code, rss = run.reap(proc, timeout=30)
    run.attempted += 1
    if code != 0:
        run.fail("qarm serve exited %d on SIGTERM" % code)
    return rss


def serve_load(run, server, qrs, warmup, min_bursts, burst_seconds=0.0,
               traced=False, salt=0):
    """One probe load against the server (process, port): an optional
    cache warm-up and timed closed-loop bursts (at least `min_bursts`,
    and until `burst_seconds` are spent); the traced run adds the rate
    ladder and the reference rung."""
    proc, port = server
    argv = [PROBE, "load", "--port=%d" % port, "--qrs=" + qrs,
            "--seed=%d" % run.seed, "--pick-salt=%d" % salt,
            "--server-pid=%d" % proc.pid, "--min-bursts=%d" % min_bursts,
            "--burst-seconds=%g" % burst_seconds,
            "--warmup=%d" % int(warmup)]
    if traced:
        argv.append("--traced")
    run.must(argv, stdout=run.path("load.json"), what="probe load")
    with open(run.path("load.json")) as f:
        load = json.loads(f.read().strip().splitlines()[-1])
    run.attempted += load["attempted"]
    mismatched = sum(r["mismatched"] for r in load["rungs"])
    checked = sum(r["checked"] for r in load["rungs"])
    print("# serve: %d requests, %d failed, %d of %d checked responses "
          "differ from the uncached library" % (
              load["attempted"], load["failed"], mismatched, checked))
    if load["failed"]:
        run.fail("%d of %d requests failed (%d wrong bytes)" % (
            load["failed"], load["attempted"], mismatched))
        run.failed += load["failed"] - 1
    return load


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- the two kinds of run ---------------------------------------------------

def untraced(run):
    ref = reference(run, traced=False)
    qrs = run.path("ref.qrs")
    server = launch_server(run, qrs)
    setups, mines, rsses = [], [], []
    qps, cpu_us = [], []
    for block in range(BLOCKS):
        mine_reps(run, ref, run.seconds * MINE_SHARE / BLOCKS, setups, mines,
                  rsses)
        load = serve_load(run, server, qrs, warmup=block == 0,
                          min_bursts=MIN_BURSTS,
                          burst_seconds=run.seconds * (1 - MINE_SHARE) / BLOCKS,
                          salt=100000 * block)
        qps += load["burst_qps"]
        cpu_us += load["burst_cpu_us_per_req"]
    server_rss = stop_server(run, server[0])
    check_exact(run, {
        "core.rules": ref["rules"], "core.interesting": ref["interesting"],
        "storage.qbt_bytes": ref["qbt_bytes"],
        "storage.qrs_bytes": ref["qrs_bytes"],
        "core.render_bytes": ref["render_bytes"],
        "digests": ref["digests"]})

    values = {
        "setup_s": statistics.median(setups),
        "mine_s": statistics.median(mines),
        "peak_rss_mb": statistics.median(rsses),
        "serve_peak_rss_mb": server_rss,
        "serve_cpu_us_per_req": statistics.median(cpu_us),
    }
    print("# %s seed %d: %d mine reps; closed-loop bursts %s req/s, "
          "server CPU %s us/req" % (
              run.name, run.seed, len(mines), [round(v) for v in qps],
              [round(v, 1) for v in cpu_us]))
    print("# samples: setup_s %s mine_s %s" % (
        [round(v, 4) for v in setups], [round(v, 4) for v in mines]))
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def traced(run):
    ref = reference(run, traced=True)
    for ext in ("qrs", "csv"):
        run.attempted += 1
        if digest(run.path("dist." + ext)) != ref["digests"][ext]:
            run.fail("MineDistributedQbt %s differs from the in-process "
                     "mine's" % ext)
    cli_wall = None
    if cli_convert(run, ref) is not None:
        result = cli_mine(run, ref)
        cli_wall = result[0] if result else None
    server = launch_server(run, run.path("ref.qrs"))
    load = serve_load(run, server, run.path("ref.qrs"), warmup=True,
                      min_bursts=1, traced=True)
    stop_server(run, server[0])

    self_s = ref["self_s"]
    values = {
        "table.read_csv_s": self_s["convert"]["table.read_csv"],
        "partition.map_s": self_s["convert"]["partition.map"],
        "storage.write_qbt_s": self_s["convert"]["storage.write_qbt"],
        "storage.qbt_bytes": ref["qbt_bytes"],
        "storage.blocks_read": ref["blocks_read"],
        "storage.bytes_read": ref["bytes_read"],
        "storage.checksum_s": ref["checksum_s"],
        "storage.qrs_bytes": ref["qrs_bytes"],
        "core.candidates": ref["candidates"],
        "core.frequent": ref["frequent"],
        "core.frequent_per_candidate": ref["frequent"] / ref["candidates"],
        "core.rules": ref["rules"],
        "core.interesting": ref["interesting"],
        "core.interesting_per_rule": ref["interesting"] / ref["rules"],
        "core.render_bytes": ref["render_bytes"],
        "core.unattributed_s": ref["roots"]["mine"]["unattributed_s"],
        "index.counter_bytes": ref["counter_bytes"],
        "index.kernel_groups": ref["kernel_groups"],
        "index.hash_groups": ref["hash_groups"],
        "dist.bytes_sent": ref["dist_bytes_sent"],
        "dist.bytes_received": ref["dist_bytes_received"],
        "dist.respawns": ref["dist_respawns"],
        "serve.catalog_load_s": self_s["serve"]["serve.catalog_load"],
        "serve.index_bytes": ref["index_bytes"],
        "serve.cache_evictions": load.get("cache_evictions", 0),
        "serve.cache_hit_ratio": load.get("cache_hits", 0) / max(
            1, load.get("cache_hits", 0) + load.get("cache_misses", 0)),
        "serve.max_qps": load["max_qps"],
        "serve.burst_qps": load["burst_qps"][0],
        "serve.p50_ms": load["ref_p50_ms"],
        "serve.p99_ms": load["ref_p99_ms"],
        "serve.gen_lateness_ms": load["ref_lateness_p99_ms"],
        "trace.mine_span_s": ref["roots"]["mine"]["total_s"],
        "trace.cli_mine_s": cli_wall if cli_wall is not None else 0.0,
    }
    for endpoint in ("match", "topk", "rules"):
        for q in ("p50", "p99"):
            values["serve.handle_%s_%s_ms" % (endpoint, q)] = ref.get(
                "handle_%s_%s_ms" % (endpoint, q), 0.0)
    # Layer self times: the mining layers from the in-process mine (the
    # workload's CLI command), dist from the forked-worker mine.
    for span, name in MINE_SPAN_METRICS.items():
        values[name] = self_s["mine"].get(span, 0.0)
    for span, name in DIST_SPAN_METRICS.items():
        values[name] = self_s["mine.dist"].get(span, 0.0)

    # A mine span's layer self times plus its unattributed time add up to
    # the span by construction; that is printed, not checked. What is
    # checked compares two clocks: the probe's spans and the program's own
    # phase timers (core.pass1/candgen/rulegen/interest from MiningStats,
    # dist.exchange/merge from DistRunStats). A negative self time means
    # those timers claim more than the wall time around them, and an
    # unattributed share above MAX_UNATTRIBUTED_SHARE means a layer call
    # went unspanned.
    for name in ("mine", "mine.dist"):
        root = ref["roots"][name]
        spans = {k: v for k, v in self_s[name].items() if k != name}
        layer_sum = sum(spans.values())
        share = root["unattributed_s"] / root["total_s"]
        negative = {k: v for k, v in spans.items() if v < -1e-6}
        run.attempted += 1
        if negative or root["unattributed_s"] < -1e-6:
            run.fail("%s: phase timers exceed the spans around them: %r" % (
                name, dict(negative, unattributed=root["unattributed_s"])))
        elif share > MAX_UNATTRIBUTED_SHARE:
            run.fail("%s: %.1f%% of the span is unattributed (limit %.0f%%)"
                     % (name, 100 * share, 100 * MAX_UNATTRIBUTED_SHARE))
        top = sorted(((v, k) for k, v in spans.items()), reverse=True)[:4]
        print("# %s span %.4f s = layer self times %.4f s + unattributed "
              "%.4f s (%.1f%%); top layers: %s" % (
                  name, root["total_s"], layer_sum, root["unattributed_s"],
                  100 * share,
                  ", ".join("%s %.3fs" % (k, v) for v, k in top)))
    print("# untraced CLI mine: %s s" % (
        "%.4f" % cli_wall if cli_wall is not None else "n/a"))

    check_exact(run, dict({k: values[k] for k in EXACT_COUNTERS},
                          digests=ref["digests"]))
    with open(run.path("trace.json")) as f:
        chrome = json.load(f)
    chrome["otherData"].update(run.host)
    chrome["otherData"]["seed"] = run.seed
    trace_dir = os.path.join(OUT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (
        run.name, run.seed))
    with open(trace_path, "w") as f:
        json.dump(chrome, f)
    print("# trace: " + os.path.relpath(trace_path, ROOT))
    return {k: metric(v, PER_LAYER_UNITS[k]) for k, v in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run = Run(args.workload, args.seed, args.seconds, args.trace == 1)
    try:
        build()
        run.started = time.monotonic()  # the first run also builds
        shutil.rmtree(run.work, ignore_errors=True)
        os.makedirs(run.work)
        run.tree = source_tree_hash()
        run.host = {"nproc": os.cpu_count(), "commit": commit(),
                    "source_tree": run.tree}
        run.must([QARM, "gen", "--output=" + run.path("input.csv"),
                  "--records=%d" % RECORDS,
                  "--seed=%d" % args.seed], what="qarm gen")
        metrics = traced(run) if run.trace else untraced(run)
    except BenchError as e:
        print("bench_e2e: %s" % e, file=sys.stderr)
        return 1
    finally:
        run.stop_all()
        shutil.rmtree(run.work, ignore_errors=True)

    print("# host: %s" % json.dumps(run.host, sort_keys=True))
    for name, m in metrics.items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    print("failed_frac %.6g ratio (%d of %d operations failed)" % (
        run.failed / max(1, run.attempted), run.failed, run.attempted))
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
