#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of the dcprof tools.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload W --quick [--trace 0|1]
  python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json
  python3 perfbench/run.py --write-references

Every run builds dcprof from source first (Release, a no-op once built) into
.bench_build/, then drives one workload as a closed loop: this single
process runs one command-line tool at a time and waits for it. With
--trace 0 it times the tools (end-to-end metrics); with --trace 1 it runs
the traced pass through perfbench_trace instead (per-layer metrics). Every
output is checked against the deterministic reference outputs in
perfbench/references.json; a mismatch or a non-zero exit fails the
operation and names the output. The last stdout line is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the full result (host stamp, samples, failures) is also written to
.bench_build/results/. README.md in this directory gives the rationale.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
REFERENCES = os.path.join(BENCH_DIR, "references.json")
BUILD_TYPE = "Release"
TOOLS = ("dcprof_measure", "dcprof_analyze", "dcprof_ingestd")
TRACER = "perfbench_trace"

# sweep3d is not in BENCHMARK.json (its runs did not hold steady on a
# 4-core host, README.md) but stays runnable by hand: it is the only
# workload that exercises rt::Cluster.
WORKLOADS = ("streamcluster", "lulesh", "sweep3d", "fleet")
# Case studies whose measurements fill the fleet corpus, and the one whose
# structure file the corpus carries (it is written once).
FLEET_CASES = ("amg", "lulesh", "streamcluster", "nw")
FLEET_STRUCTURE = "lulesh"
FLEET_SLOTS = 625  # rank slots x 16 thread shards = 10,000 shards
FLEET_LAYOUTS = 16  # the seed picks one of this many slot layouts
THREADS = 16  # dcprof_measure's default team size
THREADED_CASES = ("amg", "lulesh", "streamcluster", "nw")

# Repetitions. Host speed drifts by up to ~1.8x over tens of seconds (see
# README.md), so set-up repeats and the traced pass interleaves its ways.
SETUP_REPS = {"fleet": 2}
SETUP_REPS_DEFAULT = 3
TRACE_REPS = 3
# Shards in a case study's corpus: one measurement's 16 (sweep3d: 8)
# shards replicated into a 1,024-shard job. Folding one measurement alone
# takes ~3 ms, mostly process start and one fsync.
CORPUS_SHARDS = 1024
# (analyze, ingest) runs over the corpus per timed iteration: as many as
# the iteration affords, since ingest's checkpoint fsyncs make it the
# noisiest step. A case corpus folds in tens of milliseconds, the fleet's
# in ~0.5 s, and a lulesh iteration is long (its analyze_s is the what-if).
CORPUS_STEPS = {"streamcluster": (3, 3), "sweep3d": (3, 3), "lulesh": (0, 8),
                "fleet": (1, 2)}

WHATIF_HEADER = "== what-if: predicted payoff (exact re-runs of lulesh) ==\n"


def log(msg):
    print(msg, flush=True)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dir_digest(path):
    """Digest of a measurement directory: every file's name and bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            h.update(name.encode() + b"\0")
            h.update(sha256_file(full).encode())
    return h.hexdigest()


def views_digest(stdout):
    """Digest of dcprof_analyze's views: everything after the header lines
    (which carry the directory path and stage timings)."""
    _, sep, views = stdout.partition("\n\n")
    return hashlib.sha256(views.encode()).hexdigest() if sep else "no views"


def whatif_table(stdout):
    _, sep, table = stdout.partition(WHATIF_HEADER)
    return table if sep else "no what-if table"


def median(values):
    return statistics.median(values) if values else 0.0


def best(values):
    return min(values) if values else 0.0


def shuffled(items, seed):
    """Fisher-Yates shuffle driven by splitmix64: the same seed gives the
    same order on every Python version."""
    items = list(items)
    state = seed & 0xFFFFFFFFFFFFFFFF

    def nxt():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    for i in range(len(items) - 1, 0, -1):
        j = nxt() % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def fleet_layout(seed):
    """The seed's slot layout: which case study fills each rank slot. Every
    case fills the same number of slots, so corpus size never varies."""
    layout = seed % FLEET_LAYOUTS
    slots = [FLEET_CASES[i % len(FLEET_CASES)] for i in range(FLEET_SLOTS)]
    return layout, shuffled(slots, layout)


class NotRun(Exception):
    """The workload could not run at all (reported, never skipped)."""


def run_process(argv, out_path):
    """Runs one process to completion; stdout goes to out_path, stderr to
    out_path.err. Returns (exit code, wall seconds)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        try:
            rc = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return rc, time.perf_counter() - t0


def run_tool(argv, out_path):
    """Runs one tool through perfbench_trace's launcher, which times it and
    reads its peak RSS with wait4 (a child of this Python process would
    report at least this process's RSS). Returns (exit code, wall seconds,
    peak RSS in MiB)."""
    usage = out_path + ".usage"
    rc, _ = run_process([binary(TRACER), usage, "0", "spawn", *argv],
                        out_path)
    if rc != 0:
        return rc, 0.0, 0.0
    with open(usage) as f:
        u = json.load(f)
    return u["exit"], u["wall_s"], u["maxrss_kib"] / 1024.0


def build():
    """Configures and builds the tools and the tracer from source."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise NotRun("no dcprof sources next to perfbench/")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    logf = os.path.join(BUILD_ROOT, "build.log")
    configure = ["cmake", "-S", ROOT, "-B", CMAKE_DIR,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                 "-DCMAKE_PROJECT_INCLUDE=" +
                 os.path.join(BENCH_DIR, "build.cmake")]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [] if os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")) \
        else [configure]
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                  *TOOLS, TRACER])
    with open(logf, "ab") as out:
        for argv in steps:
            if subprocess.run(argv, stdout=out, stderr=out,
                              cwd=ROOT).returncode != 0:
                raise NotRun("build failed (see %s)" % logf)


def binary(name):
    path = os.path.join(CMAKE_DIR, "tools", name)
    if name == TRACER:
        path = os.path.join(CMAKE_DIR, name)
    if not os.access(path, os.X_OK):
        raise NotRun("missing binary " + path)
    return path


def stamp():
    """Host and build identity of a result. Results are comparable only
    when everything but the revision matches."""
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
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "compiler": compiler,
        "revision": revision(),
    }


def revision():
    """The git revision when the tree is a git checkout, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
            if "__pycache__" not in d)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            h.update(sha256_file(p).encode())
    return "tree-" + h.hexdigest()[:16]


class Op:
    """One attempted operation: a tool run and the checks on its outputs."""

    def __init__(self, bench, label):
        self.bench = bench
        self.label = label
        self.errors = []

    def check(self, output, got, want):
        if got != want:
            self.errors.append("%s differs from the det reference "
                               "(got %r, want %r)" % (output, got, want))

    def __enter__(self):
        return self

    def __exit__(self, etype, exc, tb):
        if etype is not None and not issubclass(etype, Exception):
            return False
        if exc is not None:
            if isinstance(exc, NotRun):
                return False
            self.errors.append("%s: %s" % (etype.__name__, exc))
        self.bench.attempted += 1
        if self.errors:
            self.bench.failed += 1
            for e in self.errors:
                self.bench.failures.append("%s: %s" % (self.label, e))
                log("FAILED %s: %s" % (self.label, e))
        return True

    @property
    def ok(self):
        return not self.errors


class Bench:
    def __init__(self, workload, seed, seconds, quick, refs):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.refs = refs
        self.work = os.path.join(BUILD_ROOT, "work",
                                 "%s-%d" % (workload, os.getpid()))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}
        self.runs = 0
        self.events = []
        self.layout = None
        self.corpus = None
        self.timing = False  # inside the timed loop: record peak RSS

    # --- tools ---------------------------------------------------------

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def tool(self, op, argv, sample=None):
        """Runs a CLI as part of `op`; returns its stdout (None on a
        non-zero exit). Its wall time goes to `sample` when it succeeds."""
        out = self.path("out-%d.txt" % self.attempted)
        rc, wall, rss = run_tool(argv, out)
        with open(out, errors="replace") as f:
            stdout = f.read()
        if rc != 0:
            with open(out + ".err", errors="replace") as f:
                tail = f.read()[-300:].strip()
            op.errors.append("%s exited %d: %s" % (
                os.path.basename(argv[0]), rc, tail))
            return None
        if sample:
            self.samples.setdefault(sample, []).append(wall)
            if self.timing:
                self.samples.setdefault("peak_rss_mb", []).append(rss)
        return stdout

    def unit(self, op, *args):
        """Runs one perfbench_trace unit; returns its report (None on
        failure), with the unit's process wall time as report['wall']."""
        self.runs += 1
        js = self.path("unit-%d.json" % self.runs)
        argv = [binary(TRACER), js, str(self.runs), *args]
        rc, wall = run_process(argv, js + ".out")
        if rc != 0:
            with open(js + ".out.err", errors="replace") as f:
                op.errors.append("perfbench_trace %s exited %d: %s" % (
                    args[0], rc, f.read()[-300:].strip()))
            return None
        with open(js) as f:
            report = json.load(f)
        report["wall"] = wall
        self.events.extend(report["traceEvents"])
        return report

    def aggregate_digest(self, op, checkpoint):
        merged = self.path("aggregate.bin")
        if self.unit(op, "aggregate", checkpoint, merged) is None:
            return None
        return sha256_file(merged)

    # --- the user path -------------------------------------------------

    def measure(self, case, d, sample="measure_s"):
        shutil.rmtree(d, ignore_errors=True)
        with Op(self, "dcprof_measure " + case) as op:
            out = self.tool(op, [binary("dcprof_measure"), case, d], sample)
            if out is not None:
                self.check_measurement(op, case, d, out)
        return op.ok

    def check_measurement(self, op, case, d, stdout):
        ref = self.refs["cases"][case]
        if case in THREADED_CASES:
            m = re.search(r"^%s: (\d+) simulated cycles, checksum (\S+)$" %
                          case, stdout, re.M)
            op.check(case + ".cycles", int(m.group(1)) if m else None,
                     ref["cycles"])
            op.check(case + ".checksum", m.group(2) if m else None,
                     ref["checksum"])
        op.check(case + ".measurement_dir", dir_digest(d), ref["dir_sha256"])

    def analyze(self, case, d):
        argv = [binary("dcprof_analyze"), d]
        if case == "lulesh":
            argv += ["--whatif", "lulesh", "--whatif-top", "3"]
        with Op(self, " ".join(["dcprof_analyze", case] + argv[2:])) as op:
            out = self.tool(op, argv, "analyze_s")
            if out is not None and case == "lulesh":
                op.check("lulesh.whatif_table", whatif_table(out),
                         self.refs["cases"]["lulesh"]["whatif_table"])
            elif out is not None:
                op.check(case + ".views", views_digest(out),
                         self.ref_for(case)["views_sha256"])

    def ingest(self, case, d):
        with Op(self, "dcprof_ingestd " + case) as op:
            out = self.tool(op, [binary("dcprof_ingestd"), d, "--drain",
                                 "--idle-polls", "1"], "ingest_s")
            if out is not None:
                op.check(case + ".ingest_aggregate",
                         self.aggregate_digest(
                             op, os.path.join(d, "ingest.dcck")),
                         self.ref_for(case)["aggregate_sha256"])

    def ref_for(self, case):
        """References of the corpus the workload analyzes and ingests."""
        if case == "fleet":
            return self.refs["fleet"]["layouts"][str(self.layout)]
        return self.refs["cases"][case]["corpus"]

    # --- corpora -------------------------------------------------------

    def build_corpus(self, slots, structure):
        """A job of len(slots) ranks: slot s holds a copy of the shards
        measured for slots[s], its ranks renumbered after the slots before
        it. The structure file is written once, from `structure`."""
        corpus = self.path("corpus")
        shutil.rmtree(corpus, ignore_errors=True)
        os.makedirs(corpus)
        rank = 0
        for case in slots:
            src = self.path("src-" + case)
            shards = [(int(r), int(t), name) for name in os.listdir(src)
                      for r, t in re.findall(r"^profile-(\d+)-(\d+)\.dcpf$",
                                             name)]
            for r, t, name in shards:
                shutil.copyfile(
                    os.path.join(src, name),
                    os.path.join(corpus, "profile-%d-%d.dcpf" % (rank + r, t)))
            rank += 1 + max(r for r, _, _ in shards)
        shutil.copyfile(
            os.path.join(self.path("src-" + structure), "structure.dcst"),
            os.path.join(corpus, "structure.dcst"))
        return corpus

    def case_corpus(self, case):
        shards = len([n for n in os.listdir(self.path("src-" + case))
                      if n.endswith(".dcpf")])
        return self.build_corpus([case] * (CORPUS_SHARDS // shards), case)

    @staticmethod
    def restore(d):
        """Puts claimed shards back and drops the daemon's checkpoint."""
        claimed = os.path.join(d, "ingested")
        if os.path.isdir(claimed):
            for name in os.listdir(claimed):
                os.rename(os.path.join(claimed, name), os.path.join(d, name))
            os.rmdir(claimed)
        for name in os.listdir(d):
            if name.startswith("ingest.dcck"):
                os.remove(os.path.join(d, name))

    # --- set-up --------------------------------------------------------

    def setup_once(self):
        """One set-up: the inputs the timed loop needs, checked."""
        if self.workload == "fleet":
            self.layout, slots = fleet_layout(self.seed)
            for case in FLEET_CASES:
                self.setup_measure(case, "measure_s")
            self.corpus = self.build_corpus(slots, FLEET_STRUCTURE)
        else:
            # One checked measurement, replicated into a job of 1,024
            # shards for the analyze and ingest steps to fold (its bytes
            # equal every timed run's, which each run checks).
            self.setup_measure(self.workload, None)
            self.corpus = self.case_corpus(self.workload)

    def setup_measure(self, case, sample):
        """A mismatching output counts as a failed operation; no output at
        all means the workload cannot run."""
        d = self.path("src-" + case)
        if not self.measure(case, d, sample) and \
                not os.path.isfile(os.path.join(d, "structure.dcst")):
            raise NotRun("set-up measurement of %s failed" % case)

    def setup(self, reps):
        times = []
        for _ in range(reps):
            # Deleting the last rep's corpus is not set-up work.
            shutil.rmtree(self.path("corpus"), ignore_errors=True)
            t0 = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - t0)
        self.samples["setup_s"] = times

    # --- end-to-end ----------------------------------------------------

    def iteration(self, i):
        case = self.workload
        if case != "fleet":
            d = self.path("run-%d" % i)
            # The what-if run takes ~7 s, so lulesh measures twice per
            # iteration to sample measure_s more than three times a run.
            for _ in range(2 if case == "lulesh" else 1):
                self.measure(case, d)
            if case == "lulesh":
                self.analyze(case, d)  # the --whatif run on this output
            shutil.rmtree(d, ignore_errors=True)
        analyzes, ingests = CORPUS_STEPS[case]
        for _ in range(analyzes):
            self.analyze(case, self.corpus)
        for _ in range(ingests):
            self.ingest(case, self.corpus)
            self.restore(self.corpus)

    def end_to_end(self):
        self.setup(1 if self.quick else
                   SETUP_REPS.get(self.workload, SETUP_REPS_DEFAULT))
        t0 = time.perf_counter()
        i = 0
        self.timing = True
        while i == 0 or (not self.quick and
                         time.perf_counter() - t0 < self.seconds):
            self.iteration(i)
            i += 1
        self.timing = False
        log("timed loop: %d iterations in %.2f s" %
            (i, time.perf_counter() - t0))
        # Timed metrics are the run's fastest sample: host speed alternates
        # between a fast phase and one ~1.5x slower, each lasting 10-15 s
        # (README.md), so a median reads the phase mix while the fastest
        # sample reads the uncontended speed.
        metrics = {name: best(self.samples.get(name, []))
                   for name in ("measure_s", "analyze_s", "ingest_s")}
        metrics["setup_s"] = median(self.samples["setup_s"])
        metrics["peak_rss_mb"] = max(self.samples.get("peak_rss_mb", [0]))
        if self.workload == "fleet" and metrics["analyze_s"] and \
                metrics["ingest_s"]:
            shards = FLEET_SLOTS * THREADS
            log("fold_shards_per_s %.0f, ingest_shards_per_s %.0f "
                "(%d shards)" % (shards / metrics["analyze_s"],
                                 shards / metrics["ingest_s"], shards))
        return metrics

    # --- traced pass ---------------------------------------------------

    def traced(self, layer_names):
        self.setup(1)
        reps = 1 if self.quick else TRACE_REPS
        runs, whatif, folds, ingests = {}, None, [], []
        if self.workload != "fleet":
            runs, full_dir = self.traced_runs(reps)
            if self.workload == "lulesh" and full_dir:
                with Op(self, "traced whatif lulesh") as op:
                    whatif = self.unit(op, "whatif", "lulesh", full_dir)
                    if whatif is not None:
                        op.check("lulesh.whatif_table",
                                 whatif["texts"]["whatif_table"],
                                 self.refs["cases"]["lulesh"]["whatif_table"])
        self.traced_fold_ingest(self.corpus, reps, folds, ingests)
        return LayerMetrics(self, layer_names).compute(runs, whatif, folds,
                                                       ingests)

    def traced_runs(self, reps):
        """The case study run three ways (no PMU, PMU counting with the tool
        detached, full profiling), plus full profiling with telemetry on and
        the untraced dcprof_measure, interleaved so host drift hits every
        way alike."""
        case = self.workload
        ref = self.refs["cases"][case]
        ways = ["bare", "pmu", "full", "metrics", "cli"]
        runs = {w: [] for w in ways}
        full_dir = None
        for r in range(reps):
            for way in ways[r % len(ways):] + ways[:r % len(ways)]:
                d = self.path("traced-%s-%d" % (way, r))
                if way == "cli":
                    self.measure(case, d, sample="cli_measure_s")
                    continue
                args = ["run", case, "full" if way == "metrics" else way, d]
                if way == "metrics":
                    args.append("metrics-on")
                with Op(self, "traced %s %s" % (way, case)) as op:
                    report = self.unit(op, *args)
                    if report is not None:
                        op.check(case + ".cycles",
                                 int(report["counts"]["sim.cycles"]),
                                 ref["cycles"])
                        op.check(case + ".checksum",
                                 report["texts"]["checksum"], ref["checksum"])
                        if args[2] == "full":
                            op.check(case + ".measurement_dir",
                                     dir_digest(d), ref["dir_sha256"])
                if op.ok:
                    runs[way].append(report)
                    if way == "full":
                        full_dir = d
        return runs, full_dir

    def traced_fold_ingest(self, d, reps, folds, ingests):
        """Batch fold and daemon ingest of the corpus, each required to
        produce the reference aggregate; on the fleet the untraced batch
        analyze is interleaved to measure the tracing overhead."""
        case = self.workload
        want = self.ref_for(case)["aggregate_sha256"]
        merged = self.path("merged.bin")
        for _ in range(reps):
            with Op(self, "traced fold " + case) as op:
                report = self.unit(op, "fold", d, merged)
                if report is not None:
                    op.check(case + ".batch_aggregate", sha256_file(merged),
                             want)
            if op.ok:
                folds.append(report)
            if case == "fleet":
                self.analyze(case, d)
            with Op(self, "traced ingest " + case) as op:
                report = self.unit(op, "ingest", d,
                                   os.path.join(d, "ingest.dcck"), merged)
                if report is not None:
                    op.check(case + ".ingest_aggregate", sha256_file(merged),
                             want)
            self.restore(d)
            if op.ok:
                ingests.append(report)

    def write_trace(self, path):
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, f)


def spans(report, name):
    return [e for e in report["traceEvents"] if e["name"] == name]


def dur(report, name):
    """Total seconds of the report's spans called `name`."""
    return sum(e["dur"] for e in spans(report, name)) / 1e6


def run_s(report):
    """The simulated execution of one traced run: workload.run, or the
    whole cluster less its ranks' write-outs for the MPI case study."""
    if spans(report, "cluster.run"):
        return dur(report, "cluster.run") - dur(report,
                                                "core.write_measurements")
    return dur(report, "workload.run")


def paired(traced, untraced):
    """Median ratio of traced to untraced samples taken side by side in
    each repetition, so host drift between repetitions cancels."""
    return median([t / u for t, u in zip(traced, untraced) if u])


def frac(counts, hits, misses):
    h, m = counts.get(hits, 0), counts.get(misses, 0)
    return h / (h + m) if h + m else 0


class LayerMetrics:
    """Per-layer metrics from the traced pass. Layers a workload does not
    exercise read 0."""

    def __init__(self, bench, names):
        self.bench = bench
        self.m = {name: 0.0 for name in names}
        self.coverage = []

    def compute(self, runs, whatif, folds, ingests):
        if runs.get("full"):
            self.simulation(runs)
        if whatif:
            self.whatif(whatif)
        if folds:
            self.fold(folds)
        if ingests:
            self.ingest(ingests)
        if self.coverage:
            self.m["trace.child_coverage"] = min(v for _, v in self.coverage)
            for what, v in self.coverage:
                self.check("child spans cover " + what, v, 0.9, None)
        return self.m

    def simulation(self, runs):
        m, full = self.m, runs["full"]
        c = full[0]["counts"]
        # Times are best-of-repetitions, as in the timed loop.
        bare = best([run_s(r) for r in runs["bare"]])
        pmu = best([run_s(r) for r in runs["pmu"]])
        prof = best([run_s(r) for r in full])
        accesses = c.get("sim.accesses", 0)
        samples = c.get("pmu.samples", 0)
        for key in ("sim.accesses", "sim.instructions", "sim.l2_hits",
                    "sim.l3_hits", "sim.dram_local", "sim.dram_remote",
                    "sim.tlb_misses", "sim.prefetched", "sim.cycles",
                    "sim.dram_wait_cycles", "pmu.events", "pmu.samples",
                    "core.profile_bytes"):
            m[key] = c.get(key, 0)
        m.update({
            "sim.bare_run_s": bare,
            "sim.ns_per_access": bare * 1e9 / accesses if accesses else 0,
            "sim.l1_hit_frac": c["sim.l1_hits"] / accesses if accesses else 0,
            "pmu.self_s": pmu - bare,
            "core.profiler_self_s": prof - pmu,
            "core.ns_per_sample": (prof - pmu) * 1e9 / samples
            if samples else 0,
            "core.memo_hit_frac": frac(c, "core.memo_frames_reused",
                                       "core.memo_frames_walked"),
            "core.mru_hit_frac": frac(c, "core.mru_hits", "core.mru_misses"),
            "core.writeout_s": best([dur(r, "core.write_measurements")
                                     for r in full]),
        })
        clusters = [sum(e["dur"] for e in spans(r, "rank.run")) /
                    spans(r, "cluster.run")[0]["dur"]
                    for way in ("bare", "pmu", "full") for r in runs[way]
                    if spans(r, "cluster.run")]
        m["rt.rank_parallelism"] = median(clusters)
        if runs["metrics"]:
            m["obs.metrics_on_ratio"] = best(
                [run_s(r) for r in runs["metrics"]]) / prof
        # Tracing overhead: the traced full-run process against the
        # untraced dcprof_measure process that ran beside it.
        cli = self.bench.samples.get("cli_measure_s", [])
        if cli:
            m["trace.overhead_frac"] = paired([r["wall"] for r in full],
                                              cli) - 1
            self.check("traced full run + write-out vs measure_s",
                       paired([run_s(r) + dur(r, "core.write_measurements")
                               for r in full], cli), 0.9, 1.1)

    def whatif(self, w):
        reruns = [e["dur"] / 1e6 for e in spans(w, "whatif.rerun")]
        busy = sum(reruns)
        analyze = dur(w, "whatif.analyze")
        select = dur(w, "whatif.select")
        self.m.update({
            "analysis.whatif_select_s": select,
            "analysis.whatif_reruns": len(reruns),
            "analysis.whatif_rerun_busy_s": busy,
            "analysis.whatif_rerun_max_s": max(reruns, default=0),
            "analysis.whatif_parallelism": busy / analyze if analyze else 0,
        })
        self.coverage.append(("what-if select + re-runs",
                              (select + busy) / dur(w, "whatif")))

    def fold(self, folds):
        stages = ("discover", "stream", "combine", "views")
        for stage in stages:
            self.m["analysis.fold_%s_s" % stage] = best(
                [dur(r, "fold." + stage) for r in folds])
        c = folds[0]["counts"]
        self.m["analysis.fold_mb"] = c["analysis.fold_bytes"] / 2 ** 20
        self.m["analysis.fold_skipped"] = c["analysis.fold_skipped"]
        self.coverage += [("fold stages", sum(dur(r, "fold." + s)
                                              for s in stages) /
                           dur(r, "fold")) for r in folds]
        if self.bench.workload == "fleet":
            cli = self.bench.samples.get("analyze_s", [])
            if cli:
                self.m["trace.overhead_frac"] = paired(
                    [r["wall"] for r in folds], cli) - 1
                self.check("traced batch fold vs analyze_s",
                           paired([dur(r, "fold") for r in folds], cli),
                           0.9, 1.1)

    def ingest(self, ingests):
        self.m["analysis.ingest_fold_s"] = best(
            [dur(r, "ingest.poll") for r in ingests])
        self.m["analysis.ingest_checkpoint_s"] = best(
            [dur(r, "ingest.checkpoint") for r in ingests])
        c = ingests[0]["counts"]
        self.m["analysis.ingest_checkpoints"] = c["analysis.ingest_checkpoints"]
        self.m["analysis.ingest_skipped"] = c["analysis.ingest_skipped"]
        self.coverage += [("ingest fold + checkpoint",
                           (dur(r, "ingest.poll") + dur(r, "ingest.checkpoint"))
                           / dur(r, "ingest")) for r in ingests]

    @staticmethod
    def check(what, value, lo, hi):
        ok = value >= lo and (hi is None or value <= hi)
        log("trace check %s: %.3f (%s)" % (what, value,
                                           "ok" if ok else "OUT OF RANGE"))


def load_metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(args):
    if args.workload not in WORKLOADS:
        raise NotRun("unknown workload " + args.workload)
    e2e_units, layer_units = load_metric_units()
    build()
    for name in TOOLS + (TRACER,):
        binary(name)
    with open(args.references or REFERENCES) as f:
        refs = json.load(f)
    bench = Bench(args.workload, args.seed, args.seconds, args.quick, refs)
    host = stamp()
    log("perfbench %s seed=%d trace=%d stamp=%s" % (
        args.workload, args.seed, args.trace, json.dumps(host)))
    os.makedirs(bench.work)
    try:
        values = (bench.traced(list(layer_units)) if args.trace
                  else bench.end_to_end())
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    units = layer_units if args.trace else e2e_units
    if set(values) != set(units):
        raise NotRun("metric set differs from BENCHMARK.json: %s" %
                     sorted(set(values) ^ set(units)))
    for name, xs in sorted(bench.samples.items()):
        log("  %-16s n=%-3d median %.6g  min %.6g  max %.6g" % (
            name, len(xs), median(xs), min(xs), max(xs)))
    log("failed_frac %.4f (%d of %d operations failed)" % (
        bench.failed / max(bench.attempted, 1), bench.failed,
        bench.attempted))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    base = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    if args.trace:
        bench.write_trace(base + ".trace.json")
        log("wrote Chrome trace %s" % os.path.relpath(base + ".trace.json",
                                                       ROOT))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(base + ".json", "w") as f:
        json.dump(dict(result, stamp=host, workload=args.workload,
                       seed=args.seed, trace=args.trace,
                       samples=bench.samples, failures=bench.failures), f,
                  indent=1)
    print(json.dumps(result), flush=True)


def compare(a_path, b_path):
    """Prints two results side by side; refuses when their host or build
    stamps differ (only the revision may)."""
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    diff = [k for k in ("nproc", "cpu_model", "build_type", "compiler")
            if a["stamp"].get(k) != b["stamp"].get(k)]
    if diff:
        log("refusing to compare: stamps differ in %s" % ", ".join(diff))
        return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("refusing to compare different workloads or modes")
        return 2
    log("%-32s %16s %16s %8s" % ("metric", a["stamp"]["revision"][:16],
                                   b["stamp"]["revision"][:16], "b/a"))
    for name, m in a["metrics"].items():
        va, vb = m["value"], b["metrics"][name]["value"]
        log("%-32s %16.6g %16.6g %8s" % (name, va, vb, "%.3f" % (vb / va)
                                         if va else "-"))
    return 0


def write_references():
    """Regenerates references.json from the current build, proving on the
    way that the traced pass and the tools agree on every output."""
    build()
    bench = Bench("references", 0, 0, True, {})
    os.makedirs(bench.work)
    refs = {"cases": {}, "fleet": {"structure": FLEET_STRUCTURE,
                                   "slots": FLEET_SLOTS, "layouts": {}}}

    def cli(*argv):
        return subprocess.run([binary(argv[0]), *argv[1:]], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout

    def traced(*args):
        with Op(bench, "traced " + args[0]) as op:
            report = bench.unit(op, *args)
        if report is None:
            raise SystemExit("reference generation failed: %s" %
                             bench.failures)
        return report

    def corpus_refs(corpus):
        """The views digest and the batch aggregate's digest; the aggregate
        dcprof_ingestd --drain (claiming on) checkpoints must be the same
        bytes."""
        merged = bench.path("merged.bin")
        traced("fold", corpus, merged)
        batch = sha256_file(merged)
        cli("dcprof_ingestd", corpus, "--drain", "--idle-polls", "1")
        traced("aggregate", os.path.join(corpus, "ingest.dcck"), merged)
        Bench.restore(corpus)
        if sha256_file(merged) != batch:
            raise SystemExit("daemon aggregate differs from batch")
        return {"views_sha256": views_digest(cli("dcprof_analyze", corpus)),
                "aggregate_sha256": batch}

    try:
        for case in ("amg", "lulesh", "streamcluster", "nw", "sweep3d"):
            d = bench.path("src-" + case)
            out = cli("dcprof_measure", case, d)
            t = bench.path("traced-" + case)
            report = traced("run", case, "full", t)
            ref = {"dir_sha256": dir_digest(d),
                   "cycles": int(report["counts"]["sim.cycles"]),
                   "checksum": report["texts"]["checksum"]}
            if dir_digest(t) != ref["dir_sha256"]:
                raise SystemExit("traced %s run differs from dcprof_measure"
                                 % case)
            if case in THREADED_CASES and (
                    "%s: %d simulated cycles, checksum %s" %
                    (case, ref["cycles"], ref["checksum"])) not in out:
                raise SystemExit("dcprof_measure %s disagrees with the "
                                 "traced run" % case)
            ref["corpus"] = corpus_refs(bench.case_corpus(case))
            if case == "lulesh":
                ref["whatif_table"] = whatif_table(cli(
                    "dcprof_analyze", d, "--whatif", "lulesh",
                    "--whatif-top", "3"))
                if traced("whatif", "lulesh", d)["texts"]["whatif_table"] \
                        != ref["whatif_table"]:
                    raise SystemExit("traced what-if differs from the CLI")
            refs["cases"][case] = ref
            log("reference %s: %s" % (case, json.dumps(
                {k: v for k, v in ref.items() if k != "whatif_table"})))
        for layout in range(FLEET_LAYOUTS):
            refs["fleet"]["layouts"][str(layout)] = corpus_refs(
                bench.build_corpus(fleet_layout(layout)[1], FLEET_STRUCTURE))
            log("reference fleet layout %d: %s" % (
                layout, refs["fleet"]["layouts"][str(layout)]))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %s" % os.path.relpath(REFERENCES, ROOT))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one set-up, one pass and one traced repetition")
    p.add_argument("--references", help="reference file to check against")
    p.add_argument("--compare", nargs=2, metavar="RESULT")
    p.add_argument("--write-references", action="store_true")
    args = p.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.write_references:
            write_references()
            return 0
        if not args.workload:
            p.error("--workload is required")
        run_workload(args)
    except NotRun as e:
        print("perfbench: workload %s not run: %s" % (args.workload, e),
              file=sys.stderr, flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
