"""hopgeo benchmark: the CLI timed from outside, per-layer time from a traced run.

    python3 perfbench/run.py --workload phase-descent --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout (no install needed: the console
script named in pyproject.toml is recreated under .bench_build/). Every
child process gets OPENBLAS_NUM_THREADS=1 so that workers x BLAS threads
stays within the two cores the workloads are sized for.

--trace 0 repeats the workload's CLI invocations for --seconds (at least
MIN_REPS times) and reports the median repetition: wall_s, cpu_s (user +
sys of the CLI and its pool workers), peak_rss_mb, and setup_s (median
launch time of a fresh interpreter that imports hopgeo.cli and loads the
workload's config).

--trace 1 runs the workload once untraced, once more at --workers 1 if
the workload uses more workers, then once traced in-process through
perfbench/tracer.py, plus the descent micro-measure, and reports the
per-layer metrics.

Every invocation's outputs are checked (perfbench/check.py). At the
default seed they must match perfbench/reference/ byte for byte; --pin
rewrites that reference from a passing default-seed run. The last stdout
line is the JSON result; each run is also appended, with its environment
and output digests, to .bench_build/perfbench/results.jsonl.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
WORK = ROOT / ".bench_build" / "perfbench"
CLI = WORK / "bin" / "hopgeo"

DEFAULT_SEED = 0
BLAS_THREADS = 1
MIN_REPS = 2
SETUP_LAUNCHES = 9
DEADLINE_S = 170.0

# workload -> --workers; workers x BLAS_THREADS must not exceed nproc (2)
WORKERS = {"phase-descent": 2, "phase-geometry": 1, "pipeline": 1}
RECALL_FLIPS = "0 0.1 0.2 0.3"
RECALL_TRIALS = 50

SETUP_CODE = {
    "phase": (
        "import sys, hopgeo.cli\n"
        "from hopgeo.sweep import grid_config_from_file\n"
        "grid_config_from_file(sys.argv[1])\n"
    ),
    "pipeline": (
        "import sys, hopgeo.cli\n"
        "from hopgeo.config import read_kv_file\n"
        "read_kv_file(sys.argv[1])\n"
    ),
}

# the layer each workload is for, and the least share of traced time it must keep
PURPOSE = {
    "phase-descent": ("klr", 0.90),
    "phase-geometry": ("infogeo", 0.70),
    "pipeline": ("dynamics", None),  # None: must be the largest layer
}
LAYERS = ["kernel_core", "klr", "infogeo", "dynamics", "sweep", "svgplot", "cli"]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def build():
    """Recreate the `hopgeo` console script from pyproject.toml; byte-compile src."""
    pyproject = ROOT / "pyproject.toml"
    if not pyproject.is_file() or not (SRC / "hopgeo" / "cli.py").is_file():
        raise BenchError(f"no hopgeo sources under {ROOT}: need pyproject.toml and src/hopgeo")
    with open(pyproject, "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["hopgeo"]
    module, func = entry.split(":")
    CLI.parent.mkdir(parents=True, exist_ok=True)
    CLI.write_text(f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n")
    if not compileall.compile_dir(str(SRC / "hopgeo"), quiet=1):
        raise BenchError("src/hopgeo does not byte-compile")
    sys.path.insert(0, str(SRC))


class Launcher:
    """Runs child processes under one deadline and records their rusage."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = child_env()

    def run(self, args, log_path):
        """Return dict(code, wall_s, cpu_s, rss_kb, traceback, timeout) for one process."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"code": -1, "wall_s": 0.0, "cpu_s": 0.0, "rss_kb": 0,
                    "traceback": False, "timeout": True}
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(args, env=self.env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child's group, then re-raise
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = Path(log_path).read_text(errors="replace")
        return {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,  # includes reaped pool workers
            "rss_kb": ru.ru_maxrss,  # max over the process and its reaped children
            "traceback": "Traceback (most recent call last)" in text,
            "timeout": proc.returncode == -signal.SIGKILL,
        }


def pipeline_shape():
    from hopgeo.config import read_kv_file

    kv = read_kv_file(CONFIGS / "pipeline-train.cfg")
    P, N = int(kv["num_patterns"][0]), int(kv["num_neurons"][0])
    return P, N


def invocations(workload, out, seed, workers):
    """One repetition: a list of (hopgeo arguments, {output name: (path, checker)})."""
    import check

    if workload == "pipeline":
        P, N = pipeline_shape()
        cues = RECALL_TRIALS * P * len(RECALL_FLIPS.split())
        net, spec, rec = out / "net", out / "spectrum.csv", out / "recall.csv"
        return [
            (["train", "--config", str(CONFIGS / "pipeline-train.cfg"), "--out", str(net),
              "--seed", str(seed), "--workers", str(workers)], {}),
            (["spectrum", "--weights", str(net), "--out", str(spec),
              "--svg", str(out / "spectrum.svg")],
             {"spectrum.csv": (spec, lambda: check.check_spectrum(spec, P, N))}),
            (["recall", "--weights", str(net), "--flip-fractions", RECALL_FLIPS,
              "--trials", str(RECALL_TRIALS), "--seed", str(seed), "--out", str(rec)],
             {"recall.csv": (rec, lambda: check.check_recall(rec, cues))}),
        ]
    cfg = CONFIGS / f"{workload}.cfg"
    grid = out / "grid.csv"
    return [(["phase", "--config", str(cfg), "--out", str(out), "--seed", str(seed),
              "--workers", str(workers)],
             {"grid.csv": (grid, lambda: check.check_grid(grid, cfg))})]


def run_rep(launcher, workload, seed, workers, out, expect, traced_spans=None):
    """Run one repetition and check its outputs; with traced_spans, run traced.

    `expect` maps output names to the sha256 every repetition must produce;
    the first repetition fills in names it lacks.
    """
    import check

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rep = {"wall_s": 0.0, "cpu_s": 0.0, "rss_kb": 0, "attempted": 0, "failed": 0,
           "problems": [], "digests": {}, "outputs": {}}
    for i, (args, outputs) in enumerate(invocations(workload, out, seed, workers)):
        if traced_spans is None:
            cmd = [sys.executable, str(CLI), *args]
        else:
            spans_path = out / f"spans{i}.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), "spans", str(spans_path), "--", *args]
        r = launcher.run(cmd, out / f"log{i}.txt")
        rep["attempted"] += 1
        rep["wall_s"] += r["wall_s"]
        rep["cpu_s"] += r["cpu_s"]
        rep["rss_kb"] = max(rep["rss_kb"], r["rss_kb"])
        problems = []
        if r["code"] != 0 or r["traceback"]:
            problems.append(f"hopgeo {args[0]} exited {r['code']}"
                            + (" with a traceback" if r["traceback"] else "")
                            + (" (killed at the deadline)" if r["timeout"] else ""))
        for name, (path, checker) in outputs.items():
            try:
                problems += checker()
                digest = rep["digests"][name] = check.sha256(path)
                rep["outputs"][name] = path
                if digest != expect.setdefault(name, digest):
                    problems.append(check.mismatch(workload, name, path, expect[name]))
            except (OSError, ValueError, IndexError) as e:
                problems.append(f"{name}: cannot be checked: {e!r}")
        if traced_spans is not None and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            offset = len(traced_spans)
            for s in spans:
                if s[1] is not None:
                    s[1] += offset
            traced_spans += spans
        if problems:
            rep["failed"] += 1
            rep["problems"] += problems
        if r["timeout"]:
            break
    return rep


def setup_times(launcher, workload):
    kind = "pipeline" if workload == "pipeline" else "phase"
    cfg = CONFIGS / ("pipeline-train.cfg" if kind == "pipeline" else f"{workload}.cfg")
    cmd = [sys.executable, "-c", SETUP_CODE[kind], str(cfg)]
    log = WORK / workload / "setup.txt"
    times = []
    for i in range(SETUP_LAUNCHES + 1):  # the first launch warms the file cache
        r = launcher.run(cmd, log)
        if r["code"] != 0:
            raise BenchError(f"setup launch failed: {log.read_text(errors='replace')}")
        if i:
            times.append(r["wall_s"])
    return times


def measure(launcher, workload, seed, seconds, expect):
    setup = setup_times(launcher, workload)
    reps = []
    out = WORK / workload / "out"
    t0 = time.perf_counter()
    while True:
        rep = run_rep(launcher, workload, seed, WORKERS[workload], out, expect)
        reps.append(rep)
        elapsed = time.perf_counter() - t0
        longest = max(r["wall_s"] for r in reps)
        if rep["failed"] or (len(reps) >= MIN_REPS and elapsed + longest > seconds):
            break
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in reps) / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {"setup_s": setup}
    return reps, metrics, detail


def span_table(spans):
    """Per span: (name, duration, self time, counts); self excludes direct children."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[0], s[3] - s[2], s[3] - s[2] - c, s[4]) for s, c in zip(spans, child)]


def layer_metrics(spans, micro, busy_frac, overhead_s):
    """Per-layer metrics from traced spans and the micro-measure."""
    from tracer import LAYER

    table = span_table(spans)
    time_of = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(float)
    self_of = defaultdict(float)
    cell_s, cell_self = [], 0.0
    for name, dur, self_s, counts in table:
        time_of[name] += dur
        calls[name] += 1
        self_of[LAYER[name]] += self_s
        for k, v in counts.items():
            count[f"{name}.{k}"] += v
        if name == "run_cell":
            cell_s.append(dur)
            cell_self += self_s
        if name == "fit_dual_weights":
            count["fit_flops"] += 4.0 * counts["P"] ** 2 * counts["neurons"] * counts["epochs"]
    total = time_of["main"]

    def ratio(a, b):
        return a / b if b else 0.0

    fit_s = time_of["fit_dual_weights"]
    epochs = count["fit_dual_weights.epochs"]
    neurons = count["fit_dual_weights.neurons"]
    m = {
        "kernel_core.gram_s": (time_of["gram"], "s"),
        "kernel_core.generate_patterns_s": (time_of["generate_patterns"], "s"),
        "kernel_core.corrupt_s": (time_of["corrupt"], "s"),
        "kernel_core.corrupt_calls": (calls["corrupt"], "count"),
        "kernel_core.io_s": (time_of["save_patterns"] + time_of["load_patterns"], "s"),
        "klr.fit_s": (fit_s, "s"),
        "klr.fit_calls": (calls["fit_dual_weights"], "count"),
        "klr.epochs": (epochs, "count"),
        "klr.us_per_epoch": (ratio(fit_s, epochs) * 1e6, "us"),
        "klr.gflops_computed": (ratio(count["fit_flops"], fit_s) / 1e9, "GFLOP/s"),
        "klr.converged_frac": (ratio(count["fit_dual_weights.converged"], neurons), "ratio"),
        "klr.diverged_frac": (ratio(count["fit_dual_weights.diverged"], neurons), "ratio"),
        "klr.io_s": (time_of["save_weights"] + time_of["load_weights"], "s"),
        "infogeo.report_s": (time_of["gradient_report"], "s"),
        "infogeo.report_calls": (calls["gradient_report"], "count"),
        "infogeo.us_per_report": (ratio(time_of["gradient_report"], calls["gradient_report"]) * 1e6, "us"),
        "infogeo.spectrum_s": (time_of["spectrum"], "s"),
        "infogeo.degenerate_frac": (ratio(count["spectrum.degenerate"], calls["spectrum"]), "ratio"),
        "infogeo.write_spectrum_csv_s": (time_of["write_spectrum_csv"], "s"),
        "dynamics.recall_s": (time_of["recall"], "s"),
        "dynamics.recall_calls": (calls["recall"], "count"),
        "dynamics.steps": (count["recall.steps"], "count"),
        "dynamics.us_per_step": (ratio(time_of["recall"], count["recall.steps"]) * 1e6, "us"),
        "dynamics.success_frac": (ratio(count["recall.success"], calls["recall"]), "ratio"),
        "dynamics.converged_frac": (ratio(count["recall.converged"], calls["recall"]), "ratio"),
        "sweep.run_cell_s": (time_of["run_cell"], "s"),
        "sweep.cell_s_max": (max(cell_s, default=0.0), "s"),
        "sweep.cell_s_median": (statistics.median(cell_s) if cell_s else 0.0, "s"),
        "sweep.self_s": (cell_self, "s"),
        "sweep.write_grid_csv_s": (time_of["write_grid_csv"], "s"),
        "sweep.worker_busy_frac": (busy_frac, "ratio"),
        "svgplot.render_s": (time_of["render_heatmap"] + time_of["render_spectrum_lines"], "s"),
        "svgplot.bytes": (count["render_heatmap.bytes"] + count["render_spectrum_lines.bytes"], "bytes"),
        "cli.self_s": (self_of["cli"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (ratio(self_of[layer], total), "ratio")
    flops = sum(v["matmul_flops"] for v in micro.values())
    secs = sum(v["matmul_s"] for v in micro.values())
    m["klr.matmul_gflops"] = (flops / secs / 1e9, "GFLOP/s")
    for key, v in micro.items():
        m[f"klr.us_per_epoch.{key}"] = (v["us_per_epoch"], "us")
        m[f"klr.matmul_gflops.{key}"] = (v["matmul_flops"] / v["matmul_s"] / 1e9, "GFLOP/s")
    return m


def purpose_warnings(workload, m):
    layer, least = PURPOSE[workload]
    share = m[f"{layer}.share"][0]
    shares = {l: m[f"{l}.share"][0] for l in LAYERS}
    if least is not None and share < least:
        return [f"{workload} no longer does what it is for: {layer} is {share:.1%} "
                f"of traced time, below {least:.0%}"]
    if least is None and max(shares, key=shares.get) != layer:
        return [f"{workload} no longer does what it is for: {layer} ({share:.1%}) is not "
                f"the largest layer ({max(shares, key=shares.get)})"]
    return []


def trace(launcher, workload, seed, expect):
    workers = WORKERS[workload]
    base = WORK / workload
    reps = [run_rep(launcher, workload, seed, workers, base / "untraced", expect)]
    serial = reps[0]
    if workers != 1:
        serial = run_rep(launcher, workload, seed, 1, base / "serial", expect)
        reps.append(serial)
    spans = []
    reps.append(run_rep(launcher, workload, seed, 1, base / "traced", expect, spans))
    micro_path = base / "micro.json"
    r = launcher.run([sys.executable, str(BENCH / "tracer.py"), "micro", str(micro_path), str(seed)],
                     base / "micro.txt")
    if r["code"] != 0:
        raise BenchError(f"micro-measure failed: {(base / 'micro.txt').read_text()}")
    micro = json.loads(micro_path.read_text())
    busy = reps[0]["cpu_s"] / (workers * reps[0]["wall_s"])
    metrics = layer_metrics(spans, micro, busy, reps[-1]["wall_s"] - serial["wall_s"])
    return reps, metrics, {"warnings": purpose_warnings(workload, metrics)}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def environment(workload):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [ROOT / "pyproject.toml"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "workers": WORKERS[workload],
        "oversubscribed": WORKERS[workload] * BLAS_THREADS > nproc,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="store this default-seed run's outputs as the reference")
    args = ap.parse_args(argv)
    if args.pin and args.seed != DEFAULT_SEED:
        ap.error(f"--pin needs --seed {DEFAULT_SEED}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    launcher = Launcher(time.monotonic() + DEADLINE_S)
    try:
        build()
        (WORK / args.workload).mkdir(parents=True, exist_ok=True)
        import check

        env = environment(args.workload)
        print("env " + json.dumps(env))
        expect = {}
        if args.seed == DEFAULT_SEED and not args.pin:
            names = [n for _, outs in invocations(args.workload, WORK, 0, 1) for n in outs]
            expect = {n: check.reference_digest(args.workload, n) for n in names}
        if args.trace:
            reps, metrics, detail = trace(launcher, args.workload, args.seed, expect)
        else:
            reps, metrics, detail = measure(launcher, args.workload, args.seed, args.seconds, expect)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    problems = [p for r in reps for p in r["problems"]]
    failed = sum(r["failed"] for r in reps)
    if args.pin and not failed:
        for name, path in reps[-1]["outputs"].items():
            check.pin_reference(args.workload, name, path)
    for i, r in enumerate(reps):
        print(f"rep {i}: wall {r['wall_s']:.4f} s  cpu {r['cpu_s']:.4f} s  "
              f"rss {r['rss_kb'] / 1024:.1f} MB  failed {r['failed']}/{r['attempted']}")
    print("digests " + json.dumps(reps[0]["digests"]))
    for p in problems:
        print(f"FAILED: {p}")
    for w in detail.get("warnings", []):
        print(f"warning: {w}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    attempted = sum(r["attempted"] for r in reps)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "reps": [{k: v for k, v in r.items() if k != "outputs"} for r in reps],
        "metrics": {k: v[0] for k, v in metrics.items()}, "problems": problems,
        **detail,
    }
    with open(WORK / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
