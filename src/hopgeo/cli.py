"""Command-line entry point.

Subcommands: train, spectrum, phase, recall, render. Exit codes are a
stable contract: 0 success, 2 usage/config errors, problems too large for
memory and a pool worker that died, 3 numeric failures, 130 an interrupt.
The output directories of train and phase receive a manifest.json
recording the command line, resolved configuration (seeds included), tool
version, numerics (numpy, BLAS and Python versions, BLAS thread count and kernel),
timestamps, and sha256 digests of the emitted files (the manifest itself is
excluded from digest comparisons, so reruns are byte-identical apart from it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .config import read_config, resolved
from .dynamics import DEFAULT_MAX_STEPS, DEFAULT_SUCCESS_THRESHOLD, recall_trial
from .errors import ArgumentError, FieldError, NumericError, PoolError, check_range
from .infogeo import neuron_spectra, write_spectrum_csv
from .kernel_core import KernelConfig, format_value, generate_patterns, gram, load_patterns
from .kernel_core import save_patterns, write_rows
from .klr import TrainConfig, load_weights, save_weights, train
from .sweep import (
    METRICS,
    grid_config_from_file,
    pool_map,
    pool_size,
    read_grid_csv,
    run_grid,
    write_grid_csv,
)
from .svgplot import render_heatmap, render_spectrum_lines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTERRUPTED = 130  # the shell's code for a process ended by SIGINT


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def numerics() -> dict:
    """What a run's bits depend on besides its config: the numpy version, the BLAS
    numpy was built with, the Python version, the BLAS thread count and the BLAS kernel."""
    import platform  # numpy has loaded it already

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas_core": _blas_core()}


def _blas_core() -> str | None:
    """The kernel OpenBLAS chose for this CPU (or OPENBLAS_CORETYPE), as the library numpy
    loaded names it; None where that library has no such symbol."""
    import ctypes  # numpy has loaded both

    from numpy.linalg import _umath_linalg

    try:  # a symbol is looked up in the module and in the libraries it links
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        corename = getattr(lib, name, None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _write_manifest(names, argv, cfg, started: str, path: Path):
    """Write the manifest of a run of config `cfg` to `path`, beside the files `names`."""
    outputs = {name: hashlib.sha256((path.parent / name).read_bytes()).hexdigest()
               for name in sorted(names)}
    manifest = {
        "tool": "hopgeo",
        "version": __version__,
        "command_line": list(argv),
        "resolved_config": resolved(cfg),
        **numerics(),
        "started": started,
        "finished": _now(),
        "outputs": outputs,
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")


@contextmanager
def _output_dir(out: Path | None):
    """Make `out`; yield write(files), which calls write_file(out / name) for each
    {name: write_file} of `files` in order (with `out` None, nothing is made and each
    name is the path). If the block raises, the files write finished and the topmost
    directory this made are removed, and nothing else."""
    made = None
    if out is not None:
        made = next((d for d in [*reversed(out.parents), out] if not d.exists()), None)
        out.mkdir(parents=True, exist_ok=True)
    written = []

    def write(files: dict) -> None:
        for name, write_file in files.items():
            path = Path(name) if out is None else out / name
            write_file(path)
            written.append(path)

    try:
        yield write
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


@dataclass
class TrainRun:
    """The config file of `hopgeo train`, read by config.read_config (see README)."""

    num_patterns: int
    num_neurons: int
    gamma: float
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        # the P x N patterns, 8 bytes each, must fit in one array, as in GridConfig
        check_range("num_patterns", self.num_patterns, 1, np.iinfo(np.intp).max // 8)
        check_range("num_neurons", self.num_neurons, 1,
                    np.iinfo(np.intp).max // (8 * self.num_patterns))
        check_range("gamma", self.gamma, 0, lo_open=True)
        check_range("seed", self.seed, 0)


def cmd_train(args, argv) -> int:
    started = _now()
    out = Path(args.out)
    run = read_config(args.config, TrainRun)
    if args.seed is not None:
        run.seed = args.seed
    patterns = generate_patterns(run.num_patterns, run.num_neurons, run.seed)
    # trained before --out is made, so a failing run leaves nothing
    weights = train(patterns, run.gamma, run.train)
    files = {"patterns.txt": partial(save_patterns, patterns),
             "weights.txt": partial(save_weights, weights)}
    with _output_dir(out) as write:
        write(files)
        write({"manifest.json": partial(_write_manifest, files, argv, run, started)})
    return EXIT_OK


def _load_artifacts(weights_dir):
    d = Path(weights_dir)
    pat_path = d / "patterns.txt"
    wt_path = d / "weights.txt"
    patterns, weights = load_patterns(pat_path), load_weights(wt_path)
    if weights.alpha.shape != patterns.patterns.shape:
        raise ArgumentError(
            f"{wt_path} holds P x N = {weights.alpha.shape} but "
            f"{pat_path} holds {patterns.patterns.shape}"
        )
    return patterns, weights


def cmd_spectrum(args, argv) -> int:
    if args.svg and Path(args.svg).resolve() == Path(args.out).resolve():
        raise ArgumentError(f"--svg {args.svg} names the --out file {args.out}")
    patterns, weights = _load_artifacts(args.weights)
    K = gram(patterns, KernelConfig(gamma=weights.gamma)).values
    specs = neuron_spectra(weights.alpha, K, lambda i, spec: spec)
    files = {args.out: partial(write_spectrum_csv, specs)}
    if args.svg:  # made before either file is written
        files[args.svg] = partial(Path.write_text, data=render_spectrum_lines(specs))
    with _output_dir(None) as write:
        write(files)
    return EXIT_OK


def cmd_phase(args, argv) -> int:
    started = _now()
    cfg = grid_config_from_file(args.config)
    if args.seed is not None:
        cfg.base_seed = args.seed
    out = Path(args.out)
    # --out is made before the sweep, so that a bad path fails at once
    with _output_dir(out) as write:
        cells = [rec.cell for rec in run_grid(cfg, workers=args.workers)]
        files = {"grid.csv": partial(write_grid_csv, cells),
                 **_heatmaps(cells, cfg.metrics, out / "grid.csv")}
        write(files)
        write({"manifest.json": partial(_write_manifest, files, argv, cfg, started)})
    degen = sum(c.degenerate_count for c in cells)
    diverg = sum(c.divergence_count for c in cells)
    if degen or diverg:
        print(
            f"flags: {degen} degenerate neuron-trials, {diverg} divergent neuron-trials",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_recall(args, argv) -> int:
    # every flag is checked before an artifact is read
    try:
        fractions = [float(v) for v in args.flip_fractions.split()]
    except ValueError:
        raise FieldError("--flip-fractions",
                         f"must be numbers, got {args.flip_fractions!r}") from None
    if not fractions:
        raise FieldError("--flip-fractions", "must be nonempty")
    for f in fractions:
        check_range("--flip-fractions", f, 0, 1)
    check_range("--trials", args.trials, 1)
    check_range("--max-steps", args.max_steps, 1)
    check_range("--success-threshold", args.success_threshold, 0, 1, lo_open=True)
    patterns, weights = _load_artifacts(args.weights)
    # a task is one flip fraction over a contiguous run of its trials, one run per
    # process the pool can start; rows keep task order
    runs = pool_size(args.workers, args.trials)
    tasks = [
        (fi, frac, range(args.trials * j // runs, args.trials * (j + 1) // runs))
        for fi, frac in enumerate(fractions)
        for j in range(runs)
    ]
    recall_trials = partial(_recall_trials, patterns, weights, args.seed or 0,
                            args.max_steps, args.success_threshold)
    done = pool_map(recall_trials, tasks, args.workers)
    rates = []
    for fi, frac in enumerate(fractions):  # one line per fraction of the flag, repeats included
        hits = sum(row[-1] for rows in done[fi * runs:(fi + 1) * runs] for row in rows)
        rate = format_value(hits / (args.trials * patterns.num_patterns))
        rates.append([f"# success_rate flip_fraction={format_value(frac)} rate={rate}"])
    header = ["trial", "target", "flip_fraction", "steps", "converged", "overlap", "success"]
    write_rows(args.out, chain([header], *done, rates), sep=",")
    return EXIT_OK


def _recall_trials(patterns, weights, base_seed, max_steps, success_threshold, task):
    """The recall.csv rows (t, mu, frac, steps, converged, overlap, success) of one
    (fraction index, fraction, trials) task."""
    fi, frac, trials = task
    rows = []
    for t in trials:
        first = ((base_seed * 1_000_003 + fi) * 1_000_003 + t) * 1_000_003
        seeds = [first + mu for mu in range(patterns.num_patterns)]
        results = recall_trial(patterns, weights, frac, seeds, max_steps, success_threshold)
        rows += [(t, mu, frac, r.steps, r.converged, r.overlap, r.success)
                 for mu, r in enumerate(results)]
    return rows


def cmd_render(args, argv) -> int:
    if args.metrics is not None:  # checked before the grid is read
        metrics = args.metrics.split()
        if not metrics:
            raise FieldError("--metrics", "must be nonempty")
        for metric in metrics:
            if metric not in METRICS:
                raise ArgumentError(f"unknown metric {metric!r}")
    cells = read_grid_csv(args.grid)
    if not cells:
        raise ArgumentError(f"{args.grid}: no grid cells after the header")
    if args.metrics is None:  # the measured metrics: recall_rate is all nan without recall
        metrics = [m for m, (column, _) in METRICS.items()
                   if any(math.isfinite(getattr(c, column)) for c in cells)]
        if not metrics:
            raise ArgumentError(f"{args.grid}: no metric column holds a finite value")
    files = _heatmaps(cells, metrics, args.grid)
    with _output_dir(Path(args.out)) as write:
        write(files)
    return EXIT_OK


def _heatmaps(cells, metrics, grid) -> dict:
    """{"<metric>.svg": the function that writes its heatmap to a path}, for every metric;
    errors name `grid`, the cells' grid.csv.

    Every heatmap is made here, before any is written, so a metric that cannot
    be drawn leaves no SVG.
    """
    try:
        docs = {f"{metric}.svg": render_heatmap(cells, metric) for metric in metrics}
    except (NumericError, ArgumentError) as e:
        raise type(e)(f"{grid}: {e}") from None
    return {name: partial(Path.write_text, data=doc) for name, doc in docs.items()}


class _Parser(argparse.ArgumentParser):
    """A usage error raises ArgumentError, so that main ends it as any other: one line,
    exit 2. Subparsers are of this class too (argparse makes them of the parent's)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ArgumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopgeo",
        description="Kernel Hopfield training, Fisher-geometry analysis, and phase sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"hopgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help):
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--seed", type=int, default=None,
                       help="override config seed (recall: the cue seed, default 0)")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="parallel worker cap")

    p = sub.add_parser("train", help="generate patterns and train dual weights")
    p.add_argument("--config", required=True, help="flat key-value training config")
    add_common(p, "output directory for patterns.txt, weights.txt, manifest.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("spectrum", help="per-neuron Fisher spectrum CSV from trained artifacts")
    p.add_argument("--weights", required=True, help="directory holding patterns.txt + weights.txt")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", default=None, help="optional normalized-spectrum SVG path")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("phase", help="run a (gamma, load) grid sweep")
    p.add_argument("--config", required=True, help="grid config file")
    add_common(p, "output directory for grid.csv, SVGs, manifest.json")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("recall", help="recall batch from corrupted cues")
    p.add_argument("--weights", required=True, help="directory holding patterns.txt + weights.txt")
    p.add_argument("--flip-fractions", required=True,
                   help="whitespace-separated corruption fractions in [0,1]")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--success-threshold", type=float, default=DEFAULT_SUCCESS_THRESHOLD)
    add_common(p, "output CSV path")
    p.set_defaults(func=cmd_recall)

    p = sub.add_parser("render", help="re-render heatmap SVGs from an existing grid CSV")
    p.add_argument("--grid", required=True, help="grid.csv from a phase run")
    p.add_argument("--metrics", default=None, help="subset of metrics to render")
    p.add_argument("--out", required=True, help="output directory for SVGs")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # argparse hands what a command does not know back to the root parser
            raise ArgumentError(f"hopgeo {args.command}: unrecognized arguments: {' '.join(extra)}")
        if getattr(args, "seed", None) is not None:
            check_range("--seed", args.seed, 0)
        if hasattr(args, "workers"):
            check_range("--workers", args.workers, 1)
        return args.func(args, argv)
    except NumericError as e:  # a diverged training run too
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, PoolError) as e:  # every ArgumentError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        print(f"error: problem too large for memory: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except SystemExit as e:  # --help or --version, code 0, once its text is printed
        return e.code


if __name__ == "__main__":
    sys.exit(main())
