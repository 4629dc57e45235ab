"""Phase-diagram sweeps over the (gamma, load) plane.

Every grid cell trains fresh networks and measures Fisher-geometry
scalars plus (optionally) recall success. Seeding is a stated 64-bit
mix, seed64: the seed of trial t in cell (gi, li) is the first uint64 of
numpy.random.SeedSequence([base_seed, gi, li, t]), and the cell's own seed
that of [base_seed, gi, li]. Cells are independent and runs reproducible
bit-for-bit at any worker count.

run_cell returns a cell's per-neuron records and its SweepCell, the
grid.csv row: arithmetic mean over neurons within a trial, then mean (and
standard deviation for lambda_max and d_eff) over trials.
Neuron-trials with a fully degenerate spectrum contribute d_eff = 0 and
are counted in degenerate_count; neurons whose descent monitor tripped
are frozen at their last accepted iterate, still measured, and counted
in divergence_count.
"""

from __future__ import annotations

import csv
import io
import os
import signal
import threading
from dataclasses import astuple, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .config import read_config
from .dynamics import DEFAULT_MAX_STEPS, DEFAULT_SUCCESS_THRESHOLD, recall_trial
from .errors import ArgumentError, FieldError, PoolError, check_range
from .infogeo import DEFAULT_REL_CUTOFF, GradientReport, gradient_report, neuron_spectra
from .kernel_core import KernelConfig, generate_patterns, gram, read_text, write_rows
from .klr import DualWeights, TrainConfig, all_targets, fit_dual_weights


@dataclass
class SweepCell:
    """One grid.csv row: the columns are these fields, in this order."""

    gamma: float
    load: float
    P: int
    N: int
    seed: int
    trials: int
    lambda_max_mean: float = float("nan")
    lambda_max_sd: float = float("nan")
    d_eff_mean: float = float("nan")
    d_eff_sd: float = float("nan")
    euclid_norm_sq_mean: float = float("nan")
    riemann_norm_sq_mean: float = float("nan")
    rank1_residual_mean: float = float("nan")
    recall_rate: float = float("nan")
    degenerate_count: int = 0
    divergence_count: int = 0


# grid.csv: a row is written by kernel_core.write_rows
CSV_COLUMNS = [f.name for f in fields(SweepCell)]
_COLUMN_TYPES = get_type_hints(SweepCell)  # column -> int or float


# the metrics a config may select, in the order `render` draws them by default; each
# maps to (the SweepCell field its heatmap draws, whether that heatmap takes log10)
METRICS = {
    "lambda_max": ("lambda_max_mean", True),
    "d_eff": ("d_eff_mean", False),
    "euclid_norm_sq": ("euclid_norm_sq_mean", True),
    "riemann_norm_sq": ("riemann_norm_sq_mean", True),
    "rank1_residual": ("rank1_residual_mean", False),
    "recall_rate": ("recall_rate", False),
}


@dataclass
class GridConfig:
    gamma_values: list[float]
    load_values: list[float]
    num_neurons: int
    trials_per_cell: int = 1
    base_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    rel_cutoff: float = DEFAULT_REL_CUTOFF
    # recall_rate, which runs recall in every cell, is opt-in
    metrics: tuple[str, ...] = tuple(METRICS)[:5]
    recall_flip_fraction: float = 0.1
    success_threshold: float = DEFAULT_SUCCESS_THRESHOLD
    recall_max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        for name in ("gamma_values", "load_values"):
            if not getattr(self, name):
                raise FieldError(name, "must be nonempty")
        for gamma in self.gamma_values:
            check_range("gamma_values", gamma, 0, lo_open=True)
        for load in self.load_values:
            check_range("load_values", load, 0, 1, lo_open=True)
        for name in ("gamma_values", "load_values"):  # a repeated value repeats a grid row
            values = getattr(self, name)
            if any(a >= b for a, b in zip(values, values[1:])):
                raise FieldError(name, "must be strictly ascending")
        # at most an array dimension, which also keeps num_neurons * load a finite float
        check_range("num_neurons", self.num_neurons, 1, np.iinfo(np.intp).max)
        if round(self.num_neurons * min(self.load_values)) < 1:
            raise FieldError("load_values", "times num_neurons must round to at least 1 pattern")
        # the largest load's P x N patterns, 8 bytes each, must fit in one array
        P = round(self.num_neurons * max(self.load_values))
        check_range("num_neurons", self.num_neurons, 1, np.iinfo(np.intp).max // (8 * P))
        check_range("trials_per_cell", self.trials_per_cell, 1)
        check_range("base_seed", self.base_seed, 0)
        check_range("recall_flip_fraction", self.recall_flip_fraction, 0, 1)
        check_range("success_threshold", self.success_threshold, 0, 1, lo_open=True)
        check_range("rel_cutoff", self.rel_cutoff, 0, 1, lo_open=True, hi_open=True)
        check_range("recall_max_steps", self.recall_max_steps, 1)
        self.metrics = tuple(self.metrics)
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise FieldError("metrics", f"unknown: {sorted(unknown)}")


@dataclass
class CellRecords:
    """What run_cell measured in one cell: its grid.csv row, and per neuron,
    `neurons`, each GradientReport field as a (trials, N) array in neuron order."""

    cell: SweepCell
    neurons: dict[str, np.ndarray]


def seed64(*keys) -> int:
    """The first 64-bit word of SeedSequence(keys), the one seeding scheme of a sweep."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1, np.uint64)[0])


def trial_mean(values) -> float:
    """Mean over the neurons of each trial, then over trials, of a (trials, N) record."""
    return float(np.mean(np.mean(values, axis=1)))


def run_cell(cfg: GridConfig, gamma_index: int, load_index: int) -> CellRecords:
    """Train and measure the grid cell at (gamma_values[gamma_index],
    load_values[load_index]) over all trials; the same indices key its seeds."""
    gamma, load = cfg.gamma_values[gamma_index], cfg.load_values[load_index]
    N = cfg.num_neurons
    P = round(load * N)  # at least 1: GridConfig checks it
    want_recall = "recall_rate" in cfg.metrics
    reports = []  # per trial, the GradientReport of every neuron in neuron order
    diverged = recall_hits = 0
    for t in range(cfg.trials_per_cell):
        seed = seed64(cfg.base_seed, gamma_index, load_index, t)
        patterns = generate_patterns(P, N, seed)
        K = gram(patterns, KernelConfig(gamma=gamma)).values
        T = all_targets(patterns)
        res = fit_dual_weights(K, T, cfg.train)
        diverged += len(res.diverged)
        reports.append(neuron_spectra(res.alpha, K, lambda i, spec: gradient_report(
            res.alpha[:, i], K, T[:, i], cfg.train.lam, spec, cfg.rel_cutoff
        )))
        if want_recall:
            weights = DualWeights(
                alpha=res.alpha, gamma=gamma, lam=cfg.train.lam, trained_epochs=res.epochs
            )
            first = cfg.trials_per_cell + t * P  # the seed keys of this trial's cues
            seeds = [seed64(cfg.base_seed, gamma_index, load_index, first + mu) for mu in range(P)]
            results = recall_trial(patterns, weights, cfg.recall_flip_fraction, seeds,
                                   cfg.recall_max_steps, cfg.success_threshold)
            recall_hits += sum(r.success for r in results)
    n = {f.name: np.array([[getattr(rep, f.name) for rep in row] for row in reports])
         for f in fields(GradientReport)}

    def sd(values):
        return float(np.std(np.mean(values, axis=1), ddof=0))
    cell = SweepCell(
        gamma=gamma,
        load=load,
        P=P,
        N=N,
        seed=seed64(cfg.base_seed, gamma_index, load_index),
        trials=cfg.trials_per_cell,
        lambda_max_mean=trial_mean(n["lambda_max"]),
        lambda_max_sd=sd(n["lambda_max"]),
        d_eff_mean=trial_mean(n["d_eff"]),
        d_eff_sd=sd(n["d_eff"]),
        euclid_norm_sq_mean=trial_mean(n["euclid_norm_sq"]),
        riemann_norm_sq_mean=trial_mean(n["riemann_norm_sq"]),
        rank1_residual_mean=trial_mean(n["rank1_residual"]),
        recall_rate=recall_hits / (cfg.trials_per_cell * P) if want_recall else float("nan"),
        degenerate_count=int(n["degenerate"].sum()),
        divergence_count=diverged,
    )
    return CellRecords(cell, n)


def pool_size(workers: int, tasks: int) -> int:
    """The processes a pool runs `tasks` tasks on: at most `workers`, one per task and one per CPU."""
    return min(workers, tasks, os.cpu_count() or 1)


def _start_worker(read_end: int, write_end: int):
    # a forked pool worker (it inherits the pipe) leaves an interrupt to pool_map, and
    # exits at EOF on the pipe: when the parent, then its last writer, closes it or dies
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.close(write_end)
    threading.Thread(target=lambda: os.read(read_end, 1) or os._exit(1), daemon=True).start()


def pool_map(fn, tasks, workers: int) -> list:
    """[fn(task) for task in tasks], in task order, on pool_size(workers, len(tasks)) processes.

    With one worker there is no pool and fn runs in this process, which then
    never loads the pool machinery. `fn` and the tasks must pickle. A task
    error, or an interrupt (which workers ignore), terminates the forked workers,
    running tasks included, and is re-raised; a dead worker raises PoolError.
    No worker outlives the call, nor a killed parent (see _start_worker).
    """
    tasks = list(tasks)
    workers = pool_size(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    pipe = os.pipe()
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                                 initializer=_start_worker, initargs=pipe) as pool:
            futures = [pool.submit(fn, task) for task in tasks]
            try:
                wait(futures, return_when=FIRST_EXCEPTION)  # all end, or one fails: then
                return [f.result() for f in futures if f.done()]  # the first in task order raises
            except BrokenProcessPool:
                raise PoolError("a worker process died before its task ended "
                                "(killed, perhaps for lack of memory)") from None
            except BaseException:
                # with its workers gone the pool fails the pending tasks, and leaving it joins
                # them; cancelled first, Python 3.11's pool would raise InvalidStateError then
                for process in pool._processes.values():
                    process.terminate()
                raise
    finally:
        for end in pipe:
            os.close(end)


def _cell_task(task):
    # module-level, so it pickles by name even where run_cell is wrapped in a closure
    # (as the benchmark's tracer wraps it), which a pool could not pickle
    return run_cell(*task)


def run_grid(cfg: GridConfig, workers: int = 1) -> list:
    """CellRecords of every (gamma, load) pair, sorted by (load, gamma).

    Cells are independent; scheduling never changes values or order. Tasks
    are submitted largest load (so largest P, the longest descent) first, so
    that a pool does not end waiting on one long cell; both axes ascend, so
    sorting by (load, gamma) restores index order. The pool (pool_map) has at
    most one worker per cell and one per CPU.
    """
    tasks = [
        (cfg, gi, li)
        for li in reversed(range(len(cfg.load_values)))
        for gi in range(len(cfg.gamma_values))
    ]
    records = pool_map(_cell_task, tasks, workers)
    records.sort(key=lambda rec: (rec.cell.load, rec.cell.gamma))
    return records


def write_grid_csv(cells: list, path) -> None:
    write_rows(path, [CSV_COLUMNS, *map(astuple, cells)], ",")


def read_grid_csv(path) -> list:
    """Cells of a grid.csv; ArgumentError names the file when columns are missing, and
    its line at a malformed row (too few or too many values, a value that does not parse,
    a field over csv's size limit, the header's too) or at a cell phase never writes."""
    cells = []
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ArgumentError(f"{path}: missing columns: {', '.join(missing)}")
        for row in reader:
            if None in row:  # DictReader files the values past the header under None
                raise ValueError
            cell = SweepCell(**{name: _COLUMN_TYPES[name](row[name]) for name in CSV_COLUMNS})
            check_range("gamma", cell.gamma, 0, lo_open=True)
            check_range("load", cell.load, 0, 1, lo_open=True)
            check_range("trials", cell.trials, 1)
            check_range("N", cell.N, 1)
            cells.append(cell)
    except FieldError as e:
        raise ArgumentError(f"{path}:{reader.line_num}: {e}") from None
    except ArgumentError:
        raise
    except (csv.Error, TypeError, ValueError):  # TypeError: a short row leaves fields None
        # the csv reader's line count; DictReader's lags a row that fails to parse
        raise ArgumentError(f"{path}:{reader.reader.line_num}: malformed row") from None
    return cells


def grid_config_from_file(path) -> GridConfig:
    """Build a GridConfig from a flat key-value file (see README for keys)."""
    return read_config(path, GridConfig)
