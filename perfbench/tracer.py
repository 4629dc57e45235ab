"""Traced in-process hopgeo runs and the descent micro-measure.

Run by perfbench/run.py in a fresh interpreter, never imported by hopgeo:

    python3 perfbench/tracer.py spans OUT.json -- <hopgeo arguments>
    python3 perfbench/tracer.py micro OUT.json SEED

`spans` wraps the public hopgeo functions listed in TRACED at every hopgeo
module that binds them (the defining module and the modules that import
them by name, so nested calls such as train -> fit_dual_weights are seen),
calls hopgeo.cli.main in-process, and writes one record per call:
[name, parent index, start, end, counts]. Counts come from return values.
The process exits with main's return code.

`micro` times fit_dual_weights at a fixed epoch count for P = 8, 16, 32
with N = 64, and the numpy matmul rate for the same (P, P) @ (P, N) shape.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (defining module, function, layer, counter over the return value)
TRACED = [
    ("kernel_core", "generate_patterns", "kernel_core", None),
    ("kernel_core", "gram", "kernel_core", None),
    ("kernel_core", "corrupt", "kernel_core", None),
    ("kernel_core", "save_patterns", "kernel_core", None),
    ("kernel_core", "load_patterns", "kernel_core", None),
    ("klr", "fit_dual_weights", "klr", lambda r: {
        "P": r.alpha.shape[0],
        "neurons": r.alpha.shape[1],
        "epochs": r.epochs,
        "converged": int(r.converged.sum()),
        "diverged": len(r.diverged),
    }),
    ("klr", "train", "klr", None),
    ("klr", "save_weights", "klr", None),
    ("klr", "load_weights", "klr", None),
    ("infogeo", "gradient_report", "infogeo", lambda r: {"degenerate": int(r.degenerate)}),
    ("infogeo", "fisher_matrix", "infogeo", None),
    ("infogeo", "spectrum", "infogeo", lambda r: {"degenerate": int(r.lambda_max <= 0.0)}),
    ("infogeo", "write_spectrum_csv", "infogeo", None),
    ("dynamics", "recall", "dynamics", lambda r: {
        "steps": r.steps,
        "success": int(r.success),
        "converged": int(r.converged),
    }),
    ("sweep", "run_cell", "sweep", None),
    ("sweep", "run_grid", "sweep", None),
    ("sweep", "write_grid_csv", "sweep", None),
    ("svgplot", "render_heatmap", "svgplot", lambda r: {"bytes": len(r.encode())}),
    ("svgplot", "render_spectrum_lines", "svgplot", lambda r: {"bytes": len(r.encode())}),
    ("cli", "main", "cli", None),
]

LAYER = {name: layer for _, name, layer, _ in TRACED}


class Tracer:
    """Collects nested spans from wrapped functions (single-threaded)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, {}]
            self.spans.append(record)
            self._stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                record[4] = counter(result)
            return result

        return traced

    def install(self):
        import hopgeo.cli  # noqa: F401  (loads every hopgeo module)

        modules = [m for n, m in sys.modules.items() if n.startswith("hopgeo.")]
        for module_name, name, _, counter in TRACED:
            original = getattr(sys.modules[f"hopgeo.{module_name}"], name)
            wrapper = self.wrap(original, name, counter)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)


def run_spans(out_path, argv):
    tracer = Tracer()
    tracer.install()
    import hopgeo.cli

    try:
        code = hopgeo.cli.main(argv)
    finally:
        with open(out_path, "w") as f:
            json.dump(tracer.spans, f)
    return code


def run_micro(out_path, seed):
    import numpy as np

    from hopgeo.kernel_core import KernelConfig, generate_patterns, gram
    from hopgeo.klr import TrainConfig, all_targets, fit_dual_weights

    N, epochs, repeats = 64, 2000, 3
    # acceptance-grid descent settings; grad_tol is tiny so no column stops early
    cfg = TrainConfig(lam=1e-6, learning_rate=0.008, max_epochs=epochs, grad_tol=1e-300)
    out = {}
    for P in (8, 16, 32):
        patterns = generate_patterns(P, N, seed + P)
        K = gram(patterns, KernelConfig(gamma=1e-3)).values
        T = all_targets(patterns)
        per_epoch = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = fit_dual_weights(K, T, cfg)
            per_epoch.append((time.perf_counter() - t0) / res.epochs)
            if res.epochs != epochs or res.diverged:
                raise SystemExit(f"micro-measure at P={P} stopped early: {res.epochs} epochs")
        A = np.ones((P, N))
        calls = 0
        t0 = time.perf_counter()
        while True:
            for _ in range(200):
                K @ A
            calls += 200
            elapsed = time.perf_counter() - t0
            if elapsed >= 0.15:
                break
        out[f"P{P}"] = {
            "us_per_epoch": statistics.median(per_epoch) * 1e6,
            "matmul_flops": 2.0 * P * P * N * calls,
            "matmul_s": elapsed,
        }
    with open(out_path, "w") as f:
        json.dump(out, f)
    return 0


def main(argv):
    mode, out_path, *rest = argv
    if mode == "spans":
        if rest[:1] == ["--"]:
            rest = rest[1:]
        return run_spans(out_path, rest)
    if mode == "micro":
        return run_micro(out_path, int(rest[0]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
