"""Kernel Hopfield networks, their Fisher-information geometry, and
phase-diagram sweeps over the (gamma, load) plane.

Modules:
    kernel_core -- pattern generation, RBF kernel, Gram matrices
    klr         -- per-neuron kernel logistic regression training
    infogeo     -- Fisher matrix, spectrum, natural gradient, norm reports
    dynamics    -- recall dynamics and overlap measurements
    sweep       -- (gamma, load) grid runner with CSV output
    svgplot     -- self-contained SVG heatmaps and spectrum plots
    config      -- flat key-value config files read into dataclasses
    errors      -- the exception types and the one range check
    cli         -- the `hopgeo` command and its exit codes
"""

import os

# One BLAS thread per process unless the caller chose a count: parallelism comes from
# --workers, and other counts change result bits. numpy reads it once, so set it first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
