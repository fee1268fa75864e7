"""GFMC on the transverse-field Ising chain with emulated measurement shot noise.

The package has three layers:

* spin chain primitives and exact references (``model``, ``trial``, ``exact``),
* the stochastic machinery (``shots``, ``gfmc``),
* experiment orchestration and fits (``scaling``), driven by the ``shotgfmc`` CLI.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set; it has no
effect if numpy was imported first.
"""

import os

# OpenBLAS starts one spinning worker thread per core when numpy loads,
# which costs CPU in every serial command and makes BLAS sums (the
# trial-table norms, the Lanczos solve) depend on the core count. Pin it to
# one thread before any submodule imports numpy; a user's setting wins.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .model import TfiModel
from .trial import JastrowParams, build_table
from .exact import GroundStateResult, apply_hamiltonian, ground_state, variational_energy
from .shots import noisy_amplitudes, sample_counts, local_energy_scan
from .gfmc import ChainRecord, GfmcConfig, average_local_energy, reweighted_energy, run_chain
from .scaling import (
    SweepPoint,
    crossing_M,
    extrapolate_runtime,
    fit_exponential,
    fit_prefactor,
    run_sweep,
    summarize,
)
from .seeding import derive_seed

__all__ = [
    "TfiModel",
    "JastrowParams",
    "build_table",
    "GroundStateResult",
    "apply_hamiltonian",
    "ground_state",
    "variational_energy",
    "sample_counts",
    "noisy_amplitudes",
    "local_energy_scan",
    "GfmcConfig",
    "ChainRecord",
    "run_chain",
    "reweighted_energy",
    "average_local_energy",
    "SweepPoint",
    "run_sweep",
    "fit_prefactor",
    "crossing_M",
    "fit_exponential",
    "summarize",
    "extrapolate_runtime",
    "derive_seed",
]
