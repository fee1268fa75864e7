"""Normalized trial amplitude tables over the full computational basis.

A table is a plain float64 row of 2^L entries, L2-normalized and
nonnegative, like a drawn shot table. The Jastrow ansatz is evaluated in
the log domain with a max-shift before exponentiation.
"""

from dataclasses import dataclass

import numpy as np

from .model import TfiModel, bond_correlations, check_row_shape, check_table_size

# largest |log amplitude| spread that survives exponentiation after the
# max-shift without total underflow of the whole table
_LOG_RANGE_LIMIT = 700.0


@dataclass(frozen=True)
class JastrowParams:
    """Two-body correlator coefficients: nearest and next-nearest neighbor."""

    lambda1: float = 0.233
    lambda2: float = 0.083

    def __post_init__(self):
        if not (np.isfinite(self.lambda1) and np.isfinite(self.lambda2)):
            raise ValueError("Jastrow coefficients must be finite")


def jastrow_log_amplitudes(p: JastrowParams, m: TfiModel) -> np.ndarray:
    """Log of the unnormalized Jastrow amplitude for every basis state.

    lambda1 * sum_k s_k s_{k+1} + lambda2 * sum_k s_k s_{k+2}, periodic.
    """
    return p.lambda1 * bond_correlations(m, 1) + p.lambda2 * bond_correlations(m, 2)


def jastrow_table(m: TfiModel, p: JastrowParams | None = None) -> np.ndarray:
    check_table_size(m)
    p = p or JastrowParams()
    logs = jastrow_log_amplitudes(p, m)
    spread = float(logs.max() - logs.min())
    if not np.isfinite(spread) or spread > _LOG_RANGE_LIMIT:
        raise OverflowError(
            f"log-amplitude spread {spread:.3g} exceeds the safe range "
            f"{_LOG_RANGE_LIMIT}; table would underflow entirely"
        )
    amps = np.exp(logs - logs.max())
    amps /= np.linalg.norm(amps)
    return amps


def check_ground_state_gamma(Gamma: float) -> None:
    """The exact trial needs a unique ground state, so Gamma = 0 is rejected by rule."""
    if Gamma == 0:
        raise ValueError(f"exact-groundstate trial at model.Gamma = {Gamma!r}: the ground "
                         "level is degenerate (both ferromagnetic states); use model.Gamma > 0")


def ground_state_table(m: TfiModel, vector: np.ndarray) -> np.ndarray:
    """The normalized, sign-fixed row of a precomputed ground-state vector
    (from the exact solver)."""
    check_table_size(m)
    check_ground_state_gamma(m.Gamma)
    v = np.asarray(vector, dtype=np.float64)
    check_row_shape(v.shape, m)
    if v.sum() < 0:
        v = -v
    v = v / np.linalg.norm(v)
    negative = v < 0
    if negative.any():
        # roundoff where the true amplitude lies below the solver's accuracy;
        # clipping would hide a trial that is not exact
        raise ValueError(
            f"exact-groundstate trial at model.Gamma = {m.Gamma!r}: the ground-state "
            f"vector has {int(negative.sum())} negative entries, the most negative "
            f"{float(v.min()):.3g}: roundoff on amplitudes below the solver's accuracy; "
            "use a larger model.Gamma")
    return v


def build_table(kind: str, m: TfiModel, params: JastrowParams | None = None,
                vector: np.ndarray | None = None) -> np.ndarray:
    """The normalized 2^L trial row of the requested kind."""
    if kind == "jastrow":
        return jastrow_table(m, params)
    if kind == "exact-groundstate":
        if vector is None:
            raise ValueError("exact-groundstate tables need the precomputed vector")
        return ground_state_table(m, vector)
    raise ValueError(f"cannot build table of kind {kind!r}")
