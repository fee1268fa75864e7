"""Normalized trial amplitude tables over the full computational basis.

Tables are dense 2^L float arrays, always L2-normalized, always
nonnegative. The Jastrow ansatz is evaluated in the log domain with a
max-shift before exponentiation.
"""

from dataclasses import dataclass

import numpy as np

from .model import MAX_TABLE_L, TfiModel, bond_correlations

TABLE_KINDS = ("uniform", "jastrow", "exact-groundstate", "noisy")

NORM_TOL = 1e-12

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


@dataclass
class AmplitudeTable:
    L: int
    amps: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in TABLE_KINDS:
            raise ValueError(f"unknown table kind {self.kind!r}")
        self.amps = np.asarray(self.amps, dtype=np.float64)
        if self.amps.shape != (1 << self.L,):
            raise ValueError(f"table for L={self.L} must have {1 << self.L} entries")
        if np.any(self.amps < 0):
            raise ValueError("amplitudes must be nonnegative")
        norm2 = float(self.amps @ self.amps)
        if abs(norm2 - 1.0) > NORM_TOL * (1 << self.L):
            raise ValueError(f"table not normalized: sum amps^2 = {norm2!r}")

    @property
    def probabilities(self) -> np.ndarray:
        return self.amps * self.amps


def jastrow_log_amplitudes(p: JastrowParams, m: TfiModel) -> np.ndarray:
    """Log of the unnormalized Jastrow amplitude for every basis state.

    lambda1 * sum_k s_k s_{k+1} + lambda2 * sum_k s_k s_{k+2}, periodic.
    """
    c1 = bond_correlations(m, 1).astype(np.float64)
    c2 = bond_correlations(m, 2).astype(np.float64)
    return p.lambda1 * c1 + p.lambda2 * c2


def _check_table_size(m: TfiModel) -> None:
    if m.L > MAX_TABLE_L:
        raise ValueError(f"full-basis table needs L <= {MAX_TABLE_L}, got L={m.L}")


def uniform_table(m: TfiModel) -> AmplitudeTable:
    _check_table_size(m)
    amps = np.full(m.n_states, 1.0 / np.sqrt(m.n_states))
    return AmplitudeTable(m.L, amps, "uniform")


def jastrow_table(m: TfiModel, p: JastrowParams | None = None) -> AmplitudeTable:
    _check_table_size(m)
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
    return AmplitudeTable(m.L, amps, "jastrow")


def ground_state_table(m: TfiModel, vector: np.ndarray) -> AmplitudeTable:
    """Wrap a precomputed ground-state vector (from the exact solver)."""
    _check_table_size(m)
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != (m.n_states,):
        raise ValueError("ground-state vector has the wrong length")
    if v.sum() < 0:
        v = -v
    v = v / np.linalg.norm(v)
    negative = v < 0
    if negative.any():
        # roundoff where the true amplitude is zero (Gamma = 0) or lies below
        # the solver's accuracy; clipping would hide a trial that is not exact
        raise ValueError(
            f"exact-groundstate trial at model.Gamma = {m.Gamma!r}: the ground-state "
            f"vector has {int(negative.sum())} negative entries, the most negative "
            f"{float(v.min()):.3g}: roundoff on amplitudes that are zero or below the "
            "solver's accuracy; use a larger model.Gamma")
    return AmplitudeTable(m.L, v, "exact-groundstate")


def build_table(kind: str, m: TfiModel, params: JastrowParams | None = None,
                vector: np.ndarray | None = None) -> AmplitudeTable:
    """Construct a normalized trial table of the requested kind."""
    if kind == "uniform":
        return uniform_table(m)
    if kind == "jastrow":
        return jastrow_table(m, params)
    if kind == "exact-groundstate":
        if vector is None:
            raise ValueError("exact-groundstate tables need the precomputed vector")
        return ground_state_table(m, vector)
    raise ValueError(f"cannot build table of kind {kind!r}")
