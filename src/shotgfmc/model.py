"""Ferromagnetic transverse-field Ising chain with periodic boundaries.

Basis configurations are L-bit integers: bit k holds spin s_{k} with the
mapping 0 <-> s=+1, 1 <-> s=-1. Site indices are 0-based. The bond sum is
the literal periodic sum over k = 0..L-1, so L=2 counts its single bond
twice.
"""

from dataclasses import dataclass

import numpy as np

# full amplitude tables downstream cap the chain length; the model itself
# only requires L >= 2
MAX_TABLE_L = 26


@dataclass(frozen=True)
class TfiModel:
    """Chain length L, ZZ coupling J > 0 and transverse field Gamma >= 0."""

    L: int
    J: float = 1.0
    Gamma: float = 1.0

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or self.L < 2:
            raise ValueError(f"L must be an integer >= 2, got {self.L!r}")
        if not np.isfinite(self.J) or self.J <= 0:
            raise ValueError(f"J must be a positive finite real, got {self.J!r}")
        if not np.isfinite(self.Gamma) or self.Gamma < 0:
            raise ValueError(f"Gamma must be a nonnegative finite real, got {self.Gamma!r}")

    @property
    def n_states(self) -> int:
        return 1 << self.L

    @property
    def mask(self) -> int:
        return (1 << self.L) - 1


def check_table_size(m: TfiModel) -> None:
    """Raise ValueError before a full-basis array is built for L > MAX_TABLE_L."""
    if m.L > MAX_TABLE_L:
        raise ValueError(f"full-basis table needs L <= {MAX_TABLE_L}, got L={m.L}")


def check_row_shape(shape, m: TfiModel) -> None:
    """Raise ValueError unless shape is (2^L,), the shape of one table row for m."""
    if tuple(shape) != (m.n_states,):
        raise ValueError(f"table and model sizes disagree: a table of shape "
                         f"{tuple(shape)} for L = {m.L}, which needs {m.n_states} entries")


def rotate_right(x, d: int, L: int):
    """x with its L low bits rotated right by d (0 <= d < L): bit k moves to k - d mod L."""
    return (x >> d) | ((x & ((1 << d) - 1)) << (L - d))


def bond_correlations(m: TfiModel, offset: int, states: np.ndarray | None = None) -> np.ndarray:
    """sum_k s_k s_{k+offset mod L} for every basis state (or the given ones), as float64.

    The sum L - 2n, for n unequal pairs, is built in place from states held
    in the smallest unsigned type that fits L bits and freed before the sums
    are allocated, so the scratch stays within two float64 tables.
    """
    dtype = np.min_scalar_type(m.mask)
    x = np.arange(m.n_states, dtype=dtype) if states is None else states.astype(dtype)
    n = np.bitwise_count(x ^ rotate_right(x, offset % m.L, m.L))
    del x
    c = n.astype(np.float64)
    c *= -2.0
    c += m.L
    return c


def all_diagonal_energies(m: TfiModel, states: np.ndarray | None = None) -> np.ndarray:
    """-J * sum_k s_k s_{k+1} over the L periodic bonds, for every basis
    state (or the given ones)."""
    e = bond_correlations(m, 1, states)
    e *= -m.J
    return e


def neighbour_sum(v: np.ndarray, L: int) -> np.ndarray:
    """acc[x] = sum_k v[x ^ (1 << k)], added for k = 0, 1, ..., L-1 into zeros.

    The order fixes the bits of every local energy and of H v. Viewed as
    (blocks, 2, 2^k), flipping bit k swaps the two middle halves, so two
    strided copies into one scratch vector read v[x ^ 1<<k] with no index
    array; the add into acc is then contiguous.
    """
    acc = np.zeros(len(v))
    flipped = np.empty(len(v))
    for k in range(L):
        src = v.reshape(-1, 2, 1 << k)
        dst = flipped.reshape(-1, 2, 1 << k)
        dst[:, 0] = src[:, 1]
        dst[:, 1] = src[:, 0]
        acc += flipped
    return acc
