"""Matrix-free exact diagonalization for the chain.

Lanczos with full reorthogonalization on the O(L 2^L) matvec. The start
vector is the uniform positive vector, so results are reproducible
bit-for-bit; for Gamma > 0 the ground state is unique and strictly
positive, and the returned vector is sign-fixed accordingly. At Gamma = 0
the ground level is doubly degenerate and its flip-even member is returned.

H commutes with the global spin flip x -> mask ^ x, and the start vector is
even under it, so Lanczos runs on the flip-even half: the 2^(L-1) states
with the top bit clear, where flipping the top bit reads v[::-1]. That
halves the matvec, the reorthogonalization and the Krylov basis (1 MiB per
row at L = 18); the vector returned is (y, y[::-1]) / sqrt(2). The matvec
reads the other flip neighbours v[x ^ 1<<k] with ``model.flip_bit``, two
strided copies into one scratch vector. The Krylov basis lives in the rows
of one preallocated array (BASIS_CAPACITY rows, doubled when full), so
reorthogonalization and the Ritz vector work on a view of the first rows
and never copy the basis.
"""

from dataclasses import dataclass

import numpy as np

from .model import TfiModel, all_diagonal_energies, flip_bit
from .trial import AmplitudeTable

# initial row count of the Krylov basis array; it doubles when full
BASIS_CAPACITY = 64


@dataclass
class GroundStateResult:
    energy: float
    vector: np.ndarray
    residual: float
    iterations: int


class _HamiltonianAction:
    """Reusable matvec: diagonal plus the L single-flip shifts; folded, on the flip-even half."""

    def __init__(self, m: TfiModel, folded: bool = False):
        self.m = m
        self.bits = m.L - folded
        self.diag = all_diagonal_energies(m)[:1 << self.bits]
        self.flipped = np.empty(1 << self.bits)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.m.Gamma != 0.0:
            for k in range(self.m.L):
                if k < self.bits:
                    flip_bit(v, k, self.flipped)
                else:
                    np.copyto(self.flipped, v[::-1])
                self.flipped *= self.m.Gamma
                out -= self.flipped
        return out


def apply_hamiltonian(v: np.ndarray, m: TfiModel) -> np.ndarray:
    """H v for a dense vector over the 2^L basis."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.n_states,):
        raise ValueError(f"vector must have length {m.n_states}")
    return _HamiltonianAction(m)(v)


def ground_state(m: TfiModel, tol: float = 1e-10, max_iter: int = 500) -> GroundStateResult:
    """Lowest eigenpair of H, converged to residual norm <= tol."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = m.n_states // 2
    H = _HamiltonianAction(m, folded=True)
    # Krylov basis: row j is the j-th Lanczos vector
    V = np.empty((BASIS_CAPACITY, n))
    V[0] = 1.0 / np.sqrt(n)
    v = V[0]
    alphas: list[float] = []
    betas: list[float] = []
    w = H(v)
    for it in range(1, max_iter + 1):
        a = float(v @ w)
        alphas.append(a)
        w -= a * v
        if betas:
            w -= betas[-1] * V[it - 2]
        # full reorthogonalization, two passes
        basis = V[:it]
        w -= basis.T @ (basis @ w)
        w -= basis.T @ (basis @ w)
        beta = float(np.linalg.norm(w))

        T = np.diag(alphas)
        if betas:
            off = np.array(betas)
            T += np.diag(off, 1) + np.diag(off, -1)
        evals, evecs = np.linalg.eigh(T)
        theta = float(evals[0])
        bound = abs(beta * evecs[-1, 0])
        if bound <= tol or beta < 1e-14:
            y = basis.T @ evecs[:, 0]
            y /= np.linalg.norm(y)
            if y.sum() < 0:
                y = -y
            residual = float(np.linalg.norm(H(y) - theta * y))
            if residual <= tol:
                vector = np.concatenate((y, y[::-1])) / np.sqrt(2.0)
                return GroundStateResult(theta, vector, residual, it)
            # Ritz bound was optimistic; keep iterating unless exhausted
            if beta < 1e-14:
                raise RuntimeError(
                    f"Krylov space exhausted at iteration {it} with residual "
                    f"{residual:.3e} > tol {tol:.3e}"
                )
        betas.append(beta)
        if it == len(V):
            grown = np.empty((2 * len(V), n))
            grown[:it] = V
            V = grown
        v = np.divide(w, beta, out=V[it])
        w = H(v)
    raise RuntimeError(
        f"ground state did not converge to residual {tol:.3e} within {max_iter} iterations"
    )


def variational_energy(t: AmplitudeTable, m: TfiModel) -> float:
    """<psi|H|psi> for a normalized amplitude table, evaluated exactly."""
    if t.L != m.L:
        raise ValueError("table and model sizes disagree")
    return float(t.amps @ apply_hamiltonian(t.amps, m))
