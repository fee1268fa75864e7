"""Matrix-free exact diagonalization for the chain.

Lanczos with full reorthogonalization. The start vector is the uniform
positive vector, so results are reproducible bit-for-bit; for Gamma > 0
the ground state is unique and strictly positive, and the returned vector
is sign-fixed accordingly. At Gamma = 0 the ground level is doubly
degenerate and its flip-even member is returned.

H commutes with the L translations, the reflection and the global flip
x -> mask ^ x, a group of order 4L, and the uniform start vector is
invariant under all of them. So Lanczos runs on the fully symmetric
sector, in the orthonormal basis of orbit indicators divided by
sqrt(N_a), N_a the orbit size: about 2^L / 4L coordinates (1,162 at
L = 16, 3,914 at L = 18). ``symmetry_orbits`` labels every state with its
orbit; the representative of an orbit is its smallest state. It keeps
the states no larger than their image under each group element in turn
(the candidates shrink from 2^(L-1) to the ~2^L / 4L representatives),
then labels every image of the representatives. The labels are int32 (so
L <= 30) and are the solver's largest array: 2^L int32, 16 MiB at
L = 22, besides the 2^L float64 vector it returns. In the
sector, H is a diagonal plus L gathers, one per flipped bit,
(H v)_a = E(rep_a) v_a - sum_k Gamma sqrt(N_a / N_b) v_b with
b = orbit(rep_a ^ 1<<k). The embedding is an isometry, so the sector
residual is the full-space residual; the vector returned is
(y / sqrt(N))[orbit]. ``lanczos`` runs the iteration on any symmetric
action; its Krylov basis lives in the rows of one preallocated array
(BASIS_CAPACITY rows, doubled when full), so reorthogonalization and the
Ritz vector work on a view of the first rows and never copy the basis.
The basis and the sector action are freed before the 2^L embedding is
built.

``apply_hamiltonian`` is the full-space action on any vector, the
diagonal times v minus Gamma times ``model.neighbour_sum(v, L)``: the
same flip loop, in the same order, as the local-energy table.
"""

from dataclasses import dataclass

import numpy as np

from .model import (
    TfiModel,
    all_diagonal_energies,
    check_row_shape,
    check_table_size,
    neighbour_sum,
    rotate_right,
)

# initial row count of the Krylov basis array; it doubles when full
BASIS_CAPACITY = 64

# a row passed to variational_energy must have |sum amps^2 - 1| <= NORM_TOL * 2^L
NORM_TOL = 1e-12


@dataclass
class GroundStateResult:
    energy: float
    vector: np.ndarray
    residual: float
    iterations: int


def apply_hamiltonian(v: np.ndarray, m: TfiModel) -> np.ndarray:
    """H v for a dense vector over the 2^L basis."""
    v = np.asarray(v, dtype=np.float64)
    check_row_shape(v.shape, m)
    return all_diagonal_energies(m) * v - m.Gamma * neighbour_sum(v, m.L)


def _bit_reversal(bits: int) -> np.ndarray:
    """rev[x] is x with its low ``bits`` bits reversed, built by doubling."""
    rev = np.zeros(1, dtype=np.int32)
    for _ in range(bits):
        # reversing one more bit shifts the reversed low bits up and moves
        # the new top bit to bit 0
        rev = np.concatenate((rev << 1, (rev << 1) | 1))
    return rev


def symmetry_orbits(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(orbit, reps, sizes) under translations, reflection and global flip.

    orbit[x] is the index of x's orbit, reps[a] the smallest state of
    orbit a (reps is increasing) and sizes[a] the number of its states;
    all three are int32. A state is a representative when no image is
    smaller, so the candidates are filtered by one group element after
    the other; then each image of the representatives is labelled.
    """
    mask = (1 << L) - 1
    low = L // 2
    low_rev, high_rev = _bit_reversal(low), _bit_reversal(L - low)

    def act(x, reflect, shift, flip):
        if reflect:
            x = (low_rev[x & ((1 << low) - 1)] << (L - low)) | high_rev[x >> low]
        if shift:
            x = rotate_right(x, shift, L)
        return x ^ mask if flip else x

    group = [(reflect, shift, flip)
             for reflect in (0, 1) for shift in range(L) for flip in (0, 1)]
    # group[:2] is the identity and the flip; a state no larger than its
    # flip image has its top bit clear
    reps = np.arange(1 << (L - 1), dtype=np.int32)
    for g in group[2:]:
        reps = reps[reps <= act(reps, *g)]
    orbit = np.empty(1 << L, dtype=np.int32)
    labels = np.arange(len(reps), dtype=np.int32)
    stabilizer = np.zeros(len(reps), dtype=np.int32)
    for g in group:
        image = act(reps, *g)
        orbit[image] = labels
        stabilizer += image == reps
    # orbit-stabilizer theorem: N_a = |G| / |stabilizer of rep_a|
    return orbit, reps, len(group) // stabilizer


class _SectorAction:
    """H on the fully symmetric sector: diagonal plus L gathers, no scatter."""

    def __init__(self, m: TfiModel, orbit: np.ndarray, reps: np.ndarray, sizes: np.ndarray):
        self.diag = all_diagonal_energies(m, reps)
        self.nbr = np.stack([orbit[reps ^ (1 << k)] for k in range(m.L)])
        self.weight = m.Gamma * np.sqrt(sizes / sizes[self.nbr])
        self.gathered = np.empty(len(reps))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        for nbr, weight in zip(self.nbr, self.weight):
            np.take(v, nbr, out=self.gathered)
            self.gathered *= weight
            out -= self.gathered
        return out


def lanczos(action, start: np.ndarray, tol: float, max_iter: int):
    """Lowest Ritz pair of the symmetric operator action, from the unit vector start.

    Returns (theta, y, residual, iterations): y is the unit Ritz vector,
    sign-fixed to a nonnegative sum, and residual = |action(y) - theta y|
    <= tol. The Krylov basis, which holds one row per iteration, is freed
    when this returns.
    """
    n = len(start)
    # Krylov basis: row j is the j-th Lanczos vector
    V = np.empty((BASIS_CAPACITY, n))
    V[0] = start
    v = V[0]
    alphas: list[float] = []
    betas: list[float] = []
    w = action(v)
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
            residual = float(np.linalg.norm(action(y) - theta * y))
            if residual <= tol:
                return theta, y, residual, it
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
        w = action(v)
    raise RuntimeError(
        f"ground state did not converge to residual {tol:.3e} within {max_iter} iterations"
    )


def ground_state(m: TfiModel, tol: float = 1e-10, max_iter: int = 500) -> GroundStateResult:
    """Lowest eigenpair of H, converged to residual norm <= tol."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    check_table_size(m)
    orbit, reps, sizes = symmetry_orbits(m.L)
    # the uniform vector 2^(-L/2) on every state, in sector coordinates;
    # the sector action and the Krylov basis die with the lanczos call,
    # before the 2^L embedding is built
    energy, y, residual, iterations = lanczos(_SectorAction(m, orbit, reps, sizes),
                                              np.sqrt(sizes / m.n_states), tol, max_iter)
    return GroundStateResult(energy, (y / np.sqrt(sizes))[orbit], residual, iterations)


def variational_energy(amps: np.ndarray, m: TfiModel) -> float:
    """<psi|H|psi> for a normalized 2^L amplitude row, evaluated exactly."""
    h_amps = apply_hamiltonian(amps, m)  # rejects a row of the wrong length
    norm2 = float(amps @ amps)
    if abs(norm2 - 1.0) > NORM_TOL * m.n_states:
        raise ValueError(f"table not normalized: sum amps^2 = {norm2!r}")
    return float(amps @ h_amps)
