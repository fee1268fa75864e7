"""Independent reference implementations the tests check against.

Everything here is deliberately written from first principles (dense
Pauli kron products, direct per-state loops, the free-fermion closed
form) and shares no code path with the package.
"""

import math

import numpy as np

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_ID = np.eye(2)


def _kron_site(op: np.ndarray, k: int, L: int, op2=None, k2=None) -> np.ndarray:
    """Operator acting with op on site k (site k lives on bit k of the index)."""
    ops = [_ID] * L
    ops[L - 1 - k] = op
    if op2 is not None:
        ops[L - 1 - k2] = op2
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return out


def dense_hamiltonian(L: int, J: float = 1.0, Gamma: float = 1.0) -> np.ndarray:
    """Full 2^L x 2^L matrix, O(8^L); usable up to L ~ 12."""
    H = np.zeros((1 << L, 1 << L))
    for k in range(L):
        H -= J * _kron_site(_SZ, k, L, _SZ, (k + 1) % L)
        H -= Gamma * _kron_site(_SX, k, L)
    return H


def folded_hamiltonian(L: int, J: float = 1.0, Gamma: float = 1.0) -> np.ndarray:
    """H on flip-even vectors (h, h[::-1]), written on h: the first 2^(L-1) rows.

    The flip image of state x < 2^(L-1) is mask ^ x = 2^L - 1 - x, so the
    upper half of a flip-even vector is its lower half reversed.
    """
    H = dense_hamiltonian(L, J, Gamma)
    n = 1 << (L - 1)
    return H[:n, :n] + H[:n, n:][:, ::-1]


def free_fermion_e0(L: int, J: float = 1.0, Gamma: float = 1.0) -> float:
    """Closed-form ground energy from the fermionized chain.

    Antiperiodic momenta k = (2m+1) pi / L; exact for the even-parity
    ground state of the ferromagnetic periodic chain.
    """
    total = 0.0
    for mm in range(L):
        k = (2 * mm + 1) * math.pi / L
        total += 2.0 * math.sqrt(J * J + Gamma * Gamma - 2.0 * J * Gamma * math.cos(k))
    return -0.5 * total


def symmetry_images(x: int, L: int) -> set:
    """Every image of state x under the L rotations, the reflection and the global flip."""
    bits = [(x >> k) & 1 for k in range(L)]
    images = set()
    for seq in (bits, bits[::-1]):
        for s in range(L):
            rotated = seq[s:] + seq[:s]
            for flip in (0, 1):
                images.add(sum((b ^ flip) << k for k, b in enumerate(rotated)))
    return images


def spin(x: int, k: int) -> int:
    return 1 - 2 * ((x >> k) & 1)


def jastrow_amp_direct(x: int, L: int, l1: float, l2: float) -> float:
    """Unnormalized Jastrow amplitude by direct per-site loops."""
    c1 = sum(spin(x, k) * spin(x, (k + 1) % L) for k in range(L))
    c2 = sum(spin(x, k) * spin(x, (k + 2) % L) for k in range(L))
    return math.exp(l1 * c1 + l2 * c2)


def local_energy_direct(x: int, amps: np.ndarray, L: int, J: float, Gamma: float) -> float:
    """Local energy by direct summation: bond term plus flip amplitude ratios."""
    diag = -J * sum(spin(x, k) * spin(x, (k + 1) % L) for k in range(L))
    off = sum(amps[x ^ (1 << k)] for k in range(L))
    return diag - Gamma * off / amps[x]


def stationary_distribution(amps: np.ndarray, L: int, J: float, Gamma: float,
                            lam: float, iters: int = 200_000, tol: float = 1e-14) -> np.ndarray:
    """Left fixed point of the importance-sampled transition matrix.

    Dense power iteration over the full 2^L kernel; only sensible for
    L <= 4 where it serves as the independent visit-frequency oracle.
    """
    H = dense_hamiltonian(L, J, Gamma)
    A = (lam * np.eye(1 << L) - H) * amps[None, :] / amps[:, None]
    b = A.sum(axis=1)
    P = A / b[:, None]
    pi = np.full(1 << L, 1.0 / (1 << L))
    for _ in range(iters):
        nxt = pi @ P
        nxt /= nxt.sum()
        if np.abs(nxt - pi).max() < tol:
            return nxt
        pi = nxt
    raise RuntimeError("stationary distribution did not converge")


def chain_fill_scalar(amps, L, J, Gamma, lam, warmup, x0, urand, states, bvals, wbuf):
    """Walk the chain for len(urand) steps, recording after warmup.

    The single-walker loop the population kernel must reproduce bit for
    bit. For the current state x the row of the importance-sampled
    propagator is
      stay weight   lam - E_diag(x)
      flip weight k Gamma * amps[x ^ 1<<k] / amps[x]
    b is the row sum and the next state is drawn by inverse CDF, first
    index wins on ties. states/bvals hold x and b for steps >= warmup.
    """
    n_steps = urand.shape[0]
    x = x0
    for n in range(n_steps):
        ax = amps[x]
        acc = 0
        for k in range(L):
            kk = k + 1
            if kk == L:
                kk = 0
            if ((x >> k) & 1) == ((x >> kk) & 1):
                acc += 1
            else:
                acc -= 1
        w_stay = lam + J * acc
        b = w_stay
        for k in range(L):
            wk = Gamma * (amps[x ^ (1 << k)] / ax)
            wbuf[k] = wk
            b += wk
        if n >= warmup:
            states[n - warmup] = x
            bvals[n - warmup] = b
        t = urand[n] * b
        if t >= w_stay:
            c = w_stay
            sel = -1
            last_pos = -1
            for k in range(L):
                if wbuf[k] > 0.0:
                    last_pos = k
                c += wbuf[k]
                if t < c:
                    sel = k
                    break
            if sel < 0:
                # cumulative roundoff left t at/past the top; take the
                # last nonempty interval (stay if there is none)
                sel = last_pos
            if sel >= 0:
                x = x ^ (1 << sel)
    return x


def sliding_window_sums_scalar(values, width, recompute_every, out):
    """out[j] = sum(values[j : j+width]) by a running add/subtract update,
    refreshed from scratch every recompute_every steps."""
    s = 0.0
    for i in range(width):
        s += values[i]
    out[0] = s
    for j in range(1, out.shape[0]):
        if j % recompute_every == 0:
            s = 0.0
            for i in range(j, j + width):
                s += values[i]
        else:
            s = s + values[j + width - 1] - values[j - 1]
        out[j] = s


def diagonal_energies_direct(L: int, J: float) -> np.ndarray:
    """-J * sum_k s_k s_{k+1} for every basis state, from per-site spin arrays."""
    idx = np.arange(1 << L, dtype=np.int64)
    spins = [1 - 2 * ((idx >> k) & 1) for k in range(L)]
    bonds = sum(spins[k] * spins[(k + 1) % L] for k in range(L))
    return -J * bonds.astype(np.float64)


def apply_hamiltonian_gather(v: np.ndarray, L: int, J: float, Gamma: float) -> np.ndarray:
    """H v with one XOR index gather per site.

    The flip-neighbor sum of v[x ^ 1<<k] is added in increasing k into
    zeros and then H v = diag * v - Gamma * sum, the order the package's
    matvec must keep to agree bit for bit.
    """
    idx = np.arange(1 << L, dtype=np.int64)
    acc = np.zeros(1 << L)
    for k in range(L):
        acc += v[idx ^ (1 << k)]
    return diagonal_energies_direct(L, J) * v - Gamma * acc


def local_energy_table_gather(amps: np.ndarray, L: int, J: float, Gamma: float):
    """(e, defined) with the flip-neighbor sum gathered by XOR index, k in order."""
    idx = np.arange(1 << L, dtype=np.int64)
    defined = amps > 0.0
    acc = np.zeros(1 << L)
    for k in range(L):
        acc += amps[idx ^ (1 << k)]
    e = np.full(1 << L, np.nan)
    e[defined] = (diagonal_energies_direct(L, J)[defined]
                  - Gamma * acc[defined] / amps[defined])
    return e, defined


def write_scan_csv_rows(scan, path) -> None:
    """local_energy_scan.v1 written one row at a time from numpy scalars."""
    with open(path, "w", newline="") as f:
        f.write("# schema=local_energy_scan.v1\n")
        f.write("rep,rank,state,exact_amp,noisy_amp,exact_eloc,noisy_eloc,L,M0,seed\n")
        for rep in range(scan.reps):
            noisy_amp, noisy_eloc = scan.replicate(rep)
            for rank, state in enumerate(scan.order):
                ne = noisy_eloc[state]
                ne_txt = "NA" if np.isnan(ne) else repr(float(ne))
                f.write(
                    f"{rep},{rank},{state},{float(scan.exact_amp[state])!r},"
                    f"{float(noisy_amp[state])!r},"
                    f"{float(scan.exact_eloc[state])!r},"
                    f"{ne_txt},{scan.L},{scan.M0},{scan.seed}\n"
                )


def write_chain_csv_rows(record, path) -> None:
    """chain_record.v1 written one row at a time from numpy scalars."""
    with open(path, "w") as f:
        f.write("# schema=chain_record.v1\n")
        f.write("n,state,b,e\n")
        for n in range(len(record)):
            f.write(f"{n},{record.states[n]},{float(record.b_values[n])!r},"
                    f"{float(record.e_values[n])!r}\n")


def write_sweep_csv_rows(points, path) -> None:
    """sweep_points.v1 written one row at a time from numpy scalars."""
    with open(path, "w", newline="") as f:
        f.write("# schema=sweep_points.v1\n")
        f.write("L,M,trial_kind,rep,energy_per_site,E0_per_site,signed_error\n")
        for p in sorted(points, key=lambda q: (q.L, q.M)):
            for rep, est in enumerate(p.replicate_estimates):
                f.write(f"{p.L},{p.M},{p.trial_kind},{rep},{float(est)!r},"
                        f"{float(p.e0_per_site)!r},{float(est - p.e0_per_site)!r}\n")
