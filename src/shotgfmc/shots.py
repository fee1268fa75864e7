"""Emulated projective measurement of a trial state.

M computational-basis shots are drawn from amps^2 in one multinomial
sample (sequential conditional binomials, O(2^L) work independent of M),
and sqrt(counts/M) becomes the shot-noise amplitude table. One table is
drawn per realization and frozen; unmeasured states keep amplitude
exactly zero and are never flooded with an epsilon.

The package's CSV rows with float cells (the local-energy scan here and
the ``gfmc --dump-chain`` records) are built by ``write_csv_rows``: each
float is written as its repr, computed once per distinct bit pattern, and
rows are joined as bytes in numpy, CSV_CHUNK_ROWS at a time.
"""

from dataclasses import dataclass

import numpy as np

from .gfmc import local_energy_table
from .model import TfiModel
from .seeding import derive_seed
from .trial import AmplitudeTable

PROB_TOL = 1e-12

# CSV cell for a local energy that does not exist (zero-count state)
NA_TOKEN = "NA"

SCAN_SCHEMA = "local_energy_scan.v1"

# rows joined per write by write_csv_rows; bounds the row bytes held at once
CSV_CHUNK_ROWS = 4096


@dataclass
class ShotCounts:
    L: int
    M: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (1 << self.L,):
            raise ValueError("counts table has the wrong length")
        if self.M < 1 or int(self.counts.sum()) != self.M:
            raise ValueError("counts must sum to M >= 1")


def sample_counts(p: np.ndarray, M: int, rng: np.random.Generator) -> ShotCounts:
    """Multinomial(M, p) over the full basis, deterministic given rng state."""
    p = np.asarray(p, dtype=np.float64)
    if M < 1:
        raise ValueError("M must be >= 1")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOL * max(1.0, len(p)) or np.any(p < 0):
        raise ValueError(f"probabilities must be nonnegative and sum to 1, got {total!r}")
    L = int(len(p)).bit_length() - 1
    if (1 << L) != len(p):
        raise ValueError("probability table length must be a power of two")
    counts = rng.multinomial(M, p / total)
    return ShotCounts(L, M, counts)


def noisy_amplitudes(c: ShotCounts) -> AmplitudeTable:
    """sqrt(counts/M): zero counts give amplitude exactly zero."""
    return AmplitudeTable(c.L, np.sqrt(c.counts / c.M), "noisy")


@dataclass
class LocalEnergyScan:
    """Full-basis local-energy fluctuation data for one (L, M0) setting.

    Per-replicate arrays are indexed by basis state; ``order`` lists states
    by decreasing exact amplitude (rank 0 first), with ties broken by
    state index. noisy_eloc is NaN where the replicate left a state
    unmeasured.
    """

    L: int
    M0: int
    M: int
    reps: int
    seed: int
    order: np.ndarray
    exact_amp: np.ndarray
    exact_eloc: np.ndarray
    noisy_amp: np.ndarray   # (reps, 2^L)
    noisy_eloc: np.ndarray  # (reps, 2^L)


def local_energy_scan(m: TfiModel, trial: AmplitudeTable, M0: int, reps: int,
                      seed: int) -> LocalEnergyScan:
    """Draw reps frozen shot tables at M = M0 * 2^L and scan e_L everywhere.

    The exact trial must have full support so the reference local energy
    exists for every state.
    """
    if M0 < 1 or reps < 1:
        raise ValueError("M0 and reps must be >= 1")
    if np.any(trial.amps == 0.0):
        raise ValueError("scan reference table must have full support")
    M = M0 * m.n_states
    e_exact, _ = local_energy_table(trial, m)
    order = np.lexsort((np.arange(m.n_states), -trial.amps))
    noisy_amp = np.empty((reps, m.n_states))
    noisy_eloc = np.empty((reps, m.n_states))
    p = trial.probabilities
    for rep in range(reps):
        rng = np.random.default_rng(derive_seed(seed, m.L, M, rep))
        table = noisy_amplitudes(sample_counts(p, M, rng))
        e_noisy, _ = local_energy_table(table, m)
        noisy_amp[rep] = table.amps
        noisy_eloc[rep] = e_noisy
    return LocalEnergyScan(m.L, M0, M, reps, seed, order, trial.amps.copy(),
                           e_exact, noisy_amp, noisy_eloc)


def _float_words(x: np.ndarray) -> np.ndarray:
    """repr of every float of x as a (len(x), width) NUL-padded uint8 matrix.

    repr runs once per distinct bit pattern (np.unique on the int64 view,
    so -0.0 and 0.0 stay apart); every NaN becomes NA_TOKEN.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    words = np.array([NA_TOKEN if v != v else repr(v)
                      for v in bits.view(np.float64).tolist()], dtype="S")
    return words[inverse].view(np.uint8).reshape(len(x), words.itemsize)


def _int_words(v: np.ndarray) -> np.ndarray:
    """Nonnegative integers in decimal, right-aligned in a NUL-padded uint8
    matrix as wide as the largest one."""
    v = np.asarray(v, dtype=np.int64)[:, None]
    width = len(str(int(v.max())))
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    digits = (v // powers % 10 + ord("0")).astype(np.uint8)
    digits[:, :-1][v < powers[:-1]] = 0  # leading zeros
    return digits


def _row_matrix(cells, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of cells, side by side, as one NUL-padded uint8 matrix."""
    parts = []
    for c in cells:
        if isinstance(c, bytes):
            c = np.broadcast_to(np.frombuffer(c, np.uint8), (hi - lo, len(c)))
        elif c.ndim == 1:
            c = _float_words(c[lo:hi]) if c.dtype.kind == "f" else _int_words(c[lo:hi])
        else:
            c = c[lo:hi]
        parts.append(c)
    return np.concatenate(parts, axis=1)


def write_csv_rows(f, cells) -> None:
    """Write rows to the binary file f, CSV_CHUNK_ROWS at a time.

    A cell is bytes written in every row (separators included), a
    (rows, width) uint8 matrix of NUL-padded words formatted beforehand,
    or a float or nonnegative integer column, formatted one chunk at a
    time. No word holds a NUL byte, so dropping the padding joins the
    cells.
    """
    n = next(len(c) for c in cells if not isinstance(c, bytes))
    for lo in range(0, n, CSV_CHUNK_ROWS):
        rows = _row_matrix(cells, lo, min(lo + CSV_CHUNK_ROWS, n)).ravel()
        f.write(rows[rows != 0])


def write_scan_csv(scan: LocalEnergyScan, path) -> None:
    """Rows in (rep, rank) order; undefined local energies become NA.

    Every float is written as its repr, once per distinct value in what
    is formatted at once: rank, state, exact_amp and exact_eloc once per
    file, noisy_amp (a few hundred distinct sqrt(k/M)) once per
    replicate, and noisy_eloc (mostly distinct) once per chunk of rows,
    which bounds the memory its words take.
    """
    order = scan.order
    n = len(order)
    head = _row_matrix([np.arange(n), b",", order, b",", scan.exact_amp[order], b","], 0, n)
    exact_eloc = _float_words(scan.exact_eloc[order])
    tail = f",{scan.L},{scan.M0},{scan.seed}\n".encode()
    with open(path, "wb") as f:
        f.write(f"# schema={SCAN_SCHEMA}\n".encode())
        f.write(b"rep,rank,state,exact_amp,noisy_amp,exact_eloc,noisy_eloc,L,M0,seed\n")
        for rep in range(scan.reps):
            noisy_amp = _float_words(scan.noisy_amp[rep, order])
            write_csv_rows(f, [f"{rep},".encode(), head, noisy_amp, b",", exact_eloc, b",",
                               scan.noisy_eloc[rep, order], tail])
