"""Emulated projective measurement of a trial state.

M computational-basis shots are drawn from amps^2 in one multinomial
sample (sequential conditional binomials, O(2^L) work independent of M),
and sqrt(counts/M) becomes the shot-noise amplitude table, a plain array
like the counts. One table is drawn per realization and frozen;
unmeasured states keep amplitude exactly zero and are never flooded
with an epsilon.

The package's CSV rows with float cells (the local-energy scan here and
the ``gfmc --dump-chain`` records) are built by ``write_csv_rows``: each
float is written as its repr, computed once per distinct bit pattern, and
rows are joined as bytes in numpy, CSV_CHUNK_ROWS at a time. The scan's
replicates are written by up to ``threads`` forked processes, one
contiguous group each, into part files that are then appended in order,
so its bytes do not depend on ``threads``.
"""

import contextlib
import os
import signal
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from .gfmc import local_energy_table
from .model import TfiModel
from .seeding import derive_seed

PROB_TOL = 1e-12

# largest shot budget M: rng.multinomial takes M as an int64
MAX_SHOTS = 2**63 - 1

# CSV cell for a local energy that does not exist (zero-count state)
NA_TOKEN = "NA"

SCAN_SCHEMA = "local_energy_scan.v1"

# rows joined per write by write_csv_rows; bounds the row bytes held at once
CSV_CHUNK_ROWS = 4096


def sample_counts(p: np.ndarray, M: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial(M, p) over the full basis: the int64 counts of the 2^L
    states, which sum to M; deterministic given rng state."""
    p = np.asarray(p, dtype=np.float64)
    if M < 1:
        raise ValueError("M must be >= 1")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOL * max(1.0, len(p)) or np.any(p < 0):
        raise ValueError(f"probabilities must be nonnegative and sum to 1, got {total!r}")
    L = int(len(p)).bit_length() - 1
    if (1 << L) != len(p):
        raise ValueError("probability table length must be a power of two")
    return rng.multinomial(M, p / total)


def noisy_amplitudes(counts: np.ndarray, M: int, out: np.ndarray | None = None) -> np.ndarray:
    """The float64 row sqrt(counts/M): zero counts give amplitude exactly zero.

    With out (a float64 array of 2^L entries, such as a row of a
    population's table array) the row is computed in place there and out
    itself is returned, with no 2^L temporary.
    """
    a = np.divide(counts, M, out=out)
    return np.sqrt(a, out=a)


def _draw_walkers(trial: np.ndarray, walkers, base_seed: int, keep) -> list:
    """Seed and draw every walker: the one place either happens.

    Walker i = (M, rep) owns rng = default_rng(derive_seed(base_seed, L,
    M or 0, rep)), which draws its Multinomial(M, trial^2) counts first;
    keep(i, counts) takes them (None when M is None), and the rngs are
    returned. L is read from the length of the trial row.

    Every trial enters chains and scans here, so its signs are checked here.
    """
    if np.any(trial < 0):
        raise ValueError("amplitudes must be nonnegative")
    L = len(trial).bit_length() - 1
    rngs = [np.random.default_rng(derive_seed(base_seed, L, M or 0, rep))
            for M, rep in walkers]
    # one probability vector per call, freed when the draws are done
    p = trial * trial
    for i, ((M, _), rng) in enumerate(zip(walkers, rngs)):
        keep(i, None if M is None else sample_counts(p, M, rng))
    return rngs


def draw_tables(trial: np.ndarray, walkers, base_seed: int):
    """(amps, rngs): walker i = (M, rep) draws its frozen table of M shots
    of the trial row straight into row i of the (W, 2^L) array amps (M
    None: a copy of the trial) with rngs[i], as _draw_walkers seeds it.
    """
    amps = np.empty((len(walkers), len(trial)))

    def keep(i, counts):
        if counts is None:
            amps[i] = trial
        else:
            noisy_amplitudes(counts, walkers[i][0], out=amps[i])

    return amps, _draw_walkers(trial, walkers, base_seed, keep)


@dataclass
class LocalEnergyScan:
    """Full-basis local-energy fluctuation data for one (L, M0) setting.

    counts[r] holds the M shot counts of replicate r, in the smallest
    unsigned type that holds M; its float rows come from replicate(r).
    ``order`` lists states by decreasing exact amplitude (rank 0 first),
    with ties broken by state index.
    """

    model: TfiModel
    M0: int
    seed: int
    counts: np.ndarray  # (reps, 2^L)
    order: np.ndarray
    exact_amp: np.ndarray
    exact_eloc: np.ndarray

    @property
    def L(self) -> int:
        return self.model.L

    @property
    def M(self) -> int:
        return self.M0 * self.model.n_states

    @property
    def reps(self) -> int:
        return len(self.counts)

    def replicate(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(noisy_amp, noisy_eloc) of replicate r: its table sqrt(counts/M),
        the table of walker (M, r), and the local energies on it (NaN where
        the replicate left a state unmeasured)."""
        amp = noisy_amplitudes(self.counts[r], self.M)
        eloc, _ = local_energy_table(amp, self.model)
        return amp, eloc


def local_energy_scan(m: TfiModel, trial: np.ndarray, M0: int, reps: int,
                      seed: int) -> LocalEnergyScan:
    """Draw reps frozen shot tables of the 2^L trial row at M = M0 * 2^L
    and keep their counts for a scan of e_L everywhere.

    Replicate r is walker (M, r) of _draw_walkers, as in sweep and gfmc.
    The exact trial must have full support so the reference local energy
    exists for every state. Every check runs here, before any row is
    written.
    """
    if M0 < 1 or reps < 1:
        raise ValueError("M0 and reps must be >= 1")
    M = M0 * m.n_states
    if M > MAX_SHOTS:
        raise ValueError(f"M0 = {M0} gives M = M0 * 2^{m.L} = {M} shots, "
                         f"above the largest budget {MAX_SHOTS}")
    if np.any(trial == 0.0):
        raise ValueError("scan reference table must have full support")
    e_exact, _ = local_energy_table(trial, m)
    order = np.lexsort((np.arange(m.n_states), -trial))
    counts = np.empty((reps, m.n_states), dtype=np.min_scalar_type(M))
    _draw_walkers(trial, [(M, rep) for rep in range(reps)], seed, counts.__setitem__)
    return LocalEnergyScan(m, M0, seed, counts, order, trial.copy(), e_exact)


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


def check_threads(threads: int | None) -> int:
    """The process count asked for: None means one per core; below 1 is an error."""
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def write_scan_csv(scan: LocalEnergyScan, path, threads: int | None = 1) -> None:
    """Rows in (rep, rank) order; undefined local energies become NA.

    Each replicate's float rows come from scan.replicate(rep) just before
    its rows are written, so one replicate's rows are held at a time.
    Every float is written as its repr, once per distinct value in what
    is formatted at once: rank, state, exact_amp and exact_eloc once per
    file, noisy_amp (a few hundred distinct sqrt(k/M)) once per
    replicate, and noisy_eloc (mostly distinct) once per chunk of rows,
    which bounds the memory its words take.

    The replicates are split into min(threads, reps, cores) contiguous
    groups (threads None: one per core). This process writes the header
    and group 0 into path; each later group is written by a forked child
    into its own part file beside path, which is then appended in order
    and removed. The bytes do not depend on threads. A failed group stops
    the others; no child or part file outlives the call.
    """
    threads = check_threads(threads)
    order = scan.order
    n = len(order)
    head = _row_matrix([np.arange(n), b",", order, b",", scan.exact_amp[order], b","], 0, n)
    exact_eloc = _float_words(scan.exact_eloc[order])
    tail = f",{scan.L},{scan.M0},{scan.seed}\n".encode()

    def write_reps(f, reps):
        for rep in reps:
            noisy_amp, noisy_eloc = scan.replicate(rep)
            write_csv_rows(f, [f"{rep},".encode(), head, _float_words(noisy_amp[order]), b",",
                               exact_eloc, b",", noisy_eloc[order], tail])

    k = min(threads, scan.reps, os.cpu_count() or 1)
    groups = [range(scan.reps * g // k, scan.reps * (g + 1) // k) for g in range(k)]
    parts = [f"{path}.part{g}" for g in range(1, k)]
    children = {}  # part file -> pid of the child that writes it
    try:
        for part, reps in zip(parts, groups[1:]):
            pid = os.fork()
            if pid == 0:
                _write_part(write_reps, part, reps)
            children[part] = pid
        with open(path, "wb") as f:
            f.write(f"# schema={SCAN_SCHEMA}\n".encode())
            f.write(b"rep,rank,state,exact_amp,noisy_amp,exact_eloc,noisy_eloc,L,M0,seed\n")
            write_reps(f, groups[0])
            f.flush()
            for part, reps in zip(parts, groups[1:]):
                code = os.waitstatus_to_exitcode(os.waitpid(children.pop(part), 0)[1])
                if code != 0:
                    raise RuntimeError(f"scan replicates {reps[0]}..{reps[-1]} failed in "
                                       f"their writer process (exit code {code})")
                # an in-kernel copy: the part's bytes never enter this process
                with open(part, "rb") as src:
                    offset = 0
                    while sent := os.sendfile(f.fileno(), src.fileno(), offset, 1 << 30):
                        offset += sent
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def _write_part(write_reps, part: str, reps) -> None:
    """The body of a forked writer: write reps into part, then leave the
    process with os._exit (status 0 on success), so the child never
    returns into its caller and flushes none of the parent's buffers."""
    status = 1
    try:
        with open(part, "wb") as f:
            write_reps(f, reps)
        status = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)

