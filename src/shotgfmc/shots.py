"""Emulated projective measurement of a trial state.

M computational-basis shots are drawn from amps^2 in one multinomial
sample (sequential conditional binomials, O(2^L) work independent of M),
and sqrt(counts/M) becomes the shot-noise amplitude table. One table is
drawn per realization and frozen; unmeasured states keep amplitude
exactly zero and are never flooded with an epsilon.
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

# rows formatted per write by the CSV writers; bounds the row strings
# held at once
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


def write_scan_csv(scan: LocalEnergyScan, path) -> None:
    """Rows in (rep, rank) order; undefined local energies become NA.

    Columns are put in rank order and turned into Python floats once per
    array, every float is written as its repr, and rows go out in chunks
    of CSV_CHUNK_ROWS.
    """
    order = scan.order
    # rank, state, exact_amp and exact_eloc are the same in every replicate
    heads = [f"{rank},{state},{amp!r}" for rank, (state, amp) in
             enumerate(zip(order.tolist(), scan.exact_amp[order].tolist()))]
    exact_eloc = [repr(e) for e in scan.exact_eloc[order].tolist()]
    tail = f"{scan.L},{scan.M0},{scan.seed}\n"
    with open(path, "w", newline="") as f:
        f.write(f"# schema={SCAN_SCHEMA}\n")
        f.write("rep,rank,state,exact_amp,noisy_amp,exact_eloc,noisy_eloc,L,M0,seed\n")
        for rep in range(scan.reps):
            noisy_amp = scan.noisy_amp[rep, order].tolist()
            noisy_eloc = scan.noisy_eloc[rep, order].tolist()
            # amplitudes are sqrt(k/M) >= +0 for the few distinct counts k, so
            # one repr per distinct value serves the whole replicate
            amp_txt = {a: repr(a) for a in set(noisy_amp)}
            prefix = f"{rep},"
            for lo in range(0, len(heads), CSV_CHUNK_ROWS):
                hi = lo + CSV_CHUNK_ROWS
                eloc_txt = [NA_TOKEN if e != e else repr(e) for e in noisy_eloc[lo:hi]]
                f.write("".join([
                    f"{prefix}{head},{amp_txt[a]},{ee},{ne},{tail}"
                    for head, a, ee, ne in zip(heads[lo:hi], noisy_amp[lo:hi],
                                               exact_eloc[lo:hi], eloc_txt)
                ]))
