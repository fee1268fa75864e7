import os
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest

from shotgfmc import shots
from shotgfmc.exact import ground_state
from shotgfmc.gfmc import local_energy_table
from shotgfmc.model import TfiModel
from shotgfmc.seeding import derive_seed
from shotgfmc.shots import (
    NA_TOKEN,
    draw_tables,
    local_energy_scan,
    noisy_amplitudes,
    sample_counts,
    write_scan_csv,
)
from shotgfmc.trial import build_table

from oracles import write_scan_csv_rows

# chi-square inverse cdf at 1 - 1e-6 for 3 degrees of freedom
CHI2_3_1E6 = 30.66484970615427


def test_counts_sum_to_m():
    rng = np.random.default_rng(1)
    for L, M in ((2, 1), (3, 17), (6, 12345)):
        p = rng.random(1 << L)
        p /= p.sum()
        c = sample_counts(p, M, rng)
        assert isinstance(c, np.ndarray) and c.dtype == np.int64 and c.shape == (1 << L,)
        assert int(c.sum()) == M
        assert c.min() >= 0


def test_degenerate_distribution():
    p = np.zeros(8)
    p[5] = 1.0
    c = sample_counts(p, 1000, np.random.default_rng(0))
    assert c[5] == 1000
    assert c.sum() == 1000


def test_uniform_counts_moments_and_chisquare():
    p = np.full(4, 0.25)
    M = 1_000_000
    c = sample_counts(p, M, np.random.default_rng(42))
    expected = M * p
    sigma = np.sqrt(M * p * (1 - p))
    assert np.all(np.abs(c - expected) <= 5 * sigma)
    chi2 = float(np.sum((c - expected) ** 2 / expected))
    assert chi2 <= CHI2_3_1E6


def test_sample_counts_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_counts(np.array([0.5, 0.6]), 10, rng)  # not normalized
    with pytest.raises(ValueError):
        sample_counts(np.full(4, 0.25), 0, rng)
    with pytest.raises(ValueError):
        sample_counts(np.array([0.5, 0.25, 0.25]), 10, rng)  # not power of two


def test_noisy_amplitudes_examples():
    counts = np.zeros(8, dtype=np.int64)
    counts[5] = 100
    t = noisy_amplitudes(counts, 100)
    assert t.dtype == np.float64
    assert t[5] == 1.0
    assert np.all(t[np.arange(8) != 5] == 0.0)


def test_noisy_amplitudes_sqrt_and_normalization():
    rng = np.random.default_rng(3)
    p = rng.random(16)
    p /= p.sum()
    c = sample_counts(p, 999, rng)
    t = noisy_amplitudes(c, 999)
    assert np.array_equal(t, np.sqrt(c / 999))
    assert abs(float(t @ t) - 1.0) < 1e-12


def test_noisy_amplitudes_into_a_row_is_the_same_table():
    # a table drawn into a row of a population array is that row, and its
    # bits are those of a table made on its own
    t = build_table("jastrow", TfiModel(6))
    p = t * t
    rng = np.random.default_rng(8)
    population = np.full((3, 64), np.nan)
    for row, M in zip(population, (1, 50, 10**6)):
        c = sample_counts(p, M, rng)
        table = noisy_amplitudes(c, M, out=row)
        assert table.tobytes() == noisy_amplitudes(c, M).tobytes()
        assert table is row
    assert not np.isnan(population).any()


def test_determinism_identical_streams():
    m = TfiModel(5)
    t = build_table("jastrow", m)
    p = t * t
    seed = derive_seed(77, 5, 640, 3)
    a = sample_counts(p, 640, np.random.default_rng(seed))
    b = sample_counts(p, 640, np.random.default_rng(seed))
    assert np.array_equal(a, b)


def test_mean_counts_match_expectation():
    # sample mean over many replicates agrees with M*p within 5 combined SE
    m = TfiModel(3)
    t = build_table("jastrow", m)
    p = t * t
    M, reps = 100, 10_000
    rng = np.random.default_rng(12)
    acc = np.zeros(8)
    for _ in range(reps):
        acc += sample_counts(p, M, rng)
    mean = acc / reps
    se = np.sqrt(M * p * (1 - p) / reps)
    assert np.all(np.abs(mean - M * p) <= 5 * se)


def test_single_state_error_scales_as_inverse_sqrt_m():
    m = TfiModel(3)
    table = build_table("jastrow", m)
    p = table * table
    exact0 = table[0]
    rng = np.random.default_rng(21)
    Ms = [10 ** k for k in range(3, 8)]
    mean_abs = []
    for M in Ms:
        errs = [abs(np.sqrt(sample_counts(p, M, rng)[0] / M) - exact0)
                for _ in range(64)]
        mean_abs.append(np.mean(errs))
    slope = np.polyfit(np.log(Ms), np.log(mean_abs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_monotone_information_top_half():
    # mean |noisy eL - exact eL| over the top half by exact overlap falls
    # like M^(-1/2)
    m = TfiModel(6)
    trial = build_table("jastrow", m)
    e_exact, _ = local_energy_table(trial, m)
    top = np.argsort(-trial)[: 32]
    rng = np.random.default_rng(5)
    Ms = [1000, 10_000, 100_000, 1_000_000]
    devs = []
    for M in Ms:
        acc, cnt = 0.0, 0
        for _ in range(32):
            noisy = noisy_amplitudes(sample_counts(trial * trial, M, rng), M)
            e_noisy, _ = local_energy_table(noisy, m)
            d = np.abs(e_noisy[top] - e_exact[top])
            good = ~np.isnan(d)
            acc += d[good].sum()
            cnt += int(good.sum())
        devs.append(acc / cnt)
    assert all(b < a for a, b in zip(devs, devs[1:]))
    slope = np.polyfit(np.log(Ms), np.log(devs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_draw_tables_rows_depend_only_on_their_walker():
    m = TfiModel(5)
    trial = build_table("jastrow", m)
    walkers = [(None, 0), (640, 3), (50, 1), (None, 2)]
    amps, rngs = draw_tables(trial, walkers, 77)
    assert amps.shape == (4, 32) and len(rngs) == 4
    assert amps[0].tobytes() == amps[3].tobytes() == trial.tobytes()
    assert not np.shares_memory(amps, trial)
    for (M, rep), row in zip(walkers, amps):
        alone, _ = draw_tables(trial, [(M, rep)], 77)
        assert alone[0].tobytes() == row.tobytes()
    rng = np.random.default_rng(derive_seed(77, 5, 640, 3))
    drawn = noisy_amplitudes(sample_counts(trial * trial, 640, rng), 640)
    assert amps[1].tobytes() == drawn.tobytes()
    # the walker's generator goes on from where its draw left it
    assert rngs[1].random() == rng.random()


def _stacked(scan):
    """The (reps, 2^L) noisy_amp and noisy_eloc arrays of every replicate."""
    rows = [scan.replicate(r) for r in range(scan.reps)]
    return np.array([a for a, _ in rows]), np.array([e for _, e in rows])


def test_scan_replicate_r_has_the_table_of_walker_m_r():
    m = TfiModel(5)
    trial = build_table("jastrow", m)
    scan = local_energy_scan(m, trial, M0=3, reps=4, seed=6)
    for r in range(4):
        amps, _ = draw_tables(trial, [(3 * m.n_states, r)], 6)
        noisy_amp, noisy_eloc = scan.replicate(r)
        assert noisy_amp.tobytes() == amps[0].tobytes()
        assert noisy_eloc.tobytes() == local_energy_table(amps[0], m)[0].tobytes()


@pytest.mark.parametrize("L, M0, dtype", [(4, 1, np.uint8), (4, 20, np.uint16),
                                          (4, 5000, np.uint32), (16, 10, np.uint32),
                                          (2, shots.MAX_SHOTS // 4, np.uint64)])
def test_scan_holds_each_replicates_counts_in_the_smallest_unsigned_type(L, M0, dtype):
    m = TfiModel(L)
    scan = local_energy_scan(m, build_table("jastrow", m), M0, reps=3, seed=2)
    assert scan.counts.dtype == dtype == np.min_scalar_type(scan.M)
    assert scan.counts.shape == (3, m.n_states)
    assert scan.counts.sum(axis=1, dtype=object).tolist() == [scan.M] * 3
    for r in range(3):
        noisy_amp, _ = scan.replicate(r)
        assert np.array_equal(noisy_amp == 0.0, scan.counts[r] == 0)


def test_scan_holds_no_float_row_per_replicate():
    m = TfiModel(12)
    trial = build_table("jastrow", m)
    tracemalloc.start()
    try:
        scan = local_energy_scan(m, trial, M0=10, reps=16, seed=1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for f in fields(scan):
        value = getattr(scan, f.name)
        assert not (isinstance(value, np.ndarray) and value.ndim == 2
                    and value.dtype.kind == "f"), f.name
    # uint16 counts (128 KiB) and three 2^L rows; one float (reps, 2^L)
    # array alone would take 512 KiB
    assert held < scan.counts.nbytes + 4 * 8 * m.n_states


def test_scan_zero_variance_reference():
    m = TfiModel(5)
    gs = ground_state(m)
    trial = build_table("exact-groundstate", m, vector=gs.vector)
    scan = local_energy_scan(m, trial, M0=4, reps=2, seed=9)
    assert np.allclose(scan.exact_eloc, gs.energy, atol=1e-9)


def test_scan_rank_order_and_shapes():
    m = TfiModel(4)
    trial = build_table("jastrow", m)
    scan = local_energy_scan(m, trial, M0=3, reps=5, seed=1)
    assert scan.M == 3 * 16
    ranked = trial[scan.order]
    assert np.all(np.diff(ranked) <= 1e-15)
    # ties broken by state index
    assert scan.order[0] < scan.order[1] or ranked[0] > ranked[1]
    assert scan.reps == 5 and scan.counts.shape == (5, 16)
    assert all(row.shape == (16,) for r in range(5) for row in scan.replicate(r))


def test_scan_undefined_states_are_nan():
    m = TfiModel(4)
    trial = build_table("jastrow", m)
    scan = local_energy_scan(m, trial, M0=1, reps=4, seed=3)
    noisy_amp, noisy_eloc = _stacked(scan)
    unmeasured = noisy_amp == 0.0
    assert unmeasured.any()
    assert np.isnan(noisy_eloc[unmeasured]).all()
    assert not np.isnan(noisy_eloc[~unmeasured]).any()


def test_scan_determinism():
    m = TfiModel(4)
    trial = build_table("jastrow", m)
    a = local_energy_scan(m, trial, M0=2, reps=3, seed=5)
    b = local_energy_scan(m, trial, M0=2, reps=3, seed=5)
    assert np.array_equal(a.counts, b.counts)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(_stacked(a), _stacked(b)))


def test_scan_csv_format(tmp_path):
    m = TfiModel(4)
    trial = build_table("jastrow", m)
    scan = local_energy_scan(m, trial, M0=1, reps=2, seed=3)
    path = tmp_path / "scan.csv"
    write_scan_csv(scan, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=")
    header = lines[1].split(",")
    assert header == ["rep", "rank", "state", "exact_amp", "noisy_amp",
                      "exact_eloc", "noisy_eloc", "L", "M0", "seed"]
    rows = lines[2:]
    assert len(rows) == 2 * 16
    assert any(f",{NA_TOKEN}," in row for row in rows)
    first = rows[0].split(",")
    assert first[0] == "0" and first[1] == "0"
    state = int(first[2])
    assert float(first[3]) == trial[state]


def test_scan_rejects_partial_support():
    m = TfiModel(3)
    counts = np.zeros(8, dtype=np.int64)
    counts[0] = 10
    partial = noisy_amplitudes(counts, 10)
    with pytest.raises(ValueError):
        local_energy_scan(m, partial, M0=2, reps=2, seed=0)


def test_scan_rejects_an_m0_above_the_largest_budget():
    # M = M0 * 2^L must fit the int64 multinomial, so a larger M0 is rejected by name
    m = TfiModel(2)
    with pytest.raises(ValueError, match=r"M0 = 4611686018427387904 gives M = M0 \* 2\^2"):
        local_energy_scan(m, build_table("jastrow", m), 2**62, 2, 0)
    # the smallest M0 whose budget is too large
    with pytest.raises(ValueError, match="M0"):
        local_energy_scan(m, build_table("jastrow", m), shots.MAX_SHOTS // m.n_states + 1, 1, 0)


def test_draw_tables_rejects_a_negative_trial_entry():
    trial = np.array([-0.5, 0.5, 0.5, 0.5])
    for M in (None, 10):
        with pytest.raises(ValueError, match="nonnegative"):
            draw_tables(trial, [(M, 0)], 0)


# NaNs that are not the default quiet NaN: a payload, and a set sign bit
_PAYLOAD_NANS = np.array([0x7FF8_0000_0000_BEEF, -0x0008_0000_0000_0001],
                         dtype=np.int64).view(np.float64)


@dataclass
class _CraftedScan:
    """A stand-in for LocalEnergyScan whose replicate(r) returns crafted rows."""

    L: int
    M0: int
    reps: int
    seed: int
    order: np.ndarray
    exact_amp: np.ndarray
    exact_eloc: np.ndarray
    noisy_amp: np.ndarray   # (reps, 2^L)
    noisy_eloc: np.ndarray  # (reps, 2^L)

    def replicate(self, r):
        return self.noisy_amp[r], self.noisy_eloc[r]


def _synthetic_scan(L, reps):
    """A scan table with the cases a writer that formats each distinct value
    once can get wrong: NA rows (two of them NaNs with a non-default bit
    pattern), -0.0 next to 0.0, values shared across replicates and across
    columns, tied amplitudes and exponent-form reprs."""
    n = 1 << L
    rng = np.random.default_rng(L)
    exact_amp = rng.random(n) + 0.01
    exact_amp[n // 2:] = exact_amp[0]  # ties broken by state index
    exact_amp[3] = exact_amp[2]        # states 2 and 3 on adjacent rows
    M = 10 ** 12
    exact_amp[1] = np.sqrt(100 / M)   # 1e-05, also a noisy_amp below
    counts = rng.integers(0, 3, size=(reps, n))
    counts[:, 0] = 1  # noisy_amp 1e-06
    counts[0, 1] = 100
    counts[:, -1] = 2
    counts[:, 4:6] = 0  # unmeasured in every replicate (L >= 3)
    noisy_eloc = np.where(counts > 0, rng.normal(-1.0, 1.0, size=(reps, n)), np.nan)
    noisy_eloc[:, 0] = -2.5e-17
    noisy_eloc[:, 2] = -0.0
    noisy_eloc[:, 3] = 0.0
    for rep_eloc in noisy_eloc:
        nan_rows = np.flatnonzero(np.isnan(rep_eloc))[:2]
        rep_eloc[nan_rows] = _PAYLOAD_NANS[:len(nan_rows)]
    noisy_eloc[1:, -1] = noisy_eloc[0, -1]  # shared across replicates
    exact_eloc = np.full(n, -1.2345678901234567)
    exact_eloc[-1] = 3e+16
    exact_eloc[0] = noisy_eloc[0, -1]       # shared across columns
    order = np.lexsort((np.arange(n), -exact_amp))
    return _CraftedScan(L, 7, reps, 11, order, exact_amp, exact_eloc,
                        np.sqrt(counts / M), noisy_eloc)


@pytest.mark.parametrize("L, reps, chunk", [
    (2, 3, shots.CSV_CHUNK_ROWS),
    (4, 2, 5),                      # chunks end inside a replicate; rank 9 -> 10
    (13, 2, shots.CSV_CHUNK_ROWS),  # a replicate spans two full chunks
    (3, 12, 3),                     # rep numbers 9 -> 10 gain a digit
])
def test_scan_csv_bytes_match_row_loop_oracle(tmp_path, monkeypatch, row_chunks,
                                              L, reps, chunk):
    monkeypatch.setattr(shots, "CSV_CHUNK_ROWS", chunk)
    scan = _synthetic_scan(L, reps)
    bits = set(scan.noisy_eloc.view(np.int64).ravel().tolist())
    assert L < 3 or set(_PAYLOAD_NANS.view(np.int64).tolist()) <= bits
    write_scan_csv(scan, tmp_path / "fast.csv")
    # the per-file head columns, then each replicate's rows chunk by chunk
    n = 1 << L
    spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    assert row_chunks == [(0, n)] + spans * reps
    write_scan_csv_rows(scan, tmp_path / "rows.csv")
    text = (tmp_path / "fast.csv").read_text()
    assert f",{NA_TOKEN}," in text and "1e-05" in text and "1e-06" in text
    assert "-2.5e-17" in text and "3e+16" in text
    assert ",-0.0," in text and ",0.0," in text and "nan" not in text
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _counted_forks(monkeypatch, cores=8):
    """Pretend the machine has `cores` cores; the list of forks made here."""
    forks = []
    fork = shots.os.fork
    monkeypatch.setattr(shots.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(shots.os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("L", [2, 5])
def test_scan_csv_bytes_match_row_loop_oracle_on_a_scan(tmp_path, monkeypatch, L):
    m = TfiModel(L)
    gs = ground_state(m)
    trial = build_table("exact-groundstate", m, vector=gs.vector)
    scan = local_energy_scan(m, trial, M0=1, reps=3, seed=4)
    write_scan_csv_rows(scan, tmp_path / "rows.csv")
    forks = _counted_forks(monkeypatch)
    for threads in (1, 2, 3, scan.reps + 1):
        write_scan_csv(scan, tmp_path / "fast.csv", threads=threads)
        assert len(forks) == min(threads, scan.reps) - 1
        forks.clear()
        _assert_no_child_left()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.csv", "rows.csv"]
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("threads, cores, writers", [
    (1, 8, 1), (2, 8, 2), (3, 8, 3), (13, 8, 8), (None, 5, 5), (5, 2, 2),
])
def test_scan_csv_bytes_do_not_depend_on_threads(tmp_path, monkeypatch, threads, cores,
                                                 writers):
    # 12 replicates with 3-row chunks: rep numbers 9 -> 10 gain a digit, and
    # groups end inside and between digit widths
    monkeypatch.setattr(shots, "CSV_CHUNK_ROWS", 3)
    scan = _synthetic_scan(3, 12)
    forks = _counted_forks(monkeypatch, cores)
    write_scan_csv(scan, tmp_path / "fast.csv", threads=threads)
    assert len(forks) == writers - 1
    _assert_no_child_left()
    write_scan_csv_rows(scan, tmp_path / "rows.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.csv", "rows.csv"]
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("threads", [0, -3])
def test_scan_csv_rejects_threads_below_one(tmp_path, threads):
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        write_scan_csv(_synthetic_scan(2, 2), tmp_path / "fast.csv", threads=threads)
    assert list(tmp_path.iterdir()) == []


@dataclass
class _FailingScan(_CraftedScan):
    """A crafted scan whose replicate `failing` raises."""

    failing: int = -1

    def replicate(self, r):
        if r == self.failing:
            raise ValueError(f"replicate {r} failed")
        return super().replicate(r)


@pytest.mark.parametrize("failing, error", [
    (4, "scan replicates 4..5 failed in their writer process (exit code 1)"),
    (7, "scan replicates 6..8 failed in their writer process (exit code 1)"),
    (1, "replicate 1 failed"),  # in this process's own group
])
def test_scan_csv_failed_group_leaves_no_child_and_no_part_file(tmp_path, monkeypatch,
                                                                 failing, error):
    # 9 replicates in 4 groups: 0..1 here, 2..3, 4..5 and 6..8 in children
    scan = _FailingScan(**vars(_synthetic_scan(3, 9)), failing=failing)
    _counted_forks(monkeypatch, cores=4)
    with pytest.raises((RuntimeError, ValueError)) as info:
        write_scan_csv(scan, tmp_path / "fast.csv", threads=4)
    assert str(info.value) == error
    _assert_no_child_left()
    assert [p.name for p in tmp_path.iterdir()] == ["fast.csv"]


def test_scan_csv_writes_negative_zero_local_energy(tmp_path):
    # -J * 0 = -0.0 on a state with zero bond sum and no measured neighbour
    m = TfiModel(4)
    trial = build_table("exact-groundstate", m, vector=ground_state(m).vector)
    scan = local_energy_scan(m, trial, M0=1, reps=3, seed=0)
    _, noisy_eloc = _stacked(scan)
    assert np.any((noisy_eloc == 0.0) & np.signbit(noisy_eloc))
    write_scan_csv(scan, tmp_path / "fast.csv")
    write_scan_csv_rows(scan, tmp_path / "rows.csv")
    assert ",-0.0,4,1,0\n" in (tmp_path / "fast.csv").read_text()
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
