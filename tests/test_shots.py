import numpy as np
import pytest

from shotgfmc import shots
from shotgfmc.exact import ground_state
from shotgfmc.gfmc import local_energy_table
from shotgfmc.model import TfiModel
from shotgfmc.seeding import derive_seed
from shotgfmc.shots import (
    NA_TOKEN,
    LocalEnergyScan,
    ShotCounts,
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
        assert int(c.counts.sum()) == M
        assert c.counts.min() >= 0


def test_degenerate_distribution():
    p = np.zeros(8)
    p[5] = 1.0
    c = sample_counts(p, 1000, np.random.default_rng(0))
    assert c.counts[5] == 1000
    assert c.counts.sum() == 1000


def test_uniform_counts_moments_and_chisquare():
    p = np.full(4, 0.25)
    M = 1_000_000
    c = sample_counts(p, M, np.random.default_rng(42)).counts
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


def test_shotcounts_invariant():
    with pytest.raises(ValueError):
        ShotCounts(2, 5, np.array([1, 1, 1, 1]))  # sums to 4, not 5


def test_noisy_amplitudes_examples():
    counts = np.zeros(8, dtype=np.int64)
    counts[5] = 100
    t = noisy_amplitudes(ShotCounts(3, 100, counts))
    assert t.amps[5] == 1.0
    assert np.all(t.amps[np.arange(8) != 5] == 0.0)
    assert t.kind == "noisy"


def test_noisy_amplitudes_sqrt_and_normalization():
    rng = np.random.default_rng(3)
    p = rng.random(16)
    p /= p.sum()
    c = sample_counts(p, 999, rng)
    t = noisy_amplitudes(c)
    assert np.array_equal(t.amps, np.sqrt(c.counts / 999))
    assert abs(float(t.amps @ t.amps) - 1.0) < 1e-12


def test_determinism_identical_streams():
    m = TfiModel(5)
    p = build_table("jastrow", m).probabilities
    seed = derive_seed(77, 5, 640, 3)
    a = sample_counts(p, 640, np.random.default_rng(seed)).counts
    b = sample_counts(p, 640, np.random.default_rng(seed)).counts
    assert np.array_equal(a, b)


def test_mean_counts_match_expectation():
    # sample mean over many replicates agrees with M*p within 5 combined SE
    m = TfiModel(3)
    p = build_table("jastrow", m).probabilities
    M, reps = 100, 10_000
    rng = np.random.default_rng(12)
    acc = np.zeros(8)
    for _ in range(reps):
        acc += sample_counts(p, M, rng).counts
    mean = acc / reps
    se = np.sqrt(M * p * (1 - p) / reps)
    assert np.all(np.abs(mean - M * p) <= 5 * se)


def test_single_state_error_scales_as_inverse_sqrt_m():
    m = TfiModel(3)
    table = build_table("jastrow", m)
    p = table.probabilities
    exact0 = table.amps[0]
    rng = np.random.default_rng(21)
    Ms = [10 ** k for k in range(3, 8)]
    mean_abs = []
    for M in Ms:
        errs = [abs(np.sqrt(sample_counts(p, M, rng).counts[0] / M) - exact0)
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
    top = np.argsort(-trial.amps)[: 32]
    rng = np.random.default_rng(5)
    Ms = [1000, 10_000, 100_000, 1_000_000]
    devs = []
    for M in Ms:
        acc, cnt = 0.0, 0
        for _ in range(32):
            noisy = noisy_amplitudes(sample_counts(trial.probabilities, M, rng))
            e_noisy, _ = local_energy_table(noisy, m)
            d = np.abs(e_noisy[top] - e_exact[top])
            good = ~np.isnan(d)
            acc += d[good].sum()
            cnt += int(good.sum())
        devs.append(acc / cnt)
    assert all(b < a for a, b in zip(devs, devs[1:]))
    slope = np.polyfit(np.log(Ms), np.log(devs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


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
    ranked = trial.amps[scan.order]
    assert np.all(np.diff(ranked) <= 1e-15)
    # ties broken by state index
    assert scan.order[0] < scan.order[1] or ranked[0] > ranked[1]
    assert scan.noisy_amp.shape == (5, 16)
    assert scan.noisy_eloc.shape == (5, 16)


def test_scan_undefined_states_are_nan():
    m = TfiModel(4)
    trial = build_table("jastrow", m)
    scan = local_energy_scan(m, trial, M0=1, reps=4, seed=3)
    unmeasured = scan.noisy_amp == 0.0
    assert unmeasured.any()
    assert np.isnan(scan.noisy_eloc[unmeasured]).all()
    assert not np.isnan(scan.noisy_eloc[~unmeasured]).any()


def test_scan_determinism():
    m = TfiModel(4)
    trial = build_table("jastrow", m)
    a = local_energy_scan(m, trial, M0=2, reps=3, seed=5)
    b = local_energy_scan(m, trial, M0=2, reps=3, seed=5)
    assert np.array_equal(a.noisy_amp, b.noisy_amp)
    assert np.array_equal(a.noisy_eloc, b.noisy_eloc, equal_nan=True)


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
    assert float(first[3]) == trial.amps[state]


def test_scan_rejects_partial_support():
    m = TfiModel(3)
    counts = np.zeros(8, dtype=np.int64)
    counts[0] = 10
    partial = noisy_amplitudes(ShotCounts(3, 10, counts))
    with pytest.raises(ValueError):
        local_energy_scan(m, partial, M0=2, reps=2, seed=0)


# NaNs that are not the default quiet NaN: a payload, and a set sign bit
_PAYLOAD_NANS = np.array([0x7FF8_0000_0000_BEEF, -0x0008_0000_0000_0001],
                         dtype=np.int64).view(np.float64)


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
    return LocalEnergyScan(L, 7, M, reps, 11, order, exact_amp, exact_eloc,
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


@pytest.mark.parametrize("L", [2, 5])
def test_scan_csv_bytes_match_row_loop_oracle_on_a_scan(tmp_path, L):
    m = TfiModel(L)
    gs = ground_state(m)
    trial = build_table("exact-groundstate", m, vector=gs.vector)
    scan = local_energy_scan(m, trial, M0=1, reps=3, seed=4)
    write_scan_csv(scan, tmp_path / "fast.csv")
    write_scan_csv_rows(scan, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_scan_csv_writes_negative_zero_local_energy(tmp_path):
    # -J * 0 = -0.0 on a state with zero bond sum and no measured neighbour
    m = TfiModel(4)
    trial = build_table("exact-groundstate", m, vector=ground_state(m).vector)
    scan = local_energy_scan(m, trial, M0=1, reps=3, seed=0)
    assert np.any((scan.noisy_eloc == 0.0) & np.signbit(scan.noisy_eloc))
    write_scan_csv(scan, tmp_path / "fast.csv")
    write_scan_csv_rows(scan, tmp_path / "rows.csv")
    assert ",-0.0,4,1,0\n" in (tmp_path / "fast.csv").read_text()
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
