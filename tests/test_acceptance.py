"""Acceptance suite: one test per shipped claim, at its stated tolerance.

Every test prints a `criterion N: PASS/FAIL` line (run with `-s` to see
them). The heavy pipelines (sweeps, scans, the noiseless chains) are
session fixtures; criterion 10 rebuilds all of them from the same base
seed and checks the serialized outputs byte for byte.

Two sub-criteria are strict xfails: with 16 replicates at these exact
parameters the measured numbers sit outside the asserted bands on every
seed tried, so they are kept red rather than loosened. The assertions
state the original bands; the xfail reasons carry the measured values.
"""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest

from shotgfmc.cli import main as cli_main
from shotgfmc.exact import ground_state, variational_energy
from shotgfmc.gfmc import GfmcConfig, local_energy_table, reweighted_energy
from shotgfmc.model import TfiModel
from shotgfmc.scaling import run_sweep, run_walkers, summarize, write_sweep_csv
from shotgfmc.shots import local_energy_scan, write_scan_csv
from shotgfmc.trial import build_table

from oracles import free_fermion_e0

BASE_SEED = 20240811
THREADS = 2
SWEEP_CFG = GfmcConfig(chain_length=50_000, warmup=1000, l_reweight=100)
NOISELESS_CFG = GfmcConfig(chain_length=100_000, warmup=1000, l_reweight=100)
SWEEP_SIZES = (6, 8, 10, 12)
FIT_SIZES = (8, 10, 12)


def _line(num, ok, detail=""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# deterministic builders, shared by the fixtures and by criterion 10

def build_noiseless_estimates():
    """Criterion 4 pipeline: 16 noiseless Jastrow chains per size, walkers (None, rep)."""
    per_L = {}
    for L in SWEEP_SIZES:
        m = TfiModel(L)
        trial = build_table("jastrow", m)
        e0ps = ground_state(m).energy / L
        ests = run_walkers(m, NOISELESS_CFG, trial, [(None, rep) for rep in range(16)],
                           BASE_SEED, lambda rec: reweighted_energy(rec) / L)
        per_L[L] = (np.array(ests), e0ps)
    return per_L


def noiseless_csv_bytes(per_L) -> bytes:
    lines = ["# schema=noiseless_points.v1",
             "L,rep,energy_per_site,E0_per_site,signed_error"]
    for L in sorted(per_L):
        ests, e0ps = per_L[L]
        for rep, est in enumerate(ests):
            lines.append(f"{L},{rep},{float(est)!r},{float(e0ps)!r},"
                         f"{float(est - e0ps)!r}")
    return ("\n".join(lines) + "\n").encode()


def build_scan(M0):
    m = TfiModel(12)
    trial = build_table("jastrow", m)
    return local_energy_scan(m, trial, M0, 16, BASE_SEED)


def scan_csv_bytes(scan) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.csv")
        write_scan_csv(scan, path)
        with open(path, "rb") as f:
            return f.read()


def build_sweep(trial_kind, estimator, sizes):
    return run_sweep(None, list(sizes), trial_kind, SWEEP_CFG, 16,
                     base_seed=BASE_SEED, estimator=estimator, threads=THREADS)


def sweep_csv_bytes(points) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        write_sweep_csv(points, path)
        with open(path, "rb") as f:
            return f.read()


@pytest.fixture(scope="session")
def noiseless_run():
    per_L = build_noiseless_estimates()
    return per_L, noiseless_csv_bytes(per_L)


@pytest.fixture(scope="session")
def scans():
    out = {M0: build_scan(M0) for M0 in (10, 1000)}
    return out, {M0: scan_csv_bytes(s) for M0, s in out.items()}


@pytest.fixture(scope="session")
def jastrow_sweep():
    points = build_sweep("jastrow", "reweighted", SWEEP_SIZES)
    return points, sweep_csv_bytes(points)


@pytest.fixture(scope="session")
def gs_sweep():
    points = build_sweep("exact-groundstate", "reweighted", SWEEP_SIZES)
    return points, sweep_csv_bytes(points)


@pytest.fixture(scope="session")
def gs_average_sweep():
    points = build_sweep("exact-groundstate", "average", FIT_SIZES)
    return points, sweep_csv_bytes(points)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_exact_diagonalization_oracle(capsys):
    code = cli_main(["ed", "--L", "2"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    ok = abs(payload["E0"] - (-2.0 * np.sqrt(2.0))) <= 1e-9
    details = [f"ed --L 2 -> {payload['E0']:.12f}"]
    for L in range(6, 13):
        gs = ground_state(TfiModel(L))
        ref = free_fermion_e0(L)
        rel = abs(gs.energy / L - ref / L) / abs(ref / L)
        ok = ok and gs.residual <= 1e-10 and rel <= 0.005
        details.append(f"L={L} res={gs.residual:.1e} rel={rel:.2e}")
    _line(1, ok, "; ".join(details))
    assert ok


def test_criterion_2_jastrow_variational_quality():
    rows = []
    ok = True
    for L in SWEEP_SIZES:
        m = TfiModel(L)
        e0 = ground_state(m).energy
        ev = variational_energy(build_table("jastrow", m), m)
        rel = (ev - e0) / abs(e0)
        ok = ok and 0 <= rel < 0.01
        rows.append(f"L={L} rel={rel * 100:.3f}%")
    _line(2, ok, "; ".join(rows))
    assert ok


def test_criterion_3_zero_variance_property():
    rows = []
    ok = True
    for L in (6, 8, 10):
        m = TfiModel(L)
        gs = ground_state(m)
        table = build_table("exact-groundstate", m, vector=gs.vector)
        e, defined = local_energy_table(table, m)
        assert defined.all()
        spread = float(np.std(e))
        bound = 1e-8 * abs(gs.energy)
        ok = ok and spread <= bound
        rows.append(f"L={L} std={spread:.2e} (bound {bound:.2e})")
    _line(3, ok, "; ".join(rows))
    assert ok


def test_criterion_4_noiseless_gfmc_correctness(noiseless_run):
    per_L, _ = noiseless_run
    rows = []
    ok = True
    for L in SWEEP_SIZES:
        ests, e0ps = per_L[L]
        se = ests.std(ddof=1) / np.sqrt(len(ests))
        z = abs(ests.mean() - e0ps) / se
        ok = ok and z <= 3.0
        rows.append(f"L={L} z={z:.2f}")
    _line(4, ok, "; ".join(rows))
    assert ok


def _per_state_relative_rms(scan):
    noisy_eloc = np.array([scan.replicate(r)[1] for r in range(scan.reps)])
    dev = noisy_eloc - scan.exact_eloc[None, :]
    defined = ~np.isnan(dev)
    sq = np.where(defined, dev * dev, 0.0)
    cnt = defined.sum(axis=0)
    rms = np.full(dev.shape[1], np.nan)
    measured = cnt > 0
    rms[measured] = np.sqrt(sq.sum(axis=0)[measured] / cnt[measured])
    return rms / np.abs(scan.exact_eloc)


@pytest.mark.xfail(
    strict=True,
    reason="measured on every seed tried: ~28% of states carry a relative "
    "local-energy rms above 50% at L=12, M0=10 (16 replicates), not the "
    "asserted half; the count of such states does grow ~2^L across sizes "
    "while the fraction stays near 0.28",
)
def test_criterion_5a_local_energy_error_magnitude(scans):
    scan_data, _ = scans
    rel = _per_state_relative_rms(scan_data[10])
    defined = ~np.isnan(rel)
    frac = float(np.mean(rel[defined] > 0.5))
    ok = frac >= 0.5
    _line("5a", ok, f"fraction of states with rel rms > 50%: {frac:.3f} (needs >= 0.5)")
    assert ok


def test_criterion_5b_local_energy_error_ratio(scans):
    scan_data, _ = scans
    rel10 = _per_state_relative_rms(scan_data[10])
    rel1000 = _per_state_relative_rms(scan_data[1000])
    both = ~np.isnan(rel10) & ~np.isnan(rel1000)
    ratio = float(np.median(rel10[both] / rel1000[both]))
    ok = 7.0 <= ratio <= 13.0
    _line("5b", ok, f"median per-state error shrink M0 10 -> 1000: {ratio:.2f} "
          f"(band 10 +- 3)")
    assert ok


def _global_b_a(points, eps):
    res = summarize(points)
    g = res["global"][repr(eps)]
    return g.get("b"), g.get("a")


def _m_star_shape(points, eps):
    """(monotone in L, R^2 of the exponential fit over L > 6)."""
    res = summarize(points)
    fit = res["global"][repr(eps)]
    m_star = {int(L): res["per_L"][L]["M_star"][repr(eps)] for L in res["per_L"]}
    sizes = sorted(L for L, v in m_star.items() if v is not None)
    values = [m_star[L] for L in sizes]
    monotone = all(b > a for a, b in zip(values, values[1:]))
    fit_sizes = np.array([L for L in sizes if L > 6], dtype=float)
    y = np.log2([m_star[int(L)] for L in fit_sizes])
    yhat = np.log2(fit["a"]) + fit["b"] * fit_sizes
    r2 = 1.0 - np.sum((y - yhat) ** 2) / np.sum((y - y.mean()) ** 2)
    return monotone, float(r2)


def test_criterion_6_jastrow_shot_scaling(jastrow_sweep):
    points, _ = jastrow_sweep
    rows = []
    ok = True
    expectations = {0.005: 0.982, 0.01: 0.862, 0.02: 0.764}
    for eps, b_ref in expectations.items():
        b, a = _global_b_a(points, eps)
        in_band = b is not None and abs(b - b_ref) <= 0.2
        ok = ok and in_band
        rows.append(f"eps={eps}: b={b:.3f} (ref {b_ref}+-0.2)")
        if eps == 0.005:
            a_ok = a is not None and 29.9 / 3 <= a <= 29.9 * 3
            ok = ok and a_ok
            rows.append(f"a={a:.1f} (ref 29.9 x/3)")
        monotone, r2 = _m_star_shape(points, eps)
        ok = ok and monotone and r2 > 0.95
        rows.append(f"monotone={monotone} R2={r2:.4f}")
    _line(6, ok, "; ".join(rows))
    assert ok


def test_criterion_7_groundstate_trial_scaling(gs_sweep):
    points, _ = gs_sweep
    b, a = _global_b_a(points, 0.005)
    monotone, r2 = _m_star_shape(points, 0.005)
    ok = b is not None and abs(b - 0.970) <= 0.2 and monotone and r2 > 0.95
    extra = []
    for eps, ref in ((0.01, 0.809), (0.02, 0.689)):
        be, _ = _global_b_a(points, eps)
        extra.append(f"eps={eps}: b={be:.3f} (ref {ref})")
    _line(7, ok, f"eps=0.005: b={b:.3f} (ref 0.970+-0.2), a={a:.1f}, "
          f"monotone={monotone}, R2={r2:.4f}; " + "; ".join(extra))
    assert ok


def _loglog_slope(points, L, window=(0.005, 0.1)):
    pts = [p for p in points if p.L == L]
    Ms = np.array([p.M for p in pts], dtype=float)
    errs = np.array([p.mean_error for p in pts])
    ses = np.array([max(p.std_error, 1e-30) for p in pts])
    inside = (errs >= window[0]) & (errs <= window[1])
    if inside.sum() < 3:
        return None
    return float(np.polyfit(np.log(Ms[inside]), np.log(errs[inside]), 1,
                            w=errs[inside] / ses[inside])[0])


@pytest.mark.xfail(
    strict=True,
    reason="measured slopes of the mean signed error: reweighted "
    "-0.54..-0.68, unreweighted average -0.75..-1.05 over the fit window "
    "at L=8,10,12; the error mixes an M^-1 systematic part with the "
    "replicate-suppressed M^-1/2 fluctuations, so neither estimator shows "
    "the asserted -0.5 +- 0.1 even though both scale exponentially alike",
)
def test_criterion_8_unreweighted_estimator_slope(gs_sweep, gs_average_sweep):
    rew_points, _ = gs_sweep
    avg_points, _ = gs_average_sweep
    rows = []
    ok = True
    for L in FIT_SIZES:
        s_rew = _loglog_slope(rew_points, L)
        s_avg = _loglog_slope(avg_points, L)
        for name, s in (("rew", s_rew), ("avg", s_avg)):
            good = s is not None and -0.6 <= s <= -0.4
            ok = ok and good
            rows.append(f"L={L} {name}={s:.3f}")
    _line(8, ok, "; ".join(rows) + " (band -0.5 +- 0.1)")
    assert ok


def test_criterion_9_extrapolation_arithmetic(capsys):
    code = cli_main([
        "extrapolate", "--a", "29.9", "--b", "0.982", "--L", "40",
        "--layers", "40", "--clock-hz", "1e4", "--reference-shots", "1.6e13",
    ])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    fitted = payload["fitted"]
    reference = payload["reference"]
    ok = fitted["shots"] >= 1.6e13
    ok = ok and abs(reference["years"] - 2100.0) / 2100.0 <= 0.25
    ok = ok and 2.0e13 * 0.98 <= fitted["shots"] <= 2.0e13 * 1.02
    ok = ok and "note" in payload
    _line(9, ok, f"fitted shots={fitted['shots']:.3e} years={fitted['years']:.0f}; "
          f"reference years={reference['years']:.0f}")
    assert ok


def test_criterion_10_byte_identical_reruns(noiseless_run, scans, jastrow_sweep,
                                            gs_sweep, gs_average_sweep):
    _, noiseless_bytes = noiseless_run
    _, scan_bytes = scans
    _, jastrow_bytes = jastrow_sweep
    _, gs_bytes = gs_sweep
    _, avg_bytes = gs_average_sweep

    repeats = {
        "criterion-4 noiseless": (noiseless_bytes,
                                  noiseless_csv_bytes(build_noiseless_estimates())),
        "criterion-5 scan M0=10": (scan_bytes[10], scan_csv_bytes(build_scan(10))),
        "criterion-5 scan M0=1000": (scan_bytes[1000], scan_csv_bytes(build_scan(1000))),
        "criterion-6 jastrow sweep": (jastrow_bytes, sweep_csv_bytes(
            build_sweep("jastrow", "reweighted", SWEEP_SIZES))),
        "criterion-7 gs sweep": (gs_bytes, sweep_csv_bytes(
            build_sweep("exact-groundstate", "reweighted", SWEEP_SIZES))),
        "criterion-8 average sweep": (avg_bytes, sweep_csv_bytes(
            build_sweep("exact-groundstate", "average", FIT_SIZES))),
    }
    rows = []
    ok = True
    for name, (first, second) in repeats.items():
        same = first == second
        ok = ok and same
        rows.append(f"{name}: {'identical' if same else 'DIFFERS'} ({_sha(first)[:12]})")
    _line(10, ok, "; ".join(rows))
    assert ok
