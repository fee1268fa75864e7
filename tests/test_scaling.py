import concurrent.futures
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from shotgfmc import gfmc, scaling, shots
from shotgfmc.gfmc import GfmcConfig
from shotgfmc.model import MAX_TABLE_L, TfiModel
from shotgfmc.scaling import (
    FitError,
    SECONDS_PER_YEAR,
    SweepPoint,
    build_trial,
    check_size,
    crossing_M,
    default_m_grid,
    extrapolate_runtime,
    fit_crossing,
    fit_exponential,
    fit_prefactor,
    reference_energy,
    run_sweep,
    run_walkers,
    runtime_for_shots,
    summarize,
    write_sweep_csv,
)
from shotgfmc.exact import ground_state

from oracles import write_sweep_csv_rows


def _make_points(Ms, errors, L=10, spread=1e-3, e0=-1.2):
    """SweepPoints whose mean_error equals `errors` with a small symmetric spread."""
    points = []
    for M, err in zip(Ms, errors):
        delta = err * spread
        ests = e0 + err + np.array([delta, -delta] * 8)
        points.append(SweepPoint(L, int(M), "jastrow", "reweighted", ests, e0))
    return points


def test_sweep_point_aggregation():
    ests = np.array([-1.0, -1.1, -0.9, -1.2])
    p = SweepPoint(6, 100, "jastrow", "reweighted", ests, -1.25)
    signed = ests - (-1.25)
    assert p.mean_error == abs(signed.mean())
    assert p.std_error == signed.std(ddof=1) / 2.0


def test_fit_prefactor_exact_recovery():
    c0 = 3.7
    Ms = [2 ** k for k in range(10, 17)]
    errors = [c0 * M ** -0.5 for M in Ms]
    points = _make_points(Ms, errors)
    fit = fit_prefactor(points, window=(1e-4, 1.0))
    assert fit.c == pytest.approx(c0, abs=1e-9)
    assert fit.n_points == len(Ms)


def test_fit_prefactor_window_excludes_saturated_points():
    c0 = 2.0
    Ms = [2 ** k for k in range(8, 20)]
    # saturate at a floor, as happens when the projection eats the noise
    errors = [max(c0 * M ** -0.5, 0.004) for M in Ms]
    windowed = fit_prefactor(_make_points(Ms, errors), window=(0.005, 0.1))
    full = fit_prefactor(_make_points(Ms, errors), window=(1e-9, 1.0))
    assert windowed.c == pytest.approx(c0, rel=1e-6)
    assert full.rms_residual > 10 * windowed.rms_residual


def test_fit_prefactor_noisy_recovery_within_3_sigma():
    c0 = 3.7
    Ms = np.array([2 ** k for k in range(10, 17)], dtype=float)
    x = Ms ** -0.5
    sigma = 0.05 * c0 * x
    rng = np.random.default_rng(0)
    hits = 0
    trials = 100
    for _ in range(trials):
        errors = c0 * x + rng.normal(0.0, sigma)
        points = []
        for M, err, s in zip(Ms, errors, sigma):
            ests = -1.2 + err + np.array([s, -s] * 8)
            points.append(SweepPoint(10, int(M), "jastrow", "reweighted", ests, -1.2))
        fit = fit_prefactor(points, window=(1e-6, 10.0))
        sigma_c = np.sqrt(1.0 / np.sum(x * x / points[0].std_error ** 2))
        if abs(fit.c - c0) <= 3 * sigma_c:
            hits += 1
    assert hits >= 90


def test_fit_prefactor_needs_three_points():
    points = _make_points([100, 200], [0.05, 0.03])
    with pytest.raises(FitError):
        fit_prefactor(points, window=(0.04, 0.1))


def test_crossing_examples():
    assert crossing_M(1.0, 1.0) == 1.0
    assert crossing_M(0.2, 0.01) == pytest.approx(400.0, abs=1e-12)
    with pytest.raises(ValueError):
        crossing_M(-1.0, 0.01)


@pytest.mark.parametrize("c, eps", [(0.5, 1e-200), (1e300, 1e-300)])
def test_crossing_that_overflows_is_a_fit_error(c, eps):
    # (c/eps)^2 raises OverflowError in the first case and is inf in the second
    with pytest.raises(FitError, match=re.escape(f"overflows a float at c = {c!r}, eps = {eps!r}")):
        crossing_M(c, eps)


def test_fit_crossing_recovers_power_laws():
    Ms = [2 ** k for k in range(8, 16)]
    for expo, amp in ((-0.5, 3.7), (-0.8, 40.0)):
        errors = [amp * M ** expo for M in Ms]
        fit = fit_crossing(_make_points(Ms, errors), eps=0.01, band=50.0)
        expected = (amp / 0.01) ** (-1.0 / expo)
        assert fit.exponent == pytest.approx(expo, abs=1e-6)
        assert fit.m_star == pytest.approx(expected, rel=1e-6)


def test_fit_crossing_failures():
    Ms = [100, 200, 400, 800]
    flat = _make_points(Ms, [0.01] * 4)
    with pytest.raises(FitError):
        fit_crossing(flat, eps=0.01, band=5.0)
    sparse = _make_points(Ms, [1.0, 0.5, 0.01, 0.005])
    with pytest.raises(FitError):
        fit_crossing(sparse, eps=0.01, band=1.5)


def test_fit_exponential_exact_recovery():
    a0, b0 = 29.9, 0.982
    m_star = {L: a0 * 2 ** (b0 * L) for L in (8, 10, 12)}
    m_star[6] = 1.0  # poisoned point below the cut must be ignored
    fit = fit_exponential(m_star, L_min_exclusive=6)
    assert fit.a == pytest.approx(a0, rel=1e-10)
    assert fit.b == pytest.approx(b0, abs=1e-10)
    assert fit.n_points == 3


def test_fit_exponential_needs_two_sizes():
    with pytest.raises(FitError):
        fit_exponential({6: 100.0, 8: 500.0}, L_min_exclusive=6)
    with pytest.raises(FitError):
        fit_exponential({8: 500.0, 10: None}, L_min_exclusive=6)


def test_fit_exponential_prefactor_that_overflows_is_a_fit_error():
    with pytest.raises(FitError, match="prefactor a = 2\\^.* overflows a float"):
        fit_exponential({8: 1e300, 10: 1e-300}, L_min_exclusive=6)


def test_extrapolate_runtime_reference_point():
    est = extrapolate_runtime(29.9, 0.982, 40, 40, 1e4)
    assert est.shots == pytest.approx(29.9 * 2 ** (0.982 * 40), rel=1e-12)
    assert 1.6e13 <= est.shots <= 2.1e13
    assert est.seconds == pytest.approx(est.shots * 40 / 1e4, rel=1e-12)
    assert est.years == pytest.approx(est.seconds / SECONDS_PER_YEAR, rel=1e-12)


def test_extrapolate_runtime_trivial_cases():
    assert extrapolate_runtime(1.0, 0.0, 13, 10, 1e3).shots == 1.0
    one = extrapolate_runtime(2.0, 0.5, 8, 10, 1e3)
    two = extrapolate_runtime(2.0, 0.5, 8, 20, 1e3)
    assert two.seconds == pytest.approx(2 * one.seconds, rel=1e-12)
    with pytest.raises(ValueError):
        extrapolate_runtime(-1.0, 0.5, 8, 10, 1e3)


def test_runtime_for_shots_quoted_budget():
    est = runtime_for_shots(1.6e13, 40, 1e4)
    assert est.seconds == pytest.approx(6.4e10, rel=1e-12)
    assert est.years == pytest.approx(2027.88, rel=1e-3)


def test_default_m_grid_shape():
    grid = default_m_grid(8, "jastrow")
    assert grid == sorted(set(grid))
    assert all(M >= 1 for M in grid)
    center = 29.9 * 2 ** (0.982 * 8)
    assert grid[0] <= center / 256
    assert grid[-1] >= 2 * center
    # roughly geometric with factor 2
    ratios = [b / a for a, b in zip(grid[1:-1], grid[2:])]
    assert all(1.8 <= r <= 2.2 for r in ratios)


def _tiny_sweep(threads=1, estimator="reweighted", base_seed=99):
    cfg = GfmcConfig(chain_length=3000, warmup=200, l_reweight=50)
    return run_sweep([60, 120], [4], "jastrow", cfg, replicates=3,
                     base_seed=base_seed, estimator=estimator, threads=threads)


def test_run_sweep_deterministic_and_consistent():
    a = _tiny_sweep()
    b = _tiny_sweep()
    assert len(a) == 2
    for pa, pb in zip(a, b):
        assert pa.L == pb.L and pa.M == pb.M
        assert np.array_equal(pa.replicate_estimates, pb.replicate_estimates)
        signed = pa.replicate_estimates - pa.e0_per_site
        assert pa.mean_error == abs(signed.mean())
        assert pa.std_error == signed.std(ddof=1) / np.sqrt(3)


def test_run_sweep_parallel_matches_serial():
    serial = _tiny_sweep(threads=1)
    parallel = _tiny_sweep(threads=2)
    for ps, pp in zip(serial, parallel):
        assert np.array_equal(ps.replicate_estimates, pp.replicate_estimates)


def _one_walker_populations(monkeypatch):
    monkeypatch.setattr(gfmc, "POPULATION_RECORD_BYTES", 1)
    assert gfmc.max_population(GfmcConfig()) == 1


def test_run_walkers_records_do_not_depend_on_the_population_cap(monkeypatch):
    m = TfiModel(5)
    cfg = GfmcConfig(chain_length=3000, warmup=200, l_reweight=50)
    trial, _ = build_trial(m, "jastrow")
    walkers = [(None, 0), (40, 0), (40, 1), (None, 1), (90, 0)]
    default = run_walkers(m, cfg, trial, walkers, 5, lambda r: r)
    assert gfmc.max_population(cfg) >= len(walkers)
    _one_walker_populations(monkeypatch)
    single = run_walkers(m, cfg, trial, walkers, 5, lambda r: r)
    assert len(default) == len(single) == len(walkers)
    for a, b in zip(default, single):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.b_values, b.b_values)
        assert np.array_equal(a.e_values, b.e_values)
    # M None runs on the trial itself, and the budgets differ from it and each other
    assert not np.array_equal(default[0].b_values, default[1].b_values)
    assert not np.array_equal(default[1].b_values, default[2].b_values)


def test_run_walkers_holds_each_table_once():
    # one population of W walkers holds its W tables, its records and its
    # uniforms, and no more than a few more tables of scratch; a second
    # copy of the population's tables would need W more
    m = TfiModel(14)
    cfg = GfmcConfig(chain_length=2000, warmup=100, l_reweight=50)
    trial, _ = build_trial(m, "jastrow")
    W = 16
    assert gfmc.max_population(cfg) >= W
    walkers = [(None, 0)] + [(10 * m.n_states, rep) for rep in range(W - 1)]
    table = 8 * m.n_states
    records = 3 * 8 * W * (cfg.chain_length - cfg.warmup)
    uniforms = 8 * W * (cfg.chain_length + gfmc._RUN_WINDOW)
    tracemalloc.start()
    try:
        n = len(run_walkers(m, cfg, trial, walkers, 11, len))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == W
    assert peak < (W + 8) * table + records + uniforms


def test_run_sweep_with_one_walker_populations_matches_across_threads(monkeypatch):
    default = _tiny_sweep(threads=1)
    _one_walker_populations(monkeypatch)
    serial = _tiny_sweep(threads=1)
    parallel = _tiny_sweep(threads=2)
    for pd, ps, pp in zip(default, serial, parallel, strict=True):
        assert (pd.L, pd.M) == (ps.L, ps.M) == (pp.L, pp.M)
        assert np.array_equal(pd.replicate_estimates, ps.replicate_estimates)
        assert np.array_equal(ps.replicate_estimates, pp.replicate_estimates)


# 6 threads split the 4 walkers into 4 tasks, 3 threads into 2
@pytest.mark.parametrize("cores, threads, workers", [
    (2, 6, [2]), (64, 6, [4]), (64, 3, [2]), (1, 6, []), (64, 1, []),
])
def test_run_sweep_starts_at_most_one_worker_per_task_and_core(monkeypatch, cores, threads,
                                                               workers):
    # the pool forks max_workers processes at its first task; the recorder
    # runs the tasks in-process instead
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(scaling.os, "cpu_count", lambda: cores)
    # 4 walkers, so at most 4 tasks
    cfg = GfmcConfig(chain_length=400, warmup=10, l_reweight=20)
    points = run_sweep([64, 128], [4], "jastrow", cfg, replicates=2, threads=threads)
    assert started == workers
    serial = run_sweep([64, 128], [4], "jastrow", cfg, replicates=2, threads=1)
    for p, q in zip(points, serial, strict=True):
        assert np.array_equal(p.replicate_estimates, q.replicate_estimates)


def test_run_replicate_holds_no_record_while_the_next_population_runs(monkeypatch):
    _one_walker_populations(monkeypatch)
    earlier = []

    def tracking_run_chain(cfg, amps, m, rngs):
        # a record keeps its whole population's arrays alive
        assert all(ref() is None for ref in earlier)
        records = run_chain(cfg, amps, m, rngs)
        earlier.extend(weakref.ref(r) for r in records)
        return records

    run_chain = scaling.run_chain
    monkeypatch.setattr(scaling, "run_chain", tracking_run_chain)
    m = TfiModel(4)
    cfg = GfmcConfig(chain_length=2000, warmup=100, l_reweight=50)
    trial, _ = build_trial(m, "jastrow")
    ests = scaling._run_replicate((m, cfg, trial, [(60, 0), (60, 1), (120, 0)], 3, "average"))
    assert len(ests) == len(earlier) == 3


def test_run_sweep_runs_each_distinct_walker_once(monkeypatch):
    walkers = []

    def counting_run_chain(cfg, amps, m, rngs):
        walkers.extend([m.L] * len(amps))
        return run_chain(cfg, amps, m, rngs)

    run_chain = scaling.run_chain
    monkeypatch.setattr(scaling, "run_chain", counting_run_chain)
    points = run_sweep([100, 100, 200], [4, 4], "jastrow", GfmcConfig(chain_length=2000),
                       replicates=2, threads=1)
    assert [(p.L, p.M) for p in points] == [(4, 100), (4, 200)]
    assert walkers == [4] * 4


def test_run_sweep_average_estimator_differs():
    rew = _tiny_sweep(estimator="reweighted")
    avg = _tiny_sweep(estimator="average")
    assert not np.array_equal(rew[0].replicate_estimates, avg[0].replicate_estimates)
    assert avg[0].estimator == "average"


def test_run_sweep_groundstate_trial():
    cfg = GfmcConfig(chain_length=2000, warmup=100, l_reweight=50)
    pts = run_sweep([40], [3], "exact-groundstate", cfg, replicates=2, base_seed=7)
    assert pts[0].trial_kind == "exact-groundstate"
    assert pts[0].e0_per_site == pytest.approx(-4.0 / 3.0, abs=1e-9)


def test_run_sweep_validation():
    cfg = GfmcConfig(chain_length=2000, warmup=100, l_reweight=50)
    with pytest.raises(ValueError):
        run_sweep([10], [4], "jastrow", cfg, replicates=1)
    with pytest.raises(ValueError):
        run_sweep([10], [4], "nope", cfg, replicates=2)
    with pytest.raises(ValueError):
        run_sweep([10], [4], "jastrow", cfg, replicates=2, estimator="bogus")
    for threads in (0, -5):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_sweep([10], [4], "jastrow", cfg, replicates=2, threads=threads)


def test_summarize_structure_and_json():
    Ms = [2 ** k for k in range(8, 21)]
    points = []
    for L in (8, 10):
        scale = 2.0 ** (0.5 * (L - 8))
        errors = [3.0 * scale * M ** -0.5 for M in Ms]
        points.extend(_make_points(Ms, errors, L=L))
    res = summarize(points, targets=(0.005, 0.01), window=(0.005, 0.1), band=5.0,
                    L_min_exclusive=7)
    payload = json.dumps(res)
    assert "per_L" in res and "global" in res
    g = res["global"][repr(0.005)]
    # errors scale as 2^(L/2) -> M* doubles per extra site -> b = 1
    assert g["b"] == pytest.approx(1.0, abs=1e-6)
    entry = res["per_L"]["8"]
    assert entry["c"] == pytest.approx(3.0, rel=1e-6)
    assert entry["M_star"][repr(0.005)] == pytest.approx((3.0 / 0.005) ** 2, rel=1e-3)


def test_summarize_prefactor_method_uses_crossing_identity():
    Ms = [2 ** k for k in range(8, 18)]
    errors = [2.5 * M ** -0.5 for M in Ms]
    points = _make_points(Ms, errors, L=8)
    res = summarize(points, targets=(0.01,), crossing_method="prefactor")
    entry = res["per_L"]["8"]
    assert entry["M_star"][repr(0.01)] == pytest.approx(
        crossing_M(entry["c"], 0.01), rel=1e-12
    )


def test_summarize_rejects_no_points():
    with pytest.raises(ValueError, match="at least one sweep point"):
        summarize([])


def test_summarize_rejects_repeated_targets():
    points = _make_points([100, 200, 400], [0.5, 0.4, 0.3], L=8)
    with pytest.raises(ValueError, match="targets must be distinct"):
        summarize(points, targets=(0.01, 0.01, 0.02))


def test_summarize_records_fit_failures():
    points = _make_points([100, 200, 400], [0.5, 0.4, 0.3], L=8)
    res = summarize(points, targets=(1e-6,))
    assert res["per_L"]["8"]["M_star"][repr(1e-6)] is None
    assert "error" in res["global"][repr(1e-6)]


def test_summarize_prefactor_method_records_a_failed_prefactor_fit():
    # errors above the window leave no point for the prefactor fit
    points = _make_points([100, 200, 400], [0.5, 0.4, 0.3], L=8)
    res = summarize(points, targets=(0.01, 0.02), crossing_method="prefactor")
    entry = res["per_L"]["8"]
    assert entry["c"] is None
    assert entry["c_error"].startswith("only 0 points")
    for t in (0.01, 0.02):
        assert entry["M_star"][repr(t)] is None
        assert entry["crossings"][repr(t)] == {"error": entry["c_error"]}
        assert "error" in res["global"][repr(t)]


def test_write_sweep_csv_roundtrip(tmp_path):
    points = _tiny_sweep()
    path = tmp_path / "sweep_points.csv"
    write_sweep_csv(points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=sweep_points.v1"
    assert lines[1] == "L,M,trial_kind,rep,energy_per_site,E0_per_site,signed_error"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 6
    for row in rows:
        est = float(row[4])
        e0 = float(row[5])
        assert float(row[6]) == est - e0


def test_write_sweep_csv_bytes_match_row_loop_oracle(tmp_path, monkeypatch, row_chunks):
    # 7-row chunks split each point's replicates; the values cover tiny,
    # negative, integral and equal-to-E0 estimates
    monkeypatch.setattr(shots, "CSV_CHUNK_ROWS", 7)
    ests = np.array([-1.25, 0.1 + 0.2, 1e-300, -3.0, 2.5e7, -1.2, 1 / 3, -0.0, 5e-324])
    points = [SweepPoint(10, 123456789, "jastrow", "reweighted", ests / 7, -1.2),
              SweepPoint(8, 60, "exact-groundstate", "average", ests, -1.2),
              SweepPoint(8, 7, "exact-groundstate", "average", -ests, -0.4)]
    write_sweep_csv(points, tmp_path / "fast.csv")
    assert len(row_chunks) == 3 * 2
    write_sweep_csv_rows(points, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_reference_energy_cache():
    m = TfiModel(4)
    assert reference_energy(m) == pytest.approx(ground_state(m).energy, abs=1e-10)


def test_reference_energy_takes_a_given_solve_without_solving(monkeypatch):
    m = TfiModel(6)
    gs = ground_state(m)

    def no_solve(m, *args, **kwargs):
        raise AssertionError(f"solved L={m.L}")

    monkeypatch.setattr(scaling, "ground_state", no_solve)
    assert reference_energy(m, gs) == gs.energy


@pytest.fixture
def solves(monkeypatch):
    """The sizes scaling.ground_state solves, in call order."""
    sizes = []

    def counting_ground_state(m, *args, **kwargs):
        sizes.append(m.L)
        return ground_state(m, *args, **kwargs)

    monkeypatch.setattr(scaling, "ground_state", counting_ground_state)
    return sizes


@pytest.mark.parametrize("m_grid, L_grid, Gamma, message", [
    ([100], [8, MAX_TABLE_L + 1], 1.0, f"full-basis table needs L <= {MAX_TABLE_L}"),
    ([100], [8], 0.0, "auto shift needs Gamma > 0"),
    ([0], [8], 1.0, "every shot budget M must be >= 1"),
    ([100, -5], [8], 1.0, "every shot budget M must be >= 1"),
    ([100, 2**63], [8], 1.0, r"every shot budget M must be at most 2\^63 - 1"),
], ids=["oversized-L", "auto-shift-at-Gamma-0", "zero-budget", "negative-budget",
        "int64-overflowing-budget"])
def test_run_sweep_rejects_a_bad_size_before_any_solve(solves, m_grid, L_grid, Gamma, message):
    with pytest.raises(ValueError, match=message):
        run_sweep(m_grid, L_grid, "jastrow", GfmcConfig(chain_length=2000), replicates=2,
                  Gamma=Gamma, threads=1)
    assert solves == []


@pytest.mark.parametrize("L, trial_kind, Gamma, message", [
    (MAX_TABLE_L + 1, "exact-groundstate", 0.0, "the ground level is degenerate"),
    (MAX_TABLE_L + 1, "jastrow", 0.0, f"full-basis table needs L <= {MAX_TABLE_L}"),
    (8, "jastrow", 0.0, "auto shift needs Gamma > 0"),
], ids=["Gamma-rule-first", "then-table-size", "then-shift"])
def test_check_size_rejects_in_order(L, trial_kind, Gamma, message):
    with pytest.raises(ValueError, match=message):
        check_size(TfiModel(L, Gamma=Gamma), trial_kind, GfmcConfig(chain_length=2000))


def test_check_size_returns_the_resolved_shift():
    cfg = GfmcConfig(chain_length=2000)
    assert check_size(TfiModel(8, Gamma=0.5), "exact-groundstate", cfg) == 9.0
    assert check_size(TfiModel(8), "jastrow", GfmcConfig(lambda_shift=12.5)) == 12.5


def test_estimators_look_their_function_up_on_scaling_at_call_time(monkeypatch):
    # perfbench/tracing.py replaces these module names with timing wrappers
    monkeypatch.setattr(scaling, "reweighted_energy", lambda r: ("reweighted", r))
    monkeypatch.setattr(scaling, "average_local_energy", lambda r: ("average", r))
    assert list(scaling.ESTIMATORS) == ["reweighted", "average"]
    for name, estimate in scaling.ESTIMATORS.items():
        assert estimate(7) == (name, 7)


@pytest.mark.parametrize("m_grid, L_grid", [([], [8]), ([100], [])],
                         ids=["no-budgets", "no-sizes"])
def test_run_sweep_rejects_an_empty_grid_before_any_solve(solves, m_grid, L_grid):
    with pytest.raises(ValueError, match="at least one value"):
        run_sweep(m_grid, L_grid, "jastrow", GfmcConfig(chain_length=2000), replicates=2,
                  threads=1)
    assert solves == []


@pytest.mark.parametrize("bad", [
    {"a": float("nan")}, {"b": float("nan")}, {"b": float("inf")}, {"a": float("inf")},
])
def test_extrapolate_runtime_rejects_non_finite_inputs(bad):
    args = {"a": 29.9, "b": 0.982, "L": 40, "circuit_layers": 40, "gate_clock_hz": 1e4,
            **bad}
    (name,) = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        extrapolate_runtime(**args)


def test_extrapolate_runtime_rejects_a_shot_count_that_underflows():
    with pytest.raises(ValueError, match=r"^shot count a\*2\^\(b\*L\) underflows to 0 at "
                                         r"a = 29.9, b = -100.0, L = 40$"):
        extrapolate_runtime(29.9, -100.0, 40, 40, 1e4)
    # the smallest positive float is a shot count, not an underflow; at a
    # clock this slow its wall time is a positive float too
    assert extrapolate_runtime(1.0, -537.0, 2, 40, 1e-300).shots == 5e-324
    # at 1e4 Hz it is not
    with pytest.raises(ValueError, match=r"^wall time shots\*circuit_layers/gate_clock_hz "
                                         r"underflows to 0 at shots = 5e-324, "
                                         r"circuit_layers = 40, gate_clock_hz = 10000.0$"):
        extrapolate_runtime(1.0, -537.0, 2, 40, 1e4)


@pytest.mark.parametrize("shots, layers, clock", [(1e-300, 40, 1e300), (5e-324, 1, 2.0)])
def test_runtime_for_shots_rejects_a_wall_time_that_underflows(shots, layers, clock):
    message = (f"wall time shots*circuit_layers/gate_clock_hz underflows to 0 at "
               f"shots = {shots!r}, circuit_layers = {layers}, gate_clock_hz = {clock!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        runtime_for_shots(shots, layers, clock)


def test_runtime_for_shots_names_every_input_that_is_not_positive():
    with pytest.raises(ValueError, match="^circuit_layers must be positive, got 0$"):
        runtime_for_shots(1.6e13, 0, 1e4)
    with pytest.raises(ValueError, match=r"^shots and gate_clock_hz must be positive, "
                                         r"got -1.0 and 0.0$"):
        runtime_for_shots(-1.0, 40, 0.0)
    with pytest.raises(ValueError, match="^circuit_layers must be finite, got an integer"):
        runtime_for_shots(1.6e13, 10 ** 400, 1e4)


@pytest.mark.parametrize("bad", [
    {"shots": float("inf")}, {"shots": float("nan")},
    {"gate_clock_hz": float("inf")}, {"gate_clock_hz": float("nan")},
])
def test_runtime_for_shots_rejects_non_finite_inputs(bad):
    args = {"shots": 1.6e13, "circuit_layers": 40, "gate_clock_hz": 1e4, **bad}
    (name,) = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        runtime_for_shots(**args)
