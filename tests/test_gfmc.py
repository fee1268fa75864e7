import numpy as np
import pytest

from shotgfmc.exact import ground_state
from shotgfmc._kernels import sliding_window_sums
from shotgfmc.gfmc import (
    _WINDOW_RECOMPUTE_EVERY,
    ChainRecord,
    GfmcConfig,
    UndefinedLocalEnergyError,
    _draw_initial_state,
    auto_lambda_shift,
    average_local_energy,
    green_row,
    local_energy,
    local_energy_table,
    reweighted_energy,
    run_chain,
    transition_step,
)
from shotgfmc.model import TfiModel
from shotgfmc.shots import ShotCounts, noisy_amplitudes, sample_counts
from shotgfmc.trial import AmplitudeTable, build_table

from oracles import (
    chain_fill_scalar,
    jastrow_amp_direct,
    local_energy_direct,
    sliding_window_sums_scalar,
    stationary_distribution,
)


def _noisy_table(L, M, seed):
    m = TfiModel(L)
    p = build_table("jastrow", m).probabilities
    return noisy_amplitudes(sample_counts(p, M, np.random.default_rng(seed)))


def test_local_energy_uniform_allup_l4():
    m = TfiModel(4)
    t = build_table("uniform", m)
    assert local_energy(0, t, m) == pytest.approx(-8.0, abs=1e-12)


def test_local_energy_zero_variance():
    m = TfiModel(6)
    gs = ground_state(m)
    t = build_table("exact-groundstate", m, vector=gs.vector)
    for x in (0, 5, 33, 63):
        assert local_energy(x, t, m) == pytest.approx(gs.energy, abs=1e-9)


def test_local_energy_matches_direct_oracle():
    m = TfiModel(6)
    t = build_table("jastrow", m)
    raw = np.array([jastrow_amp_direct(x, 6, 0.233, 0.083) for x in range(64)])
    raw /= np.linalg.norm(raw)
    rng = np.random.default_rng(17)
    for x in [0, *rng.integers(0, 64, size=12)]:
        ref = local_energy_direct(int(x), raw, 6, 1.0, 1.0)
        assert local_energy(int(x), t, m) == pytest.approx(ref, rel=1e-12)


def test_local_energy_zero_amplitude_raises():
    m = TfiModel(3)
    counts = np.zeros(8, dtype=np.int64)
    counts[1] = 7
    t = noisy_amplitudes(ShotCounts(3, 7, counts))
    with pytest.raises(UndefinedLocalEnergyError):
        local_energy(0, t, m)


def test_local_energy_table_matches_single():
    m = TfiModel(5)
    t = _noisy_table(5, 200, 4)
    e, defined = local_energy_table(t, m)
    for x in range(32):
        if defined[x]:
            assert e[x] == pytest.approx(local_energy(x, t, m), rel=1e-12)
        else:
            assert np.isnan(e[x])


def test_green_row_uniform_example():
    m = TfiModel(4)
    t = build_table("uniform", m)
    weights, b = green_row(0, t, m, lam=8.0)
    assert np.allclose(weights, [12.0, 1.0, 1.0, 1.0, 1.0], atol=1e-12)
    assert b == pytest.approx(16.0, abs=1e-12)


def test_green_row_identity_b_equals_lam_minus_eloc():
    m = TfiModel(6)
    lam = auto_lambda_shift(m)
    rng = np.random.default_rng(3)
    for t in (build_table("jastrow", m), _noisy_table(6, 640, 8)):
        support = np.flatnonzero(t.amps > 0)
        for x in rng.choice(support, size=15):
            _, b = green_row(int(x), t, m, lam)
            assert b == pytest.approx(lam - local_energy(int(x), t, m), abs=1e-10)


def test_green_row_zero_amplitude_neighbor_gets_zero_weight():
    m = TfiModel(4)
    t = _noisy_table(4, 12, 5)
    support = np.flatnonzero(t.amps > 0)
    x = int(support[0])
    weights, _ = green_row(x, t, m, auto_lambda_shift(m))
    for k in range(4):
        if t.amps[x ^ (1 << k)] == 0.0:
            assert weights[k + 1] == 0.0


def test_green_row_rejects_small_lambda():
    m = TfiModel(4)
    t = build_table("uniform", m)
    with pytest.raises(ValueError):
        green_row(0, t, m, lam=4.0)  # == L*J, not strictly above


def test_transition_probabilities_normalized():
    m = TfiModel(6)
    t = build_table("jastrow", m)
    lam = auto_lambda_shift(m)
    rng = np.random.default_rng(1)
    for x in rng.integers(0, 64, size=10):
        weights, b = green_row(int(x), t, m, lam)
        assert float(weights.sum() / b) == pytest.approx(1.0, abs=1e-12)


def test_transition_stay_probability_uniform_l4():
    m = TfiModel(4)
    t = build_table("uniform", m)
    rng = np.random.default_rng(0)
    n = 100_000
    stays = sum(transition_step(0, t, m, 8.0, rng) == 0 for _ in range(n))
    # stay prob 12/16, 5-sigma binomial window
    sigma = np.sqrt(n * 0.75 * 0.25)
    assert abs(stays - 0.75 * n) <= 5 * sigma


def test_transition_empirical_frequencies():
    m = TfiModel(4)
    t = build_table("jastrow", m)
    lam = auto_lambda_shift(m)
    x = 3
    weights, b = green_row(x, t, m, lam)
    probs = weights / b
    rng = np.random.default_rng(2)
    n = 1_000_000
    counts = {}
    for _ in range(n):
        y = transition_step(x, t, m, lam, rng)
        counts[y] = counts.get(y, 0) + 1
    targets = [x] + [x ^ (1 << k) for k in range(4)]
    for i, y in enumerate(targets):
        expected = n * probs[i]
        sigma = np.sqrt(n * probs[i] * (1 - probs[i]))
        assert abs(counts.get(y, 0) - expected) <= 5 * sigma


def test_config_invariants():
    with pytest.raises(ValueError):
        GfmcConfig(chain_length=1000, warmup=950, l_reweight=100)
    with pytest.raises(ValueError):
        GfmcConfig(l_reweight=0)
    cfg = GfmcConfig(lambda_shift=None)
    m = TfiModel(10)
    assert cfg.resolve_lambda_shift(m) == 10.0 + 2.0
    with pytest.raises(ValueError):
        GfmcConfig(lambda_shift=10.0).resolve_lambda_shift(m)
    with pytest.raises(ValueError):
        auto_lambda_shift(TfiModel(4, Gamma=0.0))


def test_run_chain_zero_variance():
    m = TfiModel(6)
    gs = ground_state(m)
    t = build_table("exact-groundstate", m, vector=gs.vector)
    cfg = GfmcConfig(chain_length=5000, warmup=100, l_reweight=50, seed=7)
    rec = run_chain(cfg, t, m)
    assert np.allclose(rec.e_values, gs.energy, atol=1e-9)
    assert reweighted_energy(rec).estimate == pytest.approx(gs.energy, abs=1e-9)
    assert average_local_energy(rec) == pytest.approx(gs.energy, abs=1e-9)


def test_run_chain_identity_e_equals_lam_minus_b():
    m = TfiModel(5)
    t = build_table("jastrow", m)
    cfg = GfmcConfig(chain_length=2000, warmup=10, l_reweight=20, seed=1)
    rec = run_chain(cfg, t, m)
    assert np.array_equal(rec.e_values, rec.lambda_shift - rec.b_values)
    # recorded b matches the row sums recomputed off-chain
    for n in (0, 100, 1500):
        _, b = green_row(int(rec.states[n]), t, m, rec.lambda_shift)
        assert rec.b_values[n] == pytest.approx(b, abs=1e-10)


def test_run_chain_determinism():
    m = TfiModel(6)
    t = build_table("jastrow", m)
    cfg = GfmcConfig(chain_length=4000, warmup=50, l_reweight=30, seed=123)
    a = run_chain(cfg, t, m)
    b = run_chain(cfg, t, m)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.b_values, b.b_values)


def test_run_chain_reachability_respects_support():
    m = TfiModel(6)
    t = _noisy_table(6, 120, 9)
    cfg = GfmcConfig(chain_length=20_000, warmup=100, l_reweight=50, seed=5)
    rec = run_chain(cfg, t, m)
    visited = np.unique(rec.states)
    assert np.all(t.amps[visited] > 0)


def _population_tables():
    """(model, tables) at L = 2 and L = 6: full-support tables, shot-noise
    tables with zero entries, and a single-state support last."""
    out = []
    for L in (2, 6):
        m = TfiModel(L)
        trial = build_table("jastrow", m)
        tables = [trial, build_table("uniform", m)]
        tables += [_noisy_table(L, M, seed) for M, seed in ((3, 1), (40, 2), (5000, 3))]
        single = np.zeros(1 << L, dtype=np.int64)
        single[(1 << L) - 2] = 9
        tables.append(noisy_amplitudes(ShotCounts(L, 9, single)))
        out.append((m, tables))
    return out


def _scalar_chain(cfg, t, m, rng):
    lam = cfg.resolve_lambda_shift(m)
    x0 = _draw_initial_state(t, rng)
    urand = rng.random(cfg.chain_length)
    states = np.empty(cfg.chain_length - cfg.warmup, dtype=np.int64)
    bvals = np.empty(cfg.chain_length - cfg.warmup)
    chain_fill_scalar(t.amps, m.L, m.J, m.Gamma, lam, cfg.warmup, x0, urand,
                      states, bvals, np.empty(m.L))
    return states, bvals


def test_population_matches_scalar_reference():
    # every walker of a mixed population reproduces the single-walker loop
    # step for step; the chain is longer than one block of uniforms
    cfg = GfmcConfig(chain_length=2500, warmup=30, l_reweight=40)
    for m, tables in _population_tables():
        seeds = [50 + w for w in range(len(tables))]
        records = run_chain(cfg, tables, m, [np.random.default_rng(s) for s in seeds])
        assert len(records) == len(tables)
        for t, seed, rec in zip(tables, seeds, records):
            states, bvals = _scalar_chain(cfg, t, m, np.random.default_rng(seed))
            assert rec.states.tobytes() == states.tobytes()
            assert rec.b_values.tobytes() == bvals.tobytes()
            assert np.all(t.amps[rec.states] > 0)
        single = records[-1]
        assert np.all(single.states == (1 << m.L) - 2)


def test_population_width_does_not_change_records():
    m = TfiModel(5)
    tables = [_noisy_table(5, M, 7) for M in (20, 200, 2000)]
    cfg = GfmcConfig(chain_length=1500, warmup=10, l_reweight=20)
    together = run_chain(cfg, tables, m, [np.random.default_rng(s) for s in (1, 2, 3)])
    for t, seed, rec in zip(tables, (1, 2, 3), together):
        alone = run_chain(cfg, t, m, np.random.default_rng(seed))
        assert alone.states.tobytes() == rec.states.tobytes()
        assert alone.b_values.tobytes() == rec.b_values.tobytes()
        assert alone.e_values.tobytes() == rec.e_values.tobytes()


class _ConstUniforms:
    """Generator stand-in whose every uniform is the same value."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def test_cdf_top_fallback_matches_scalar():
    # u = 1 puts t = u*b exactly on the row total, past every CDF entry,
    # which is the only way to reach the last-positive-weight fallback
    # (any u < 1 rounds t below b); stay where no flip weight is positive
    cfg = GfmcConfig(chain_length=300, warmup=0, l_reweight=10)
    for m, tables in _population_tables():
        records = run_chain(cfg, tables, m, [_ConstUniforms(1.0) for _ in tables])
        for t, rec in zip(tables, records):
            states, bvals = _scalar_chain(cfg, t, m, _ConstUniforms(1.0))
            assert rec.states.tobytes() == states.tobytes()
            assert rec.b_values.tobytes() == bvals.tobytes()
        assert len(np.unique(records[0].states)) > 1
        assert np.all(records[-1].states == (1 << m.L) - 2)


def test_run_chain_population_validation():
    m = TfiModel(4)
    t = build_table("jastrow", m)
    cfg = GfmcConfig(chain_length=500, warmup=10, l_reweight=20)
    with pytest.raises(ValueError):
        run_chain(cfg, [t, t], m, [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        run_chain(cfg, [], m, [])
    with pytest.raises(ValueError):
        run_chain(cfg, [build_table("jastrow", TfiModel(5))], m, [np.random.default_rng(0)])


def test_draw_initial_state_top_ulp_stays_on_support():
    # a table whose pairwise p.sum() exceeds the sequential cumsum[-1]: a
    # draw in the top ulp used to return index 2^L
    m = TfiModel(10)
    rng = np.random.default_rng(0)
    for _ in range(100):
        amps = rng.random(m.n_states)
        amps[-3:] = 0.0
        amps /= np.linalg.norm(amps)
        t = AmplitudeTable(m.L, amps, "jastrow")
        if t.probabilities.sum() > np.cumsum(t.probabilities)[-1]:
            break
    else:
        pytest.fail("no table with p.sum() > cumsum[-1] found")
    top = _ConstUniforms(np.nextafter(1.0, 0.0))
    assert _draw_initial_state(t, top) == m.n_states - 4


def test_sliding_window_sums_match_scalar_loop():
    rng = np.random.default_rng(4)
    for n, width, every in ((25_000, 100, _WINDOW_RECOMPUTE_EVERY), (1000, 40, 13),
                            (50, 1, 7), (7, 3, 2)):
        values = np.log(rng.uniform(0.5, 12.0, size=n))
        out = np.empty(n - width + 1)
        ref = np.empty_like(out)
        sliding_window_sums(values, width, every, out)
        sliding_window_sums_scalar(values, width, every, ref)
        assert out.tobytes() == ref.tobytes()


def test_reweighted_constant_energy_identity():
    rng = np.random.default_rng(0)
    b = rng.uniform(5.0, 9.0, size=500)
    cfg = GfmcConfig(chain_length=600, warmup=50, l_reweight=100, seed=0)
    rec = ChainRecord(np.zeros(500, dtype=np.int64), b, np.full(500, -3.7),
                      cfg, 10.0, "uniform")
    est = reweighted_energy(rec, 100)
    assert est.estimate == pytest.approx(-3.7, rel=1e-12)


def test_reweighted_equal_b_reduces_to_plain_mean():
    rng = np.random.default_rng(1)
    e = rng.normal(-5.0, 0.3, size=400)
    b = np.full(400, 7.25)
    cfg = GfmcConfig(chain_length=500, warmup=50, l_reweight=100, seed=0)
    rec = ChainRecord(np.zeros(400, dtype=np.int64), b, e, cfg, 10.0, "uniform")
    est = reweighted_energy(rec, 100)
    assert est.estimate == float(np.mean(e[100:]))


def test_reweighted_window_sums_match_bruteforce():
    # drift-controlled sliding sums vs direct convolution on a long record
    rng = np.random.default_rng(2)
    b = rng.uniform(4.0, 12.0, size=25_000)
    e = rng.normal(size=25_000)
    cfg = GfmcConfig(chain_length=26_000, warmup=100, l_reweight=100, seed=0)
    rec = ChainRecord(np.zeros(25_000, dtype=np.int64), b, e, cfg, 16.0, "uniform")
    est = reweighted_energy(rec, 100)
    logb = np.log(b)
    sums = np.convolve(logb, np.ones(100), mode="valid")[: 25_000 - 100]
    g = np.exp(sums - sums.max())
    ref = float(np.sum(g * e[100:]) / np.sum(g))
    assert est.estimate == pytest.approx(ref, rel=1e-9)


def test_reweighted_record_too_short():
    cfg = GfmcConfig(chain_length=300, warmup=100, l_reweight=100, seed=0)
    rec = ChainRecord(np.zeros(50, dtype=np.int64), np.full(50, 2.0),
                      np.full(50, 1.0), cfg, 3.0, "uniform")
    with pytest.raises(ValueError):
        reweighted_energy(rec, 100)


def test_average_local_energy_trivial():
    cfg = GfmcConfig(chain_length=300, warmup=10, l_reweight=50, seed=0)
    rec = ChainRecord(np.zeros(4, dtype=np.int64), np.full(4, 2.0),
                      np.array([1.0, 2.0, 3.0, 4.0]), cfg, 3.0, "uniform")
    assert average_local_energy(rec) == 2.5


def test_noiseless_gfmc_converges_to_e0():
    m = TfiModel(6)
    t = build_table("jastrow", m)
    e0 = ground_state(m).energy / 6
    cfg = GfmcConfig(chain_length=30_000, warmup=500, l_reweight=100)
    rngs = [np.random.default_rng(100 + rep) for rep in range(8)]
    ests = np.array([reweighted_energy(rec).estimate / 6
                     for rec in run_chain(cfg, [t] * 8, m, rngs)])
    se = ests.std(ddof=1) / np.sqrt(len(ests))
    assert abs(ests.mean() - e0) <= 4 * se


@pytest.mark.parametrize("L", [3, 4])
def test_visit_frequencies_match_stationary_oracle(L):
    m = TfiModel(L)
    t = build_table("jastrow", m)
    lam = auto_lambda_shift(m)
    pi = stationary_distribution(t.amps, L, 1.0, 1.0, lam)
    n = 1_000_000
    cfg = GfmcConfig(chain_length=n + 1000, warmup=1000, l_reweight=100, seed=31)
    rec = run_chain(cfg, t, m)
    freq = np.bincount(rec.states, minlength=1 << L) / n
    # blocked standard errors absorb the chain autocorrelation
    blocks = rec.states.reshape(200, -1)
    bf = np.stack([np.bincount(blk, minlength=1 << L) / blk.size for blk in blocks])
    se = bf.std(axis=0, ddof=1) / np.sqrt(200)
    assert np.all(np.abs(freq - pi) <= 5 * np.maximum(se, 1e-6))
