import functools

import numpy as np
import pytest

from shotgfmc.exact import apply_hamiltonian, ground_state
from shotgfmc.gfmc import (
    _RUN_WINDOW,
    _WINDOW_RECOMPUTE_EVERY,
    ChainRecord,
    GfmcConfig,
    _draw_initial_state,
    auto_lambda_shift,
    average_local_energy,
    local_energy_table,
    reweighted_energy,
    run_chain,
    sliding_window_sums,
)
from shotgfmc.model import TfiModel, all_diagonal_energies
from shotgfmc.shots import local_energy_scan, noisy_amplitudes, sample_counts
from shotgfmc.trial import JastrowParams, build_table

from oracles import (
    chain_fill_scalar,
    local_energy_table_gather,
    dense_hamiltonian,
    jastrow_amp_direct,
    local_energy_direct,
    sliding_window_sums_scalar,
    stationary_distribution,
)

# the Jastrow table without correlators is the uniform table, bit for bit
UNIFORM = JastrowParams(0.0, 0.0)


def _noisy_table(L, M, seed):
    """A drawn row of M shots of the L-site Jastrow trial."""
    t = build_table("jastrow", TfiModel(L))
    return noisy_amplitudes(sample_counts(t * t, M, np.random.default_rng(seed)), M)


def _one_chain(cfg, t, m, seed):
    return run_chain(cfg, [t], m, [np.random.default_rng(seed)])[0]


def _oracle_propagator(t, m, lam):
    """Dense (lam - H)_ij psi_j / psi_i and its row sums b_i.

    Rows of states outside the support are undefined and never read.
    """
    A = lam * np.eye(m.n_states) - dense_hamiltonian(m.L, m.J, m.Gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = A * t[None, :] / t[:, None]
    return A, A.sum(axis=1)


def _transition_counts(states, n_states):
    """counts[i, j] of steps i -> j over every walker's record (rows)."""
    pairs = states[:, :-1] * n_states + states[:, 1:]
    return np.bincount(pairs.ravel(), minlength=n_states * n_states).reshape(
        n_states, n_states)


def test_local_energy_uniform_allup_l4():
    m = TfiModel(4)
    e, _ = local_energy_table(build_table("jastrow", m, UNIFORM), m)
    assert e[0] == pytest.approx(-8.0, abs=1e-12)


def test_local_energy_zero_variance():
    m = TfiModel(6)
    gs = ground_state(m)
    t = build_table("exact-groundstate", m, vector=gs.vector)
    e, defined = local_energy_table(t, m)
    assert defined.all()
    assert np.allclose(e, gs.energy, rtol=0, atol=1e-9)


def test_local_energy_matches_direct_oracle():
    m = TfiModel(6)
    e, _ = local_energy_table(build_table("jastrow", m), m)
    raw = np.array([jastrow_amp_direct(x, 6, 0.233, 0.083) for x in range(64)])
    raw /= np.linalg.norm(raw)
    for x in range(64):
        assert e[x] == pytest.approx(local_energy_direct(x, raw, 6, 1.0, 1.0), rel=1e-12)


@pytest.mark.parametrize("model_L, table_L", [(4, 5), (5, 4)])
def test_local_energy_table_rejects_a_row_of_the_wrong_length(model_L, table_L):
    m, t = TfiModel(model_L), build_table("jastrow", TfiModel(table_L))
    sizes = rf"shape \({1 << table_L},\) for L = {model_L}, which needs {1 << model_L} entries"
    with pytest.raises(ValueError, match=sizes):
        local_energy_table(t, m)
    with pytest.raises(ValueError, match=sizes):
        local_energy_scan(m, t, 1, 1, 0)
    cfg = GfmcConfig(chain_length=500, warmup=10, l_reweight=20)
    with pytest.raises(ValueError, match=sizes):
        run_chain(cfg, [t], m, [np.random.default_rng(0)])
    with pytest.raises(ValueError, match=sizes):
        apply_hamiltonian(t, m)
    with pytest.raises(ValueError, match=sizes):
        build_table("exact-groundstate", m, vector=t)


def test_local_energy_table_matches_single():
    m = TfiModel(5)
    t = _noisy_table(5, 200, 4)
    e, defined = local_energy_table(t, m)
    assert np.array_equal(defined, t > 0)
    assert 0 < defined.sum() < 32
    for x in range(32):
        if defined[x]:
            assert e[x] == pytest.approx(local_energy_direct(x, t, 5, 1.0, 1.0),
                                         rel=1e-12)
        else:
            assert np.isnan(e[x])


@pytest.mark.parametrize("L", range(2, 11))
@pytest.mark.parametrize("J, Gamma", [(1.3, 0.7), (0.6, 0.0)])
def test_local_energy_table_bit_identical_to_gather_oracle(L, J, Gamma):
    m = TfiModel(L, J=J, Gamma=Gamma)
    rng = np.random.default_rng(200 + L)
    counts = rng.integers(0, 3, size=1 << L)
    counts[0], counts[-1] = 1, 0
    t = np.sqrt(counts / counts.sum())
    e, defined = local_energy_table(t, m)
    e_ref, defined_ref = local_energy_table_gather(t, L, J, Gamma)
    assert (~defined).any()
    assert np.array_equal(defined, defined_ref)
    assert np.array_equal(e, e_ref, equal_nan=True)


def test_green_row_uniform_example():
    # uniform table, lam = 8: stay weight 8 - E_diag(x), each flip weight 1,
    # so b = 16 at the all-up state
    m = TfiModel(4)
    cfg = GfmcConfig(lambda_shift=8.0, chain_length=2000, warmup=0, l_reweight=10)
    rec = _one_chain(cfg, build_table("jastrow", m, UNIFORM), m, 0)
    assert np.any(rec.states == 0)
    assert np.all(rec.b_values[rec.states == 0] == 16.0)
    assert np.array_equal(rec.b_values, 12.0 - all_diagonal_energies(m)[rec.states])


def test_green_row_identity_b_equals_lam_minus_eloc():
    m = TfiModel(6)
    lam = auto_lambda_shift(m)
    cfg = GfmcConfig(chain_length=3000, warmup=10, l_reweight=20)
    for seed, t in enumerate((build_table("jastrow", m), _noisy_table(6, 640, 8))):
        rec = _one_chain(cfg, t, m, seed)
        for x in np.unique(rec.states):
            eloc = local_energy_direct(int(x), t, 6, 1.0, 1.0)
            assert np.allclose(rec.b_values[rec.states == x], lam - eloc, rtol=0, atol=1e-10)


def test_green_row_zero_amplitude_neighbor_gets_zero_weight():
    # recorded b equals the oracle row sum, in which zero-amplitude
    # neighbors contribute nothing, and no step lands on one
    m = TfiModel(4)
    t = _noisy_table(4, 12, 5)
    lam = auto_lambda_shift(m)
    cfg = GfmcConfig(chain_length=3000, warmup=0, l_reweight=20)
    rec = _one_chain(cfg, t, m, 5)
    _, b = _oracle_propagator(t, m, lam)
    assert np.all(t[rec.states] > 0)
    assert np.allclose(rec.b_values, b[rec.states], rtol=1e-12, atol=0)
    flips = rec.states[:, None] ^ (1 << np.arange(4))
    assert np.any(t[flips] == 0.0)


def test_green_row_rejects_small_lambda():
    m = TfiModel(4)
    cfg = GfmcConfig(lambda_shift=4.0, chain_length=500, warmup=10, l_reweight=20)
    with pytest.raises(ValueError):  # == L*J, not strictly above
        _one_chain(cfg, build_table("jastrow", m, UNIFORM), m, 0)


def test_transition_probabilities_normalized():
    # the oracle row divided by the recorded b is a probability vector
    m = TfiModel(6)
    t = build_table("jastrow", m)
    cfg = GfmcConfig(chain_length=2000, warmup=0, l_reweight=20)
    rec = _one_chain(cfg, t, m, 1)
    A, _ = _oracle_propagator(t, m, rec.lambda_shift)
    rows = A[rec.states] / rec.b_values[:, None]
    assert np.all(rows >= 0)
    assert np.allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_transition_stay_probability_uniform_l4():
    # uniform table, lam = 8: stay probability (8 - E_diag(x)) / (12 - E_diag(x)),
    # 12/16 at the all-up state; 5-sigma binomial window per state
    m = TfiModel(4)
    cfg = GfmcConfig(lambda_shift=8.0, chain_length=5000, warmup=0, l_reweight=10)
    t = build_table("jastrow", m, UNIFORM)
    recs = run_chain(cfg, [t] * 32, m, [np.random.default_rng(w) for w in range(32)])
    counts = _transition_counts(np.stack([r.states for r in recs]), m.n_states)
    diag = all_diagonal_energies(m)
    p = (8.0 - diag) / (12.0 - diag)
    assert p[0] == 0.75
    n = counts.sum(axis=1)
    stays = np.diag(counts)
    assert np.all(np.abs(stays - n * p) <= 5 * np.sqrt(n * p * (1 - p)))


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


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_resolve_lambda_shift_rejects_non_finite(lam):
    with pytest.raises(ValueError, match="lambda_shift must be finite"):
        GfmcConfig(lambda_shift=lam).resolve_lambda_shift(TfiModel(4))


def test_run_chain_zero_variance():
    m = TfiModel(6)
    gs = ground_state(m)
    t = build_table("exact-groundstate", m, vector=gs.vector)
    cfg = GfmcConfig(chain_length=5000, warmup=100, l_reweight=50)
    rec = _one_chain(cfg, t, m, 7)
    assert np.allclose(rec.e_values, gs.energy, atol=1e-9)
    assert reweighted_energy(rec) == pytest.approx(gs.energy, abs=1e-9)
    assert average_local_energy(rec) == pytest.approx(gs.energy, abs=1e-9)


def test_run_chain_identity_e_equals_lam_minus_b():
    m = TfiModel(5)
    t = build_table("jastrow", m)
    cfg = GfmcConfig(chain_length=2000, warmup=10, l_reweight=20)
    rec = _one_chain(cfg, t, m, 1)
    assert np.array_equal(rec.e_values, rec.lambda_shift - rec.b_values)
    # recorded b matches the row sums of the dense oracle propagator
    _, b = _oracle_propagator(t, m, rec.lambda_shift)
    for n in (0, 100, 1500):
        assert rec.b_values[n] == pytest.approx(b[rec.states[n]], abs=1e-10)


def test_run_chain_determinism():
    m = TfiModel(6)
    t = build_table("jastrow", m)
    cfg = GfmcConfig(chain_length=4000, warmup=50, l_reweight=30)
    a = _one_chain(cfg, t, m, 123)
    b = _one_chain(cfg, t, m, 123)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.b_values, b.b_values)


def test_run_chain_reachability_respects_support():
    m = TfiModel(6)
    t = _noisy_table(6, 120, 9)
    cfg = GfmcConfig(chain_length=20_000, warmup=100, l_reweight=50)
    rec = _one_chain(cfg, t, m, 5)
    visited = np.unique(rec.states)
    assert np.all(t[visited] > 0)


def _population_tables():
    """(model, tables) at L = 2 and L = 6: full-support tables, shot-noise
    tables with zero entries, and a single-state support last."""
    out = []
    for L in (2, 6):
        m = TfiModel(L)
        trial = build_table("jastrow", m)
        tables = [trial, build_table("jastrow", m, UNIFORM)]
        tables += [_noisy_table(L, M, seed) for M, seed in ((3, 1), (40, 2), (5000, 3))]
        single = np.zeros(1 << L, dtype=np.int64)
        single[(1 << L) - 2] = 9
        tables.append(noisy_amplitudes(single, 9))
        out.append((m, tables))
    return out


def _scalar_chain(cfg, t, m, rng):
    lam = cfg.resolve_lambda_shift(m)
    x0 = _draw_initial_state(t, rng)
    urand = rng.random(cfg.chain_length)
    states = np.empty(cfg.chain_length - cfg.warmup, dtype=np.int64)
    bvals = np.empty(cfg.chain_length - cfg.warmup)
    chain_fill_scalar(t, m.L, m.J, m.Gamma, lam, cfg.warmup, x0, urand,
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
            assert np.all(t[rec.states] > 0)
        single = records[-1]
        assert np.all(single.states == (1 << m.L) - 2)


def test_population_width_does_not_change_records():
    m = TfiModel(5)
    tables = [_noisy_table(5, M, 7) for M in (20, 200, 2000)]
    cfg = GfmcConfig(chain_length=1500, warmup=10, l_reweight=20)
    together = run_chain(cfg, tables, m, [np.random.default_rng(s) for s in (1, 2, 3)])
    for t, seed, rec in zip(tables, (1, 2, 3), together):
        alone = _one_chain(cfg, t, m, seed)
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


class _ScriptedUniforms:
    """Generator stand-in that hands out a preset sequence of uniforms in
    order and logs the size of every draw."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        n = 1 if size is None else size
        if self.used + n > len(self.values):
            raise AssertionError("script exhausted")
        out = self.values[self.used:self.used + n].copy()
        self.used += n
        return out[0] if size is None else out


# u*STAY is far below every stay weight and u*MOVE above it wherever a flip
# weight is positive, so a scripted step with STAY stays and one with MOVE
# moves on a full-support table
STAY = 1e-9
MOVE = 1.0 - 2.0 ** -20
K = _RUN_WINDOW
# the kernel once drew its uniforms in blocks of 1024; the scripts still
# put runs at and across those steps
B = 1024

# (chain_length, warmup, stay runs [lo, hi) each followed by a move at hi)
RUN_SCRIPTS = {
    "ends-on-block-boundary": (2 * B + 300, 30, [(B - 40, B), (2 * B - 9, 2 * B - 1)]),
    "crosses-block-boundary": (2 * B + 300, 30, [(B - 5, B + 11), (2 * B - 1, 2 * B + 2)]),
    "straddles-warmup": (B + 200, 40, [(30, 50), (B - 3, B + 1)]),
    "warmup-zero": (B + 200, 0, [(0, 12), (B - 1, B)]),
    "longer-than-window": (B + 400, 20, [(100, 100 + 3 * K + 1), (B - 2 * K, B + K),
                                         (B + 300, B + 300 + K)]),
    "chain-ends-in-a-run": (B + 100, 10, [(B - 20, B - 12), (B + 60, B + 100)]),
}


def _script(n_steps, seed, runs):
    """The initial-state uniform, then one per step, with the runs forced."""
    u = np.random.default_rng(seed).random(n_steps + 1)
    for lo, hi in runs:
        u[1 + lo:1 + hi] = STAY
        if hi < n_steps:
            u[1 + hi] = MOVE
    return u


@pytest.mark.parametrize("name", RUN_SCRIPTS)
def test_run_length_stepping_matches_scalar_on_scripted_uniforms(name):
    # a mixed population: full-support tables that move on every MOVE, a
    # shot-noise table, and a single-state support that never moves, so
    # the walkers finish on different iterations of the kernel
    chain_length, warmup, runs = RUN_SCRIPTS[name]
    cfg = GfmcConfig(chain_length=chain_length, warmup=warmup, l_reweight=10)
    m, tables = _population_tables()[1]
    tables = [tables[0], tables[1], tables[3], tables[-1]]
    scripts = [_script(chain_length, 60 + w, runs) for w in range(len(tables))]
    rngs = [_ScriptedUniforms(u) for u in scripts]
    records = run_chain(cfg, tables, m, rngs)
    for t, u, rng, rec in zip(tables, scripts, rngs, records):
        states, bvals = _scalar_chain(cfg, t, m, _ScriptedUniforms(u))
        assert rec.states.tobytes() == states.tobytes()
        assert rec.b_values.tobytes() == bvals.tobytes()
        # one draw for the initial state, then one for every step
        assert rng.used == len(u)
        assert rng.sizes == [None, chain_length]
    for rec in records[:2]:
        # the forced runs hold still and the step after each one moves
        for lo, hi in runs:
            lo, hi = max(lo - warmup, 0), hi - warmup
            assert np.all(rec.states[lo:hi + 1] == rec.states[lo])
            assert np.all(rec.b_values[lo:hi + 1] == rec.b_values[lo])
            if hi + 1 < len(rec):
                assert rec.states[hi + 1] != rec.states[hi]
    assert np.all(records[-1].states == (1 << m.L) - 2)


def test_run_chain_on_a_population_array_matches_a_list_of_rows():
    cfg = GfmcConfig(chain_length=1500, warmup=20, l_reweight=10)
    for m, rows in _population_tables():
        amps = np.stack(rows)
        seeds = range(90, 90 + len(rows))
        from_rows = run_chain(cfg, rows, m, [np.random.default_rng(s) for s in seeds])
        from_array = run_chain(cfg, amps, m, [np.random.default_rng(s) for s in seeds])
        for a, b in zip(from_rows, from_array, strict=True):
            assert a.states.tobytes() == b.states.tobytes()
            assert a.b_values.tobytes() == b.b_values.tobytes()
            assert a.e_values.tobytes() == b.e_values.tobytes()
        # the walk reads the tables and leaves them as they were
        assert amps.tobytes() == np.stack(rows).tobytes()


def test_run_chain_leaves_each_generator_as_one_long_draw_would():
    m, tables = _population_tables()[1]
    cfg = GfmcConfig(chain_length=2500, warmup=30, l_reweight=10)
    seeds = range(70, 70 + len(tables))
    rngs = [np.random.default_rng(s) for s in seeds]
    run_chain(cfg, tables, m, rngs)
    for seed, rng in zip(seeds, rngs):
        fresh = np.random.default_rng(seed)
        fresh.random()
        fresh.random(cfg.chain_length)
        assert rng.bit_generator.state == fresh.bit_generator.state


def test_chain_records_are_contiguous_rows():
    m, tables = _population_tables()[1]
    cfg = GfmcConfig(chain_length=1200, warmup=25, l_reweight=10)
    records = run_chain(cfg, tables, m, [np.random.default_rng(s) for s in range(len(tables))])
    for rec in records:
        for values in (rec.states, rec.b_values, rec.e_values):
            assert values.ndim == 1 and len(values) == cfg.chain_length - cfg.warmup
            assert values.flags.c_contiguous
        assert rec.e_values.tobytes() == (rec.lambda_shift - rec.b_values).tobytes()


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
        if (amps * amps).sum() > np.cumsum(amps * amps)[-1]:
            break
    else:
        pytest.fail("no table with p.sum() > cumsum[-1] found")
    top = _ConstUniforms(np.nextafter(1.0, 0.0))
    assert _draw_initial_state(amps, top) == m.n_states - 4


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
    cfg = GfmcConfig(chain_length=600, warmup=50, l_reweight=100)
    rec = ChainRecord(np.zeros(500, dtype=np.int64), b, np.full(500, -3.7),
                      cfg, 10.0)
    est = reweighted_energy(rec)
    assert est == pytest.approx(-3.7, rel=1e-12)


def test_reweighted_equal_b_reduces_to_plain_mean():
    rng = np.random.default_rng(1)
    e = rng.normal(-5.0, 0.3, size=400)
    b = np.full(400, 7.25)
    cfg = GfmcConfig(chain_length=500, warmup=50, l_reweight=100)
    rec = ChainRecord(np.zeros(400, dtype=np.int64), b, e, cfg, 10.0)
    est = reweighted_energy(rec)
    assert est == float(np.mean(e[100:]))


def test_reweighted_window_sums_match_bruteforce():
    # drift-controlled sliding sums vs direct convolution on a long record
    rng = np.random.default_rng(2)
    b = rng.uniform(4.0, 12.0, size=25_000)
    e = rng.normal(size=25_000)
    cfg = GfmcConfig(chain_length=26_000, warmup=100, l_reweight=100)
    rec = ChainRecord(np.zeros(25_000, dtype=np.int64), b, e, cfg, 16.0)
    est = reweighted_energy(rec)
    logb = np.log(b)
    sums = np.convolve(logb, np.ones(100), mode="valid")[: 25_000 - 100]
    g = np.exp(sums - sums.max())
    ref = float(np.sum(g * e[100:]) / np.sum(g))
    assert est == pytest.approx(ref, rel=1e-9)


def test_reweighted_record_too_short():
    cfg = GfmcConfig(chain_length=300, warmup=100, l_reweight=100)
    rec = ChainRecord(np.zeros(50, dtype=np.int64), np.full(50, 2.0),
                      np.full(50, 1.0), cfg, 3.0)
    with pytest.raises(ValueError):
        reweighted_energy(rec)


def test_average_local_energy_trivial():
    cfg = GfmcConfig(chain_length=300, warmup=10, l_reweight=50)
    rec = ChainRecord(np.zeros(4, dtype=np.int64), np.full(4, 2.0),
                      np.array([1.0, 2.0, 3.0, 4.0]), cfg, 3.0)
    assert average_local_energy(rec) == 2.5


def test_noiseless_gfmc_converges_to_e0():
    m = TfiModel(6)
    t = build_table("jastrow", m)
    e0 = ground_state(m).energy / 6
    cfg = GfmcConfig(chain_length=30_000, warmup=500, l_reweight=100)
    rngs = [np.random.default_rng(100 + rep) for rep in range(8)]
    ests = np.array([reweighted_energy(rec) / 6
                     for rec in run_chain(cfg, [t] * 8, m, rngs)])
    se = ests.std(ddof=1) / np.sqrt(len(ests))
    assert abs(ests.mean() - e0) <= 4 * se


@functools.lru_cache(maxsize=None)
def _stationary_run(L):
    """64 Jastrow walkers x 15,625 recorded steps (1M samples) at size L."""
    m = TfiModel(L)
    t = build_table("jastrow", m)
    cfg = GfmcConfig(chain_length=15_625 + 1000, warmup=1000, l_reweight=100)
    recs = run_chain(cfg, [t] * 64, m, [np.random.default_rng(31 + w) for w in range(64)])
    return m, t, recs[0].lambda_shift, np.stack([r.states for r in recs])


@pytest.mark.parametrize("L", [3, 4])
def test_visit_frequencies_match_stationary_oracle(L):
    m, t, lam, states = _stationary_run(L)
    pi = stationary_distribution(t, L, 1.0, 1.0, lam)
    freq = np.bincount(states.ravel(), minlength=1 << L) / states.size
    # each walker is one block; blocked standard errors absorb the chain
    # autocorrelation
    bf = np.stack([np.bincount(row, minlength=1 << L) / row.size for row in states])
    se = bf.std(axis=0, ddof=1) / np.sqrt(len(states))
    assert np.all(np.abs(freq - pi) <= 5 * np.maximum(se, 1e-6))


def test_transition_empirical_frequencies():
    # one-step law from the stationary runs: counts out of every state
    # against the dense-oracle propagator row, 5 binomial sigma per entry
    for L in (3, 4):
        m, t, lam, states = _stationary_run(L)
        A, b = _oracle_propagator(t, m, lam)
        P = A / b[:, None]
        counts = _transition_counts(states, m.n_states)
        n = counts.sum(axis=1, keepdims=True)
        assert np.all(n > 0)
        assert np.all(np.abs(counts - n * P) <= 5 * np.sqrt(n * P * (1 - P)))
