import numpy as np
import pytest

from shotgfmc.exact import ground_state
from shotgfmc.model import TfiModel
from shotgfmc.scaling import TRIAL_KINDS
from shotgfmc.trial import (
    JastrowParams,
    build_table,
    jastrow_log_amplitudes,
)

from oracles import jastrow_amp_direct


def test_jastrow_log_amplitude_allup_l6():
    m = TfiModel(6)
    # both correlator sums are 6 for the ferromagnetic state
    assert jastrow_log_amplitudes(JastrowParams(), m)[0] == pytest.approx(
        0.233 * 6 + 0.083 * 6, abs=1e-12
    )


def test_jastrow_log_amplitude_zero_params():
    logs = jastrow_log_amplitudes(JastrowParams(0.0, 0.0), TfiModel(5))
    assert np.array_equal(logs, np.zeros(32))


def test_jastrow_log_global_flip_symmetry():
    m = TfiModel(8)
    logs = jastrow_log_amplitudes(JastrowParams(), m)
    idx = np.arange(1 << 8)
    assert np.array_equal(logs, logs[~idx & m.mask])


def test_jastrow_log_vectorized_matches_scalar():
    m = TfiModel(5)
    vec = jastrow_log_amplitudes(JastrowParams(0.4, -0.2), m)
    for x in range(32):
        ref = np.log(jastrow_amp_direct(x, 5, 0.4, -0.2))
        assert vec[x] == pytest.approx(ref, abs=1e-12)


def test_uniform_table_l3():
    t = build_table("jastrow", TfiModel(3), JastrowParams(0.0, 0.0))
    assert np.allclose(t, 2.0 ** -1.5, atol=1e-15)


@pytest.mark.parametrize("params", [JastrowParams(0.0, 0.0), JastrowParams()],
                         ids=["uniform", "jastrow"])
@pytest.mark.parametrize("L", [2, 3, 6, 10, 14])
def test_tables_normalized(params, L):
    t = build_table("jastrow", TfiModel(L), params)
    assert abs(float(t @ t) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", [*TRIAL_KINDS, "uniform"])
def test_build_table_builds_exactly_the_trial_kinds(kind):
    m = TfiModel(4)
    if kind not in TRIAL_KINDS:
        with pytest.raises(ValueError, match="cannot build table of kind"):
            build_table(kind, m)
    else:
        t = build_table(kind, m, vector=ground_state(m).vector)
        assert t.shape == (16,)


@pytest.mark.parametrize("L", [6, 10])
def test_groundstate_table_normalized(L):
    m = TfiModel(L)
    t = build_table("exact-groundstate", m, vector=ground_state(m).vector)
    assert abs(float(t @ t) - 1.0) < 1e-12
    assert np.all(t > 0)


def test_jastrow_table_matches_direct_evaluation():
    for L in (4, 6):
        m = TfiModel(L)
        t = build_table("jastrow", m)
        raw = np.array([jastrow_amp_direct(x, L, 0.233, 0.083) for x in range(1 << L)])
        raw /= np.linalg.norm(raw)
        assert np.allclose(t, raw, rtol=1e-13, atol=0)


def test_jastrow_table_ferro_states_dominate():
    m = TfiModel(6)
    t = build_table("jastrow", m)
    top = np.argsort(-t)[:2]
    assert set(int(i) for i in top) == {0, 63}
    assert t[0] == t[63]
    assert t[0] > t[np.argsort(-t)[2]]


def test_jastrow_zero_params_equals_uniform():
    m = TfiModel(7)
    t0 = build_table("jastrow", m, params=JastrowParams(0.0, 0.0))
    assert np.array_equal(t0, np.full(2**7, 1 / np.sqrt(2**7)))


def test_jastrow_table_flip_symmetry():
    m = TfiModel(9)
    t = build_table("jastrow", m)
    idx = np.arange(1 << 9)
    assert np.array_equal(t, t[~idx & m.mask])


def test_groundstate_table_l2_hand_values():
    # symmetric-sector ground vector of the 4x4 problem: (u, v, v, u) with
    # v/u = sqrt(2) - 1
    m = TfiModel(2)
    t = build_table("exact-groundstate", m, vector=ground_state(m).vector)
    u = 1.0
    v = np.sqrt(2.0) - 1.0
    ref = np.array([u, v, v, u])
    ref /= np.linalg.norm(ref)
    assert np.allclose(t, ref, atol=1e-9)
    assert np.all(t > 0)


def test_groundstate_table_rejects_negative_entries_by_name():
    m = TfiModel(2, Gamma=0.25)
    vector = np.array([0.9, -1e-16, -3e-17, 0.4])
    with pytest.raises(ValueError) as info:
        build_table("exact-groundstate", m, vector=vector)
    message = str(info.value)
    assert "model.Gamma = 0.25" in message
    assert "2 negative entries" in message
    assert f"{-1e-16 / np.linalg.norm(vector):.3g}" in message
    # an all-negative vector is the same state with the other sign
    t = build_table("exact-groundstate", m, vector=-np.abs(vector))
    assert np.all(t >= 0)


@pytest.mark.parametrize("L", [2, 4, 6])
def test_groundstate_table_rejects_gamma_zero_by_rule(L):
    # a valid nonnegative member of the degenerate level is rejected too
    m = TfiModel(L, Gamma=0.0)
    vector = np.zeros(m.n_states)
    vector[[0, m.mask]] = np.sqrt(0.5)
    with pytest.raises(ValueError, match=r"model\.Gamma = 0\.0: the ground level is degenerate"):
        build_table("exact-groundstate", m, vector=vector)


def test_overflow_guard():
    with pytest.raises(OverflowError):
        build_table("jastrow", TfiModel(8), params=JastrowParams(200.0, 0.0))


def test_table_validation():
    # a row's length, norm and signs are checked where they are used:
    # test_exact.py::test_variational_energy_validation and
    # test_shots.py::test_draw_tables_rejects_a_negative_trial_entry
    with pytest.raises(ValueError):
        build_table("exact-groundstate", TfiModel(2))
