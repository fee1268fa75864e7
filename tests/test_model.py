import tracemalloc

import numpy as np
import pytest

from shotgfmc.exact import apply_hamiltonian
from shotgfmc.model import TfiModel, all_diagonal_energies, bond_correlations, neighbour_sum

from oracles import dense_hamiltonian, spin


def _column(x: int, m: TfiModel) -> np.ndarray:
    """H applied to the basis vector of configuration x."""
    v = np.zeros(m.n_states)
    v[x] = 1.0
    return apply_hamiltonian(v, m)


def test_model_invariants():
    with pytest.raises(ValueError):
        TfiModel(1)
    with pytest.raises(ValueError):
        TfiModel(4, J=0.0)
    with pytest.raises(ValueError):
        TfiModel(4, Gamma=-0.5)
    with pytest.raises(ValueError):
        TfiModel(4, J=float("inf"))


def test_diagonal_energy_examples():
    e = all_diagonal_energies(TfiModel(4, J=1.0))
    assert e[0b0000] == -4.0
    assert e[0b0101] == 4.0
    assert e[0b0011] == 0.0


def test_diagonal_energy_matches_dense_oracle():
    for L in (2, 3, 4):
        m = TfiModel(L, J=0.7, Gamma=1.3)
        ref = np.diag(dense_hamiltonian(L, 0.7, 1.3))
        assert np.allclose(all_diagonal_energies(m), ref, atol=1e-12)
        # the given states only, in the given order and dtype
        states = np.array([(1 << L) - 1, 0, 1], dtype=np.int32)
        assert np.array_equal(all_diagonal_energies(m, states), all_diagonal_energies(m)[states])



@pytest.mark.parametrize("L, J", [(2, 1.0), (5, 0.7), (16, 1.3)])
def test_diagonal_energy_bits_match_the_int64_formula(L, J):
    # -J * float(L - 2 * unequal bonds), as int64 throughout; -0.0 included
    m = TfiModel(L, J=J)
    idx = np.arange(m.n_states, dtype=np.int64)
    rot = (idx >> 1) | ((idx & 1) << (L - 1))
    ref = -J * (L - 2 * np.bitwise_count(idx ^ rot).astype(np.int64)).astype(np.float64)
    assert all_diagonal_energies(m).tobytes() == ref.tobytes()
    if L % 2 == 0:
        assert np.signbit(ref[ref == 0]).all()


def test_diagonal_energies_peak_below_two_and_a_half_results():
    m = TfiModel(16)
    tracemalloc.start()
    try:
        e = all_diagonal_energies(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * e.nbytes

def test_connected_set_example_l3():
    # H|000> = -3|000> - (|001> + |010> + |100>)
    m = TfiModel(3, J=1.0, Gamma=1.0)
    assert np.array_equal(_column(0, m), [-3.0, -1.0, -1.0, 0.0, -1.0, 0.0, 0.0, 0.0])


def test_connected_set_shape():
    # H connects x to itself and to its L single flips, each with -Gamma
    rng = np.random.default_rng(11)
    for L in (2, 5, 9):
        m = TfiModel(L, Gamma=0.37)
        diag = all_diagonal_energies(m)
        for x in rng.integers(0, 1 << L, size=20):
            col = _column(int(x), m)
            flips = [int(x) ^ (1 << k) for k in range(L)]
            assert set(np.flatnonzero(col)) <= {int(x), *flips}
            assert col[int(x)] == diag[x]
            assert np.all(col[flips] == -m.Gamma)


def test_matrix_element_symmetry():
    # h(x -> x') == h(x' -> x) for every pair
    m = TfiModel(6, Gamma=0.8)
    H = np.stack([_column(x, m) for x in range(m.n_states)], axis=1)
    assert np.array_equal(H, H.T)


def test_global_flip_symmetry():
    m = TfiModel(7, J=1.9)
    e = all_diagonal_energies(m)
    idx = np.arange(m.n_states)
    assert np.array_equal(e, e[~idx & m.mask])


def test_bond_correlations_against_direct_loop():
    m = TfiModel(5)
    for offset in (1, 2):
        ref = [
            sum(spin(x, k) * spin(x, (k + offset) % 5) for k in range(5))
            for x in range(32)
        ]
        assert np.array_equal(bond_correlations(m, offset), np.array(ref))


@pytest.mark.parametrize("L", [2, 3, 7])
def test_neighbour_sum_is_the_xor_gather_sum(L):
    v = np.random.default_rng(L).normal(size=1 << L)
    idx = np.arange(1 << L)
    ref = np.zeros(1 << L)
    for k in range(L):
        ref += v[idx ^ (1 << k)]
    assert neighbour_sum(v, L).tobytes() == ref.tobytes()
