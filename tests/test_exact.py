import numpy as np
import pytest

from shotgfmc import exact
from shotgfmc.exact import apply_hamiltonian, ground_state, variational_energy
from shotgfmc.model import MAX_TABLE_L, TfiModel
from shotgfmc.trial import JastrowParams, build_table

from oracles import (
    apply_hamiltonian_gather,
    dense_hamiltonian,
    folded_hamiltonian,
    free_fermion_e0,
    symmetry_images,
)


def test_ground_state_l2_closed_form():
    gs = ground_state(TfiModel(2))
    assert gs.energy == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-10)
    assert gs.residual <= 1e-10


@pytest.mark.parametrize("L", [2, 3, 4, 6, 8, 10])
def test_ground_state_matches_dense_oracle(L):
    m = TfiModel(L, J=1.1, Gamma=0.9)
    gs = ground_state(m)
    evals, evecs = np.linalg.eigh(dense_hamiltonian(L, 1.1, 0.9))
    assert abs(gs.energy - evals[0]) <= 1e-12
    overlap = abs(float(evecs[:, 0] @ gs.vector))
    assert overlap >= 1.0 - 1e-12
    # the solve runs on the fully symmetric sector, so the flip image is exact
    assert np.array_equal(gs.vector, gs.vector[::-1])


@pytest.mark.parametrize("L", range(2, 13))
def test_symmetry_orbits_partition_the_basis(L):
    orbit, reps, sizes = exact.symmetry_orbits(L)
    assert orbit.dtype == np.int32 and reps.dtype == np.int32
    assert orbit.shape == (1 << L,)
    assert sizes.sum() == 1 << L
    assert np.array_equal(orbit[reps], np.arange(len(reps)))
    for a, rep in enumerate(reps):
        images = sorted(symmetry_images(int(rep), L))
        # the representative is the smallest image, and its whole orbit maps to it
        assert images[0] == rep
        assert np.all(orbit[images] == a)
        assert sizes[a] == len(images)


@pytest.mark.parametrize("L", range(2, 11))
@pytest.mark.parametrize("J, Gamma", [(1.3, 0.7), (0.6, 0.0)])
def test_folded_action_is_the_full_action_on_flip_even_vectors(L, J, Gamma):
    # the sector solve rests on H commuting with the global flip: the full
    # action keeps a flip-even vector flip-even, bit for bit, and its lower
    # half is the dense folded matrix applied to the lower half
    m = TfiModel(L, J=J, Gamma=Gamma)
    rng = np.random.default_rng(200 + L)
    half = rng.normal(size=1 << (L - 1))
    half[rng.random(half.size) < 0.3] = 0.0
    full = apply_hamiltonian(np.concatenate((half, half[::-1])), m)
    assert np.array_equal(full[half.size:], full[:half.size][::-1])
    assert np.abs(full[:half.size] - folded_hamiltonian(L, J, Gamma) @ half).max() <= 1e-12


@pytest.mark.parametrize("L", range(2, 11))
@pytest.mark.parametrize("J, Gamma", [(1.3, 0.7), (0.6, 0.0)])
def test_sector_action_is_the_full_action_on_symmetric_vectors(L, J, Gamma):
    m = TfiModel(L, J=J, Gamma=Gamma)
    orbit, reps, sizes = exact.symmetry_orbits(L)
    rng = np.random.default_rng(200 + L)
    c = rng.normal(size=len(reps))
    c[rng.random(c.size) < 0.3] = 0.0
    root = np.sqrt(sizes)
    sector = exact._SectorAction(m, orbit, reps, sizes)(c)
    full = apply_hamiltonian((c / root)[orbit], m)
    assert np.abs(full - (sector / root)[orbit]).max() <= 1e-12


@pytest.mark.parametrize("L", [2, 3, 4, 7, 10])
@pytest.mark.parametrize("Gamma", [0.9, 0.0])
def test_ground_state_vector_is_exactly_symmetric(L, Gamma):
    v = ground_state(TfiModel(L, J=1.1, Gamma=Gamma)).vector
    x = np.arange(1 << L)
    rotated = (x >> 1) | ((x & 1) << (L - 1))
    reflected = sum(((x >> k) & 1) << (L - 1 - k) for k in range(L))
    assert np.array_equal(v[rotated], v)
    assert np.array_equal(v[reflected], v)
    assert np.array_equal(v[x ^ ((1 << L) - 1)], v)


def test_ground_state_rejects_sizes_above_the_table_cap(monkeypatch):
    def build(L):
        raise AssertionError("orbits built for an oversized chain")

    monkeypatch.setattr(exact, "symmetry_orbits", build)
    with pytest.raises(ValueError, match=f"L <= {MAX_TABLE_L}, got L={MAX_TABLE_L + 1}"):
        ground_state(TfiModel(MAX_TABLE_L + 1))


@pytest.mark.parametrize("L", [6, 7, 8, 10, 12, 14, 16, 18, 20])
def test_ground_state_free_fermion_crosscheck(L):
    gs = ground_state(TfiModel(L))
    ref = free_fermion_e0(L)
    assert gs.residual <= 1e-10
    assert abs(gs.energy - ref) / abs(ref) < 1e-12


def test_ground_state_vector_positive_and_normalized():
    gs = ground_state(TfiModel(10))
    assert abs(np.linalg.norm(gs.vector) - 1.0) < 1e-12
    assert np.all(gs.vector > 0)


def test_ground_state_deterministic():
    a = ground_state(TfiModel(8))
    b = ground_state(TfiModel(8))
    assert a.energy == b.energy
    assert np.array_equal(a.vector, b.vector)
    assert a.iterations == b.iterations


@pytest.mark.parametrize("L, J, Gamma", [(2, 1.0, 1.0), (3, 1.3, 0.7), (8, 1.0, 1.0),
                                         (12, 0.6, 1.7)])
def test_ground_state_starts_from_the_uniform_vector(L, J, Gamma):
    # one iteration with a tolerance any residual meets returns the start
    # vector and its Rayleigh quotient: on the uniform vector every bond
    # correlation averages to 0 and every flip term gives -Gamma
    gs = ground_state(TfiModel(L, J, Gamma), tol=1e300, max_iter=1)
    assert gs.iterations == 1
    assert gs.energy == pytest.approx(-Gamma * L, rel=1e-12)
    np.testing.assert_allclose(gs.vector, 2.0 ** (-L / 2), rtol=1e-12)


@pytest.mark.parametrize("L, iterations", [(12, 32), (16, 45)])
def test_ground_state_default_iteration_counts(L, iterations):
    # the iteration count is a fingerprint of the start vector's Krylov space
    assert ground_state(TfiModel(L)).iterations == iterations


@pytest.mark.parametrize("L, J, Gamma", [(2, 1.0, 1.0), (7, 1.3, 0.7), (12, 0.6, 1.7),
                                         (14, 1.0, 0.0)])
def test_lanczos_on_the_sector_action_reproduces_ground_state(L, J, Gamma):
    m = TfiModel(L, J, Gamma)
    orbit, reps, sizes = exact.symmetry_orbits(L)
    theta, y, residual, iterations = exact.lanczos(
        exact._SectorAction(m, orbit, reps, sizes), np.sqrt(sizes / m.n_states), 1e-10, 500)
    gs = ground_state(m)
    assert (theta, residual, iterations) == (gs.energy, gs.residual, gs.iterations)
    assert (y / np.sqrt(sizes))[orbit].tobytes() == gs.vector.tobytes()


def test_lanczos_finds_the_lowest_eigenpair_of_any_symmetric_action():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 40))
    a += a.T
    evals, evecs = np.linalg.eigh(a)
    start = np.full(40, 40 ** -0.5)
    theta, y, residual, iterations = exact.lanczos(lambda v: a @ v, start, 1e-9, 40)
    assert theta == pytest.approx(evals[0], abs=1e-9)
    assert residual <= 1e-9 and iterations <= 40
    assert np.linalg.norm(a @ y - theta * y) == residual
    assert abs(float(evecs[:, 0] @ y)) == pytest.approx(1.0, abs=1e-9)
    assert y.sum() >= 0


def test_ground_state_gamma_zero_energy():
    # classical limit: doubly degenerate ferromagnet, energy -J*L
    gs = ground_state(TfiModel(6, J=1.0, Gamma=0.0))
    assert gs.energy == pytest.approx(-6.0, abs=1e-10)


def test_ground_state_nonconvergence_raises():
    with pytest.raises(RuntimeError):
        ground_state(TfiModel(8), tol=1e-12, max_iter=3)


def test_ground_state_rejects_bad_tol():
    with pytest.raises(ValueError):
        ground_state(TfiModel(4), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_ground_state_rejects_non_finite_tol(tol):
    # nan used to run every iteration; inf stopped after one, far from E0
    with pytest.raises(ValueError, match="finite"):
        ground_state(TfiModel(4), tol=tol)


def test_apply_hamiltonian_linearity():
    m = TfiModel(6)
    rng = np.random.default_rng(8)
    u = rng.normal(size=64)
    v = rng.normal(size=64)
    lhs = apply_hamiltonian(2.5 * u - 0.7 * v, m)
    rhs = 2.5 * apply_hamiltonian(u, m) - 0.7 * apply_hamiltonian(v, m)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("J, Gamma", [(1.3, 0.7), (0.6, 0.0)])
def test_apply_hamiltonian_matches_dense_oracle(L, J, Gamma):
    # covers L = 2, where the periodic sum counts the single bond twice
    m = TfiModel(L, J=J, Gamma=Gamma)
    H = dense_hamiltonian(L, J, Gamma)
    rng = np.random.default_rng(L)
    for v in (rng.normal(size=1 << L), np.eye(1 << L)[(1 << L) - 2]):
        assert np.allclose(apply_hamiltonian(v, m), H @ v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("L", range(2, 11))
@pytest.mark.parametrize("J, Gamma", [(1.3, 0.7), (0.6, 0.0)])
def test_apply_hamiltonian_bit_identical_to_gather_oracle(L, J, Gamma):
    m = TfiModel(L, J=J, Gamma=Gamma)
    rng = np.random.default_rng(100 + L)
    v = rng.normal(size=1 << L)
    v[rng.random(1 << L) < 0.3] = 0.0
    assert np.array_equal(apply_hamiltonian(v, m), apply_hamiltonian_gather(v, L, J, Gamma))


def test_ground_state_basis_growth_is_bit_identical(monkeypatch):
    m = TfiModel(10, J=1.0, Gamma=0.8)
    default = ground_state(m)
    monkeypatch.setattr(exact, "BASIS_CAPACITY", 1)
    grown = ground_state(m)
    # capacity 1 doubles at iterations 1, 2, 4, 8 and 16
    assert default.iterations > 16
    assert grown.iterations == default.iterations
    assert grown.energy == default.energy
    assert grown.residual == default.residual
    assert np.array_equal(grown.vector, default.vector)


def test_apply_hamiltonian_on_eigenvector():
    m = TfiModel(6)
    gs = ground_state(m)
    r = apply_hamiltonian(gs.vector, m) - gs.energy * gs.vector
    assert np.linalg.norm(r) <= 1e-10


def test_apply_hamiltonian_classical_indicator():
    m = TfiModel(5, J=1.0, Gamma=0.0)
    v = np.zeros(32)
    v[0] = 1.0
    out = apply_hamiltonian(v, m)
    assert np.array_equal(out, -5.0 * v)


def test_apply_hamiltonian_uniform_l4():
    m = TfiModel(4)
    v = np.full(16, 0.25)
    assert float(v @ apply_hamiltonian(v, m)) == pytest.approx(-4.0, abs=1e-12)


def test_apply_hamiltonian_wrong_length():
    with pytest.raises(ValueError):
        apply_hamiltonian(np.ones(8), TfiModel(4))


def test_variational_energy_eigenstate():
    m = TfiModel(8)
    gs = ground_state(m)
    t = build_table("exact-groundstate", m, vector=gs.vector)
    assert variational_energy(t, m) == pytest.approx(gs.energy, abs=1e-9)


def test_variational_energy_uniform_l4():
    m = TfiModel(4)
    uniform = build_table("jastrow", m, JastrowParams(0.0, 0.0))
    assert variational_energy(uniform, m) == pytest.approx(-4.0, abs=1e-12)


def test_variational_principle():
    m = TfiModel(6)
    e0 = ground_state(m).energy
    rng = np.random.default_rng(9)
    for _ in range(10):
        amps = rng.random(64) + 1e-3
        amps /= np.linalg.norm(amps)
        assert variational_energy(amps, m) > e0


def test_variational_energy_validation():
    # the length is checked by apply_hamiltonian, the norm here
    with pytest.raises(ValueError, match=r"shape \(2,\) for L = 2, which needs 4 entries"):
        variational_energy(np.array([1.0, 0.0]), TfiModel(2))
    with pytest.raises(ValueError, match="not normalized"):
        variational_energy(np.array([0.5, 0.5, 0.5, 0.5]) * 2.0, TfiModel(2))
