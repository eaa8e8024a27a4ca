import numpy as np
import pytest

from enaqt.graph import (adjacency_matrix, build_binary_tree, build_custom,
                         build_hypercube)
from enaqt.model import (LEAF_MIXTURE, SINGLE_SITE, TransportModel,
                         UNIFORM_MIXTURE, assemble_effective_hamiltonian,
                         assemble_system_hamiltonian, check_density_matrix,
                         initial_state, sample_site_energies)
from test_direct_solve import apply_dephasing


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


# --- disorder sampling ---

def test_zero_disorder_gives_zero_vector():
    assert np.array_equal(sample_site_energies(0.0, 1, 3, 5), np.zeros(5))


def test_sampling_is_deterministic():
    a = sample_site_energies(0.7, 99, 4, 8)
    b = sample_site_energies(0.7, 99, 4, 8)
    assert np.array_equal(a, b)
    c = sample_site_energies(0.7, 99, 5, 8)
    assert not np.array_equal(a, c)


def test_sampling_statistics():
    # 1e5 single-site realizations at unit standard deviation
    draws = np.array([sample_site_energies(1.0, 2024, r, 1)[0] for r in range(100_000)])
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std(ddof=1) - 1.0) < 0.02


def test_disorder_spec_validation():
    with pytest.raises(ValueError):
        sample_site_energies(-0.1, 0, 0, 3)
    with pytest.raises(ValueError):
        sample_site_energies(0.1, -1, 0, 3)


# --- Hamiltonian assembly ---

def test_dimer_hamiltonian():
    h = assemble_system_hamiltonian(build_custom(2, [(0, 1)]), [0.0, 0.0])
    assert np.array_equal(h, np.array([[0, 1], [1, 0]], dtype=complex))


def test_tree_root_row_has_two_couplings():
    t = build_binary_tree(5)
    h = assemble_system_hamiltonian(t, np.zeros(31))
    row = h[0].copy()
    row[0] = 0.0
    assert sorted(np.nonzero(row)[0]) == [1, 2]


def test_hypercube_rows_have_four_couplings():
    t = build_hypercube(4)
    h = assemble_system_hamiltonian(t, np.zeros(16))
    off = h - np.diag(np.diag(h))
    assert np.all((off != 0).sum(axis=1) == 4)
    assert np.all(off[off != 0] == 1.0)


def test_hamiltonian_is_diag_plus_coupling_times_adjacency():
    rng = np.random.default_rng(3)
    t = build_binary_tree(4)
    eps = rng.normal(size=t.n_sites)
    h = assemble_system_hamiltonian(t, eps)
    assert np.array_equal(h, h.T)
    assert np.allclose(h - np.diag(eps), adjacency_matrix(t))


def test_hamiltonian_rejects_length_mismatch():
    with pytest.raises(ValueError):
        assemble_system_hamiltonian(build_custom(3, [(0, 1)]), [0.0, 0.0])


def test_effective_hamiltonian_limits():
    t = build_custom(2, [(0, 1)])
    bare = TransportModel(topology=t, site_energies=(0.0, 0.0), trap_site=0,
                          trap_rate=0.0, recomb_rate=0.0)
    assert np.array_equal(assemble_effective_hamiltonian(bare),
                          assemble_system_hamiltonian(t, [0.0, 0.0]))
    m = TransportModel(topology=t, site_energies=(0.0, 0.0), trap_site=0,
                       trap_rate=1.0, recomb_rate=0.01)
    h = assemble_effective_hamiltonian(m)
    assert np.allclose(np.diag(h), [-1.01j, -0.01j])


def test_effective_hamiltonian_antihermitian_spectrum():
    # anti-Hermitian part is -i(Gamma*I + kappa*P): rates -(kappa+Gamma), -Gamma
    t = build_binary_tree(3)
    m = TransportModel(topology=t, site_energies=(0.3,) * 7, trap_site=0,
                       trap_rate=1.2, recomb_rate=0.05)
    h = assemble_effective_hamiltonian(m)
    anti = (h - h.conj().T) / 2j
    rates = np.sort(np.linalg.eigvalsh(anti))
    assert np.allclose(rates[0], -(1.2 + 0.05))
    assert np.allclose(rates[1:], -0.05)


def test_model_validation():
    t = build_custom(2, [(0, 1)])
    with pytest.raises(ValueError):
        TransportModel(topology=t, site_energies=(0.0,), trap_site=0)
    with pytest.raises(ValueError):
        TransportModel(topology=t, site_energies=(0.0, 0.0), trap_site=2)
    with pytest.raises(ValueError):
        TransportModel(topology=t, site_energies=(0.0, 0.0), trap_site=0,
                       dephasing_rate=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_rejects_non_finite_rates_and_energies(bad):
    # time stepping on a nan rate never returns, so the model must refuse it
    t = build_custom(2, [(0, 1)])
    for name in ("trap_rate", "recomb_rate", "dephasing_rate"):
        with pytest.raises(ValueError, match=name):
            TransportModel(topology=t, site_energies=(0.0, 0.0), trap_site=0,
                           **{name: bad})
    with pytest.raises(ValueError, match="finite"):
        TransportModel(topology=t, site_energies=(0.0, bad), trap_site=0)


def test_coherence_damping_is_half_the_dephasing_rate():
    t = build_custom(2, [(0, 1)])
    m = TransportModel(topology=t, site_energies=(0.0, 0.0), trap_site=0,
                       dephasing_rate=0.8)
    assert m.coherence_damping_rate == 0.4


# --- dephasing channel: the closed form the reference generator uses ---

def test_dephasing_zero_rate_and_diagonal_input():
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    assert np.array_equal(apply_dephasing(rho, 0.0), np.zeros((3, 3)))
    assert np.array_equal(apply_dephasing(rho, 2.0), np.zeros((3, 3)))


def test_dephasing_two_site_closed_form():
    rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    out = apply_dephasing(rho, 1.0)
    assert np.allclose(out, [[0.0, -0.3], [-0.3, 0.0]])


def generator_sum(rho, rate):
    """Literal dissipator: rate * sum_m (A rho A - A rho/2 - rho A/2)."""
    n = rho.shape[0]
    out = np.zeros_like(rho)
    for m in range(n):
        a = np.zeros((n, n), dtype=complex)
        a[m, m] = 1.0
        out += rate * (a @ rho @ a - 0.5 * a @ rho - 0.5 * rho @ a)
    return out


@pytest.mark.parametrize("n", [2, 5, 9])
def test_dephasing_matches_generator_sum(n):
    rng = np.random.default_rng(n)
    rho = random_hermitian(n, rng)
    rate = rng.uniform(0.1, 3.0)
    assert np.allclose(apply_dephasing(rho, rate), generator_sum(rho, rate),
                       atol=1e-13)


def test_dephasing_output_hermitian_zero_diagonal():
    rng = np.random.default_rng(11)
    rho = random_hermitian(6, rng)
    out = apply_dephasing(rho, 1.7)
    assert np.all(np.diag(out) == 0.0)
    assert np.allclose(out, out.conj().T)


# --- initial states ---

def test_leaf_mixture_on_tree():
    t = build_binary_tree(5)
    rho = initial_state(t, LEAF_MIXTURE)
    assert np.isclose(np.trace(rho), 1.0)
    diag = np.diag(rho).real
    assert np.allclose(diag[15:31], 1 / 16)
    assert np.allclose(diag[:15], 0.0)
    assert np.count_nonzero(rho) == 16


def test_uniform_mixture_on_hypercube():
    t = build_hypercube(4)
    rho = initial_state(t, UNIFORM_MIXTURE)
    assert np.array_equal(rho, np.eye(16) / 16)


def test_single_site_projector():
    t = build_binary_tree(5)
    rho = initial_state(t, SINGLE_SITE, site=30)
    assert rho[30, 30] == 1.0
    assert np.trace(rho) == 1.0
    assert np.count_nonzero(rho) == 1


def test_initial_state_validation():
    t = build_hypercube(2)
    with pytest.raises(ValueError):
        initial_state(t, LEAF_MIXTURE)
    with pytest.raises(ValueError):
        initial_state(t, SINGLE_SITE, site=7)
    with pytest.raises(ValueError):
        initial_state(t, "thermal")


# --- density-matrix checks ---

def test_check_density_matrix_accepts_valid():
    check_density_matrix(np.diag([0.5, 0.5]).astype(complex))


def test_check_density_matrix_rejects_invalid():
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_matrix(np.array([[0.5, 0.2], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density_matrix(np.array([[0.6, 0.5], [0.5, 0.2]], dtype=complex))


def test_check_density_matrix_reads_a_diagonal_rho_without_eigvalsh(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("eigvalsh called on a diagonal rho")

    monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
    for kind in (LEAF_MIXTURE, UNIFORM_MIXTURE):
        check_density_matrix(initial_state(build_binary_tree(4), kind))
    check_density_matrix(initial_state(build_hypercube(3), SINGLE_SITE, site=5))
    with pytest.raises(ValueError, match="negative eigenvalue -2.00e-01"):
        check_density_matrix(np.diag([1.2, -0.2]).astype(complex))
