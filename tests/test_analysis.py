import numpy as np
import pytest

from enaqt.analysis import (efficiency_upper_bound, invariant_subspace,
                            max_disorder_gain)
from enaqt.ensemble import SweepRow, SweepTable
from enaqt.dynamics import efficiency_liouvillian
from enaqt.graph import build_binary_tree, build_custom, build_hypercube
from enaqt.model import (LEAF_MIXTURE, TransportModel, UNIFORM_MIXTURE,
                         assemble_system_hamiltonian, initial_state)
from test_direct_solve import check_trap_eigenbasis

TREE5 = build_binary_tree(5)
HYPER4 = build_hypercube(4)
H_TREE = assemble_system_hamiltonian(TREE5, np.zeros(31))
H_HYPER = assemble_system_hamiltonian(HYPER4, np.zeros(16))


def reachable_dimension(h, trap, tol=1e-10):
    """Oracle: orthonormalized power basis of span{h^k |trap>}.

    The trap-decoupled subspace is the orthogonal complement, so its
    dimension is N minus this rank. Independent of any eigensolve.
    """
    n = h.shape[0]
    basis = []
    v = np.zeros(n)
    v[trap] = 1.0
    for _ in range(n):
        for q in basis:
            v = v - (q @ v) * q
        norm = np.linalg.norm(v)
        if norm < tol:
            break
        v = v / norm
        basis.append(v)
        v = h.real @ v
    return len(basis)


def test_dimer_has_no_invariant_subspace():
    h = assemble_system_hamiltonian(build_custom(2, [(0, 1)]), [0.0, 0.0])
    assert invariant_subspace(h, 0).dimension == 0


def test_three_site_star_antisymmetric_combination():
    # center = trap: only the antisymmetric satellite state decouples
    h = assemble_system_hamiltonian(build_custom(3, [(0, 1), (0, 2)]),
                                    [0.0, 0.0, 0.0])
    sub = invariant_subspace(h, 0)
    assert sub.dimension == 1
    target = np.array([0.0, 1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(target @ sub.basis[:, 0]) - 1.0) < 1e-12


def test_hypercube_dimension_eleven():
    sub = invariant_subspace(H_HYPER, 0)
    assert sub.dimension == 11
    assert sub.dimension == 16 - reachable_dimension(H_HYPER, 0)


def test_tree_dimension_matches_reachability_oracle():
    sub = invariant_subspace(H_TREE, 0)
    assert sub.dimension == 31 - reachable_dimension(H_TREE, 0)
    assert sub.dimension == 26


@pytest.mark.parametrize("h, trap", [(H_TREE, 0), (H_HYPER, 0), (H_HYPER, 5)])
def test_subspace_invariants(h, trap):
    sub = invariant_subspace(h, trap)
    basis = sub.basis
    d = sub.dimension
    assert np.abs(basis[trap, :]).max() < 1e-9
    energies = np.einsum("ij,ij->j", basis.conj(), h @ basis).real
    assert np.abs(h @ basis - basis * energies).max() < 1e-8
    assert np.abs(basis.conj().T @ basis - np.eye(d)).max() < 1e-10
    proj = basis @ basis.conj().T
    assert np.abs(proj @ h - h @ proj).max() < 1e-8
    trap_vec = np.zeros(h.shape[0])
    trap_vec[trap] = 1.0
    assert np.linalg.norm(proj @ trap_vec) < 1e-9


def test_disordered_spectrum_has_no_invariant_subspace():
    rng = np.random.default_rng(17)
    h = assemble_system_hamiltonian(TREE5, rng.normal(0, 1.0, 31))
    assert invariant_subspace(h, 0).dimension == 0


def test_invariant_subspace_rejects_non_hermitian():
    with pytest.raises(ValueError):
        invariant_subspace(np.array([[0.0, 1.0], [0.0, 0.0]]), 0)


def test_bound_tree_leaf_mixture():
    sub = invariant_subspace(H_TREE, 0)
    rho0 = initial_state(TREE5, LEAF_MIXTURE)
    assert abs(efficiency_upper_bound(sub, rho0) - 1 / 16) < 1e-12


def test_bound_hypercube_uniform_mixture():
    sub = invariant_subspace(H_HYPER, 0)
    rho0 = initial_state(HYPER4, UNIFORM_MIXTURE)
    assert abs(efficiency_upper_bound(sub, rho0) - 5 / 16) < 1e-12


# closed forms on the ordered graphs with the trap at site 0: the trap
# reaches one state per distance from it, the uniform superposition of
# that shell, so the subspace holds the rest and the bound is the initial
# weight on those shell states
@pytest.mark.parametrize("topology, kind, bound, dimension", [
    *[pytest.param(build_binary_tree(g), LEAF_MIXTURE, 2.0 ** (1 - g), 2 ** g - g - 1,
                   id=f"tree{g}-leaves") for g in range(2, 8)],
    *[pytest.param(build_binary_tree(g), UNIFORM_MIXTURE, g / (2 ** g - 1),
                   2 ** g - g - 1, id=f"tree{g}-uniform") for g in range(2, 8)],
    *[pytest.param(build_hypercube(d), UNIFORM_MIXTURE, (d + 1) / 2 ** d,
                   2 ** d - d - 1, id=f"hypercube{d}-uniform") for d in range(1, 7)],
])
def test_bound_and_dimension_in_closed_form(topology, kind, bound, dimension):
    h = assemble_system_hamiltonian(topology, np.zeros(topology.n_sites))
    sub = invariant_subspace(h, 0)
    assert sub.dimension == dimension
    assert check_trap_eigenbasis(h, 0).sum() == dimension
    assert abs(efficiency_upper_bound(sub, initial_state(topology, kind)) - bound) < 1e-12


def test_bound_is_one_for_empty_subspace():
    h = assemble_system_hamiltonian(build_custom(2, [(0, 1)]), [0.0, 0.0])
    sub = invariant_subspace(h, 0)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert efficiency_upper_bound(sub, rho0) == 1.0


def test_bound_invariant_under_subspace_rotation():
    rng = np.random.default_rng(23)
    sub = invariant_subspace(H_HYPER, 0)
    rho0 = initial_state(HYPER4, UNIFORM_MIXTURE)
    before = efficiency_upper_bound(sub, rho0)
    d = sub.dimension
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    sub.basis = sub.basis @ q
    assert abs(efficiency_upper_bound(sub, rho0) - before) < 1e-12


@pytest.mark.parametrize("top, kind, h, bound", [
    (TREE5, LEAF_MIXTURE, H_TREE, 1 / 16),
    (HYPER4, UNIFORM_MIXTURE, H_HYPER, 5 / 16),
])
def test_efficiency_saturates_bound_at_vanishing_loss(top, kind, h, bound):
    m = TransportModel(topology=top, site_energies=(0.0,) * top.n_sites,
                       trap_site=0, trap_rate=1.0, recomb_rate=1e-6)
    eta = efficiency_liouvillian(initial_state(top, kind), m).eta
    assert eta < bound
    assert bound - eta < 1e-3


@pytest.mark.parametrize("dephasing, disorder_seed", [(0.2, None), (0.0, 31)])
def test_dephasing_or_disorder_unlocks_the_bound(dephasing, disorder_seed):
    # any perturbation couples the decoupled states: eta exceeds 1/16
    if disorder_seed is None:
        eps = np.zeros(31)
    else:
        eps = np.random.default_rng(disorder_seed).normal(0, 0.5, 31)
    m = TransportModel(topology=TREE5, site_energies=tuple(eps), trap_site=0,
                       trap_rate=1.0, recomb_rate=1e-4, dephasing_rate=dephasing)
    eta = efficiency_liouvillian(initial_state(TREE5, LEAF_MIXTURE), m).eta
    assert eta > 1 / 16


# --- disorder gain from sweep tables ---

def table_from(cells):
    rows = [SweepRow(delta_eps=d, gamma_phi=g, eta_mean=e, eta_stderr=se,
                     n=100, eta_loss_mean=1 - e)
            for d, g, e, se in cells]
    return SweepTable(rows=tuple(rows))


def test_gain_zero_for_flat_table():
    t = table_from([(0.0, 0.1, 0.3, 0.0), (0.5, 0.1, 0.3, 0.01),
                    (1.0, 0.1, 0.3, 0.01)])
    gain = max_disorder_gain(t, 0.1)
    assert gain.gain == 0.0
    assert gain.best_disorder == 0.0


def test_gain_finds_interior_maximum():
    t = table_from([(0.0, 0.2, 0.30, 0.0), (0.8, 0.2, 0.47, 0.01),
                    (2.5, 0.2, 0.35, 0.01),
                    (0.0, 1.0, 0.48, 0.0), (0.8, 1.0, 0.49, 0.01),
                    (2.5, 1.0, 0.44, 0.01)])
    gain = max_disorder_gain(t, 0.2)
    assert abs(gain.gain - 0.17) < 1e-12
    assert gain.best_disorder == 0.8
    assert abs(gain.stderr - 0.01) < 1e-12
    assert max_disorder_gain(t, 1.0).gain == pytest.approx(0.01)


def test_gain_is_nonnegative_by_construction():
    t = table_from([(0.0, 0.5, 0.6, 0.0), (1.0, 0.5, 0.2, 0.01)])
    assert max_disorder_gain(t, 0.5).gain == 0.0


def test_gain_requires_zero_disorder_column():
    t = table_from([(0.5, 0.2, 0.4, 0.01)])
    with pytest.raises(ValueError, match="zero-disorder"):
        max_disorder_gain(t, 0.2)
    with pytest.raises(ValueError, match="no sweep rows"):
        max_disorder_gain(t, 0.7)
