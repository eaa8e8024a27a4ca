"""The real map both solvers apply, the direct solve's per-graph plan, the
complex generator and the dense right-hand side they are checked against,
and properties of eta and of the invariant-subspace bound on random custom
graphs."""
import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enaqt import analysis, dynamics
from enaqt.dynamics import build_liouvillian, compute_efficiency, efficiency_liouvillian
from enaqt.graph import build_binary_tree, build_custom, build_hypercube
from enaqt.model import (LEAF_MIXTURE, OVERLAP_TOL, UNIFORM_MIXTURE,
                         TransportModel, assemble_effective_hamiltonian,
                         assemble_system_hamiltonian, initial_state,
                         sample_site_energies, trap_eigenbasis)

SRC = str(Path(dynamics.__file__).resolve().parents[1])


def apply_dephasing(rho, rate):
    """Pure-dephasing increment for site-projector generators.

    Closed form of the generator sum: every off-diagonal element is scaled
    by -rate, the diagonal maps to exactly zero.
    """
    out = -rate * rho
    np.fill_diagonal(out, 0.0)
    return out


def reference_generator(model):
    """The generator summed from COO index arrays, one triplet list per
    term, independently of the cached structure."""
    h = assemble_effective_hamiltonian(model)
    n = model.n_sites
    i, j = np.nonzero(h)
    hij = h[i, j]
    k = np.arange(n)[:, None]
    rows = [(i + n * k).ravel(), (k + n * i).ravel()]
    cols = [(j + n * k).ravel(), (k + n * j).ravel()]
    vals = [np.tile(-1j * hij, n), np.tile(1j * hij.conj(), n)]
    rate = model.coherence_damping_rate
    if rate:
        damp = apply_dephasing(np.ones((n, n)), rate).flatten(order="F")
        on = np.flatnonzero(damp)
        rows.append(on)
        cols.append(on)
        vals.append(damp[on])
    return sp.csc_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n * n, n * n))


def reference_rhs(model, z):
    """The master equation on the real coordinates z = vec Z (row-major),
    Z = Re rho + Im rho, by dense products: Z^T H_sys - H_sys Z^T - D o Z,
    with H_eff = H_sys - i diag(k) and D_ij = k_i + k_j plus the coherence
    damping rate for i != j."""
    h = assemble_effective_hamiltonian(model)
    n = model.n_sites
    h_sys, k = h.real, -np.diag(h).imag
    decay = k[:, None] + k + model.coherence_damping_rate * (1.0 - np.eye(n))
    zt = z.reshape(n, n).T
    return (zt @ h_sys - h_sys @ zt - decay * zt.T).ravel()


def reference_timestepping(rho0, model):
    """The efficiency by scipy's ``solve_ivp`` DOP853 on the time stepper's
    map, whose last two components are the running integrals of the trap
    population and of the trace, to the horizon of
    ``efficiency_timestepping``; a terminal event on DOP853's dense output
    stops it where the trace falls to TRACE_TOL."""
    from scipy.integrate import solve_ivp

    n = model.n_sites
    nn = n * n
    diag = slice(0, nn, n + 1)
    t_max = (np.log(1.0 / dynamics.TRACE_TOL) / (2.0 * model.recomb_rate)
             if model.recomb_rate > 0 else dynamics.FALLBACK_HORIZON)
    a = dynamics._real_map(model, integrals=True)

    def trace_event(t, y):
        return y[diag].sum() - dynamics.TRACE_TOL

    trace_event.terminal = True
    trace_event.direction = -1
    y0 = np.concatenate([(rho0.real + rho0.imag).ravel(), np.zeros(2)])
    sol = solve_ivp(lambda t, y: a @ y, (0.0, t_max), y0, method="DOP853",
                    rtol=dynamics.RTOL, atol=dynamics.ATOL, t_eval=[t_max],
                    events=trace_event)
    assert sol.status >= 0, sol.message
    if sol.status == 1:
        t_end, y_end = sol.t_events[0][-1], sol.y_events[0][-1]
    else:
        t_end, y_end = sol.t[-1], sol.y[:, -1]
    return dynamics.EfficiencyResult(
        eta=2.0 * model.trap_rate * y_end[nn],
        eta_loss=2.0 * model.recomb_rate * y_end[nn + 1],
        residual_trace=y_end[diag].sum(), method=dynamics.TIME_STEPPING,
        horizon=float(t_end))


def real_coordinates(n):
    """U with vec(rho) = U z for Hermitian rho, where z is the row-major
    vec of Z = Re rho + Im rho: column i n + j is vec(rho) for Z = E_ij."""
    columns = []
    for i in range(n):
        for j in range(n):
            rho = np.zeros((n, n), dtype=complex)
            rho[i, j] += 0.5 + 0.5j
            rho[j, i] += 0.5 - 0.5j
            columns.append(rho.flatten(order="F"))
    return np.array(columns).T


def reference_map(model):
    """pack o reference_generator o unpack: the real map of model on
    row-major Z coordinates, from the complex generator."""
    n = model.n_sites
    out = reference_generator(model) @ real_coordinates(n)
    out = out.reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n)
    return out.real + out.imag


def natural_map(m, a=None):
    """build_liouvillian(m), or a, permuted back to natural order."""
    plan = dynamics._plan(m.n_sites, m.topology.edges)
    a = build_liouvillian(m) if a is None else a
    return a.toarray()[np.ix_(plan.perm, plan.perm)]


def assert_same_map(got, want):
    # unpack halves each coherence and pack adds the halves back, so the
    # reference rounds the entries it rebuilds by up to one ulp
    assert np.array_equal(got != 0, want != 0)
    assert np.abs(got - want).max(initial=0.0) <= np.spacing(np.abs(want).max())


def random_model(topology, rng, **rates):
    n = topology.n_sites
    kw = dict(trap_site=int(rng.integers(n)), trap_rate=rng.uniform(0.2, 3.0),
              recomb_rate=rng.uniform(0.005, 0.2),
              dephasing_rate=rng.uniform(0.0, 3.0))
    kw.update(rates)
    return TransportModel(topology=topology,
                          site_energies=tuple(rng.normal(0.0, 1.5, n)), **kw)


def random_density_matrix(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_connected_graph(n, rng):
    """A random spanning tree plus a few random extra edges."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(n + 1))):
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    return build_custom(n, sorted(edges))


GRAPHS = {
    "tree3": build_binary_tree(3),
    "tree5": build_binary_tree(5),
    "hypercube4": build_hypercube(4),
    "dimer": build_custom(2, [(0, 1)]),
    "single-site": build_custom(1, []),
    "disconnected": build_custom(5, [(0, 1), (2, 3), (3, 4)]),
}


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("rates", [
    pytest.param({"dephasing_rate": 0.0}, id="0.0"),
    pytest.param({"dephasing_rate": 0.7}, id="0.7"),
    # no loss, which only time stepping accepts, and no trap
    pytest.param({"dephasing_rate": 0.7, "recomb_rate": 0.0}, id="no-loss"),
    pytest.param({"dephasing_rate": 0.7, "trap_rate": 0.0}, id="no-trap")])
def test_generator_matches_the_index_array_assembly(name, rates):
    rng = np.random.default_rng(len(name))
    m = random_model(GRAPHS[name], rng, **rates)
    got = build_liouvillian(m)
    assert got.format == "csc" and got.has_canonical_format
    want = reference_map(m)
    assert_same_map(natural_map(m, got), want)
    assert_same_map(dynamics._real_map(m).toarray(), want)


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("integrals", [False, True])
def test_the_stage_product_has_the_bits_of_the_sparse_product(name, integrals):
    # the stepper calls scipy's private CSR kernel; a scipy whose kernel or
    # whose ``@`` changes makes this fail rather than move eta unseen
    rng = np.random.default_rng(len(name))
    a = dynamics._real_map(random_model(GRAPHS[name], rng), integrals=integrals)
    y = rng.standard_normal(a.shape[1])
    got = dynamics._product(a)(0.0, y)
    assert got.dtype == np.float64 and np.array_equal(got, a @ y)


def test_models_in_sequence_on_one_graph_leave_no_stale_values():
    rng = np.random.default_rng(3)
    t = GRAPHS["tree3"]
    rho0 = initial_state(t, LEAF_MIXTURE)
    models = [random_model(t, rng, dephasing_rate=g) for g in (0.0, 2.0, 0.0, 0.3)]
    for m in models + models[::-1]:
        assert_same_map(natural_map(m), reference_map(m))
        x = np.linalg.solve(reference_generator(m).toarray(),
                            -rho0.flatten(order="F"))
        assert abs(efficiency_liouvillian(rho0, m).eta
                   - 2 * m.trap_rate * x[m.trap_site * 8].real) < 1e-12


def test_the_generator_does_not_share_arrays_with_the_plan():
    m = random_model(GRAPHS["tree3"], np.random.default_rng(1))
    gen = build_liouvillian(m)
    gen.indices[:] = 0
    gen.indptr[:] = 0
    assert_same_map(natural_map(m), reference_map(m))


def test_the_order_depends_on_the_graph_alone():
    t = GRAPHS["hypercube4"]
    dynamics._plan.cache_clear()
    first = dynamics._plan(t.n_sites, t.edges).perm.copy()
    dynamics._plan.cache_clear()
    assert np.array_equal(dynamics._plan(t.n_sites, t.edges).perm, first)
    assert sorted(first) == list(range(t.n_sites ** 2))


def test_the_plan_holds_no_view_into_the_factor():
    # SuperLU's perm_c is a view onto the factor; a cached view would keep
    # the pattern's whole LU factor alive
    t = GRAPHS["tree5"]
    plan = dynamics._plan(t.n_sites, t.edges)
    assert all(arr.base is None and not arr.flags.writeable
               for arr in vars(plan).values())


def transpose_partners(n):
    """t with z[t[c]] the coordinate Z_ji of z[c] = Z_ij, row-major."""
    c = np.arange(n * n)
    return c % n * n + c // n


@pytest.mark.parametrize("rates", [
    pytest.param({}, id="random"),
    pytest.param({"trap_rate": 0.0, "recomb_rate": 0.0}, id="no-trap-no-loss"),
    pytest.param({"dephasing_rate": 1e4}, id="1e4")])
def test_the_real_map_is_symmetric_once_its_rows_are_transposed(rates):
    # A = -diag(D) + C, where C is skew-symmetric and changes sign under
    # the swap T of Z_ij and Z_ji, and D does not, so T A is symmetric,
    # exactly: its mirrored entries are the same floats
    rng = np.random.default_rng(7)
    graphs = list(GRAPHS.values()) + [random_connected_graph(int(rng.integers(3, 12)), rng)
                                      for _ in range(4)]
    for topology in graphs:
        m = random_model(topology, rng, **rates)
        swapped = dynamics._real_map(m)[transpose_partners(m.n_sites)]
        assert (swapped != swapped.T).nnz == 0


@pytest.mark.parametrize("name", ["tree5", "hypercube4", "disconnected", "hypercube6"])
def test_the_plan_pairs_each_unknown_with_its_transpose(name):
    t = build_hypercube(6) if name == "hypercube6" else GRAPHS[name]
    n = t.n_sites
    plan = dynamics._plan(n, t.edges)
    partner = plan.partner
    assert np.array_equal(partner[plan.perm], plan.perm[transpose_partners(n)])
    assert np.array_equal(partner[partner], np.arange(n * n))
    diagonal = plan.perm[::n + 1]
    assert np.array_equal(partner[diagonal], diagonal)
    assert np.count_nonzero(partner == np.arange(n * n)) == n
    tail = n * n - int(plan.tail)
    assert np.all(partner[tail:] >= tail)


# --- the real system the direct solve factors ---

def dense_eta(m, rho0):
    n = m.n_sites
    x = np.linalg.solve(reference_generator(m).toarray(), -rho0.flatten(order="F"))
    return 2 * m.trap_rate * x[m.trap_site * (n + 1)].real


@pytest.mark.parametrize("name", ["tree3", "dimer", "single-site", "disconnected"])
@pytest.mark.parametrize("gamma_phi", [0.0, 0.7])
def test_real_system_is_the_generator_in_hermitian_coordinates(name, gamma_phi):
    # on Hermitian X, the map takes Z = Re X + Im X to Re G(X) + Im G(X)
    rng = np.random.default_rng(len(name))
    m = random_model(GRAPHS[name], rng, dephasing_rate=gamma_phi)
    n = m.n_sites
    real = natural_map(m)
    for _ in range(3):
        x = random_density_matrix(n, rng)
        gx = (reference_generator(m) @ x.flatten(order="F")).reshape((n, n), order="F")
        want = (gx.real + gx.imag).ravel()
        got = real @ (x.real + x.imag).ravel()
        assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())


def test_the_order_keeps_each_pairs_unknowns_adjacent():
    t = GRAPHS["tree5"]
    n = t.n_sites
    perm = dynamics._plan(n, t.edges).perm
    i, j = np.triu_indices(n, 1)
    assert np.all(np.abs(perm[i + n * j] - perm[j + n * i]) == 1)


@pytest.mark.parametrize("topology", [build_binary_tree(6), build_hypercube(5)],
                         ids=["tree6", "hypercube5"])
def test_real_route_matches_a_complex_solve_on_larger_graphs(topology):
    # a complex rho0 with off-diagonal imaginary parts fills the Im rows of b
    rng = np.random.default_rng(topology.n_sites)
    n = topology.n_sites
    for gamma_phi in (0.0, 1.0):
        m = random_model(topology, rng, dephasing_rate=gamma_phi)
        rho0 = random_density_matrix(n, rng)
        assert np.abs(rho0.imag).max() > 0.1 * np.abs(rho0).max()
        x = spla.spsolve(reference_generator(m).tocsc(), -rho0.flatten(order="F"))
        got = efficiency_liouvillian(rho0, m)
        assert abs(got.eta - 2 * m.trap_rate * x[m.trap_site * (n + 1)].real) < 1e-10
        assert abs(got.eta_loss - 2 * m.recomb_rate * x[::n + 1].real.sum()) < 1e-10


@pytest.mark.parametrize("delta_eps", [0.0, 3.0, 10.0])
@pytest.mark.parametrize("topology,kind", [(build_binary_tree(5), LEAF_MIXTURE),
                                           (build_hypercube(4), UNIFORM_MIXTURE)],
                         ids=["tree5", "hypercube4"])
def test_pairs_pivot_inside_themselves_or_decouple(topology, kind, delta_eps):
    # the unknowns Z_ij and Z_ji of pair {i, j} couple through eps_j - eps_i;
    # with no dephasing and Gamma = 1e-9 that coupling dwarfs their
    # diagonal under disorder, and vanishes at delta_eps = 0. Pure
    # diagonal pivots fail the backward-error guard on some of these
    # disordered models. On the ordered tree dark states make tr X about
    # 1 / (2 Gamma), and the budget closes to 2e-9 (so it did on the
    # complex system)
    n = topology.n_sites
    rho0 = initial_state(topology, kind)
    i, j = np.triu_indices(n, 1)
    lower, upper = j * n + i, i * n + j
    for seed, kappa in itertools.product(range(3), (1.0, 2.0)):
        m = TransportModel(topology=topology, trap_site=0, trap_rate=kappa,
                           recomb_rate=1e-9,
                           site_energies=tuple(sample_site_energies(delta_eps, seed, 0, n)))
        real = natural_map(m)
        coupling, diagonal = np.abs(real[lower, upper]), np.abs(real[lower, lower])
        if delta_eps:
            assert np.any(diagonal < 0.01 * coupling)
        else:
            assert not coupling.any()
        res = efficiency_liouvillian(rho0, m)
        assert abs(res.eta - dense_eta(m, rho0)) < 1e-6
        assert abs(res.eta + res.eta_loss - 1.0) < 1e-8


HEX_SCRIPT = """
import numpy as np
from enaqt import dynamics, graph, model
t = graph.build_binary_tree(5)
m = model.TransportModel(topology=t, trap_site=0, dephasing_rate=0.3,
                         site_energies=tuple(np.random.default_rng(9).normal(0, 1.2, 31)))
res = dynamics.compute_efficiency(model.initial_state(t, model.LEAF_MIXTURE), m)
print(dynamics._plan.cache_info().misses, res.eta.hex(), res.eta_loss.hex())
"""


def test_cold_and_warm_plan_caches_give_the_same_bits():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    cold = subprocess.run([sys.executable, "-c", HEX_SCRIPT], env=env,
                          capture_output=True, text=True, check=True).stdout.split()
    assert cold[0] == "1"
    t = build_binary_tree(5)
    rng = np.random.default_rng(4)
    rho0 = initial_state(t, LEAF_MIXTURE)
    for gamma_phi in (0.0, 0.01, 5.0):
        compute_efficiency(rho0, random_model(t, rng, dephasing_rate=gamma_phi))
    m = TransportModel(topology=t, trap_site=0, dephasing_rate=0.3,
                       site_energies=tuple(np.random.default_rng(9).normal(0, 1.2, 31)))
    warm = compute_efficiency(rho0, m)
    assert cold[1:] == [warm.eta.hex(), warm.eta_loss.hex()]


# --- properties on random connected custom graphs ---

def test_direct_eta_on_random_custom_graphs():
    rng = np.random.default_rng(20261019)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        t = random_connected_graph(n, rng)
        m = random_model(t, rng)
        rho0 = random_density_matrix(n, rng)
        res = efficiency_liouvillian(rho0, m)
        x = np.linalg.solve(reference_generator(m).toarray(),
                            -rho0.flatten(order="F"))
        assert abs(res.eta - 2 * m.trap_rate * x[m.trap_site * (n + 1)].real) < 1e-10
        assert abs(res.eta + res.eta_loss - 1.0) < 1e-9

        # relabel the sites by a random permutation
        p = rng.permutation(n)
        relabelled = build_custom(n, [(p[a], p[b]) for a, b in t.edges])
        energies = np.empty(n)
        energies[p] = m.site_energies
        m2 = TransportModel(topology=relabelled, site_energies=tuple(energies),
                            trap_site=int(p[m.trap_site]), trap_rate=m.trap_rate,
                            recomb_rate=m.recomb_rate,
                            dephasing_rate=m.dephasing_rate)
        rho2 = np.empty_like(rho0)
        rho2[np.ix_(p, p)] = rho0
        assert abs(efficiency_liouvillian(rho2, m2).eta - res.eta) < 1e-12

        # more loss never traps more
        etas = [efficiency_liouvillian(rho0, TransportModel(
                    topology=t, site_energies=m.site_energies,
                    trap_site=m.trap_site, trap_rate=m.trap_rate,
                    recomb_rate=gamma, dephasing_rate=m.dephasing_rate)).eta
                for gamma in (0.001, 0.01, 0.1, 1.0)]
        assert all(b <= a + 1e-12 for a, b in zip(etas, etas[1:]))


def zero_dephasing_cases():
    """30 models at gamma_phi = 0 with random traps, rates and initial
    states: first five ordered graphs at zero energies, whose degenerate
    spectra hold dark states for any trap, then random connected graphs
    with N <= 24 at zero or disordered energies."""
    rng = np.random.default_rng(20261020)
    graphs = [build_binary_tree(3), build_binary_tree(4), build_hypercube(3),
              build_custom(6, [(0, k) for k in range(1, 6)]),
              build_custom(5, list(itertools.combinations(range(5), 2)))]
    graphs += [random_connected_graph(int(rng.integers(2, 25)), rng)
               for _ in range(30 - len(graphs))]
    cases = []
    for k, t in enumerate(graphs):
        m = random_model(t, rng, dephasing_rate=0.0)
        if k < 5 or rng.random() < 0.5:
            m = dataclasses.replace(m, site_energies=(0.0,) * t.n_sites)
        cases.append((m, random_density_matrix(t.n_sites, rng)))
    return cases


def subspace_of(m):
    h = assemble_system_hamiltonian(m.topology, m.site_energies)
    return h, analysis.invariant_subspace(h, m.trap_site)


def check_trap_eigenbasis(h, trap):
    """Assert what ``trap_eigenbasis`` promises of (h, trap): a unitary
    eigenbasis whose dark columns have no trap amplitude, where each
    coupled cluster's first column carries the cluster's whole overlap."""
    energies, basis, dark, clusters = trap_eigenbasis(h, trap)
    n = h.shape[0]
    assert np.abs(basis.conj().T @ basis - np.eye(n)).max() < 1e-12
    assert np.abs(h @ basis - basis * energies).max() < 1e-10
    assert np.abs(basis[trap, dark]).max(initial=0.0) < OVERLAP_TOL
    start = 0
    for _, multiplicity, overlap in clusters:
        stop = start + multiplicity
        if overlap >= OVERLAP_TOL:
            assert abs(abs(basis[trap, start]) - overlap) < 1e-12
            assert not dark[start] and dark[start + 1:stop].all()
        else:
            assert dark[start:stop].all()
        start = stop
    assert start == n
    return dark


def test_eta_stays_under_the_invariant_subspace_bound_at_zero_dephasing():
    bounds = []
    for m, rho0 in zero_dephasing_cases():
        bound = analysis.efficiency_upper_bound(subspace_of(m)[1], rho0)
        assert compute_efficiency(rho0, m).eta <= bound + 1e-9
        bounds.append(bound)
    # the bound must bite on the ordered graphs' dark states
    assert all(b < 1.0 - 1e-6 for b in bounds[:5])


def test_invariant_subspace_is_an_orthonormal_trap_free_invariant_basis():
    for m, _ in zero_dephasing_cases():
        h, sub = subspace_of(m)
        b = sub.basis
        assert np.abs(b.conj().T @ b - np.eye(sub.dimension)).max(initial=0.0) < 1e-12
        assert np.abs(b[m.trap_site]).max(initial=0.0) < 1e-12
        assert np.linalg.norm(h @ b - b @ (b.conj().T @ h @ b)) < 1e-10
        coupled = sum(overlap >= OVERLAP_TOL for _, _, overlap in sub.clusters)
        assert sub.dimension == m.n_sites - coupled
        assert check_trap_eigenbasis(h, m.trap_site).sum() == sub.dimension


def test_direct_solve_agrees_with_time_stepping_on_random_graphs():
    rng = np.random.default_rng(20261021)
    for _ in range(6):
        n = int(rng.integers(8, 25))
        m = random_model(random_connected_graph(n, rng), rng)
        rho0 = random_density_matrix(n, rng)
        direct = compute_efficiency(rho0, m)
        stepped = compute_efficiency(rho0, m, solver="timestepping")
        assert abs(direct.eta - stepped.eta) < 1e-6
        assert abs(direct.eta_loss - stepped.eta_loss) < 1e-6


def refined_solve(rho0, m, steps=3, dense_tail=False):
    """eta and eta_loss from SuperLU on the natural-order real map, or with
    ``dense_tail`` from the dense-tail route's factors of the plan-ordered
    map, plus ``steps`` steps of iterative refinement, each residual
    b - A z summed in np.longdouble."""
    n = m.n_sites
    b = -(rho0.real + rho0.imag).ravel()
    if dense_tail:
        plan = dynamics._plan(n, m.topology.edges)
        a = build_liouvillian(m)
        b = b[np.argsort(plan.perm)]
        solve = dynamics._dense_tail_inverse(a, plan)
    else:
        a = dynamics._real_map(m).tocsc()
        solve = spla.splu(a).solve
    z = solve(b)
    coo = a.tocoo()
    data = coo.data.astype(np.longdouble)
    for _ in range(steps):
        r = b.astype(np.longdouble)
        np.subtract.at(r, coo.row, data * z[coo.col])
        z = z + solve(r.astype(float))
    if dense_tail:
        z = z[plan.perm]
    return (2.0 * m.trap_rate * z[m.trap_site * (n + 1)],
            2.0 * m.recomb_rate * z[::n + 1].sum())


@pytest.mark.parametrize("topology, kind, gamma_phi", [
    pytest.param(build_binary_tree(3), LEAF_MIXTURE, 1e4, id="tree3-1e4"),
    pytest.param(build_binary_tree(5), LEAF_MIXTURE, 1e4, id="tree5-1e4"),
    pytest.param(build_binary_tree(5), LEAF_MIXTURE, 1e5, id="tree5-1e5"),
    pytest.param(build_binary_tree(6), LEAF_MIXTURE, 1e5, id="tree6-1e5"),
    pytest.param(build_hypercube(4), UNIFORM_MIXTURE, 1e5, id="hypercube4-1e5"),
])
def test_direct_solve_resolves_a_tiny_eta_under_strong_dephasing(topology, kind, gamma_phi):
    # eta falls to 3.7e-4, 1.3e-7, 1.6e-11, 3.1e-14 and 6.2e-2 here, far
    # below the budget's scale; the direct solve must still give it to
    # 1e-12 relative
    n = topology.n_sites
    m = TransportModel(topology=topology,
                       site_energies=tuple(sample_site_energies(1.0, 0, 0, n)),
                       trap_site=0, trap_rate=1.0, recomb_rate=0.01,
                       dephasing_rate=gamma_phi)
    rho0 = initial_state(topology, kind)
    res = efficiency_liouvillian(rho0, m)
    eta, eta_loss = refined_solve(rho0, m)
    assert abs(res.eta - eta) <= 1e-12 * eta
    assert abs(res.eta_loss - eta_loss) <= 1e-12 * eta_loss


# --- float32 factors refined in float64, above MIXED_PRECISION_NNZ ---

def in_float64(rho0, m, monkeypatch):
    """The float64 SuperLU solve, with no graph above the precision
    threshold, so neither float32 factors nor the dense tail."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "MIXED_PRECISION_NNZ", 10**12)
        return efficiency_liouvillian(rho0, m)


def same_bits(got, want):
    return (got.eta.hex(), got.eta_loss.hex()) == (want.eta.hex(), want.eta_loss.hex())


def factor_dtypes(monkeypatch):
    """The dtypes of the matrices spla.splu factors from now on."""
    seen, splu = [], spla.splu

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return seen


def model_on(topology, delta_eps, gamma_phi, gamma=0.01):
    n = topology.n_sites
    return TransportModel(topology=topology, trap_site=0, trap_rate=1.0,
                          site_energies=tuple(sample_site_energies(delta_eps, 0, 0, n)),
                          recomb_rate=gamma, dephasing_rate=gamma_phi)


@pytest.mark.parametrize("topology,kind,dtypes", [
    (build_binary_tree(5), LEAF_MIXTURE, [np.float64]),
    (build_hypercube(4), UNIFORM_MIXTURE, [np.float64]),
    (build_hypercube(5), UNIFORM_MIXTURE, [np.float32]),
    # the dense tail: the bordered head, then its lower triangular partner
    (build_hypercube(6), UNIFORM_MIXTURE, [np.float64, np.float64])],
    ids=["tree5", "hypercube4", "hypercube5", "hypercube6"])
def test_the_threshold_picks_the_factor_precision(topology, kind, dtypes, monkeypatch):
    m = model_on(topology, 1.0, 0.1)
    rho0 = initial_state(topology, kind)
    efficiency_liouvillian(rho0, m)  # the plan, its pattern factored in float64
    seen = factor_dtypes(monkeypatch)
    efficiency_liouvillian(rho0, m)
    assert seen == dtypes


@pytest.mark.parametrize("topology,kind", [
    (build_hypercube(5), UNIFORM_MIXTURE), (build_binary_tree(6), LEAF_MIXTURE),
    (build_binary_tree(7), LEAF_MIXTURE), (build_hypercube(6), UNIFORM_MIXTURE)],
    ids=["hypercube5", "tree6", "tree7", "hypercube6"])
def test_float32_factors_refined_agree_with_the_float64_solve(topology, kind, monkeypatch):
    # hypercube d=6 is refined from its dense-tail factors instead
    n = topology.n_sites
    assert dynamics._plan(n, topology.edges).pair_factor_nnz > dynamics.MIXED_PRECISION_NNZ
    rho0 = initial_state(topology, kind)
    for delta_eps, gamma_phi in itertools.product((0.0, 1.0, 2.5), (0.0, 0.1, 1.0, 1e4)):
        m = model_on(topology, delta_eps, gamma_phi)
        got, want = efficiency_liouvillian(rho0, m), in_float64(rho0, m, monkeypatch)
        assert abs(got.eta - want.eta) <= 1e-13 * want.eta
        assert abs(got.eta_loss - want.eta_loss) <= 1e-13 * want.eta_loss


def test_a_failed_float32_solve_falls_back_to_the_float64_bits(monkeypatch):
    hyper5 = build_hypercube(5)
    rho0 = initial_state(hyper5, UNIFORM_MIXTURE)
    m = model_on(hyper5, 1.0, 0.1)
    want = in_float64(rho0, m, monkeypatch)
    assert not same_bits(efficiency_liouvillian(rho0, m), want)
    factor = dynamics._factor

    def singular_in_float32(a, order):
        if a.dtype == np.float32:
            raise RuntimeError("Factor is exactly singular")
        return factor(a, order)

    for name, failing in (("_refined", lambda *args: None),
                          ("_factor", singular_in_float32)):
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, name, failing)
            assert same_bits(efficiency_liouvillian(rho0, m), want)
    # a natural failure: without dephasing and at Gamma = 1e-6 the float32
    # corrections do not converge
    m = model_on(hyper5, 0.5, 0.0, gamma=1e-6)
    want = in_float64(rho0, m, monkeypatch)
    seen = factor_dtypes(monkeypatch)
    assert same_bits(efficiency_liouvillian(rho0, m), want)
    assert seen == [np.float32, np.float64]


def test_factors_predicted_too_large_raise_before_the_factorization(monkeypatch):
    tree3 = build_binary_tree(3)
    m = model_on(tree3, 1.0, 0.1)
    rho0 = initial_state(tree3, LEAF_MIXTURE)
    efficiency_liouvillian(rho0, m)  # the plan
    seen = factor_dtypes(monkeypatch)
    monkeypatch.setattr(dynamics, "MAX_FACTOR_MB", 1e-3)
    with pytest.raises(dynamics.SolverError, match="7-site generator would take about .* MB"):
        efficiency_liouvillian(rho0, m)
    assert seen == []
    # hypercube d=6 predicts 27.9 MB of float32 factors, 41.9 MB in float64
    monkeypatch.undo()
    hyper6 = build_hypercube(6)
    a = build_liouvillian(model_on(hyper6, 1.0, 0.1))
    plan = dynamics._plan(hyper6.n_sites, hyper6.edges)
    dynamics._check_factor_size(a, plan)
    dynamics._check_factor_size(a.astype(np.float32), plan)


# --- the dense tail: SuperLU on the head, LAPACK on the Schur complement ---

def test_only_a_large_dense_tail_takes_the_route():
    graphs = {"hypercube5": build_hypercube(5), "tree6": build_binary_tree(6),
              "tree7": build_binary_tree(7), "tree8": build_binary_tree(8),
              "hypercube6": build_hypercube(6)}
    tails = {name: int(dynamics._plan(t.n_sites, t.edges).tail)
             for name, t in graphs.items()}
    assert tails == {"hypercube5": 0, "tree6": 0, "tree7": 0, "tree8": 0,
                     "hypercube6": 1946}


def test_the_schur_complement_of_the_bordered_factors_is_exact(monkeypatch):
    hyper4 = build_hypercube(4)
    rho0 = initial_state(hyper4, UNIFORM_MIXTURE)
    monkeypatch.setattr(dynamics, "MIN_DENSE_TAIL", 0)
    monkeypatch.setattr(dynamics, "MIXED_PRECISION_NNZ", 0)
    dynamics._plan.cache_clear()
    try:
        plan = dynamics._plan(hyper4.n_sites, hyper4.edges)
        s = 256 - int(plan.tail)
        assert 0 < s < 256
        for delta_eps, gamma_phi in ((0.0, 0.0), (1.0, 0.1), (2.5, 1e4)):
            m = model_on(hyper4, delta_eps, gamma_phi)
            dense = build_liouvillian(m).toarray()
            want = dense[s:, s:] - dense[s:, :s] @ np.linalg.solve(dense[:s, :s],
                                                                   dense[:s, s:])
            # T2 S: the tail's rows swapped with their transpose partners
            want = want[plan.partner[s:] - s]
            _, schur = dynamics._schur_complement(build_liouvillian(m), plan)
            assert schur.flags.f_contiguous
            assert np.abs(schur - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(schur - schur.T).max() <= 1e-12 * np.abs(want).max()
            got, f64 = efficiency_liouvillian(rho0, m), in_float64(rho0, m, monkeypatch)
            assert abs(got.eta - f64.eta) <= 1e-13 * f64.eta
            assert abs(got.eta_loss - f64.eta_loss) <= 1e-13 * f64.eta_loss
    finally:
        dynamics._plan.cache_clear()  # later tests get the shipped plan


def test_the_dense_tail_agrees_with_a_long_double_refinement(monkeypatch):
    # at Gamma = 0.01, test_float32_factors_refined_agree_with_the_float64_solve
    # holds hypercube d=6 to the float64 SuperLU solve. At Gamma = 1e-6 that
    # solve is itself up to 3.4e-9 off (delta_eps = 1, gamma_phi = 0), so
    # the route is held to six refinements of its own solve on residuals
    # summed in np.longdouble, which agree to 1e-15 with five of the float64
    # SuperLU solve (three leave that cell 3.3e-11 off). Without dephasing
    # the float64 residual's rounding stalls the corrections above
    # REFINE_TOL; the stalled iterate is returned, 3.5e-12 off at worst,
    # and no cell falls back
    hyper6 = build_hypercube(6)
    rho0 = initial_state(hyper6, UNIFORM_MIXTURE)
    converged, refined = [], dynamics._refined

    def spy(*args):
        y = refined(*args)
        converged.append(y is not None)
        return y

    monkeypatch.setattr(dynamics, "_refined", spy)
    for delta_eps, gamma_phi in itertools.product((0.0, 1.0, 2.5), (0.0, 0.1, 1.0, 1e4)):
        m = model_on(hyper6, delta_eps, gamma_phi, gamma=1e-6)
        got = efficiency_liouvillian(rho0, m)
        assert converged.pop()
        eta, eta_loss = refined_solve(rho0, m, steps=6, dense_tail=True)
        tol = 1e-11 if gamma_phi == 0 else 1e-13
        assert abs(got.eta - eta) <= tol * eta
        assert abs(got.eta_loss - eta_loss) <= tol * eta_loss


def stepping_solve(jitter, calls):
    """An exact solve but for ``jitter`` of alternating sign added to every
    component, so that each correction after the first moves the solution
    by 2 jitter and the refinement never converges."""
    def solve(r):
        calls.append(r)
        return r + (-1) ** len(calls) * jitter
    return solve


@pytest.mark.parametrize("jitter,stalls", [(1e-12, True), (1e-8, False)])
def test_a_refinement_that_stalls_below_the_bound_returns_its_iterate(jitter, stalls):
    a, b = sp.identity(4, format="csc"), np.ones(4)
    watched = (np.array([0]), np.arange(4))
    calls = []
    y = dynamics._refined(a, b, stepping_solve(jitter, calls), watched)
    if stalls:
        # the first solve gives 1 - jitter, and the next two move it by
        # 2 jitter each: at most STALL_TOL, and more than half of the move
        # before
        assert len(calls) == 3 and np.allclose(y, 1.0, rtol=0, atol=2 * jitter)
    else:
        assert len(calls) == dynamics.MAX_REFINEMENTS + 1 and y is None


def test_a_singular_tail_falls_back_to_the_float64_bits(monkeypatch):
    from scipy.linalg import lapack
    hyper6 = build_hypercube(6)
    m = model_on(hyper6, 1.0, 0.1)
    rho0 = initial_state(hyper6, UNIFORM_MIXTURE)
    want = in_float64(rho0, m, monkeypatch)
    dsytrf = lapack.dsytrf
    # LAPACK's info > 0: a block pivot of D is exactly zero
    monkeypatch.setattr(lapack, "dsytrf", lambda *args, **kw: dsytrf(*args, **kw)[:2] + (7,))
    seen = factor_dtypes(monkeypatch)
    assert same_bits(efficiency_liouvillian(rho0, m), want)
    assert seen == [np.float64] * 3  # the bordered head, its partner, the fallback


def test_the_dense_tail_is_predicted_before_it_is_factored(monkeypatch):
    hyper6 = build_hypercube(6)
    m = model_on(hyper6, 1.0, 0.1)
    rho0 = initial_state(hyper6, UNIFORM_MIXTURE)
    plan = dynamics._plan(hyper6.n_sites, hyper6.edges)
    # 1.6 MB of bordered head factors and the 30.3 MB tail pass the bound
    dynamics._check_factor_size(build_liouvillian(m), plan, int(plan.tail))
    seen, schurs = factor_dtypes(monkeypatch), []
    monkeypatch.setattr(dynamics, "_schur_complement", lambda *args: schurs.append(args))
    monkeypatch.setattr(dynamics, "MAX_FACTOR_MB", 31.0)
    with pytest.raises(dynamics.SolverError,
                       match="64-site generator would take about 31.88 MB"):
        efficiency_liouvillian(rho0, m)
    assert seen == [] and schurs == []
