import dataclasses
import gc
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enaqt import dynamics, ensemble
from enaqt.dynamics import (TRACE_TOL, EfficiencyResult, IntegrationError,
                            SolverError, _blas_on_one_thread, _integrate,
                            _openblas_thread_controls, compute_efficiency,
                            efficiency_liouvillian, efficiency_timestepping,
                            master_equation_rhs, propagate, propagate_pure)
from enaqt.graph import build_binary_tree, build_custom, build_hypercube
from enaqt.model import (LEAF_MIXTURE, SINGLE_SITE, TransportModel,
                         UNIFORM_MIXTURE, initial_state, sample_site_energies)
from test_direct_solve import (natural_map, reference_generator, reference_rhs,
                               reference_timestepping)

DIMER = build_custom(2, [(0, 1)])
CHAIN3 = build_custom(3, [(0, 1), (1, 2)])
CHAIN4 = build_custom(4, [(0, 1), (1, 2), (2, 3)])
TREE4 = build_binary_tree(4)
TREE5 = build_binary_tree(5)


def dimer_model(**kw):
    kw.setdefault("trap_site", 1)
    kw.setdefault("trap_rate", 0.0)
    kw.setdefault("recomb_rate", 0.0)
    return TransportModel(topology=DIMER, site_energies=(0.0, 0.0), **kw)


def random_density_matrix(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def rk4_reference(rhs, y0, t_final, steps):
    """Fixed-step classic Runge-Kutta, independent of the adaptive path."""
    h = t_final / steps
    y = y0.astype(complex)
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


# --- master-equation right-hand side ---

def test_rhs_is_zero_at_zero_state():
    m = dimer_model(dephasing_rate=0.3, trap_rate=1.0, recomb_rate=0.01)
    assert np.array_equal(master_equation_rhs(np.zeros((2, 2)), m),
                          np.zeros((2, 2)))


def test_rhs_unitary_limit_is_commutator():
    m = dimer_model()
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    rhs = master_equation_rhs(rho, m)
    h = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(rhs, -1j * (h @ rho - rho @ h))
    assert abs(np.trace(rhs)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rhs_trace_identity(seed):
    # tr(rhs) = -2*Gamma*tr(rho) - 2*kappa*rho[trap, trap]
    rng = np.random.default_rng(seed)
    m = TransportModel(topology=CHAIN4,
                       site_energies=tuple(rng.normal(size=4)), trap_site=2,
                       trap_rate=rng.uniform(0, 2), recomb_rate=rng.uniform(0, 0.5),
                       dephasing_rate=rng.uniform(0, 3))
    rho = random_density_matrix(4, rng)
    got = np.trace(master_equation_rhs(rho, m))
    want = (-2 * m.recomb_rate * np.trace(rho)
            - 2 * m.trap_rate * rho[m.trap_site, m.trap_site])
    assert abs(got - want) < 1e-12


def test_rhs_rejects_wrong_shape():
    with pytest.raises(ValueError):
        master_equation_rhs(np.zeros((3, 3)), dimer_model())


@pytest.mark.parametrize("size", [2, 4])
def test_time_stepping_rejects_a_state_of_another_size(size):
    # the stage kernel reads y without checking its length, so a state of
    # the wrong size must stop at entry
    m = TransportModel(topology=CHAIN3, site_energies=(0.0, 0.0, 0.0), trap_site=2,
                       trap_rate=1.0, recomb_rate=0.1, dephasing_rate=0.2)
    rho0 = np.eye(size) / size
    for stepper in (efficiency_timestepping, lambda r, m: propagate(r, m, 1.0, 5),
                    lambda r, m: compute_efficiency(r, m, "timestepping"),
                    efficiency_liouvillian,
                    lambda r, m: compute_efficiency(r, m, "liouvillian")):
        with pytest.raises(ValueError, match="does not match 3 sites"):
            stepper(rho0, m)


def test_rhs_rejects_a_non_hermitian_state():
    # the right-hand side forms rho H^dag as (H rho)^dag
    m = dimer_model(dephasing_rate=0.3, trap_rate=1.0, recomb_rate=0.01)
    with pytest.raises(ValueError, match="not Hermitian"):
        master_equation_rhs(np.array([[0.5, 0.1], [0.0, 0.5]]), m)
    nearly = np.array([[0.5, 0.1 + 1e-13j], [0.1, 0.5]])
    master_equation_rhs(nearly, m)


# --- propagation ---

def test_dimer_rabi_oscillation():
    # closed dimer from |0><0|: rho_00(t) = cos^2(V t)
    m = dimer_model()
    rho0 = initial_state(DIMER, SINGLE_SITE, site=0)
    traj = propagate(rho0, m, np.pi / 2, n_points=3)
    pops = traj.states[:, 0, 0].real
    assert abs(pops[1] - 0.5) < 1e-6
    assert abs(pops[2]) < 1e-6


def test_propagate_trace_nonincreasing_and_physical():
    t = build_binary_tree(4)
    m = TransportModel(topology=t, site_energies=(0.0,) * 15, trap_site=0,
                       trap_rate=1.0, recomb_rate=0.01, dephasing_rate=0.4)
    rho0 = initial_state(t, SINGLE_SITE, site=14)
    traj = propagate(rho0, m, 20.0, n_points=200)
    traces = np.einsum("tii->t", traj.states).real
    assert np.all(np.diff(traces) <= 1e-9)
    herm = np.abs(traj.states - traj.states.conj().transpose(0, 2, 1)).max()
    assert herm < 1e-10
    for k in (0, 100, 199):
        assert np.linalg.eigvalsh(traj.states[k]).min() >= -1e-8


def test_propagate_overdamped_dimer():
    # pure dephasing at damping rate 100: rho_01(t) = 0.5 exp(-100 t)
    m = dimer_model(dephasing_rate=200.0)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    traj = propagate(rho0, m, 0.1, n_points=2)
    off = traj.states[-1, 0, 1]
    assert abs(off) / 0.5 < 1e-4
    assert abs(off - 0.5 * np.exp(-10.0)) < 1e-9
    # independent fixed-step reference on the density matrix itself
    ref = rk4_reference(lambda t, rho: master_equation_rhs(rho, m), rho0,
                        0.1, 4000)
    assert abs(off - ref[0, 1]) < 1e-9


@pytest.mark.filterwarnings("error")
def test_propagate_validates_inputs(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solve_ivp reached with a bad input")

    monkeypatch.setattr("scipy.integrate.solve_ivp", unreachable)
    m = dimer_model()
    with pytest.raises(ValueError):
        propagate(np.eye(2, dtype=complex), m, 1.0)  # trace 2
    for t_final in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            propagate(np.eye(2, dtype=complex) / 2, m, t_final)
        with pytest.raises(ValueError):
            propagate_pure(np.array([1.0 + 0j, 0.0]), m, t_final)


def run_python(code):
    """stdout of a fresh interpreter that runs code with enaqt importable."""
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


STEP_DIMER = ("from enaqt.dynamics import efficiency_timestepping as step; "
              "from enaqt.graph import build_custom; "
              "from enaqt.model import TransportModel, initial_state, SINGLE_SITE; "
              "g = build_custom(2, [(0, 1)]); "
              "m = TransportModel(topology=g, site_energies=(0.0, 0.5), trap_site=1, "
              "trap_rate=1.0, recomb_rate=0.01, dephasing_rate=0.3); "
              "rho0 = initial_state(g, SINGLE_SITE, site=0); ")
UNLOADED = "; print([m in sys.modules for m in ('scipy.integrate', 'scipy.optimize')])"


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    # only trajectories need solve_ivp; start-up of every other path
    # should not pay for importing it
    assert run_python("import sys, enaqt, enaqt.cli; "
                      "print('scipy.integrate' in sys.modules)").strip() == "False"
    # time stepping loads Hairer's DOP853 alone, not the packages around it
    assert run_python("import sys; " + STEP_DIMER + "step(rho0, m)"
                      + UNLOADED).strip() == "[False, False]"
    cli = ("import sys; from enaqt.cli import main; main(['single', '--graph', "
           "'binary-tree', '--generations', '3', '--solver', 'timestepping'])")
    assert run_python(cli + UNLOADED).splitlines()[-1] == "[False, False]"
    # after propagate, which imports scipy.integrate, time stepping runs the
    # DOP853 that scipy loaded, with the bits of a fresh process
    fresh = run_python(STEP_DIMER + "print(repr(step(rho0, m)))")
    after = run_python(
        "import sys; from enaqt.dynamics import propagate; " + STEP_DIMER
        + "propagate(rho0, m, 1.0, n_points=2); "
        "assert 'scipy.integrate._dop' in sys.modules; print(repr(step(rho0, m)))")
    assert after == fresh
    # and scipy.integrate, imported after a stepped solve, reuses the
    # extension that time stepping loaded
    around = run_python(
        "import sys; from enaqt.dynamics import propagate, _dopri853; " + STEP_DIMER
        + "print(repr(step(rho0, m))); propagate(rho0, m, 1.0, n_points=2); "
        "assert sys.modules['scipy.integrate._dop'].dopri853 is _dopri853(); "
        "print(repr(step(rho0, m)))")
    assert around == fresh * 2


def test_integration_error_reports_the_last_accepted_time():
    # y' = y^2 from y(0) = 1 blows up at t = 1; the failed run never
    # reaches the grid's last point, t_final
    with pytest.raises(IntegrationError) as info:
        _integrate(lambda t, y: y ** 2, 2.0, np.array([1.0]), n_points=2)
    assert abs(info.value.time_reached - 1.0) < 1e-6


def test_dephasing_leaves_diagonal_invariant_without_hopping():
    # no edges, kappa = Gamma = 0: populations are frozen
    bare = build_custom(4, [])
    rng = np.random.default_rng(8)
    m = TransportModel(topology=bare, site_energies=tuple(rng.normal(size=4)),
                       trap_site=0, trap_rate=0.0, recomb_rate=0.0,
                       dephasing_rate=2.0)
    rho0 = random_density_matrix(4, rng)
    traj = propagate(rho0, m, 5.0, n_points=50)
    diags = np.einsum("tii->ti", traj.states).real
    assert np.abs(diags - diags[0]).max() < 1e-10


# --- pure-state propagation ---

def test_pure_single_site_phase():
    single = build_custom(1, [])
    m = TransportModel(topology=single, site_energies=(0.7,), trap_site=0,
                       trap_rate=0.0, recomb_rate=0.0)
    traj = propagate_pure(np.array([1.0 + 0j]), m, 3.0, n_points=7)
    expected = np.exp(-1j * 0.7 * traj.times)
    assert np.abs(traj.states[:, 0] - expected).max() < 1e-8


def test_pure_matches_density_propagation():
    t = build_binary_tree(3)
    m = TransportModel(topology=t, site_energies=(0.0,) * 7, trap_site=0,
                       trap_rate=1.0, recomb_rate=0.01)
    psi0 = np.zeros(7, dtype=complex)
    psi0[6] = 1.0
    pure = propagate_pure(psi0, m, 10.0, n_points=40)
    dens = propagate(np.outer(psi0, psi0.conj()), m, 10.0, n_points=40)
    outers = np.einsum("ti,tj->tij", pure.states, pure.states.conj())
    assert np.abs(outers - dens.states).max() < 1e-6


def test_pure_parity_structure_on_tree():
    # bipartite lattice from a real start: amplitudes alternate real/imaginary
    t = build_binary_tree(3)
    m = TransportModel(topology=t, site_energies=(0.0,) * 7, trap_site=0,
                       trap_rate=1.0, recomb_rate=0.01)
    psi0 = np.zeros(7, dtype=complex)
    psi0[6] = 1.0
    traj = propagate_pure(psi0, m, 15.0, n_points=300)
    assert np.abs(traj.states[:, 0].imag).max() < 1e-8
    assert np.abs(traj.states[:, 1].real).max() < 1e-8
    assert np.abs(traj.states[:, 2].real).max() < 1e-8


def test_pure_rejects_dephasing_and_bad_norm():
    with pytest.raises(ValueError):
        propagate_pure(np.array([1.0 + 0j, 0.0]),
                       dimer_model(dephasing_rate=0.1), 1.0)
    with pytest.raises(ValueError):
        propagate_pure(np.array([1.0 + 0j, 1.0]), dimer_model(), 1.0)


# --- efficiency solvers ---

def test_zero_trapping_rate_gives_zero_efficiency():
    m = dimer_model(trap_rate=0.0, recomb_rate=0.01)
    rho0 = initial_state(DIMER, SINGLE_SITE, site=0)
    assert efficiency_timestepping(rho0, m).eta == 0.0
    assert efficiency_liouvillian(rho0, m).eta == 0.0


def test_single_site_trap_closed_form():
    # trap-only site: eta = kappa / (kappa + Gamma)
    single = build_custom(1, [])
    m = TransportModel(topology=single, site_energies=(0.0,), trap_site=0,
                       trap_rate=1.0, recomb_rate=0.01)
    rho0 = np.array([[1.0 + 0j]])
    want = 1.0 / 1.01
    assert abs(efficiency_timestepping(rho0, m).eta - want) < 1e-6
    assert abs(efficiency_liouvillian(rho0, m).eta - want) < 1e-6


def test_cross_solver_agreement_dimer():
    m = dimer_model(trap_rate=1.0, recomb_rate=0.01)
    rho0 = initial_state(DIMER, SINGLE_SITE, site=0)
    a = efficiency_liouvillian(rho0, m)
    b = efficiency_timestepping(rho0, m)
    assert abs(a.eta - b.eta) < 1e-6
    assert a.method == "liouvillian-solve"
    assert b.method == "time-stepping"
    assert b.horizon <= np.log(1e7) / 0.02 + 1e-9


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_trace_bookkeeping_budget(seed):
    rng = np.random.default_rng(seed)
    m = TransportModel(topology=CHAIN3,
                       site_energies=tuple(sample_site_energies(0.8, seed, 0, 3)),
                       trap_site=0, trap_rate=1.0, recomb_rate=0.05,
                       dephasing_rate=rng.uniform(0, 1))
    rho0 = random_density_matrix(3, rng)
    for res in (efficiency_timestepping(rho0, m), efficiency_liouvillian(rho0, m)):
        assert abs(res.eta + res.eta_loss + res.residual_trace - 1.0) < 1e-6


def test_trap_in_another_component_gives_positive_zero():
    # the excitation starts on the pair {0, 1}; the trap sits on {2, 3}
    split = build_custom(4, [(0, 1), (2, 3)])
    m = TransportModel(topology=split,
                       site_energies=tuple(sample_site_energies(1.0, 0, 0, 4)),
                       trap_site=3, trap_rate=1.0, recomb_rate=0.01,
                       dephasing_rate=0.5)
    rho0 = initial_state(split, SINGLE_SITE, site=0)
    for res in (efficiency_timestepping(rho0, m), efficiency_liouvillian(rho0, m)):
        assert res.eta == 0.0
        assert math.copysign(1.0, res.eta) == 1.0
        assert abs(res.eta + res.eta_loss + res.residual_trace - 1.0) < 1e-9


def test_timestepping_keeps_no_trajectory():
    # the run itself peaks near 0.1 MB; its states at about 1,800 steps of
    # 227 reals would take 3.2 MB, and DOP853's dense output of every step
    # near 30 MB. A first run, untraced, makes the one-time loads and
    # caches (the compiled DOP853, the graph's entry list)
    rho0 = initial_state(TREE4, LEAF_MIXTURE)
    m = TransportModel(topology=TREE4, site_energies=(0.0,) * 15, trap_site=0,
                       trap_rate=1.0, recomb_rate=0.01, dephasing_rate=0.01)
    efficiency_timestepping(rho0, m)
    tracemalloc.start()
    try:
        efficiency_timestepping(rho0, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_timestepping_leaves_no_state_sized_memory_behind():
    # scipy's compiled DOP853 keeps a reference to the callbacks of each
    # run: with new callbacks per call, each tree g=3 call left 1.7 kB
    # behind, and callbacks that reached the map, the states and the work
    # arrays would leave several kB; fixed callbacks left 26-46 B a call
    tree3 = build_binary_tree(3)
    rho0 = initial_state(tree3, LEAF_MIXTURE)
    m = TransportModel(topology=tree3, site_energies=(0.0,) * 7, trap_site=0,
                       trap_rate=1.0, recomb_rate=0.05, dephasing_rate=1.0)
    efficiency_timestepping(rho0, m)
    tracemalloc.start()
    try:
        efficiency_timestepping(rho0, m)
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(100):
            efficiency_timestepping(rho0, m)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (after - before) / 100 < 300


def test_timestepping_returns_the_state_where_the_trace_event_fired():
    m = dimer_model(trap_rate=1.0, recomb_rate=0.01, dephasing_rate=0.3)
    res = efficiency_timestepping(initial_state(DIMER, SINGLE_SITE, site=0), m)
    assert res.horizon < math.log(1.0 / TRACE_TOL) / (2.0 * m.recomb_rate)
    assert abs(res.residual_trace - TRACE_TOL) < 1e-12


def test_timestepping_of_a_zero_state_runs_to_the_horizon():
    # its trace starts below TRACE_TOL and never falls through it
    m = dimer_model(trap_rate=1.0, recomb_rate=0.01, dephasing_rate=0.3)
    res = efficiency_timestepping(np.zeros((2, 2), dtype=complex), m)
    assert (res.eta, res.eta_loss, res.residual_trace) == (0.0, 0.0, 0.0)
    assert res.horizon == pytest.approx(math.log(1.0 / TRACE_TOL) / (2.0 * m.recomb_rate))


ORACLE_HARD_CASES = [
    # the Zeno regime: gamma_phi = 1e3 damps coherences 500 times faster
    # than they hop, which makes the equation stiff for DOP853
    pytest.param(DIMER, 1.0, 1.0, 1e3, 0.0, initial_state(DIMER, SINGLE_SITE, site=1),
                 id="zeno-dimer"),
    pytest.param(build_binary_tree(3), 1.0, 1.0, 1e3, 0.0,
                 initial_state(build_binary_tree(3), LEAF_MIXTURE), id="zeno-tree3"),
    # ten times deeper, where Hairer's stiffness test, left on, gives up
    pytest.param(DIMER, 1.0, 1.0, 1e4, 0.0, initial_state(DIMER, SINGLE_SITE, site=1),
                 id="stiff-dimer"),
    pytest.param(build_binary_tree(3), 1.0, 1.0, 1e4, 0.0,
                 initial_state(build_binary_tree(3), LEAF_MIXTURE), id="stiff-tree3"),
    # the dimer exceptional point kappa = 2V, where H_eff is defective
    *[pytest.param(DIMER, 2.0, gamma, gamma_phi, 0.0,
                   initial_state(DIMER, SINGLE_SITE, site=1),
                   id=f"ep-dimer-gamma{gamma:g}-dephasing{gamma_phi:g}")
      for gamma in (0.01, 1e-3) for gamma_phi in (0.0, 0.5)],
    # disordered and dephased graphs past N = 24
    pytest.param(build_binary_tree(6), 1.0, 0.01, 1.0, 1.0,
                 initial_state(build_binary_tree(6), LEAF_MIXTURE), id="tree6-leaves"),
    pytest.param(build_hypercube(5), 1.0, 0.01, 1.0, 1.0,
                 initial_state(build_hypercube(5), UNIFORM_MIXTURE),
                 id="hypercube5-uniform"),
]


def hard_case_model(topology, kappa, gamma, gamma_phi, delta_eps):
    energies = tuple(sample_site_energies(delta_eps, 0, 0, topology.n_sites))
    return TransportModel(topology=topology, site_energies=energies, trap_site=0,
                          trap_rate=kappa, recomb_rate=gamma, dephasing_rate=gamma_phi)


@pytest.mark.parametrize("topology,kappa,gamma,gamma_phi,delta_eps,rho0",
                         ORACLE_HARD_CASES)
def test_oracle_matches_the_direct_solve_in_hard_regimes(topology, kappa, gamma,
                                                         gamma_phi, delta_eps, rho0):
    m = hard_case_model(topology, kappa, gamma, gamma_phi, delta_eps)
    stepped = efficiency_timestepping(rho0, m)
    direct = efficiency_liouvillian(rho0, m)
    assert abs(stepped.eta - direct.eta) < 1e-6
    assert abs(stepped.eta - direct.eta) < 1e-4 * direct.eta
    for res in (stepped, direct):
        assert abs(res.eta + res.eta_loss + res.residual_trace - 1.0) < 1e-9


def tree5_oracle_cell(delta_eps, gamma_phi, draw):
    # a cell of the oracle-tree5 benchmark at seed 1
    energies = delta_eps * np.random.default_rng([1, draw]).standard_normal(31)
    return TransportModel(topology=TREE5, site_energies=tuple(energies), trap_site=0,
                          trap_rate=1.0, recomb_rate=0.01, dephasing_rate=gamma_phi)


def lossless_dimer(gamma_phi):
    return TransportModel(topology=DIMER, site_energies=(0.0, 0.5), trap_site=0,
                          trap_rate=1.0, recomb_rate=0.0, dephasing_rate=gamma_phi)


REFERENCE_CASES = [
    # the oracle-tree5 cells of draws 0-3, which stop on the trace (True);
    # the ordered ones repeat in each draw
    *[pytest.param(initial_state(TREE5, LEAF_MIXTURE), tree5_oracle_cell(0.0, g, 0), True,
                   id=f"tree5-ordered-dephasing{g:g}") for g in (0.01, 1.0)],
    *[pytest.param(initial_state(TREE5, LEAF_MIXTURE), tree5_oracle_cell(1.0, g, k), True,
                   id=f"tree5-draw{k}-dephasing{g:g}") for k in range(4) for g in (0.01, 1.0)],
    *[pytest.param(case.values[-1], hard_case_model(*case.values[:-1]), False, id=case.id)
      for case in ORACLE_HARD_CASES if case.id.startswith(("zeno-", "ep-"))],
    # Gamma = 0: the fallback horizon, which trapping empties the dimer before
    *[pytest.param(initial_state(DIMER, SINGLE_SITE, site=1), lossless_dimer(g), False,
                   id=f"lossless-dimer-dephasing{g:g}") for g in (0.0, 0.3)],
]


@pytest.mark.parametrize("rho0,m,on_trace", REFERENCE_CASES)
def test_compiled_stepper_matches_the_solve_ivp_reference(rho0, m, on_trace):
    got, want = efficiency_timestepping(rho0, m), reference_timestepping(rho0, m)
    assert abs(got.eta - want.eta) < 1e-9
    assert abs(got.eta_loss - want.eta_loss) < 1e-9
    if on_trace:
        # bisection to adjacent floats on the interpolant of the last step
        # ends on the side below TRACE_TOL, within about 1e-23 of it here
        assert got.horizon < math.log(1.0 / TRACE_TOL) / (2.0 * m.recomb_rate)
        assert got.residual_trace < TRACE_TOL
        assert TRACE_TOL - got.residual_trace <= 1e-21


def test_step_control_saves_right_hand_side_calls(monkeypatch):
    # Gustafsson's PI control removes most rejected steps: on this cell
    # 21,103 calls fell to 18,772 (-11.0%, scipy 1.17.1; -7.5% to -13.7%
    # on draws 0-7); the comparison is relative, so it holds across scipy
    # versions that keep Hairer's controller
    calls = []
    product = dynamics._product

    def counted(a):
        f = product(a)

        def g(t, y):
            calls[-1] += 1
            return f(t, y)
        return g

    monkeypatch.setattr(dynamics, "_product", counted)
    rho0, m = initial_state(TREE5, LEAF_MIXTURE), tree5_oracle_cell(1.0, 0.01, 0)
    results = []
    for beta in (dynamics.STEP_BETA, 0.0):
        monkeypatch.setattr(dynamics, "STEP_BETA", beta)
        calls.append(0)
        results.append(efficiency_timestepping(rho0, m))
    assert calls[0] <= 0.9 * calls[1]
    assert abs(results[0].eta - results[1].eta) < 1e-9


def test_threads_that_step_at_once_get_their_own_results():
    # every call shares the process's one compiled solver; four threads on
    # two cores, switching often, must each get the bits of a serial run
    tree3 = build_binary_tree(3)
    rho0 = initial_state(tree3, LEAF_MIXTURE)
    models = [TransportModel(topology=tree3,
                             site_energies=tuple(sample_site_energies(1.0, k, 0, 7)),
                             trap_site=0, trap_rate=1.0, recomb_rate=0.05,
                             dephasing_rate=0.1 * (k + 1)) for k in range(4)]
    serial = [efficiency_timestepping(rho0, m) for m in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(efficiency_timestepping, rho0, m)
                       for m in models * 3]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [dataclasses.astuple(r) for r in threaded] == \
        [dataclasses.astuple(r) for r in serial] * 3


@pytest.mark.filterwarnings("error")
def test_compiled_stepper_raises_integration_error_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
    m = dimer_model(trap_rate=1.0, recomb_rate=0.01, dephasing_rate=0.3)
    with pytest.raises(IntegrationError) as info:
        efficiency_timestepping(initial_state(DIMER, SINGLE_SITE, site=0), m)
    t_max = math.log(1.0 / TRACE_TOL) / (2.0 * m.recomb_rate)
    assert 0 < info.value.time_reached < t_max


def test_liouvillian_requires_positive_recombination():
    with pytest.raises(ValueError):
        efficiency_liouvillian(initial_state(DIMER, SINGLE_SITE, site=0),
                               dimer_model(trap_rate=1.0, recomb_rate=0.0))


def test_timestepping_without_recombination_reports_horizon(monkeypatch):
    # Gamma = 0: truncation at the fallback horizon, eta is a lower bound
    monkeypatch.setattr(dynamics, "FALLBACK_HORIZON", 5.0)
    m = dimer_model(trap_rate=0.0, recomb_rate=0.0)
    rho0 = initial_state(DIMER, SINGLE_SITE, site=0)
    res = efficiency_timestepping(rho0, m)
    assert res.eta == 0.0
    assert res.eta_loss == 0.0
    assert abs(res.residual_trace - 1.0) < 1e-8
    assert res.horizon == 5.0


def test_timestepping_rejects_a_horizon_that_overflows(monkeypatch):
    # ln(1/TRACE_TOL) / (2 Gamma) is inf at Gamma = 1e-320; no step is taken
    def unreachable(*args, **kwargs):
        raise AssertionError("the stepper ran with an infinite horizon")

    monkeypatch.setattr(dynamics, "_dopri853", unreachable)
    m = dimer_model(trap_rate=1.0, recomb_rate=1e-320)
    with pytest.raises(ValueError, match=r"recomb_rate .* horizon .* overflows"):
        efficiency_timestepping(initial_state(DIMER, SINGLE_SITE, site=0), m)


def test_timestepping_names_the_scipy_it_needs(monkeypatch):
    # scipy before 1.17 called its compiled DOP853 with another signature
    monkeypatch.setattr(dynamics.scipy, "__version__", "1.15.3")
    with pytest.raises(ImportError, match=r"scipy >= 1\.17, found 1\.15\.3"):
        dynamics._dopri853.__wrapped__()


@pytest.mark.parametrize("gamma_phi", [0.0, 0.3])
def test_timestepping_without_recombination_stops_on_the_trace(gamma_phi):
    # Gamma = 0 selects the fallback horizon; trapping empties the dimer
    # long before it, and the direct solve at Gamma -> 0 gives the same eta
    rho0 = initial_state(DIMER, SINGLE_SITE, site=1)
    res = efficiency_timestepping(rho0, lossless_dimer(gamma_phi))
    assert res.eta_loss == 0.0
    assert abs(res.eta + res.eta_loss + res.residual_trace - 1.0) < 1e-12
    assert res.residual_trace == pytest.approx(TRACE_TOL)  # the trace event
    assert res.horizon < dynamics.FALLBACK_HORIZON / 100
    nearly = dataclasses.replace(lossless_dimer(gamma_phi), recomb_rate=1e-9)
    assert abs(res.eta - efficiency_liouvillian(rho0, nearly).eta) < 1e-6


def test_global_energy_shift_leaves_efficiency_unchanged():
    rng = np.random.default_rng(21)
    eps = rng.normal(size=4)
    rho0 = random_density_matrix(4, rng)
    etas = []
    for shift in (0.0, 7.3):
        m = TransportModel(topology=CHAIN4, site_energies=tuple(eps + shift),
                           trap_site=0, trap_rate=1.0, recomb_rate=0.01,
                           dephasing_rate=0.3)
        etas.append(efficiency_liouvillian(rho0, m).eta)
    assert abs(etas[0] - etas[1]) < 1e-9


def test_compute_efficiency_dispatch():
    m = dimer_model(trap_rate=1.0, recomb_rate=0.01)
    rho0 = initial_state(DIMER, SINGLE_SITE, site=0)
    assert isinstance(compute_efficiency(rho0, m, solver="liouvillian"),
                      EfficiencyResult)
    assert compute_efficiency(rho0, m, solver="timestepping").method == "time-stepping"
    with pytest.raises(ValueError):
        compute_efficiency(rho0, m, solver="magic")


def test_generator_applies_the_master_equation():
    t = build_binary_tree(3)
    rng = np.random.default_rng(5)
    m = TransportModel(topology=t, site_energies=tuple(rng.normal(size=7)),
                       trap_site=2, trap_rate=0.7, recomb_rate=0.03,
                       dephasing_rate=0.4)
    rho = random_density_matrix(7, rng)
    z = (rho.real + rho.imag).ravel()
    want = reference_rhs(m, z)
    rhs = master_equation_rhs(rho, m)
    for got in (natural_map(m) @ z, (rhs.real + rhs.imag).ravel()):
        assert np.abs(got - want).max() < 1e-13


HARD_CASES = [
    # strong disorder, no dephasing, almost no loss: far from diagonal
    # dominance, where SuperLU without threshold pivoting breaks down
    *[pytest.param(TREE4, tuple(sample_site_energies(10.0, seed, 0, 15)), kappa,
                   0.0, initial_state(TREE4, LEAF_MIXTURE),
                   id=f"tree4-kappa{kappa:g}-seed{seed}")
      for kappa in (1.0, 2.0, 50.0) for seed in range(3)],
    # the dimer exceptional point kappa = 2V
    *[pytest.param(DIMER, (0.0, 0.0), 2.0, gamma_phi,
                   initial_state(DIMER, SINGLE_SITE, site=1),
                   id=f"dimer-ep-dephasing{gamma_phi:g}")
      for gamma_phi in (0.0, 0.5)],
]


@pytest.mark.parametrize("topology,energies,kappa,gamma_phi,rho0", HARD_CASES)
def test_direct_solve_in_hard_regimes(topology, energies, kappa, gamma_phi, rho0):
    m = TransportModel(topology=topology, site_energies=energies, trap_site=0,
                       trap_rate=kappa, recomb_rate=1e-9,
                       dephasing_rate=gamma_phi)
    res = efficiency_liouvillian(rho0, m)
    x = np.linalg.solve(reference_generator(m).toarray(), -rho0.flatten(order="F"))
    assert abs(res.eta - 2 * kappa * x[0].real) < 1e-6
    assert abs(res.eta + res.eta_loss - 1.0) < 1e-9


def test_direct_solve_rejects_a_large_backward_error(monkeypatch):
    splu = spla.splu

    class Perturbed:
        def __init__(self, lu, factor):
            self.lu, self.factor = lu, factor

        def solve(self, b):
            return self.lu.solve(b) * self.factor

    # above MIXED_PRECISION_NNZ no refinement repairs a solve scaled by 3,
    # so the float64 solve runs, scaled as well
    cases = ((DIMER, 1 + 1e-6), (build_hypercube(5), 3.0))
    for topology, _ in cases:
        # the plan's pattern factor is read for its order, not solved with
        dynamics._plan(topology.n_sites, topology.edges)
    for topology, factor in cases:
        monkeypatch.setattr(spla, "splu",
                            lambda *a, **kw: Perturbed(splu(*a, **kw), factor))
        m = TransportModel(topology=topology, site_energies=(0.0,) * topology.n_sites,
                           trap_site=0, trap_rate=1.0, recomb_rate=0.01,
                           dephasing_rate=0.3)
        with pytest.raises(SolverError, match="backward error"):
            efficiency_liouvillian(initial_state(topology, SINGLE_SITE, site=1), m)


def test_direct_solve_builds_one_generator_and_one_factor(monkeypatch):
    # the benchmark traces these two calls inside every direct solve, in
    # float64 and in float32 alike; a graph's first solve also factors its
    # pattern once, for the order
    calls = []
    build, splu = dynamics.build_liouvillian, spla.splu

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dynamics, "build_liouvillian", spy("generator", build))
    monkeypatch.setattr(spla, "splu", spy("splu", splu))
    for t, kind in ((build_binary_tree(3), LEAF_MIXTURE),
                    (build_hypercube(5), UNIFORM_MIXTURE)):
        dynamics._plan.cache_clear()
        grid = ensemble.SweepGrid(topology=t, disorder_values=(0.5,),
                                  dephasing_values=(0.1,), n_realizations=1,
                                  initial_kind=kind)
        calls.clear()
        ensemble.run_point(grid, 0.5, 0.1, 0)
        assert calls == ["splu", "generator", "splu"]
        calls.clear()
        ensemble.run_point(grid, 0.5, 0.1, 0)
        assert calls == ["generator", "splu"]
        calls.clear()
        efficiency_liouvillian(grid.initial_state(), grid.model(0.5, 0.1, 0))
        assert calls == ["generator", "splu"]


def test_time_stepping_never_builds_the_order(monkeypatch):
    # the order is the direct solve's alone; on hypercube d=7 building it
    # takes about 6 s and 190 MB
    def unreachable(*args, **kwargs):
        raise AssertionError("the direct solve's order was built")

    monkeypatch.setattr(dynamics, "_plan", unreachable)
    monkeypatch.setattr(spla, "splu", unreachable)
    dynamics._entries.cache_clear()
    t = build_custom(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    m = TransportModel(topology=t, site_energies=(0.0, 0.3, -0.2, 0.1, 0.4),
                       trap_site=0, trap_rate=1.0, recomb_rate=0.05,
                       dephasing_rate=0.2)
    rho0 = initial_state(t, SINGLE_SITE, site=4)
    res = efficiency_timestepping(rho0, m)
    assert abs(res.eta + res.eta_loss + res.residual_trace - 1.0) < 1e-9
    propagate(rho0, m, 5.0, n_points=10)
    master_equation_rhs(rho0, m)


def test_time_stepping_never_calls_the_sparse_product(monkeypatch):
    # every stage runs scipy's CSR kernel directly, without the Python
    # dispatch of ``@``, which cost more than the kernel on tree g=5
    def unreachable(*args, **kwargs):
        raise AssertionError("scipy's sparse @ was called")

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", unreachable)
    t = build_binary_tree(3)
    m = TransportModel(topology=t, site_energies=tuple(sample_site_energies(1.0, 0, 0, 7)),
                       trap_site=0, trap_rate=1.0, recomb_rate=0.05,
                       dephasing_rate=0.2)
    with pytest.raises(AssertionError):
        dynamics._real_map(m) @ np.zeros(49)
    rho0 = initial_state(t, LEAF_MIXTURE)
    res = efficiency_timestepping(rho0, m)
    # the trace crossing stopped it, so the Hermite end slopes were taken
    assert res.horizon < math.log(1.0 / TRACE_TOL) / (2.0 * m.recomb_rate)
    propagate(rho0, m, 5.0, n_points=10)
    master_equation_rhs(rho0, m)


def set_openblas_threads(counts):
    for (set_threads, _), n in zip(_openblas_thread_controls(), counts):
        set_threads(n)


def openblas_threads():
    return [get() for _, get in _openblas_thread_controls()]


def test_compute_efficiency_runs_blas_on_one_thread_and_restores_the_caller():
    caller = openblas_threads()
    if not caller:
        pytest.skip("no OpenBLAS library found in this process")
    hyper5 = build_hypercube(5)
    # LU fill on the disordered hypercube reaches threaded BLAS in SuperLU;
    # pinned, the caller's thread count must not change eta
    energies = np.random.default_rng(1).normal(0.0, 1.4, 32)
    m = TransportModel(topology=hyper5, site_energies=tuple(energies),
                       trap_site=0, trap_rate=1.0, recomb_rate=0.01,
                       dephasing_rate=1.0)
    rho0 = initial_state(hyper5, UNIFORM_MIXTURE)
    etas = []
    try:
        for n in (2, 1):
            set_openblas_threads([n] * len(caller))
            with _blas_on_one_thread():
                assert openblas_threads() == [1] * len(caller)
            etas.append(compute_efficiency(rho0, m).eta)
            assert openblas_threads() == [n] * len(caller)
    finally:
        set_openblas_threads(caller)
    assert etas[0] == etas[1]


@pytest.mark.parametrize("solve,inner,raising", [
    (efficiency_liouvillian, "_factor",
     lambda rho0, m: efficiency_liouvillian(
         rho0, dataclasses.replace(m, recomb_rate=0.0)))],
    ids=["liouvillian"])
def test_direct_solver_call_runs_blas_on_one_thread_and_restores_the_caller(
        solve, inner, raising, monkeypatch):
    caller = openblas_threads()
    if not caller:
        pytest.skip("no OpenBLAS library found in this process")
    seen = []
    original = getattr(dynamics, inner)

    def spy(*args, **kwargs):
        seen.append(openblas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, inner, spy)
    t = build_binary_tree(3)
    m = TransportModel(topology=t, site_energies=(0.0,) * 7, trap_site=0,
                       trap_rate=1.0, recomb_rate=0.05, dephasing_rate=0.1)
    rho0 = initial_state(t, LEAF_MIXTURE)
    two = [2] * len(caller)
    try:
        set_openblas_threads(two)
        solve(rho0, m)
        assert seen and all(s == [1] * len(caller) for s in seen)
        assert openblas_threads() == two
        seen.clear()
        with pytest.raises(ValueError):
            raising(rho0, m)
        assert all(s == [1] * len(caller) for s in seen)
        assert openblas_threads() == two
    finally:
        set_openblas_threads(caller)


def test_stepped_eta_keeps_its_bits_on_one_and_two_blas_threads():
    # time stepping runs unpinned: its products are sparse and DOP853's
    # stage sums are compiled loops, so no BLAS call reaches eta
    caller = openblas_threads()
    if not caller:
        pytest.skip("no OpenBLAS library found in this process")
    hyper5 = build_hypercube(5)
    energies = np.random.default_rng(1).normal(0.0, 1.4, 32)
    m = TransportModel(topology=hyper5, site_energies=tuple(energies),
                       trap_site=0, trap_rate=1.0, recomb_rate=0.01,
                       dephasing_rate=1.0)
    rho0 = initial_state(hyper5, UNIFORM_MIXTURE)
    etas = []
    try:
        for n in (2, 1):
            set_openblas_threads([n] * len(caller))
            etas.append(efficiency_timestepping(rho0, m).eta)
            assert openblas_threads() == [n] * len(caller)
    finally:
        set_openblas_threads(caller)
    assert etas[0] == etas[1]


# --- trap observables ---

def test_trap_observables_initial_values():
    t = build_binary_tree(3)
    m = TransportModel(topology=t, site_energies=(0.0,) * 7, trap_site=0,
                       trap_rate=1.0, recomb_rate=0.01)
    rho0 = initial_state(t, SINGLE_SITE, site=6)
    traj = propagate(rho0, m, 5.0, n_points=100)
    assert traj.states[0, 0, 0].real == 0.0
    assert traj.states[0, 0, 1].imag == 0.0


def test_trap_population_rate_equation_residual():
    # d rho_tt/dt = -2 V Im(rho_t,n1 + rho_t,n2) - 2 (kappa+Gamma) rho_tt
    t = build_binary_tree(3)
    m = TransportModel(topology=t, site_energies=(0.0,) * 7, trap_site=0,
                       trap_rate=1.0, recomb_rate=0.01)
    rho0 = initial_state(t, SINGLE_SITE, site=6)
    traj = propagate(rho0, m, 20.0, n_points=4001)
    population = traj.states[:, 0, 0].real
    h = traj.times[1] - traj.times[0]
    lhs = (population[2:] - population[:-2]) / (2 * h)
    rhs = (-2 * traj.states[:, 0, 1:3].imag.sum(axis=1)
           - 2 * (m.trap_rate + m.recomb_rate) * population)
    assert np.abs(lhs - rhs[1:-1]).max() < 1e-4
