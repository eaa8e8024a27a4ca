"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. The Monte Carlo criteria use 100 realizations per cell and
finish in a few minutes on two cores.
"""
import numpy as np
import pytest

from enaqt.analysis import (efficiency_upper_bound, invariant_subspace,
                            max_disorder_gain)
from enaqt.dynamics import (efficiency_liouvillian, efficiency_timestepping,
                            propagate, propagate_pure)
from enaqt.ensemble import (DEFAULT_MASTER_SEED, SweepGrid,
                            default_disorder_grid, run_point, run_sweep)
from enaqt.graph import build_binary_tree, build_custom, build_hypercube
from enaqt.model import (LEAF_MIXTURE, SINGLE_SITE, TransportModel,
                         UNIFORM_MIXTURE, assemble_system_hamiltonian,
                         initial_state)

TREE5 = build_binary_tree(5)
HYPER4 = build_hypercube(4)
N_WORKERS = 2


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def tree_model(recomb=0.01, dephasing=0.0, energies=None):
    return TransportModel(
        topology=TREE5,
        site_energies=tuple(energies) if energies is not None else (0.0,) * 31,
        trap_site=0, trap_rate=1.0, recomb_rate=recomb,
        dephasing_rate=dephasing)


def tree_grid(**kw):
    kw.setdefault("n_realizations", 100)
    kw.setdefault("initial_kind", LEAF_MIXTURE)
    kw.setdefault("master_seed", DEFAULT_MASTER_SEED)
    return SweepGrid(topology=TREE5, **kw)


def hyper_grid(**kw):
    kw.setdefault("n_realizations", 100)
    kw.setdefault("initial_kind", UNIFORM_MIXTURE)
    kw.setdefault("master_seed", DEFAULT_MASTER_SEED)
    return SweepGrid(topology=HYPER4, **kw)


def dephasing_profile(grid, gamma_values):
    """Efficiency against dephasing rate at zero disorder (deterministic)."""
    return np.array([run_point(grid, 0.0, g, 0).eta for g in gamma_values])


LOG_GAMMAS = tuple(np.round(np.logspace(-2.0, 0.0, 9), 12))


@pytest.fixture(scope="module")
def tree_gain_table():
    grid = tree_grid(disorder_values=default_disorder_grid(),
                     dephasing_values=LOG_GAMMAS)
    return run_sweep(grid, n_workers=N_WORKERS)


@pytest.fixture(scope="module")
def hyper_optimum():
    """Dephasing rate at which the ordered hypercube transports best."""
    gammas = np.round(np.arange(0.0, 4.01, 0.2), 12)
    grid = hyper_grid(disorder_values=(0.0,), dephasing_values=(0.0,))
    return float(gammas[int(np.argmax(dephasing_profile(grid, gammas)))])


def hyper_gammas(optimum):
    return tuple(sorted(set(LOG_GAMMAS) | {optimum}))


@pytest.fixture(scope="module")
def hyper_gain_table(hyper_optimum):
    # cell seeds are keyed on coordinates: the LOG_GAMMAS cells do not
    # depend on the extra column at the optimum
    grid = hyper_grid(disorder_values=default_disorder_grid(),
                      dephasing_values=hyper_gammas(hyper_optimum))
    return run_sweep(grid, n_workers=N_WORKERS)


def test_criterion_1_ordered_noiseless_tree():
    rho0 = initial_state(TREE5, LEAF_MIXTURE)
    ts = efficiency_timestepping(rho0, tree_model(recomb=0.01)).eta
    lv3 = efficiency_liouvillian(rho0, tree_model(recomb=1e-3)).eta
    lv4 = efficiency_liouvillian(rho0, tree_model(recomb=1e-4)).eta
    ok = (abs(ts - 0.0584) <= 0.002 and abs(lv3 - 0.0620) <= 5e-4
          and abs(lv4 - 0.0625) <= 5e-4)
    assert report(
        "1 ordered noiseless tree",
        ok,
        f"eta(G=1e-2)={ts:.5f} (want 0.0584+-0.002), "
        f"eta(G=1e-3)={lv3:.5f} (want 0.0620+-5e-4), "
        f"eta(G=1e-4)={lv4:.5f} (want 0.0625+-5e-4)")


def test_criterion_2_exact_bounds():
    tree_sub = invariant_subspace(assemble_system_hamiltonian(TREE5, np.zeros(31)), 0)
    hyper_sub = invariant_subspace(assemble_system_hamiltonian(HYPER4, np.zeros(16)), 0)
    tree_bound = efficiency_upper_bound(tree_sub, initial_state(TREE5, LEAF_MIXTURE))
    hyper_bound = efficiency_upper_bound(hyper_sub, initial_state(HYPER4, UNIFORM_MIXTURE))
    tree_eta = efficiency_liouvillian(initial_state(TREE5, LEAF_MIXTURE),
                                      tree_model(recomb=1e-6)).eta
    hyper_model = TransportModel(topology=HYPER4, site_energies=(0.0,) * 16,
                                 trap_site=0, trap_rate=1.0, recomb_rate=1e-6)
    hyper_eta = efficiency_liouvillian(initial_state(HYPER4, UNIFORM_MIXTURE),
                                       hyper_model).eta
    ok = (abs(tree_bound - 1 / 16) < 1e-12 and abs(hyper_bound - 5 / 16) < 1e-12
          and 0 < tree_bound - tree_eta < 1e-3
          and 0 < hyper_bound - hyper_eta < 1e-3)
    assert report(
        "2 exact bounds",
        ok,
        f"tree bound={tree_bound:.14f} (1/16), hyper bound={hyper_bound:.14f} "
        f"(5/16); gaps at G=1e-6: {tree_bound - tree_eta:.2e}, "
        f"{hyper_bound - hyper_eta:.2e} (< 1e-3)")


def test_criterion_3_enaqt_in_the_ordered_case():
    gammas = np.round(np.arange(0.0, 3.01, 0.2), 12)
    grid = tree_grid(disorder_values=(0.0, 1.0), dephasing_values=(0.0, 1.0))
    prof = dephasing_profile(grid, gammas)
    rising = np.all(np.diff(prof[gammas <= 1.0]) > 0)
    argmax = float(gammas[int(np.argmax(prof))])
    zeno = run_point(grid, 0.0, 1e3, 0).eta
    ok = rising and 1.2 <= argmax <= 2.0 and zeno < prof.max() / 2
    assert report(
        "3 ENAQT in the ordered case",
        ok,
        f"increasing on [0,1]: {rising}, argmax={argmax} (want in [1.2, 2.0]), "
        f"eta(1e3)={zeno:.5f} < max/2={prof.max() / 2:.4f}")


def test_criterion_4_disorder_assisted_transport():
    checks = []
    for grid, gamma, delta, want in [
            (tree_grid(disorder_values=(0.0, 0.83), dephasing_values=(0.0, 1.0)),
             0.0, 0.83, (0.06, 0.34)),
            (tree_grid(disorder_values=(0.0, 0.8), dephasing_values=(0.2, 1.0)),
             0.2, 0.8, (0.30, 0.47)),
            (hyper_grid(disorder_values=(0.0, 1.4), dephasing_values=(0.2, 1.0)),
             0.2, 1.4, (0.54, 0.70))]:
        base = run_point(grid, 0.0, gamma, 0).eta
        etas = np.array([run_point(grid, delta, gamma, r).eta for r in range(100)])
        checks.append((base, etas.mean(), want))
    ok = all(abs(base - want[0]) <= 0.03 and abs(mean - want[1]) <= 0.03
             for base, mean, want in checks)
    detail = "; ".join(
        f"{base:.3f}->{mean:.3f} (want {want[0]:.2f}->{want[1]:.2f})"
        for base, mean, want in checks)
    assert report("4 disorder-assisted transport (tree g=0, tree g=0.2, "
                  "hypercube g=0.2)", ok, detail + " all +-0.03")


def _gain_profile(table, gammas=LOG_GAMMAS):
    gains = [max_disorder_gain(table, g) for g in gammas]
    mono = all(b.gain <= a.gain + 2 * np.hypot(a.stderr, b.stderr)
               for a, b in zip(gains, gains[1:]))
    return gains, mono


def test_criterion_5_disorder_gain_profile_tree(tree_gain_table):
    gains, mono = _gain_profile(tree_gain_table)
    ok = 0.25 <= gains[0].gain <= 0.33 and gains[-1].gain <= 0.03 and mono
    assert report(
        "5 disorder-gain profile (tree)",
        ok,
        f"gain(g->0)={gains[0].gain:.4f} (want [0.25, 0.33]), "
        f"gain(g=1)={gains[-1].gain:.4f} (want <= 0.03), monotone={mono}")


def test_criterion_5_disorder_gain_profile_hypercube(hyper_optimum,
                                                     hyper_gain_table):
    # The gain fades near optimal dephasing. The ordered hypercube is still
    # under-dephased at g=1 (its optimum lies near g=3, the tree's near 1.6),
    # so the faded gain is checked at the hypercube's own optimum, and at
    # g=1 disorder must still help.
    gains, mono = _gain_profile(hyper_gain_table, hyper_gammas(hyper_optimum))
    at_one = max_disorder_gain(hyper_gain_table, 1.0)
    at_opt = max_disorder_gain(hyper_gain_table, hyper_optimum)
    ok = (hyper_optimum > 1.0 and 0.25 <= gains[0].gain <= 0.33
          and at_one.gain > 3 * at_one.stderr and at_opt.gain <= 0.03 and mono)
    assert report(
        "5 disorder-gain profile (hypercube)",
        ok,
        f"gain(g->0)={gains[0].gain:.4f} (want [0.25, 0.33]), "
        f"optimum g*={hyper_optimum} (want > 1), "
        f"gain(g*)={at_opt.gain:.4f} (want <= 0.03), "
        f"gain(g=1)={at_one.gain:.4f} (want > 3*stderr={3 * at_one.stderr:.4f}), "
        f"monotone={mono}")


def rate_equation_residual(dephasing, energies):
    model = tree_model(dephasing=dephasing, energies=energies)
    traj = propagate(initial_state(TREE5, SINGLE_SITE, site=30), model, 30.0,
                     n_points=4001)
    population = traj.states[:, 0, 0].real
    h = traj.times[1] - traj.times[0]
    lhs = (population[2:] - population[:-2]) / (2 * h)
    rhs = -2 * traj.states[:, 0, 1:3].imag.sum(axis=1) - 2 * 1.01 * population
    return np.abs(lhs - rhs[1:-1]).max()


def test_criterion_6_trajectory_physics():
    # pure run from the last leaf: strict real/imaginary parity at the trap
    psi0 = np.zeros(31, dtype=complex)
    psi0[30] = 1.0
    traj = propagate_pure(psi0, tree_model(), 30.0, n_points=1500)
    parity = max(np.abs(traj.states[:, 0].imag).max(),
                 np.abs(traj.states[:, 1].real).max(),
                 np.abs(traj.states[:, 2].real).max())

    resid_ordered = rate_equation_residual(0.0, None)
    rng = np.random.default_rng(DEFAULT_MASTER_SEED)
    resid_noisy = rate_equation_residual(1.0, rng.normal(0.0, 1.4, 31))

    def trap_population_integral(dephasing):
        model = tree_model(dephasing=dephasing)
        traj = propagate(initial_state(TREE5, SINGLE_SITE, site=30), model,
                         150.0, n_points=1500)
        return np.trapezoid(traj.states[:, 0, 0].real, traj.times)

    area0 = trap_population_integral(0.0)
    area_deph = trap_population_integral(0.2)

    ok = (parity < 1e-8 and resid_ordered < 1e-4 and resid_noisy < 1e-4
          and area_deph > area0)
    assert report(
        "6 trajectory physics",
        ok,
        f"parity={parity:.1e} (<1e-8), residuals={resid_ordered:.1e}/"
        f"{resid_noisy:.1e} (<1e-4), trap-population integral "
        f"{area0:.4f}->{area_deph:.4f} with dephasing 0.2")


def test_criterion_7_property_suite():
    rng = np.random.default_rng(77)
    failures = []

    # trace bookkeeping on randomized models, both solvers
    chain = build_custom(4, [(0, 1), (1, 2), (2, 3)])
    for k in range(3):
        m = TransportModel(topology=chain,
                           site_energies=tuple(rng.normal(0, 0.8, 4)),
                           trap_site=int(rng.integers(0, 4)), trap_rate=1.0,
                           recomb_rate=0.05, dephasing_rate=float(rng.uniform(0, 1)))
        rho0 = initial_state(chain, UNIFORM_MIXTURE)
        for res in (efficiency_timestepping(rho0, m), efficiency_liouvillian(rho0, m)):
            budget = res.eta + res.eta_loss + res.residual_trace
            if abs(budget - 1.0) > 1e-6:
                failures.append(f"budget {budget} ({res.method})")

    # cross-solver agreement up to N = 16
    cases = [
        (build_custom(2, [(0, 1)]), SINGLE_SITE, 0, 1, 0.0, (0.0, 0.0)),
        (build_custom(3, [(0, 1), (1, 2)]), SINGLE_SITE, 2, 0, 0.5,
         tuple(rng.normal(0, 0.8, 3))),
        (build_hypercube(3), UNIFORM_MIXTURE, None, 0, 0.4, (0.0,) * 8),
        (build_hypercube(4), UNIFORM_MIXTURE, None, 0, 0.2, (0.0,) * 16),
    ]
    for top, kind, site, trap, gphi, eps in cases:
        m = TransportModel(topology=top, site_energies=eps, trap_site=trap,
                           trap_rate=1.0, recomb_rate=0.01, dephasing_rate=gphi)
        rho0 = initial_state(top, kind, site)
        diff = abs(efficiency_timestepping(rho0, m).eta
                   - efficiency_liouvillian(rho0, m).eta)
        if diff > 1e-6:
            failures.append(f"cross-solver diff {diff:.2e} on N={top.n_sites}")

    # Hermiticity and positivity along a noisy, disordered propagation
    m = tree_model(dephasing=0.2, energies=rng.normal(0, 1.4, 31))
    traj = propagate(initial_state(TREE5, LEAF_MIXTURE), m, 30.0, n_points=301)
    herm = np.abs(traj.states - traj.states.conj().transpose(0, 2, 1)).max()
    if herm > 1e-10:
        failures.append(f"hermiticity {herm:.2e}")
    min_eig = min(np.linalg.eigvalsh(traj.states[k]).min()
                  for k in range(0, 301, 30))
    if min_eig < -1e-8:
        failures.append(f"positivity {min_eig:.2e}")

    # analytic two-site oscillation
    dimer = build_custom(2, [(0, 1)])
    m = TransportModel(topology=dimer, site_energies=(0.0, 0.0), trap_site=0,
                       trap_rate=0.0, recomb_rate=0.0)
    traj = propagate(initial_state(dimer, SINGLE_SITE, site=0), m, np.pi / 2,
                     n_points=3)
    rabi_err = max(abs(traj.states[1, 0, 0].real - 0.5),
                   abs(traj.states[2, 0, 0].real))
    if rabi_err > 1e-6:
        failures.append(f"two-site oscillation {rabi_err:.2e}")

    # global energy shift leaves eta unchanged
    eps = rng.normal(size=4)
    etas = []
    for shift in (0.0, 11.0):
        m = TransportModel(topology=chain, site_energies=tuple(eps + shift),
                           trap_site=0, trap_rate=1.0, recomb_rate=0.01,
                           dephasing_rate=0.3)
        etas.append(efficiency_liouvillian(initial_state(chain, UNIFORM_MIXTURE), m).eta)
    if abs(etas[0] - etas[1]) > 1e-9:
        failures.append(f"energy-shift drift {abs(etas[0] - etas[1]):.2e}")

    # sweep reproducibility across worker counts
    tree3 = build_binary_tree(3)
    grid = SweepGrid(topology=tree3, disorder_values=(0.0, 0.6),
                     dephasing_values=(0.0, 0.4), n_realizations=3,
                     initial_kind=LEAF_MIXTURE, master_seed=5)
    if run_sweep(grid, n_workers=1).rows != run_sweep(grid, n_workers=2).rows:
        failures.append("sweep not reproducible across worker counts")

    assert report("7 property suite", not failures,
                  "; ".join(failures) if failures else
                  "bookkeeping, cross-solver, positivity, oscillation, "
                  "shift invariance, reproducibility all within tolerance")
