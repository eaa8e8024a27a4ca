import numpy as np
import pytest

from enaqt import dynamics, ensemble
from enaqt.ensemble import (DEFAULT_MASTER_SEED, SweepGrid, SweepTable,
                            cell_seed, default_dephasing_grid,
                            default_disorder_grid, load_sweep_config,
                            parse_grid_values, run_point, run_sweep)
from enaqt.graph import build_binary_tree, build_hypercube
from enaqt.model import LEAF_MIXTURE, SINGLE_SITE, UNIFORM_MIXTURE

TREE5 = build_binary_tree(5)
TREE3 = build_binary_tree(3)
HYPER4 = build_hypercube(4)


def tree_grid(topology=TREE5, **kw):
    kw.setdefault("disorder_values", (0.0, 0.8))
    kw.setdefault("dephasing_values", (0.0, 0.2))
    kw.setdefault("n_realizations", 4)
    kw.setdefault("initial_kind", LEAF_MIXTURE)
    return SweepGrid(topology=topology, **kw)


def test_grid_validation():
    with pytest.raises(ValueError):
        tree_grid(disorder_values=(0.5, 0.5))
    with pytest.raises(ValueError):
        tree_grid(dephasing_values=(0.2, 0.1))
    with pytest.raises(ValueError):
        tree_grid(n_realizations=0)
    with pytest.raises(ValueError):
        tree_grid(initial_kind="bogus")


@pytest.mark.parametrize("kw, match", [
    (dict(trap_rate=np.nan), "trap_rate"),
    (dict(recomb_rate=-1.0), "recomb_rate"),
    (dict(trap_site=99), "trap site 99"),
    (dict(initial_kind=SINGLE_SITE), "valid site"),
    (dict(initial_kind=SINGLE_SITE, initial_site=31), "valid site"),
    (dict(topology=HYPER4), "binary tree"),   # leaf mixture off a tree
    (dict(master_seed=-1), "master_seed"),
])
def test_grid_rejects_an_invalid_problem_when_built(kw, match):
    with pytest.raises(ValueError, match=match):
        tree_grid(**kw)


def test_building_a_grid_draws_no_energies(monkeypatch):
    def no_draw(*args):
        raise AssertionError("energies drawn while building the grid")

    monkeypatch.setattr(ensemble, "cell_seed", no_draw)
    monkeypatch.setattr(ensemble, "sample_site_energies", no_draw)
    tree_grid(disorder_values=(0.0, 1.0, 2.5))


@pytest.mark.parametrize("axis", ["disorder_values", "dephasing_values"])
def test_grid_rejects_non_finite_values(axis):
    with pytest.raises(ValueError, match="finite"):
        tree_grid(**{axis: (0.0, np.nan)})
    with pytest.raises(ValueError, match="finite"):
        tree_grid(**{axis: (0.0, np.inf)})


def test_default_grids():
    d = default_disorder_grid()
    assert len(d) == 26 and d[0] == 0.0 and d[-1] == 2.5
    g = default_dephasing_grid()
    assert len(g) == 25 and g[-1] == 1.2
    lg = parse_grid_values("log:0.01:100:25")
    assert len(lg) == 25 and np.isclose(lg[0], 1e-2) and np.isclose(lg[-1], 1e2)


def test_run_point_deterministic_at_zero_disorder():
    grid = tree_grid()
    etas = {run_point(grid, 0.0, 0.2, r).eta for r in range(3)}
    assert len(etas) == 1


def test_run_point_repeatable_and_realization_dependent():
    grid = tree_grid()
    a = run_point(grid, 0.8, 0.2, 1).eta
    b = run_point(grid, 0.8, 0.2, 1).eta
    c = run_point(grid, 0.8, 0.2, 2).eta
    assert a == b
    assert a != c


def test_cell_seed_mixes_coordinates():
    seeds = {cell_seed(7, d, g) for d in (0.0, 0.5, 1.0) for g in (0.0, 0.2)}
    assert len(seeds) == 6
    assert cell_seed(7, 0.5, 0.2) == cell_seed(7, 0.5, 0.2)


def test_ordered_tree_point_reference_value():
    # dephasing 0.2, no disorder: 30% transport efficiency
    eta = run_point(tree_grid(), 0.0, 0.2, 0).eta
    assert abs(eta - 0.30) < 0.02


def test_ordered_hypercube_point_reference_value():
    # dephasing 0.2, no disorder: 54% transport efficiency
    grid = SweepGrid(topology=HYPER4, disorder_values=(0.0,),
                     dephasing_values=(0.2,), initial_kind=UNIFORM_MIXTURE)
    eta = run_point(grid, 0.0, 0.2, 0).eta
    assert abs(eta - 0.54) < 0.02


def test_single_cell_sweep_equals_run_point():
    grid = tree_grid(disorder_values=(0.5,), dephasing_values=(0.1,),
                     n_realizations=1)
    table = run_sweep(grid)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.eta_mean == run_point(grid, 0.5, 0.1, 0).eta
    assert row.n == 1
    assert row.eta_stderr == 0.0


def small_grid():
    return SweepGrid(topology=TREE3, disorder_values=(0.0, 0.5),
                     dephasing_values=(0.0, 0.3), n_realizations=4,
                     initial_kind=LEAF_MIXTURE, master_seed=11)


def test_sweep_bit_identical_across_worker_counts():
    serial = run_sweep(small_grid(), n_workers=1)
    parallel = run_sweep(small_grid(), n_workers=2)
    assert serial.rows == parallel.rows
    assert serial.failures == parallel.failures == ()


def test_hypercube_sweep_bit_identical_across_worker_counts():
    # the hypercube's LU fill reaches threaded BLAS, unlike the small tree's
    grid = SweepGrid(topology=HYPER4, disorder_values=(0.0, 1.4),
                     dephasing_values=(0.2, 1.0), n_realizations=4,
                     initial_kind=UNIFORM_MIXTURE, master_seed=11)
    serial = run_sweep(grid, n_workers=1)
    parallel = run_sweep(grid, n_workers=2)
    assert serial.rows == parallel.rows
    assert serial.failures == parallel.failures == ()


def test_sweep_row_statistics():
    grid = small_grid()
    table = run_sweep(grid)
    assert [r.n for r in table.rows] == [1, 1, 4, 4]  # delta=0 cells run once
    assert all(r.eta_stderr == 0.0 for r in table.rows if r.delta_eps == 0.0)
    etas = np.array([run_point(grid, 0.5, 0.3, r).eta for r in range(4)])
    row = table.cell(0.5, 0.3)
    assert row.eta_mean == etas.mean()
    assert row.eta_stderr == etas.std(ddof=1) / 2.0
    for r in table.rows:
        assert 0.0 <= r.eta_mean <= 1.0
        assert r.eta_mean + r.eta_loss_mean <= 1.0 + 1e-6
    # rows come out sorted by (delta_eps, gamma_phi)
    keys = [(r.delta_eps, r.gamma_phi) for r in table.rows]
    assert keys == sorted(keys)


def test_sweep_reports_failures_but_emits_nothing_for_dead_cells():
    # recomb_rate = 0 makes the direct solve invalid for every job
    grid = tree_grid(topology=TREE3, disorder_values=(0.0,),
                     dephasing_values=(0.0, 0.1), n_realizations=2,
                     recomb_rate=0.0)
    table = run_sweep(grid)
    assert table.rows == ()
    assert len(table.failures) == 2
    assert "recomb_rate" in table.failures[0]


def test_sweep_failure_line_keeps_the_cause_and_the_cell(monkeypatch):
    def fail(rho0, model):
        raise dynamics.IntegrationError("integration failed: step too small", 12.5)

    monkeypatch.setattr(dynamics, "efficiency_timestepping", fail)
    grid = tree_grid(topology=TREE3, disorder_values=(0.5,),
                     dephasing_values=(0.1,), n_realizations=2)
    table = run_sweep(grid, solver="timestepping")
    assert table.rows == ()
    assert table.failures == tuple(
        "IntegrationError: integration failed: step too small "
        f"[delta_eps=0.5 gamma_phi=0.1 realization={r}]" for r in range(2))


def test_grid_model_and_initial_state_are_what_run_point_solves(monkeypatch):
    seen = []
    monkeypatch.setattr(dynamics, "efficiency_liouvillian",
                        lambda rho0, model: seen.append((rho0, model)))
    grid = tree_grid(topology=TREE3)
    run_point(grid, 0.8, 0.2, 3)
    (rho0, model), = seen
    assert model == grid.model(0.8, 0.2, 3)
    assert np.array_equal(rho0, grid.initial_state())
    assert model.dephasing_rate == 0.2 and model.trap_site == grid.trap_site
    assert model != grid.model(0.8, 0.2, 2)


def test_disorder_has_interior_optimum_on_the_tree():
    # mean efficiency peaks near delta 0.8 and decays by delta 2.5
    grid = tree_grid(disorder_values=(0.0, 0.8, 2.5),
                     dephasing_values=(0.0, 0.2), n_realizations=100,
                     master_seed=DEFAULT_MASTER_SEED)
    table = run_sweep(grid, n_workers=2)
    for gamma in (0.0, 0.2):
        low = table.cell(0.0, gamma)
        mid = table.cell(0.8, gamma)
        high = table.cell(2.5, gamma)
        assert mid.eta_mean - low.eta_mean > 3 * np.hypot(mid.eta_stderr,
                                                          low.eta_stderr)
        assert mid.eta_mean - high.eta_mean > 3 * np.hypot(mid.eta_stderr,
                                                           high.eta_stderr)


def dephasing_profile(grid, gamma_values):
    """Efficiency against dephasing rate at zero disorder (deterministic)."""
    return np.array([run_point(grid, 0.0, g, 0).eta for g in gamma_values])


def test_dephasing_profile_matches_run_point_and_rises():
    grid = tree_grid()
    gammas = (0.0, 0.2, 0.5, 1.0)
    prof = dephasing_profile(grid, gammas)
    assert prof[0] == run_point(grid, 0.0, 0.0, 0).eta
    assert np.all(np.diff(prof) > 0)


# --- sweep table CSV round trip ---

def test_sweep_table_csv_round_trip(tmp_path):
    table = run_sweep(small_grid())
    path = tmp_path / "sweep.csv"
    with open(path, "w") as fh:
        table.to_csv(fh)
    with open(path) as fh:
        again = SweepTable.from_csv(fh)
    assert again.rows == table.rows


def test_sweep_table_rejects_foreign_csv(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b\n1,2\n")
    with open(path) as fh:
        with pytest.raises(ValueError):
            SweepTable.from_csv(fh)


# --- config files and grid specs ---

def test_parse_grid_values_forms():
    assert parse_grid_values("0:1:0.5") == (0.0, 0.5, 1.0)
    assert parse_grid_values("0.1,0.2,0.7") == (0.1, 0.2, 0.7)
    assert parse_grid_values("0.3") == (0.3,)
    lg = parse_grid_values("log:1e-2:1e2:5")
    assert np.allclose(lg, (0.01, 0.1, 1.0, 10.0, 100.0))


@pytest.mark.parametrize("spec", ["0:1:0.3", "1:0:0.1", "log:0:1:5", "a,b",
                                  "log:1e-14:1:3", "1e-13:1e-13:1",
                                  "log:1e-8:1e-6:5", "log:1e-12:1e-11:5"])
def test_parse_grid_values_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        parse_grid_values(spec)


def test_parse_grid_values_names_a_start_that_rounds_to_zero():
    with pytest.raises(ValueError, match="'log:1e-14:1:3'"):
        parse_grid_values("log:1e-14:1:3")


def test_load_sweep_config(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# moderate tree sweep\n"
        "graph = binary-tree\n"
        "generations = 5\n"
        "init = leaves\n"
        "trap = root\n"
        "kappa = 1.0\n"
        "gamma_recomb = 0.01\n"
        "disorder_values = 0:2.5:0.5\n"
        "dephasing_values = 0,0.2\n"
        "n_realizations = 10\n"
        "seed = 7\n")
    cfg = load_sweep_config(path)
    assert cfg["graph"] == "binary-tree"
    assert parse_grid_values(cfg["disorder_values"])[-1] == 2.5


def test_load_sweep_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("volume = 11\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_sweep_config(path)
