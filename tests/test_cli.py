import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from enaqt import analysis, dynamics, ensemble
from enaqt.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def stdout_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + " = "):
            return float(line.split(" = ")[1])
    raise AssertionError(f"{key!r} not found in output:\n{out}")


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


TREE_ARGS = ["--graph", "binary-tree", "--generations", "5",
             "--init", "leaves", "--trap", "root"]


def test_single_ordered_tree(capsys):
    code, out, _ = run_cli(capsys, "single", *TREE_ARGS,
                           "--dephasing", "0", "--disorder", "0")
    assert code == 0
    assert abs(stdout_value(out, "eta") - 0.0584) < 0.002


def test_single_small_recombination(capsys):
    code, out, _ = run_cli(capsys, "single", *TREE_ARGS,
                           "--gamma-recomb", "1e-4")
    assert code == 0
    assert abs(stdout_value(out, "eta") - 0.0625) < 5e-4


def test_single_zero_trapping(capsys):
    code, out, _ = run_cli(capsys, "single", *TREE_ARGS, "--kappa", "0")
    assert code == 0
    assert stdout_value(out, "eta") == 0.0


def test_single_solver_choice_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "single.csv"
    code, out, _ = run_cli(capsys, "single", *TREE_ARGS,
                           "--solver", "timestepping", "--output", str(out_csv))
    assert code == 0
    header, rows = read_csv(out_csv)
    assert header.startswith("delta_eps,gamma_phi,kappa,gamma_recomb,eta")
    assert rows[0][8 - 1] == "time-stepping"
    assert abs(float(rows[0][4]) - stdout_value(out, "eta")) == 0.0


@pytest.mark.parametrize("argv", [
    ["single", "--graph", "binary-tree"],                      # no --generations
    ["single", "--graph", "custom"],                           # no --edge-file
    ["single", "--graph", "hypercube", "--dimension", "3",
     "--init", "leaves", "--trap", "0"],                       # leaves off-tree
    ["single", *TREE_ARGS, "--kappa", "-1"],
    ["single", *TREE_ARGS, "--trap", "99"],
    ["single", "--graph", "hypercube", "--dimension", "2",
     "--trap", "root"],                                        # root off-tree
    ["trajectory", *TREE_ARGS, "--pure"],                      # pure needs site init
    ["bound", *TREE_ARGS, "--dephasing", "0.5"],               # bound is at zero dephasing
    ["sweep", "--generations", "3"],                           # no --graph
    ["single", *TREE_ARGS, "--kappa", "nan"],
    ["single", *TREE_ARGS, "--dephasing", "inf"],
    ["single", *TREE_ARGS, "--disorder", "nan"],
    ["single", *TREE_ARGS, "--disorder", "1", "--realization", "-1"],
    ["sweep", *TREE_ARGS, "--disorder-grid", "0", "--dephasing-grid", "0",
     "--workers", "0"],
    ["single", *TREE_ARGS, "--solver", "timestepping",
     "--trace-tol", "1e-6"],                                   # tolerances are fixed
    ["sweep", *TREE_ARGS, "--disorder-grid", "0", "--dephasing-grid", "0",
     "--realizations", "0"],
    ["single", *TREE_ARGS, "--gamma-recomb", "0"],             # direct solve needs Gamma > 0
    ["sweep", *TREE_ARGS, "--disorder-grid", "0", "--dephasing-grid", "0",
     "--gamma-recomb", "0"],
    ["single", "--graph", "binary-tree", "--generations", "0"],
    ["single", "--graph", "hypercube", "--dimension", "0"],
    ["single", "--graph", "hypercube"],                        # no --dimension
    ["single", *TREE_ARGS[:-1], "x"],                          # --trap x
    ["single", "--graph", "binary-tree", "--generations", "3", "--init", "site"],
    ["single", "--graph", "binary-tree", "--generations", "3", "--init", "site",
     "--init-site", "99"],
    ["single", *TREE_ARGS, "--seed", "-1"],
    ["trajectory", *TREE_ARGS, "--points", "1"],
    ["trajectory", "--graph", "binary-tree", "--generations", "3", "--init", "site",
     "--init-site", "6", "--pure", "--dephasing", "0.5"],
    ["trajectory", "--graph", "binary-tree", "--generations", "3", "--init", "site",
     "--init-site", "6", "--pure", "--realizations", "2"],
    ["sweep", *TREE_ARGS, "--disorder-grid", "1,0"],           # not increasing
    ["sweep", *TREE_ARGS, "--disorder-grid", "0:1:0.3"],       # step does not divide
])
def test_flag_validation_fails_before_computation(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["single", *TREE_ARGS, "--kappa", "-1"],
     "argument --kappa: must be finite and >= 0"),
    (["sweep", *TREE_ARGS, "--gamma-recomb", "0"],
     "--gamma-recomb must be > 0 with --solver liouvillian"),
], ids=["type", "cross-flag"])
def test_flag_error_prints_its_subcommand_usage(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: enaqt {argv[0]} ")
    assert f"enaqt {argv[0]}: error: {message}" in err


@pytest.mark.parametrize("t_final", ["nan", "inf"])
@pytest.mark.parametrize("pure", [False, True], ids=["density", "pure"])
def test_trajectory_rejects_a_non_finite_horizon(t_final, pure, monkeypatch,
                                                 capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("propagation reached with a bad --t-final")

    monkeypatch.setattr(dynamics, "propagate", unreachable)
    monkeypatch.setattr(dynamics, "propagate_pure", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["trajectory", "--graph", "binary-tree", "--generations", "2",
              "--init", "site", "--init-site", "2", "--points", "3",
              "--t-final", t_final, *(["--pure"] if pure else [])])
    assert exc.value.code == 2
    assert "--t-final must be finite and > 0" in capsys.readouterr().err


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("single", "sweep", "bound", "trajectory", "delta-max"):
        assert name in out


def test_bound_tree(capsys):
    code, out, _ = run_cli(capsys, "bound", *TREE_ARGS)
    assert code == 0
    assert stdout_value(out, "dimension") == 26
    assert abs(stdout_value(out, "bound") - 1 / 16) < 1e-12
    assert "cluster,energy,multiplicity,trap_overlap" in out


def test_bound_keeps_the_ordered_clusters_under_tiny_disorder(capsys):
    # disorder of 1e-10 splits the ordered tree's degenerate levels by
    # gaps that DEGENERACY_TOL = 1e-8 still merges, so the bound stays the
    # physical 1/16; at a tolerance of 1e-12 the clusters split, and the
    # dimension and bound drop to 8 and 0.875
    code, out, _ = run_cli(capsys, "bound", *TREE_ARGS, "--disorder", "1e-10")
    assert code == 0
    assert stdout_value(out, "dimension") == 26
    assert abs(stdout_value(out, "bound") - 1 / 16) < 1e-12


def test_bound_hypercube(capsys):
    code, out, _ = run_cli(capsys, "bound", "--graph", "hypercube",
                           "--dimension", "4", "--init", "uniform",
                           "--trap", "0")
    assert code == 0
    assert stdout_value(out, "dimension") == 11
    assert abs(stdout_value(out, "bound") - 5 / 16) < 1e-12


def test_bound_dimer_is_trivial(tmp_path, capsys):
    edge_file = tmp_path / "dimer.txt"
    edge_file.write_text("2\n0 1\n")
    code, out, _ = run_cli(capsys, "bound", "--graph", "custom",
                           "--edge-file", str(edge_file), "--init", "site",
                           "--init-site", "0", "--trap", "1")
    assert code == 0
    assert stdout_value(out, "dimension") == 0
    assert stdout_value(out, "bound") == 1.0


def test_bound_uses_the_energies_of_single_at_zero_dephasing(monkeypatch, capsys):
    seen = {}
    subspace, solve = analysis.invariant_subspace, dynamics.compute_efficiency

    def spy_subspace(h, trap):
        seen["bound"] = np.diag(h).real.copy()
        return subspace(h, trap)

    def spy_solve(rho0, mdl, **kwargs):
        seen["single"] = np.array(mdl.site_energies)
        return solve(rho0, mdl, **kwargs)

    monkeypatch.setattr(analysis, "invariant_subspace", spy_subspace)
    monkeypatch.setattr(dynamics, "compute_efficiency", spy_solve)
    draw = ["--disorder", "1", "--realization", "2"]
    code, out, _ = run_cli(capsys, "bound", *TREE_ARGS, *draw)
    assert code == 0
    bound = stdout_value(out, "bound")
    code, out, _ = run_cli(capsys, "single", *TREE_ARGS, *draw, "--dephasing", "0")
    assert code == 0
    assert np.array_equal(seen["bound"], seen["single"])
    assert np.all(seen["single"] != 0.0)
    assert stdout_value(out, "eta") <= bound


@pytest.mark.parametrize("command", [
    ["single", "--disorder", "0.5", "--dephasing", "0.3"],
    ["bound", "--disorder", "0.5"],
    ["trajectory", "--dephasing", "0.3", "--t-final", "2", "--points", "5"],
])
def test_trap_defaults_to_site_0_off_trees(command, capsys):
    cube = ["--graph", "hypercube", "--dimension", "3"]
    default = run_cli(capsys, *command, *cube)
    assert default[0] == 0
    assert default == run_cli(capsys, *command, *cube, "--trap", "0")


def test_sweep_single_cell_matches_single(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", *TREE_ARGS,
                         "--disorder-grid", "0", "--dephasing-grid", "0.2",
                         "--realizations", "1", "--output", str(out_csv))
    assert code == 0
    header, rows = read_csv(out_csv)
    assert header == "delta_eps,gamma_phi,eta_mean,eta_stderr,n,eta_loss_mean"
    assert len(rows) == 1
    code, out, _ = run_cli(capsys, "single", *TREE_ARGS, "--dephasing", "0.2")
    assert float(rows[0][2]) == stdout_value(out, "eta")


def test_sweep_cell_matches_single_on_the_disordered_hypercube(tmp_path, capsys):
    # this LU reaches threaded BLAS; both commands pin it to one thread
    args = ["--graph", "hypercube", "--dimension", "4", "--trap", "0"]
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", *args, "--disorder-grid", "1.4",
                         "--dephasing-grid", "1", "--realizations", "1",
                         "--output", str(out_csv))
    assert code == 0
    _, rows = read_csv(out_csv)
    code, out, _ = run_cli(capsys, "single", *args, "--disorder", "1.4",
                           "--dephasing", "1")
    assert code == 0
    assert float(rows[0][2]) == stdout_value(out, "eta")


def test_sweep_rerun_is_byte_identical(tmp_path, capsys):
    args = ["sweep", "--graph", "binary-tree", "--generations", "3",
            "--init", "leaves", "--disorder-grid", "0,0.5",
            "--dephasing-grid", "0,0.3", "--realizations", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--output", str(a))[0] == 0
    assert run_cli(capsys, *args, "--output", str(b), "--workers", "2")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "graph = binary-tree\n"
        "generations = 3\n"
        "init = leaves\n"
        "disorder_values = 0,0.5\n"
        "dephasing_values = 0.1\n"
        "n_realizations = 2\n")
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                         "--dephasing-grid", "0.4", "--output", str(out_csv))
    assert code == 0
    _, rows = read_csv(out_csv)
    assert {r[1] for r in rows} == {"0.4"}  # flag overrides the config grid
    assert [r[4] for r in rows] == ["1", "2"]


def test_sweep_config_values_equal_the_same_flags(tmp_path, capsys):
    values = {"kappa": "0.5", "seed": "7", "trap": "1", "solver": "timestepping"}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    flags = [w for k, v in values.items() for w in (f"--{k}", v)]
    grid = ["--graph", "binary-tree", "--generations", "3",
            "--disorder-grid", "0,0.5", "--dephasing-grid", "0.2",
            "--realizations", "2"]
    csv = {name: tmp_path / f"{name}.csv" for name in ("config", "flags", "defaults")}
    for name, extra in (("config", ["--config", str(cfg)]), ("flags", flags),
                        ("defaults", [])):
        assert run_cli(capsys, "sweep", *extra, *grid,
                       "--output", str(csv[name]))[0] == 0
    assert csv["config"].read_bytes() == csv["flags"].read_bytes()
    assert csv["config"].read_bytes() != csv["defaults"].read_bytes()


@pytest.mark.parametrize("line,message", [
    ("solver = magic", "invalid choice"), ("init = foo", "invalid choice"),
    ("workers = 0", "argument --workers: must be >= 1"),
    ("gamma_recomb = 0", "--gamma-recomb must be > 0"),
    ("disorder_values = 1,0", "must be strictly increasing"),
    ("dephasing_values = log:1e-12:1e-11:5", "'log:1e-12:1e-11:5'"),
    ("volume = 3", "bad.cfg:3: unknown key 'volume'"),
    ("generations 3", "bad.cfg:3: expected 'key = value'"),
    (None, "No such file or directory")],
    ids=["solver", "init", "workers", "gamma_recomb", "grid", "grid_spec",
         "unknown_key", "malformed", "missing_file"])
def test_bad_config_value_exits_2_before_any_job(line, message, tmp_path,
                                                 monkeypatch, capsys):
    cfg = tmp_path / "bad.cfg"
    if line is not None:  # None leaves the file unwritten
        cfg.write_text(f"graph = binary-tree\ngenerations = 3\n{line}\n")
    monkeypatch.setattr(ensemble, "run_sweep",
                        lambda *a, **k: pytest.fail("a sweep job ran"))
    out_csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--output", str(out_csv)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: enaqt sweep")
    assert message in err
    assert not out_csv.exists()


def test_sweep_reports_failed_jobs_and_still_writes_the_csv(tmp_path,
                                                           monkeypatch, capsys):
    solve = dynamics.efficiency_liouvillian

    def fail_at_03(rho0, model):
        if model.dephasing_rate == 0.3:
            raise dynamics.SolverError("forced failure")
        return solve(rho0, model)

    monkeypatch.setattr(dynamics, "efficiency_liouvillian", fail_at_03)
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--graph", "binary-tree",
                           "--generations", "3", "--disorder-grid", "0,0.5",
                           "--dephasing-grid", "0,0.3", "--realizations", "2",
                           "--output", str(out_csv))
    assert code == 1
    lines = err.splitlines()
    assert lines[0] == "3 job(s) failed:"
    assert lines[1:] == [
        "  SolverError: forced failure [delta_eps=0.0 gamma_phi=0.3 realization=0]",
        *(f"  SolverError: forced failure [delta_eps=0.5 gamma_phi=0.3 "
          f"realization={r}]" for r in range(2))]
    _, rows = read_csv(out_csv)
    assert [(r[0], r[1], r[4]) for r in rows] == [("0.0", "0.0", "1"),
                                                  ("0.5", "0.0", "2")]


def test_runtime_error_exits_1_with_an_error_line(tmp_path, capsys):
    code, out, err = run_cli(capsys, "single", "--graph", "custom", "--edge-file",
                             str(tmp_path / "missing.txt"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "missing.txt" in err


def readme_commands():
    """Every 'enaqt ...' command of the README's sh blocks, as argv lists."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                            re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["enaqt"]:
                commands.append(words[1:])
    return commands


def test_readme_examples_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "single", "sweep", "bound", "trajectory", "delta-max"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: enaqt {shlex.join(argv)}")


def readme_csv_formats():
    """The README's "CSV formats" section with its backtick line wraps joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### CSV formats")[1].split("\n## ")[0]
    return re.sub(r"`\n\s*`", "", section)


def test_readme_lists_the_csv_headers(tmp_path, capsys):
    dimer = ["--graph", "custom", "--edge-file", str(write_dimer(tmp_path)),
             "--init", "site", "--init-site", "0", "--trap", "1"]
    tiny = ["--graph", "binary-tree", "--generations", "2"]
    sweep_csv = tmp_path / "sweep.csv"
    commands = [
        ["sweep", *tiny, "--disorder-grid", "0", "--dephasing-grid", "0",
         "--output", str(sweep_csv)],
        ["single", *tiny, "--output", "-"],
        ["bound", *tiny],
        ["trajectory", *dimer, "--t-final", "1", "--points", "2"],
        ["trajectory", *dimer, "--t-final", "1", "--points", "2", "--pure"],
        ["delta-max", "--input", str(sweep_csv)],
    ]
    formats = readme_csv_formats()
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        text = sweep_csv.read_text() if argv[0] == "sweep" else out
        header = next(line for line in text.splitlines() if "," in line)
        assert f"`{header}`" in formats, f"{argv[0]} header {header!r}"


def test_trajectory_initial_row_matches_initial_state(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "trajectory", "--graph", "binary-tree",
                         "--generations", "3", "--init", "site",
                         "--init-site", "6", "--trap", "root",
                         "--t-final", "2", "--points", "9",
                         "--output", str(out_csv))
    assert code == 0
    header, rows = read_csv(out_csv)
    assert header == "t,re_rho11,im_rho12,im_rho13,trace"
    assert len(rows) == 9
    first = [float(v) for v in rows[0]]
    assert first == [0.0, 0.0, 0.0, 0.0, 1.0]
    # trace decays under trapping and recombination
    assert float(rows[-1][4]) < 1.0


def test_trajectory_pure_run_parity(tmp_path, capsys):
    out_csv = tmp_path / "pure.csv"
    code, _, _ = run_cli(capsys, "trajectory", "--graph", "binary-tree",
                         "--generations", "5", "--init", "site",
                         "--init-site", "30", "--trap", "root", "--pure",
                         "--t-final", "10", "--points", "101",
                         "--output", str(out_csv))
    assert code == 0
    header, rows = read_csv(out_csv)
    assert header == "t,re_psi1,im_psi2,im_psi3,norm_sq"
    norms = np.array([float(r[4]) for r in rows])
    assert norms[0] == 1.0
    assert np.all(np.diff(norms) <= 1e-9)
    assert any(abs(float(r[1])) > 1e-3 for r in rows)  # pulse reaches the trap


def test_trajectory_ensemble_average_runs(tmp_path, capsys):
    args = ["trajectory", "--graph", "binary-tree", "--generations", "3",
            "--init", "site", "--init-site", "6", "--disorder", "1.4",
            "--dephasing", "0.2", "--t-final", "2", "--points", "5"]

    def run(*extra):
        out_csv = tmp_path / "traj.csv"
        assert run_cli(capsys, *args, *extra, "--output", str(out_csv))[0] == 0
        return np.array(read_csv(out_csv)[1], dtype=float)

    avg = run("--realizations", "3")
    draws = [run("--realization", str(r)) for r in range(3)]
    assert avg.shape == (5, 5)
    assert np.array_equal(avg[:, 0], draws[0][:, 0])
    # the mean of draws 0, 1, 2, summed from 0 in that order
    assert np.array_equal(avg[:, 1:],
                          (0.0 + draws[0] + draws[1] + draws[2])[:, 1:] / 3)


def test_trajectory_runs_one_draw_at_zero_disorder(tmp_path, capsys):
    args = ["trajectory", "--graph", "binary-tree", "--generations", "3",
            "--init", "site", "--init-site", "6", "--dephasing", "0.2",
            "--t-final", "2", "--points", "5"]
    csv = {n: tmp_path / f"{n}.csv" for n in ("1", "3")}
    for n, path in csv.items():
        assert run_cli(capsys, *args, "--realizations", n,
                       "--output", str(path))[0] == 0
    assert csv["3"].read_bytes() == csv["1"].read_bytes()


def test_trajectory_full_state_dump(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    full_csv = tmp_path / "full.csv"
    code, _, _ = run_cli(capsys, "trajectory", "--graph", "custom",
                         "--edge-file", str(write_dimer(tmp_path)),
                         "--init", "site", "--init-site", "0", "--trap", "1",
                         "--t-final", "1", "--points", "3",
                         "--output", str(out_csv), "--full-state", str(full_csv))
    assert code == 0
    header, rows = read_csv(full_csv)
    assert header.split(",")[:3] == ["t", "rho_0_0_re", "rho_0_0_im"]
    assert len(header.split(",")) == 1 + 2 * 4
    assert len(rows) == 3
    assert float(rows[0][1]) == 1.0  # rho_00(0) for a site-0 start
    with pytest.raises(SystemExit):
        main(["trajectory", "--graph", "binary-tree", "--generations", "3",
              "--init", "leaves", "--realizations", "2",
              "--full-state", str(full_csv)])


DIMER_DENSITY_DUMP_HEADER = ("t,rho_0_0_re,rho_0_0_im,rho_0_1_re,rho_0_1_im,"
                             "rho_1_0_re,rho_1_0_im,rho_1_1_re,rho_1_1_im")


@pytest.mark.parametrize("pure,header,dump_header", [
    (False, "t,re_rho11,im_rho12,im_rho13,trace", DIMER_DENSITY_DUMP_HEADER),
    (True, "t,re_psi1,im_psi2,im_psi3,norm_sq",
     "t,psi_0_re,psi_0_im,psi_1_re,psi_1_im"),
], ids=["density", "pure"])
def test_trajectory_full_state_follows_the_main_csv(pure, header, dump_header,
                                                    tmp_path, capsys):
    code, out, _ = run_cli(capsys, "trajectory", "--graph", "custom",
                           "--edge-file", str(write_dimer(tmp_path)),
                           "--init", "site", "--init-site", "0", "--trap", "1",
                           "--t-final", "1", "--points", "3",
                           *(["--pure"] if pure else []), "--full-state", "-")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 * (1 + 3)
    assert lines[0] == header
    assert lines[4] == dump_header
    assert [float(v) for v in lines[5].split(",")[1:3]] == [1.0, 0.0]


def write_dimer(tmp_path):
    path = tmp_path / "dimer_edges.txt"
    path.write_text("2\n0 1\n")
    return path


def test_delta_max_from_synthetic_sweep(tmp_path, capsys):
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(
        "delta_eps,gamma_phi,eta_mean,eta_stderr,n,eta_loss_mean\n"
        "0.0,0.1,0.30,0.0,1,0.70\n"
        "0.0,1.0,0.50,0.0,1,0.50\n"
        "0.8,0.1,0.45,0.01,100,0.55\n"
        "0.8,1.0,0.51,0.01,100,0.49\n")
    out_csv = tmp_path / "dm.csv"
    code, _, _ = run_cli(capsys, "delta-max", "--input", str(sweep_csv),
                         "--output", str(out_csv))
    assert code == 0
    header, rows = read_csv(out_csv)
    assert header == "gamma_phi,delta_max,best_disorder,stderr"
    got = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    assert got[0.1] == (pytest.approx(0.15), 0.8)
    assert got[1.0] == (pytest.approx(0.01), 0.8)


def test_sweep_to_delta_max_chain(tmp_path, capsys):
    sweep_csv = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--graph", "binary-tree",
                         "--generations", "3", "--init", "leaves",
                         "--disorder-grid", "0,0.8", "--dephasing-grid", "0.2",
                         "--realizations", "4", "--output", str(sweep_csv))
    assert code == 0
    code, out, _ = run_cli(capsys, "delta-max", "--input", str(sweep_csv))
    assert code == 0
    assert out.startswith("gamma_phi,delta_max,best_disorder,stderr")
