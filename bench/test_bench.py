"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They check that every metric named in BENCHMARK.json is printed with its
unit, that a corrupted reference value makes solves fail, and that traced
spans nest with nonnegative self time. About a minute on two cores.
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

from enaqt import cli, dynamics, ensemble, graph, model  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _last_two(stdout):
    detail, result = stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    stored = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    assert stored["seed"] == run.REFERENCE_SEED == workloads.DEFAULT_SEED
    assert BENCH["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better, _) in layers.LAYER_METRICS.items()]


def test_end_to_end_metrics_printed_with_units_on_a_held_out_seed():
    done = _run("--workload", "sweep-tree5", "--seed", "11", "--seconds", "0.1",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    detail, result = _last_two(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["failed_frac"] == 0.0 and not detail["reference_checked"]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert var in detail["environment"]


def test_per_layer_metrics_printed_with_units_and_counts():
    done = _run("--workload", "sweep-tree5", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    detail, result = _last_two(done.stdout)
    assert result["correct"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in BENCH["per_layer"]}
    assert set(detail["layers"]) == set(layers.LAYER_METRICS)
    assert all(d["samples"] >= 1 for d in detail["layers"].values())


def test_corrupted_reference_value_fails_solves():
    wl = workloads.WORKLOADS["sweep-tree5"]
    grid = wl.build(workloads.DEFAULT_SEED)
    ref = workloads.load_reference(wl.name, workloads.DEFAULT_SEED)
    clean = workloads.Tally()
    workloads.timed_phase(wl, grid, 0.0, ref, clean)
    assert clean.attempted > 0 and clean.failed == 0

    ref["rows"][40][2] += 1e-8
    corrupted = workloads.Tally()
    workloads.timed_phase(wl, grid, 0.0, ref, corrupted)
    assert 0 < corrupted.failed / corrupted.attempted < 1


def test_oracle_check_and_budget_check_bite():
    tally = workloads.Tally()
    good = dynamics.EfficiencyResult(0.25, 0.75, 0.0, "x", 1.0)
    assert tally.budget_ok(good)
    assert not tally.budget_ok(dynamics.EfficiencyResult(0.25, 0.7499, 0.0, "x", 1.0))
    assert not tally.oracle_ok(dynamics.EfficiencyResult(0.2501, 0.7499, 0.0, "x", 1.0),
                               good)


def test_spans_nest_with_nonnegative_self_time():
    tree3 = graph.build_binary_tree(3)
    grid = ensemble.SweepGrid(topology=tree3, disorder_values=(0.0, 0.5),
                              dephasing_values=(0.1, 1.0), n_realizations=2,
                              initial_kind=model.LEAF_MIXTURE)
    mdl = model.TransportModel(topology=tree3, site_energies=(0.0,) * 7,
                               trap_site=0, dephasing_rate=1.0)
    tracer = Tracer()
    original = dynamics.efficiency_liouvillian
    with instrument(tracer):
        ensemble.run_sweep(grid)
        dynamics.efficiency_timestepping(model.initial_state(tree3, model.LEAF_MIXTURE),
                                         mdl)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["single", "--graph", "binary-tree", "--generations", "3"])
    assert dynamics.efficiency_liouvillian is original

    by_id = {s.id: s for s in tracer.spans}
    names = {s.name for s in tracer.spans}
    assert {"ensemble.run_sweep", "ensemble.run_point", "model.draw",
            "dynamics.direct_solve", "dynamics.generator", "model.heff",
            "model.check_rho", "dynamics.timestep_solve", "cli.main",
            "graph.build"} <= names
    for s in tracer.spans:
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.start <= s.start <= s.end <= p.end
            assert s.job == p.job or p.job is None
    assert all(t >= 0.0 for t in tracer.self_times().values())
    points = [s for s in tracer.spans if s.name == "ensemble.run_point"]
    assert len(points) == 6 and len({s.job for s in points}) == 6
    for s in tracer.spans:
        if s.name == "dynamics.direct_solve" and s.parent is not None \
                and by_id[s.parent].name == "ensemble.run_point":
            assert s.job == s.parent and "lu_nnz" in s.attrs


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", job_root=True):
        with tracer.span("inner"):
            np.linalg.eigvalsh(np.eye(50))
    outer, inner = tracer.spans
    self_time = tracer.self_times()
    assert inner.job == outer.job == outer.id
    assert abs(self_time[outer.id] - (outer.duration - inner.duration)) < 1e-12


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "sweep-tree5", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
