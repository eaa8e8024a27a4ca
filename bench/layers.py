"""Per-layer metrics of the traced run (``--trace 1``).

The traced run spends half of ``--seconds`` on the workload's timed phase
untraced and half on it with every call into ``graph``, ``model``,
``dynamics``, ``ensemble``, ``analysis`` and ``cli`` wrapped in a span (see
tracing.py); the ratio of the two rates is ``trace.overhead_frac``. Then it
runs a fixed probe suite that reaches the layers and sizes the workload
does not. Each metric's samples come from one of these stages:

- "workload": the workload's traced phase; if the workload makes no such
  call in this process (pool workers keep their spans), the named fallback.
- "ladder": one disordered direct solve (delta_eps=1, gamma_phi=0.1) per
  draw on hypercube d=4/6 and trees g=5/6/7 (N = 16, 64, 31, 63, 127).
- "sweep1w": ``run_sweep`` at 1 worker on tree g=5, 26 x 9 cells, 1 draw.
- "probe": the rest of the probe suite, listed in ``probe``.

``LAYER_METRICS`` maps each metric to its unit, its better direction and
the end-to-end metric and workload it should move.
"""
from __future__ import annotations

import contextlib
import io
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from enaqt import analysis, cli, dynamics, ensemble, graph, model
from tracing import Tracer, instrument
import workloads
from workloads import LOG_GAMMAS, draw_energies, sweep_jobs, verified_jobs

LAYER_METRICS = {
    "graph.build_ms": ("ms", "lower", "setup_s, every workload"),
    "model.draw_ms": ("ms", "lower", "solves_per_s, sweep-*"),
    "model.heff_ms": ("ms", "lower", "solves_per_s, sweep-*"),
    "model.check_rho_ms": ("ms", "lower", "solves_per_s, sweep-*"),
    "dynamics.generator_ms": ("ms", "lower",
                              "solves_per_s, sweep-* and solve-hypercube6"),
    "dynamics.generator_nnz": ("count", "lower",
                               "solves_per_s, sweep-* and solve-hypercube6"),
    "dynamics.factor_solve_ms": ("ms", "lower", "solves_per_s, solve-hypercube6"),
    "dynamics.lu_fill": ("ratio", "lower", "peak_rss_mb, solve-hypercube6; "
                         "explains sweep-hypercube4-2w"),
    "dynamics.lu_mb": ("MB", "lower", "peak_rss_mb, solve-hypercube6"),
    "dynamics.direct_solve_ms.n16": ("ms", "lower",
                                     "solves_per_s, sweep-hypercube4-2w"),
    "dynamics.direct_solve_ms.n31": ("ms", "lower", "solves_per_s, sweep-tree5"),
    "dynamics.direct_solve_ms.n63": ("ms", "lower", "none; scale trend"),
    "dynamics.direct_solve_ms.n64": ("ms", "lower",
                                     "solves_per_s, solve-hypercube6"),
    "dynamics.direct_solve_ms.n127": ("ms", "lower", "none; scale trend"),
    "dynamics.timestep_solve_ms": ("ms", "lower", "solves_per_s, oracle-tree5"),
    "dynamics.timestep_ms_per_unit_t": ("ms/unit_t", "lower",
                                        "solves_per_s, oracle-tree5"),
    "dynamics.propagate_ms": ("ms", "lower", "none; enaqt trajectory"),
    "dynamics.budget_defect_max": ("abs", "lower", "failed_frac, every workload"),
    "dynamics.oracle_diff_max": ("abs", "lower", "failed_frac, every workload"),
    "ensemble.run_point_ms.p50": ("ms", "lower", "solves_per_s, sweep-tree5"),
    "ensemble.run_point_ms.p90": ("ms", "lower", "solves_per_s, sweep-tree5"),
    "ensemble.overhead_frac": ("fraction", "lower", "solves_per_s, sweep-tree5"),
    "ensemble.to_csv_ms": ("ms", "lower", "solves_per_s, sweep-tree5"),
    "ensemble.speedup_2w.tree5": ("ratio", "higher",
                                  "solves_per_s, sweep-hypercube4-2w"),
    "ensemble.speedup_2w.hypercube4": ("ratio", "higher",
                                       "solves_per_s, sweep-hypercube4-2w"),
    "ensemble.cpu_per_wall_2w": ("ratio", "lower",
                                 "solves_per_s, sweep-hypercube4-2w"),
    "analysis.subspace_ms": ("ms", "lower", "none; enaqt bound"),
    "analysis.gain_ms": ("ms", "lower", "none; enaqt delta-max"),
    "cli.startup_s": ("s", "lower", "setup_s, every workload"),
    "cli.single_ms": ("ms", "lower", "none; baseline for one problem spec"),
    "cli.bound_ms": ("ms", "lower", "none; baseline for one problem spec"),
    "trace.overhead_frac": ("fraction", "lower",
                            "none; traced against untraced solves_per_s"),
}

# name, topology builder, argument, initial state, draws
LADDER = (
    ("n16", graph.build_hypercube, 4, model.UNIFORM_MIXTURE, 10),
    ("n31", graph.build_binary_tree, 5, model.LEAF_MIXTURE, 10),
    ("n63", graph.build_binary_tree, 6, model.LEAF_MIXTURE, 5),
    ("n64", graph.build_hypercube, 6, model.UNIFORM_MIXTURE, 1),
    ("n127", graph.build_binary_tree, 7, model.LEAF_MIXTURE, 3),
)
REPEATS = 5
STARTUP_REPEATS = 3
CLI_SINGLE = ["single", "--graph", "binary-tree", "--generations", "5"]
CLI_BOUND = ["bound", "--graph", "hypercube", "--dimension", "4",
             "--init", "uniform", "--trap", "0"]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _sweep_grid(top, kind, gammas, seed):
    return ensemble.SweepGrid(
        topology=top, disorder_values=ensemble.default_disorder_grid(),
        dephasing_values=gammas, n_realizations=1, initial_kind=kind,
        trap_site=0, trap_rate=workloads.KAPPA, recomb_rate=workloads.GAMMA,
        master_seed=seed)


def _timed_sweep(grid, n_workers, tally):
    t0 = time.perf_counter()
    table = ensemble.run_sweep(grid, n_workers=n_workers)
    wall = time.perf_counter() - t0
    tally.attempted += sweep_jobs(grid)
    tally.failed += sweep_jobs(grid) - verified_jobs(table, grid, None, tally)
    return table, wall


def _checked_direct(rho0, mdl, tally):
    res = dynamics.efficiency_liouvillian(rho0, mdl)
    tally.record(tally.budget_ok(res))
    return res


def probe(tracer: Tracer, seed: int, tally) -> dict:
    """Run the probe suite under ``tracer``; return the values not held in spans."""
    out = {}
    tracer.phase = "ladder"
    for _, build, arg, kind, draws in LADDER:
        top = build(arg)
        rho0 = model.initial_state(top, kind)
        for k in range(draws):
            _checked_direct(rho0, model.TransportModel(
                topology=top, site_energies=draw_energies(seed, k, 1.0, top.n_sites),
                trap_site=0, trap_rate=workloads.KAPPA,
                recomb_rate=workloads.GAMMA, dephasing_rate=0.1), tally)

    tree5, hyper4 = graph.build_binary_tree(5), graph.build_hypercube(4)
    tracer.phase = "sweep1w"
    tree_grid = _sweep_grid(tree5, model.LEAF_MIXTURE, LOG_GAMMAS, seed)
    tree_table, tree_1w = _timed_sweep(tree_grid, 1, tally)

    tracer.phase = "probe"
    _, tree_2w = _timed_sweep(tree_grid, 2, tally)
    out["ensemble.speedup_2w.tree5"] = tree_1w / tree_2w
    hyper_grid = _sweep_grid(hyper4, model.UNIFORM_MIXTURE, LOG_GAMMAS[::4], seed)
    _, hyper_1w = _timed_sweep(hyper_grid, 1, tally)
    cpu0 = _cpu_seconds()
    _, hyper_2w = _timed_sweep(hyper_grid, 2, tally)
    out["ensemble.cpu_per_wall_2w"] = (_cpu_seconds() - cpu0) / hyper_2w
    out["ensemble.speedup_2w.hypercube4"] = hyper_1w / hyper_2w
    for _ in range(REPEATS):
        tree_table.to_csv(io.StringIO())
        for g in tree_grid.dephasing_values:
            analysis.max_disorder_gain(tree_table, g)

    for _ in range(REPEATS):
        with tracer.span("probe.bound", job_root=True):
            for top, kind in ((hyper4, model.UNIFORM_MIXTURE),
                              (tree5, model.LEAF_MIXTURE)):
                h = model.assemble_system_hamiltonian(top, np.zeros(top.n_sites))
                sub = analysis.invariant_subspace(h, 0)
                analysis.efficiency_upper_bound(sub, model.initial_state(top, kind))

    ordered = model.TransportModel(topology=tree5, site_energies=(0.0,) * 31,
                                   trap_site=0, dephasing_rate=1.0)
    rho0 = model.initial_state(tree5, model.LEAF_MIXTURE)
    stepped = dynamics.efficiency_timestepping(rho0, ordered)
    direct = _checked_direct(rho0, ordered, tally)
    tally.record(tally.budget_ok(stepped) and tally.oracle_ok(stepped, direct))
    coherent = model.TransportModel(topology=tree5, site_energies=(0.0,) * 31,
                                    trap_site=0)
    dynamics.propagate(model.initial_state(tree5, model.SINGLE_SITE, 30),
                       coherent, 30.0, n_points=2000)

    for _ in range(REPEATS):
        for argv in (CLI_SINGLE, CLI_BOUND):
            with contextlib.redirect_stdout(io.StringIO()):
                tally.record(cli.main(argv) == 0)
    tracer.phase = ""
    startup = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "enaqt.cli", *CLI_SINGLE],
                              capture_output=True, text=True, timeout=120)
        startup.append(time.perf_counter() - t0)
        tally.record(done.returncode == 0 and "eta = " in done.stdout)
    out["cli.startup_s"] = statistics.median(startup)
    return out


class _Spans:
    """Queries over one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.self_time = tracer.self_times()
        self.kids = tracer.children()
        self.job_n = {s.id: s.attrs["n"] for s in self.spans
                      if s.job == s.id and "n" in s.attrs}

    def find(self, name, phase, n=None, **attrs):
        return [s for s in self.spans if s.name == name and s.phase == phase
                and (n is None or self.job_n.get(s.job) == n)
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def pick(self, name, fallback, n=None, keep=lambda s: True):
        """Workload spans of ``name`` that ``keep`` accepts, else those of
        the fallback phase."""
        for found in (self.find(name, "workload"), self.find(name, fallback, n)):
            found = [s for s in found if keep(s)]
            if found:
                return found
        return []

    @staticmethod
    def per_job(spans):
        """Summed duration of the spans of each job."""
        jobs: dict = {}
        for s in spans:
            jobs[s.job] = jobs.get(s.job, 0.0) + s.duration
        return list(jobs.values())


def metrics(tracer: Tracer, n: int, extra: dict, tally) -> tuple[dict, dict]:
    """Every LAYER_METRICS value, and the sample count each rests on."""
    q = _Spans(tracer)
    values, counts = {}, {}

    def put(name, samples, reduce=lambda xs: 1e3 * statistics.median(xs)):
        if not samples:
            raise RuntimeError(f"no samples for layer metric {name}")
        values[name] = float(reduce(samples))
        counts[name] = len(samples)

    put("graph.build_ms", [s.duration for s in q.find("graph.build", "setup")])
    put("model.draw_ms", q.per_job(q.pick("model.draw", "sweep1w")))
    for name, span in (("model.heff_ms", "model.heff"),
                       ("model.check_rho_ms", "model.check_rho"),
                       ("dynamics.generator_ms", "dynamics.generator")):
        put(name, [s.duration for s in q.pick(span, "ladder", n)])
    put("dynamics.generator_nnz",
        [s.attrs["nnz"] for s in q.pick("dynamics.generator", "ladder", n)],
        statistics.median)
    direct = q.pick("dynamics.direct_solve", "ladder", n,
                    keep=lambda s: "lu_nnz" in s.attrs)
    put("dynamics.factor_solve_ms", [q.self_time[s.id] for s in direct])
    put("dynamics.lu_fill", [s.attrs["lu_nnz"] / s.attrs["gen_nnz"] for s in direct],
        statistics.median)
    # complex128 value plus int32 row index per stored nonzero
    put("dynamics.lu_mb", [s.attrs["lu_nnz"] * 20 / 1e6 for s in direct],
        statistics.median)
    for rung, *_ in LADDER:
        put(f"dynamics.direct_solve_ms.{rung}",
            [s.duration for s in q.find("dynamics.direct_solve", "ladder",
                                        int(rung[1:]))])
    stepped = q.pick("dynamics.timestep_solve", "probe")
    put("dynamics.timestep_solve_ms", [s.duration for s in stepped])
    put("dynamics.timestep_ms_per_unit_t",
        [s.duration / s.attrs["horizon"] for s in stepped])
    put("dynamics.propagate_ms",
        [s.duration for s in q.find("dynamics.propagate", "probe")])
    for name in ("budget_defect_max", "oracle_diff_max"):
        values[f"dynamics.{name}"] = getattr(tally, name)
        counts[f"dynamics.{name}"] = tally.attempted

    points = [s.duration for s in q.pick("ensemble.run_point", "sweep1w")]
    put("ensemble.run_point_ms.p50", points)
    put("ensemble.run_point_ms.p90", points, lambda xs: 1e3 * np.percentile(xs, 90))
    in_points = {s.id: sum(k.duration for k in q.kids.get(s.id, ())
                           if k.name == "ensemble.run_point")
                 for s in q.spans if s.name == "ensemble.run_sweep"}
    sweeps = q.pick("ensemble.run_sweep", "sweep1w", keep=lambda s: in_points[s.id])
    put("ensemble.overhead_frac",
        [1.0 - in_points[s.id] / s.duration for s in sweeps], statistics.median)
    put("ensemble.to_csv_ms", [s.duration for s in q.find("ensemble.to_csv", "probe")])
    put("analysis.subspace_ms", q.per_job(q.find("analysis.subspace", "probe")))
    put("analysis.gain_ms", [s.duration for s in q.find("analysis.gain", "probe")])
    for name, command in (("cli.single_ms", "single"), ("cli.bound_ms", "bound")):
        put(name, [s.duration for s in q.find("cli.main", "probe", command=command)])
    single_s = values["cli.single_ms"] / 1e3
    values.update(extra)
    values["cli.startup_s"] = extra["cli.startup_s"] - single_s
    counts.update({k: 1 for k in extra})
    counts["cli.startup_s"] = STARTUP_REPEATS
    return values, counts


def traced_run(wl, inputs, seed, seconds, ref, tally):
    """Untraced then traced timed phase, each ``seconds / 2``, and the probes.

    Returns the metrics and, per metric, its sample count and the
    end-to-end metric and workload it should move.
    """
    untraced_rate = workloads.timed_phase(wl, inputs, seconds / 2, ref, tally)
    tracer = Tracer()
    with instrument(tracer):
        tracer.phase = "setup"
        for _ in range(REPEATS):
            wl.build(seed)
        tracer.phase = "workload"
        traced_rate = workloads.timed_phase(wl, inputs, seconds / 2, ref, tally)
        extra = probe(tracer, seed, tally)
    extra["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    values, counts = metrics(tracer, wl.n_sites(), extra, tally)
    return ({name: {"value": values[name], "unit": unit}
             for name, (unit, _, _) in LAYER_METRICS.items()},
            {name: {"samples": counts[name], "predicts": predicts}
             for name, (_, _, predicts) in LAYER_METRICS.items()})
