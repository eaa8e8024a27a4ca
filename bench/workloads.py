"""Workloads of the enaqt benchmark and the body of the process running one.

run.py starts a fresh process per workload run, which calls ``main``: it
builds the workload's inputs from the seed, prints ``READY`` (run.py times
set-up up to that line), runs the timed phase and prints one JSON result
line.

The program receives only generated inputs: a ``SweepGrid`` whose master
seed is the workload seed, or models whose site energies the benchmark
draws itself. Every solve is checked: the budget
``|1 - eta - eta_loss - residual_trace| <= 1e-9`` on any seed, time
stepping against the direct solve to 1e-6, and, on the seed stored in
``reference.json``, every sweep cell and direct ``eta`` against the values
the library produced when the benchmark was written, to 1e-9. A solve that
raises or fails a check counts as failed.
"""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from enaqt import dynamics, ensemble, graph, model

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

DEFAULT_SEED = ensemble.DEFAULT_MASTER_SEED
LOG_GAMMAS = tuple(np.round(np.logspace(-2.0, 0.0, 9), 12))
SWEEP_DRAWS = 2
KAPPA, GAMMA = 1.0, 0.01
BUDGET_TOL = 1e-9
REFERENCE_TOL = 1e-9
ORACLE_TOL = 1e-6


@dataclass
class Tally:
    """Solves attempted and failed, and the worst check values seen."""

    attempted: int = 0
    failed: int = 0
    budget_defect_max: float = 0.0
    oracle_diff_max: float = 0.0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def budget_ok(self, res) -> bool:
        defect = abs(1.0 - res.eta - res.eta_loss - res.residual_trace)
        self.budget_defect_max = max(self.budget_defect_max, defect)
        return defect <= BUDGET_TOL

    def oracle_ok(self, stepped, direct) -> bool:
        diff = abs(stepped.eta - direct.eta)
        self.oracle_diff_max = max(self.oracle_diff_max, diff)
        return diff <= ORACLE_TOL


def draw_energies(seed: int, draw: int, delta_eps: float, n: int) -> tuple:
    """Gaussian site energies of one draw, from the benchmark's own stream."""
    rng = np.random.default_rng([seed, draw])
    return tuple(delta_eps * rng.standard_normal(n))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REFERENCE_TOL


class Workload:
    """A named input family on one graph, with the trap at site 0.

    Subclasses build the inputs from a seed (``build``), give the number
    of solves in one timed unit (``solves``), run and check unit k
    (``unit``, returning failed solves and seconds) and compute what
    reference.json stores (``reference``).
    """

    def __init__(self, name, build_topology, initial_kind):
        self.name = name
        self.build_topology = build_topology
        self.initial_kind = initial_kind

    def n_sites(self) -> int:
        return self.build_topology().n_sites

    def _model(self, top, energies, gamma_phi):
        return model.TransportModel(
            topology=top, site_energies=energies, trap_site=0,
            trap_rate=KAPPA, recomb_rate=GAMMA, dephasing_rate=gamma_phi)


class Sweep(Workload):
    """``ensemble.run_sweep`` over the acceptance grid: 26 disorder values
    times ``LOG_GAMMAS``, ``SWEEP_DRAWS`` draws per disordered cell. A timed
    unit is one sweep; every job in it is one solve."""

    def __init__(self, name, build_topology, initial_kind, n_workers):
        super().__init__(name, build_topology, initial_kind)
        self.n_workers = n_workers

    def build(self, seed: int):
        return ensemble.SweepGrid(
            topology=self.build_topology(),
            disorder_values=ensemble.default_disorder_grid(),
            dephasing_values=LOG_GAMMAS, n_realizations=SWEEP_DRAWS,
            initial_kind=self.initial_kind, trap_site=0, trap_rate=KAPPA,
            recomb_rate=GAMMA, master_seed=seed)

    def solves(self, grid) -> int:
        return sweep_jobs(grid)

    def unit(self, grid, k, ref, tally):
        t0 = time.perf_counter()
        table = ensemble.run_sweep(grid, n_workers=self.n_workers)
        elapsed = time.perf_counter() - t0
        return sweep_jobs(grid) - verified_jobs(table, grid, ref, tally), elapsed

    def reference(self, grid) -> dict:
        table = ensemble.run_sweep(grid, n_workers=1)
        return {"rows": [[r.delta_eps, r.gamma_phi, r.eta_mean, r.eta_loss_mean]
                         for r in table.rows]}


def draws_per_cell(grid, delta_eps: float) -> int:
    """Jobs run_sweep makes for one cell: zero disorder needs one draw."""
    return 1 if delta_eps == 0.0 else grid.n_realizations


def sweep_jobs(grid) -> int:
    return len(grid.dephasing_values) * sum(
        draws_per_cell(grid, d) for d in grid.disorder_values)


def verified_jobs(table, grid, ref, tally) -> int:
    """Jobs of a sweep in cells that are complete and pass every check.

    A job that raised leaves its cell short of draws, or without a row.
    """
    expected = None if ref is None else {(d, g): (eta, loss)
                                         for d, g, eta, loss in ref["rows"]}
    verified = 0
    for row in table.rows:
        defect = abs(1.0 - row.eta_mean - row.eta_loss_mean)
        tally.budget_defect_max = max(tally.budget_defect_max, defect)
        ok = defect <= BUDGET_TOL and row.n == draws_per_cell(grid, row.delta_eps)
        if expected is not None:
            want = expected.get((row.delta_eps, row.gamma_phi))
            ok = ok and want is not None and _close(row.eta_mean, want[0]) \
                and _close(row.eta_loss_mean, want[1])
        verified += row.n if ok else 0
    return verified


class DirectSolves(Workload):
    """One ``dynamics.efficiency_liouvillian`` call per timed unit, cycling
    through ``n_draws`` disordered models."""

    def __init__(self, name, build_topology, initial_kind, delta_eps,
                 gamma_phi, n_draws):
        super().__init__(name, build_topology, initial_kind)
        self.delta_eps, self.gamma_phi, self.n_draws = delta_eps, gamma_phi, n_draws

    def build(self, seed: int):
        top = self.build_topology()
        models = [self._model(top, draw_energies(seed, k, self.delta_eps,
                                                 top.n_sites), self.gamma_phi)
                  for k in range(self.n_draws)]
        return model.initial_state(top, self.initial_kind), models

    def solves(self, inputs) -> int:
        return 1

    def unit(self, inputs, k, ref, tally):
        rho0, models = inputs
        t0 = time.perf_counter()
        res = dynamics.efficiency_liouvillian(rho0, models[k % self.n_draws])
        elapsed = time.perf_counter() - t0
        ok = tally.budget_ok(res)
        if ref is not None:
            want = ref["direct"][k % self.n_draws]
            ok = ok and _close(res.eta, want[0]) and _close(res.eta_loss, want[1])
        return 0 if ok else 1, elapsed

    def reference(self, inputs) -> dict:
        rho0, models = inputs
        out = [dynamics.efficiency_liouvillian(rho0, m) for m in models]
        return {"direct": [[r.eta, r.eta_loss] for r in out]}


class Oracle(Workload):
    """``dynamics.efficiency_timestepping`` on every (disorder, dephasing)
    cell per timed unit; draw k of the disordered cells in unit k. Each
    result is checked against ``efficiency_liouvillian`` outside the timing."""

    def __init__(self, name, build_topology, initial_kind, cells, n_draws):
        super().__init__(name, build_topology, initial_kind)
        self.cells, self.n_draws = cells, n_draws

    def build(self, seed: int):
        top = self.build_topology()
        models = [[self._model(top, draw_energies(seed, k, d, top.n_sites), g)
                   for d, g in self.cells] for k in range(self.n_draws)]
        return model.initial_state(top, self.initial_kind), models

    def solves(self, inputs) -> int:
        return len(self.cells)

    def unit(self, inputs, k, ref, tally):
        rho0, models = inputs
        failed, elapsed = 0, 0.0
        for c, mdl in enumerate(models[k % self.n_draws]):
            t0 = time.perf_counter()
            stepped = dynamics.efficiency_timestepping(rho0, mdl)
            elapsed += time.perf_counter() - t0
            direct = dynamics.efficiency_liouvillian(rho0, mdl)
            ok = tally.budget_ok(stepped) and tally.budget_ok(direct) \
                and tally.oracle_ok(stepped, direct)
            if ref is not None:
                ok = ok and _close(direct.eta, ref["direct"][k % self.n_draws][c])
            failed += not ok
        return failed, elapsed

    def reference(self, inputs) -> dict:
        rho0, models = inputs
        return {"direct": [[dynamics.efficiency_liouvillian(rho0, m).eta
                            for m in row] for row in models]}


# Builders look graph functions up at call time, so traced runs see the
# wrapped ones.
def _tree5():
    return graph.build_binary_tree(5)


def _hypercube4():
    return graph.build_hypercube(4)


def _hypercube6():
    return graph.build_hypercube(6)


# Why each workload was chosen is recorded in BENCHMARK.json.
# sweep-hypercube4-2w is runnable here but not listed there: its two pool
# workers each drive threaded OpenBLAS, and on two cores 234-job sweeps
# took 4-50 s against about 1 s at one worker, a spread no regression
# bound of at most 25% can hold. Its mechanism is measured by
# the per-layer ensemble.speedup_2w.* and ensemble.cpu_per_wall_2w.
WORKLOADS = {w.name: w for w in (
    Sweep("sweep-tree5", _tree5, model.LEAF_MIXTURE, n_workers=1),
    Sweep("sweep-hypercube4-2w", _hypercube4, model.UNIFORM_MIXTURE,
          n_workers=2),
    DirectSolves("solve-hypercube6", _hypercube6, model.UNIFORM_MIXTURE,
                 delta_eps=1.0, gamma_phi=0.1, n_draws=4),
    Oracle("oracle-tree5", _tree5, model.LEAF_MIXTURE,
           cells=((0.0, 0.01), (0.0, 1.0), (1.0, 0.01), (1.0, 1.0)),
           n_draws=8),
)}


def load_reference(name: str, seed: int):
    """Stored results of ``name`` when ``seed`` is the reference seed."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)
    return stored["workloads"][name] if seed == stored["seed"] else None


def timed_phase(wl, inputs, seconds, ref, tally) -> float:
    """Run whole units until ``seconds`` have passed; median verified solves/s."""
    rates = []
    attempted = wl.solves(inputs)
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        try:
            failed, elapsed = wl.unit(inputs, k, ref, tally)
        except Exception:  # a solve that raises is a failed solve, not a crash
            traceback.print_exc()
            failed, elapsed = attempted, math.inf
        tally.attempted += attempted
        tally.failed += failed
        rates.append((attempted - failed) / elapsed)
        k += 1
        if time.perf_counter() >= deadline:
            return statistics.median(rates)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def _blas(config) -> str | None:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}" if blas else None


def environment() -> dict:
    """Machine and library record; the BLAS variables as found, never set.

    It starts no process, so ``peak_rss_mb`` counts only pool workers as
    children; run.py adds the git commit.
    """
    import multiprocessing
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "start_method": multiprocessing.get_start_method(),
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(wl, inputs, seed: int, seconds: float, trace: bool) -> dict:
    ref = load_reference(wl.name, seed)
    tally = Tally()
    detail = {"workload": wl.name, "seed": seed,
              "reference_checked": ref is not None,
              "environment": environment()}
    if trace:
        import layers
        metrics, detail["layers"] = layers.traced_run(wl, inputs, seed, seconds,
                                                      ref, tally)
    else:
        rate = timed_phase(wl, inputs, seconds, ref, tally)
        metrics = {"solves_per_s": {"value": rate, "unit": "1/s"},
                   "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}
    detail.update(failed_frac=tally.failed / tally.attempted,
                  budget_defect_max=tally.budget_defect_max,
                  oracle_diff_max=tally.oracle_diff_max)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "detail": detail}


def main(args) -> int:
    """Body of one fresh workload process started by run.py."""
    wl = WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    print("READY", flush=True)
    if args.child == "run":
        print(json.dumps(run(wl, inputs, args.seed, args.seconds,
                             bool(args.trace))))
    return 0
