"""Disorder ensembles and (disorder x dephasing) grid sweeps.

Seeding hierarchy: a master seed is mixed with the bit patterns of the cell
coordinates (delta_eps, gamma_phi) to give a per-cell seed, which is mixed
with the realization index to key each energy draw. Results are therefore
bit-identical for a given (grid, master_seed) regardless of worker count or
execution order, and a standalone run at the same coordinates reproduces
the corresponding sweep cell.
"""
from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import compute_efficiency, EfficiencyResult
from .graph import Topology
from .model import UNIFORM_MIXTURE, TransportModel, initial_state, sample_site_energies

DEFAULT_MASTER_SEED = 424242

SWEEP_CSV_HEADER = "delta_eps,gamma_phi,eta_mean,eta_stderr,n,eta_loss_mean"


def format_cell(value) -> str:
    """A CSV cell or printed value: strings and ints as they are, other
    numbers as repr(float), which reads back to the same float."""
    return str(value) if isinstance(value, (str, int)) else repr(float(value))


def write_csv(fh, header: str, rows) -> None:
    """Header line, then one line of format_cell cells per row."""
    fh.write(header + "\n")
    for row in rows:
        fh.write(",".join(map(format_cell, row)) + "\n")


def default_disorder_grid() -> tuple[float, ...]:
    """0 to 2.5 in steps of 0.1."""
    return tuple(np.round(np.linspace(0.0, 2.5, 26), 12))


def default_dephasing_grid() -> tuple[float, ...]:
    """0 to 1.2 in steps of 0.05 (linear)."""
    return tuple(np.round(np.linspace(0.0, 1.2, 25), 12))


@dataclass(frozen=True)
class SweepGrid:
    """A sweep: value grids plus everything held fixed across cells."""

    topology: Topology
    disorder_values: tuple[float, ...]
    dephasing_values: tuple[float, ...]
    n_realizations: int = 100
    initial_kind: str = UNIFORM_MIXTURE
    initial_site: int | None = None
    trap_site: int = 0
    trap_rate: float = 1.0
    recomb_rate: float = 0.01
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        for name in ("disorder_values", "dephasing_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} {vals} must be strictly increasing")
            if vals[0] < 0:
                raise ValueError(f"{name} {vals} must be nonnegative")
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"{name} {vals} must be finite")
        if self.n_realizations < 1:
            raise ValueError(f"n_realizations must be >= 1, got {self.n_realizations}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        # the state and the rates every job will use, checked once here
        # rather than failing in every job; no energies are drawn
        self.initial_state()
        TransportModel(topology=self.topology,
                       site_energies=(0.0,) * self.topology.n_sites,
                       trap_site=self.trap_site, trap_rate=self.trap_rate,
                       recomb_rate=self.recomb_rate)

    def model(self, delta_eps: float, gamma_phi: float,
              realization_index: int) -> TransportModel:
        """Model of one (cell, realization) job.

        Energies are keyed on (master_seed, cell coordinates,
        realization_index); at delta_eps == 0 every realization index gives
        the same model.
        """
        energies = sample_site_energies(
            delta_eps, cell_seed(self.master_seed, delta_eps, gamma_phi),
            realization_index, self.topology.n_sites)
        return TransportModel(
            topology=self.topology, site_energies=tuple(energies),
            trap_site=self.trap_site, trap_rate=self.trap_rate,
            recomb_rate=self.recomb_rate, dephasing_rate=gamma_phi)

    def initial_state(self) -> np.ndarray:
        return initial_state(self.topology, self.initial_kind, self.initial_site)


class SweepRow(NamedTuple):
    """One cell of a sweep, in the column order of its CSV line."""

    delta_eps: float
    gamma_phi: float
    eta_mean: float
    eta_stderr: float
    n: int
    eta_loss_mean: float


@dataclass(eq=False)
class SweepTable:
    """Ensemble-averaged efficiencies, one row per grid cell.

    Rows are sorted by (delta_eps, gamma_phi). ``failures`` lists any
    (cell, realization) jobs that raised; their cells report the
    realizations that did complete.
    """

    rows: tuple[SweepRow, ...]
    failures: tuple[str, ...] = field(default_factory=tuple)

    def dephasing_values(self) -> tuple[float, ...]:
        return tuple(sorted({r.gamma_phi for r in self.rows}))

    def cell(self, delta_eps: float, gamma_phi: float) -> SweepRow:
        for r in self.rows:
            if (np.isclose(r.delta_eps, delta_eps, rtol=1e-12, atol=0.0)
                    and np.isclose(r.gamma_phi, gamma_phi, rtol=1e-12, atol=0.0)):
                return r
        raise KeyError(f"no cell at ({delta_eps}, {gamma_phi})")

    def to_csv(self, fh) -> None:
        write_csv(fh, SWEEP_CSV_HEADER, self.rows)

    @classmethod
    def from_csv(cls, fh) -> "SweepTable":
        header = fh.readline().strip()
        if header != SWEEP_CSV_HEADER:
            raise ValueError(f"unexpected sweep CSV header {header!r}")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ValueError(f"malformed sweep CSV row {line!r}")
            rows.append(SweepRow(
                delta_eps=float(parts[0]), gamma_phi=float(parts[1]),
                eta_mean=float(parts[2]), eta_stderr=float(parts[3]),
                n=int(parts[4]), eta_loss_mean=float(parts[5])))
        return cls(rows=tuple(rows))


def _float_key(x: float) -> int:
    """Stable 64-bit key for a grid coordinate (its IEEE-754 bit pattern)."""
    return int(np.float64(x).view(np.uint64))


def cell_seed(master_seed: int, delta_eps: float, gamma_phi: float) -> int:
    """Per-cell seed mixed from the master seed and the cell coordinates."""
    seq = np.random.SeedSequence(
        (master_seed, _float_key(delta_eps), _float_key(gamma_phi)))
    return int(seq.generate_state(1, np.uint64)[0])


def run_point(grid: SweepGrid, delta_eps: float, gamma_phi: float,
              realization_index: int, solver: str = "liouvillian") -> EfficiencyResult:
    """Evaluate one (cell, realization) job of a sweep."""
    return compute_efficiency(grid.initial_state(),
                              grid.model(delta_eps, gamma_phi, realization_index),
                              solver=solver)


def _run_cell(args):
    grid, delta_eps, gamma_phi, solver = args
    n_real = 1 if delta_eps == 0.0 else grid.n_realizations
    etas, losses, errors = [], [], []
    for r in range(n_real):
        try:
            res = run_point(grid, delta_eps, gamma_phi, r, solver=solver)
            etas.append(res.eta)
            losses.append(res.eta_loss)
        except Exception as exc:
            errors.append(f"{type(exc).__name__}: {exc} [delta_eps={delta_eps} "
                          f"gamma_phi={gamma_phi} realization={r}]")
    return delta_eps, gamma_phi, etas, losses, errors


def run_sweep(grid: SweepGrid, n_workers: int = 1,
              solver: str = "liouvillian") -> SweepTable:
    """Run every (cell x realization) job and aggregate.

    Cells at delta_eps == 0 are deterministic and use a single realization.
    Aggregation is keyed by cell indices, so the table is independent of
    scheduling and worker count.
    """
    jobs = [(grid, d, g, solver)
            for d in grid.disorder_values for g in grid.dephasing_values]
    if n_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]
    rows, failures = [], []
    for delta_eps, gamma_phi, etas, losses, errors in results:
        failures.extend(errors)
        if not etas:
            continue
        etas = np.asarray(etas)
        stderr = 0.0 if len(etas) < 2 else float(etas.std(ddof=1) / math.sqrt(len(etas)))
        rows.append(SweepRow(
            delta_eps=delta_eps, gamma_phi=gamma_phi,
            eta_mean=float(etas.mean()), eta_stderr=stderr, n=len(etas),
            eta_loss_mean=float(np.mean(losses))))
    return SweepTable(rows=tuple(rows), failures=tuple(failures))


# --- sweep configuration files: plain "key = value" lines ---

CONFIG_KEYS = frozenset({
    "graph", "generations", "dimension", "edge_file", "init", "init_site",
    "trap", "kappa", "gamma_recomb", "disorder_values", "dephasing_values",
    "n_realizations", "seed", "solver", "workers",
})


def parse_grid_values(text: str) -> tuple[float, ...]:
    """Parse a grid spec: 'a:b:step', 'log:a:b:count', or a comma list."""
    text = text.strip()
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad log grid spec {text!r} (want log:start:stop:count)")
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
        if start <= 0 or stop <= start or count < 2:
            raise ValueError(f"bad log grid spec {text!r}")
        raw = np.logspace(math.log10(start), math.log10(stop), count)
    elif ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad grid spec {text!r} (want start:stop:step)")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad grid spec {text!r}")
        count = int(round((stop - start) / step)) + 1
        if abs(start + (count - 1) * step - stop) > 1e-9:
            raise ValueError(f"grid spec {text!r}: step does not divide the range")
        raw = np.linspace(start, stop, count)
    else:
        return tuple(float(v) for v in text.split(","))
    values = np.round(raw, 12)
    if np.any(np.abs(values - raw) > 1e-6 * np.abs(raw)):
        raise ValueError(f"grid spec {text!r}: rounding to 12 decimals moves "
                         "a value by more than 1e-6 of itself")
    return tuple(values)


def load_sweep_config(path) -> dict[str, str]:
    """Read a 'key = value' config file; unknown keys are rejected."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in text.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out
