"""In-memory spans around calls into the enaqt modules.

``instrument(tracer)`` swaps selected public functions of ``enaqt.graph``,
``model``, ``dynamics``, ``ensemble``, ``analysis`` and ``cli`` for wrappers
that record a span per call, in every enaqt module namespace that refers to
them, and restores the originals on exit. The library itself is unchanged.
Spans live in memory until the run ends; nothing is written while timing.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

from enaqt import analysis, cli, dynamics, ensemble, graph, model
import enaqt

MODULES = (enaqt, graph, model, dynamics, ensemble, analysis, cli)


@dataclass
class Span:
    """One call: name, [start, end] in perf_counter seconds, parent and job.

    ``job`` is shared by every span of one job (one sweep ``run_point`` or
    one direct call of a solver); ``attrs`` holds counts taken at the call.
    """

    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    job: int | None = None
    phase: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one thread; ``phase`` tags spans by benchmark stage."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, job_root: bool = False, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                 parent=None if parent is None else parent.id,
                 phase=self.phase, attrs=dict(attrs))
        if parent is not None and parent.job is not None:
            s.job = parent.job
        elif job_root:
            s.job = s.id
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def annotate(self, **attrs) -> None:
        """Add counts to the innermost open span."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that its children cover."""
        kids = self.children()
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(kids.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.duration - covered
        return out


def _model_size(args, kwargs):
    return {"n": (args[1] if len(args) > 1 else kwargs["model"]).n_sites}


def _grid_size(args, kwargs):
    return {"n": (args[0] if args else kwargs["grid"]).topology.n_sites}


def _cli_command(args, kwargs):
    return {"command": (args[0] if args else kwargs["argv"])[0]}


def _generator_counts(result, args, kwargs):
    return {"nnz": result.nnz}


def _horizon(result, args, kwargs):
    return {"horizon": result.horizon}


# (module defining the function, attribute, span name, starts a job,
#  attrs from the arguments, attrs from the result)
TARGETS = (
    (graph, "build_binary_tree", "graph.build", False, None, None),
    (graph, "build_hypercube", "graph.build", False, None, None),
    (ensemble, "cell_seed", "model.draw", False, None, None),
    (model, "sample_site_energies", "model.draw", False, None, None),
    (model, "assemble_effective_hamiltonian", "model.heff", False, None, None),
    (model, "check_density_matrix", "model.check_rho", False, None, None),
    (dynamics, "build_liouvillian", "dynamics.generator", False, None,
     _generator_counts),
    (dynamics, "efficiency_liouvillian", "dynamics.direct_solve", True,
     _model_size, None),
    (dynamics, "efficiency_timestepping", "dynamics.timestep_solve", True,
     _model_size, _horizon),
    (dynamics, "propagate", "dynamics.propagate", True, _model_size, None),
    (ensemble, "run_point", "ensemble.run_point", True, _grid_size, None),
    (ensemble, "run_sweep", "ensemble.run_sweep", False, None, None),
    (analysis, "invariant_subspace", "analysis.subspace", False, None, None),
    (analysis, "efficiency_upper_bound", "analysis.subspace", False, None, None),
    (analysis, "max_disorder_gain", "analysis.gain", False, None, None),
    (cli, "main", "cli.main", True, _cli_command, None),
)


def _wrap(tracer, fn, name, job_root, arg_attrs, result_attrs):
    def wrapper(*args, **kwargs):
        attrs = arg_attrs(args, kwargs) if arg_attrs else {}
        with tracer.span(name, job_root=job_root, **attrs) as s:
            result = fn(*args, **kwargs)
            if result_attrs:
                s.attrs.update(result_attrs(result, args, kwargs))
            return result
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record spans for every call listed in TARGETS while the block runs.

    ``SweepTable.to_csv`` is wrapped on the class, and ``splu`` on
    ``scipy.sparse.linalg`` only to count the nonzeros of the LU factors
    into the enclosing direct-solve span. Pool workers forked inside the
    block inherit the wrappers but their spans stay in the worker.
    """
    saved = []
    try:
        for home, attr, name, job_root, arg_attrs, result_attrs in TARGETS:
            fn = getattr(home, attr)
            wrapper = _wrap(tracer, fn, name, job_root, arg_attrs, result_attrs)
            for mod in MODULES:
                if getattr(mod, attr, None) is fn:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        to_csv = ensemble.SweepTable.to_csv
        saved.append((ensemble.SweepTable, "to_csv", to_csv))
        ensemble.SweepTable.to_csv = _wrap(tracer, to_csv, "ensemble.to_csv",
                                           False, None, None)
        splu = spla.splu

        def counting_splu(a, *args, **kwargs):
            lu = splu(a, *args, **kwargs)
            tracer.annotate(gen_nnz=a.nnz, lu_nnz=lu.nnz)
            return lu

        saved.append((spla, "splu", splu))
        spla.splu = counting_splu
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
