"""Master-equation propagation and transport-efficiency evaluation.

The equation of motion is

    drho/dt = -i (H rho - rho H^dag) + D(rho)

with the non-Hermitian H from ``assemble_effective_hamiltonian`` and the
pure-dephasing increment D from ``apply_dephasing`` (rate
``model.coherence_damping_rate``). The transport efficiency

    eta = 2 * kappa * integral_0^inf <trap| rho(t) |trap> dt

is computed by two independent routes: adaptive time stepping of the master
equation, and a single linear solve against the vectorized generator. Both
report the loss bookkeeping eta_loss = 2 * Gamma * integral tr rho dt so
that eta + eta_loss + residual_trace == 1 up to solver tolerance.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .model import (TransportModel, apply_dephasing,
                    assemble_effective_hamiltonian, check_density_matrix)

TIME_STEPPING = "time-stepping"
LIOUVILLIAN_SOLVE = "liouvillian-solve"

TRACE_TOL = 1e-7  # time stepping stops once tr rho < TRACE_TOL
RTOL = 1e-8
ATOL = 1e-10
FALLBACK_HORIZON = 1e4  # integration horizon when recomb_rate == 0


class IntegrationError(RuntimeError):
    """Adaptive integration failed; ``time_reached`` holds the last good time."""

    def __init__(self, message: str, time_reached: float):
        super().__init__(message)
        self.time_reached = time_reached


class SolverError(RuntimeError):
    """The vectorized-generator linear system is singular or ill-conditioned."""


@dataclass(eq=False)
class EfficiencyResult:
    """Trapped probability with loss bookkeeping.

    residual_trace is the trace left at truncation (0 for the direct solve);
    horizon is the final time reached, in 1/V units (inf for the direct
    solve).
    """

    eta: float
    eta_loss: float
    residual_trace: float
    method: str
    horizon: float


@dataclass(eq=False)
class Trajectory:
    """States on an output time grid.

    ``states`` has shape (T, N, N) for density-matrix runs and (T, N) for
    pure-amplitude runs.
    """

    times: np.ndarray
    states: np.ndarray

    @property
    def is_pure(self) -> bool:
        return self.states.ndim == 2


def _vec(mat: np.ndarray) -> np.ndarray:
    return mat.flatten(order="F")


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape((n, n), order="F")


def _rhs_closure(model: TransportModel):
    """Flat master-equation RHS with H assembled once."""
    h = assemble_effective_hamiltonian(model)
    hdag = h.conj().T
    n = model.n_sites
    rate = model.coherence_damping_rate

    def rhs(t, y):
        rho = _unvec(y, n)
        out = -1j * (h @ rho - rho @ hdag)
        if rate:
            out += apply_dephasing(rho, rate)
        return _vec(out)

    return rhs


def master_equation_rhs(rho: np.ndarray, model: TransportModel) -> np.ndarray:
    """Right-hand side of the master equation at state rho."""
    rho = np.asarray(rho, dtype=complex)
    n = model.n_sites
    if rho.shape != (n, n):
        raise ValueError(f"rho shape {rho.shape} does not match {n} sites")
    return _unvec(_rhs_closure(model)(0.0, _vec(rho)), n)


def _integrate(rhs, t_final: float, y0: np.ndarray, **kw):
    """RK45 at RTOL/ATOL from 0 to t_final; IntegrationError if it fails."""
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
    sol = solve_ivp(rhs, (0.0, t_final), y0, method="RK45", rtol=RTOL,
                    atol=ATOL, **kw)
    if sol.status < 0:
        t_reached = sol.t[-1] if len(sol.t) else 0.0
        raise IntegrationError(f"integration failed: {sol.message}", t_reached)
    return sol


def propagate(rho0: np.ndarray, model: TransportModel, t_final: float,
              n_points: int = 2000, times: np.ndarray | None = None) -> Trajectory:
    """Integrate the master equation and record states on an output grid.

    Adaptive embedded Runge-Kutta pair of order 4/5 in dense complex
    arithmetic. States are re-Hermitized at the output points.
    """
    check_density_matrix(rho0)
    n = model.n_sites
    if times is None:
        times = np.linspace(0.0, t_final, n_points)
    sol = _integrate(_rhs_closure(model), t_final,
                     _vec(np.asarray(rho0, dtype=complex)),
                     t_eval=np.asarray(times, dtype=float))
    states = np.moveaxis(sol.y.reshape((n, n, -1), order="F"), 2, 0)
    states = 0.5 * (states + states.conj().transpose(0, 2, 1))
    return Trajectory(times=sol.t.copy(), states=states)


def propagate_pure(psi0: np.ndarray, model: TransportModel, t_final: float,
                   n_points: int = 2000, times: np.ndarray | None = None) -> Trajectory:
    """Integrate d psi/dt = -i H psi for a pure amplitude vector.

    Only valid at zero dephasing: pure states do not stay pure under the
    dephasing channel.
    """
    if model.dephasing_rate != 0.0:
        raise ValueError("pure-state propagation requires dephasing_rate == 0")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (model.n_sites,):
        raise ValueError("psi0 must be a length-N amplitude vector")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    h = assemble_effective_hamiltonian(model)
    if times is None:
        times = np.linspace(0.0, t_final, n_points)

    def rhs(t, y):
        return -1j * (h @ y)

    sol = _integrate(rhs, t_final, psi0, t_eval=np.asarray(times, dtype=float))
    return Trajectory(times=sol.t.copy(), states=sol.y.T.copy())


def efficiency_timestepping(rho0: np.ndarray, model: TransportModel,
                            t_max: float | None = None) -> EfficiencyResult:
    """Transport efficiency by adaptive integration of the master equation.

    The running integrals of the trap population and of the trace are
    carried as extra state components, so the quadrature has the same order
    as the integrator and is accumulated on accepted steps rather than on an
    output grid. Integration stops when tr rho < TRACE_TOL or at
    t_max = ln(1/TRACE_TOL) / (2 Gamma), whichever comes first (the trace
    decays at least at rate 2 Gamma). With Gamma == 0 a fallback horizon is
    used and the returned eta is a lower bound whenever residual_trace > 0.
    """
    check_density_matrix(rho0)
    n = model.n_sites
    if t_max is None:
        if model.recomb_rate > 0:
            t_max = math.log(1.0 / TRACE_TOL) / (2.0 * model.recomb_rate)
        else:
            t_max = FALLBACK_HORIZON
    rhs_flat = _rhs_closure(model)
    trap = model.trap_site
    diag_idx = np.arange(n) * (n + 1)

    def rhs(t, y):
        core = rhs_flat(t, y[:n * n])
        rho_tt = y[trap * (n + 1)].real
        tr = y[diag_idx].real.sum()
        return np.concatenate([core, [rho_tt, tr]])

    def trace_event(t, y):
        return y[diag_idx].real.sum() - TRACE_TOL

    trace_event.terminal = True
    trace_event.direction = -1

    y0 = np.concatenate([_vec(np.asarray(rho0, dtype=complex)),
                         np.zeros(2, dtype=complex)])
    sol = _integrate(rhs, t_max, y0, events=trace_event)
    y_end = sol.y[:, -1]
    eta = 2.0 * model.trap_rate * y_end[n * n].real
    eta_loss = 2.0 * model.recomb_rate * y_end[n * n + 1].real
    residual = y_end[diag_idx].real.sum()
    return EfficiencyResult(eta=eta, eta_loss=eta_loss, residual_trace=residual,
                            method=TIME_STEPPING, horizon=float(sol.t[-1]))


def build_liouvillian(model: TransportModel) -> sp.csc_matrix:
    """Vectorized generator of the master equation (column-stacking).

    -i(H rho - rho H^dag) becomes -i [I (x) H - conj(H) (x) I]; the
    dephasing map is diagonal in the site basis. Assembled sparse, once per
    model.
    """
    h = assemble_effective_hamiltonian(model)
    n = model.n_sites
    ident = sp.identity(n, format="csr", dtype=complex)
    hs = sp.csr_matrix(h)
    gen = -1j * (sp.kron(ident, hs, format="csr")
                 - sp.kron(hs.conj(), ident, format="csr"))
    rate = model.coherence_damping_rate
    if rate:
        gen = gen + sp.diags(_vec(apply_dephasing(np.ones((n, n)), rate)))
    return gen.tocsc()


def efficiency_liouvillian(rho0: np.ndarray, model: TransportModel) -> EfficiencyResult:
    """Transport efficiency from one sparse linear solve.

    All generator eigenvalues have real part <= -2 Gamma, so for Gamma > 0
    the time integral X of rho solves generator @ X = -rho0 exactly;
    eta = 2 kappa X[trap, trap]. No truncation error and fixed cost, which
    makes this the default for sweep production.

    Called directly, this runs on the caller's OpenBLAS thread count, and
    the last bits of eta follow that count through the BLAS calls inside
    SuperLU. ``compute_efficiency`` pins one thread and is the reproducible
    entry point.
    """
    if model.recomb_rate <= 0:
        raise ValueError("direct solve requires recomb_rate > 0 "
                         "(guarantees an invertible generator)")
    check_density_matrix(rho0)
    n = model.n_sites
    gen = build_liouvillian(model)
    b = -_vec(np.asarray(rho0, dtype=complex))
    try:
        x = spla.splu(gen).solve(b)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"generator factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("generator solve produced non-finite values")
    big_x = _unvec(x, n)
    eta = 2.0 * model.trap_rate * big_x[model.trap_site, model.trap_site].real
    eta_loss = 2.0 * model.recomb_rate * np.trace(big_x).real
    return EfficiencyResult(eta=eta, eta_loss=eta_loss, residual_trace=0.0,
                            method=LIOUVILLIAN_SOLVE, horizon=math.inf)


# C entry points of OpenBLAS builds: plain, 64-bit-integer, and the
# prefixed scipy-openblas builds that numpy and scipy wheels bundle.
_OPENBLAS_THREAD_SETTERS = (
    "openblas_set_num_threads", "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


@functools.cache
def _openblas_thread_controls() -> tuple[tuple, ...]:
    """(set, get) thread-count functions of each OpenBLAS in this process.

    Libraries are found in /proc/self/maps, so there are none where that
    file does not exist.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_SETTERS:
            getter = name.replace("_set_", "_get_")
            if hasattr(lib, name) and hasattr(lib, getter):
                controls.append((getattr(lib, name), getattr(lib, getter)))
    return tuple(controls)


@contextlib.contextmanager
def _blas_on_one_thread():
    """Run the body with OpenBLAS on one thread; restore the counts after."""
    controls = _openblas_thread_controls()
    before = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), n in zip(controls, before):
            set_threads(n)


def compute_efficiency(rho0: np.ndarray, model: TransportModel,
                       solver: str = "liouvillian") -> EfficiencyResult:
    """Dispatch to one of the two efficiency solvers by name.

    The solver runs OpenBLAS on one thread, and the caller's setting is
    restored afterwards. Threaded BLAS inside SuperLU changes the last bits
    of eta with the thread count; on one thread a sweep cell, the matching
    ``enaqt single`` run and a pool worker's job give the same bits on any
    number of cores, and pool workers, one per core, do not oversubscribe
    the cores.
    """
    solvers = {"liouvillian": efficiency_liouvillian,
               "timestepping": efficiency_timestepping}
    if solver not in solvers:
        raise ValueError(f"unknown solver {solver!r}")
    with _blas_on_one_thread():
        return solvers[solver](rho0, model)
