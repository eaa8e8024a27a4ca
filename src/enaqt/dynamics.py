"""Master-equation propagation and transport-efficiency evaluation.

The equation of motion is

    drho/dt = -i (H rho - rho H^dag) + D(rho)

with the non-Hermitian H from ``assemble_effective_hamiltonian`` and the
pure-dephasing increment D, which damps every coherence at
``model.coherence_damping_rate``. The transport efficiency

    eta = 2 * kappa * integral_0^inf <trap| rho(t) |trap> dt

is computed by two independent routes from one real form of the master
equation, on the N^2 coordinates Z = Re rho + Im rho. Both take its map
from one sparse entry list per graph: adaptive time stepping applies it
as one natural-order sparse matrix, one product per stage, and the
direct solve factors it, permuted, in a single sparse linear solve. Both
report the loss bookkeeping eta_loss = 2 * Gamma * integral tr rho dt so
that eta + eta_loss + residual_trace == 1 up to solver tolerance.

Time stepping is the Dormand-Prince pair DOP853 in two drivers: the
efficiency runs Hairer's compiled code (scipy's ``ode``), which calls
Python only for the right-hand side and once per accepted step, and the
trajectories of ``propagate`` and ``propagate_pure`` run ``solve_ivp``,
whose dense output samples an output grid without restarting the steps.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import (TransportModel, assemble_effective_hamiltonian,
                    check_density_matrix, check_hermitian)

TIME_STEPPING = "time-stepping"
LIOUVILLIAN_SOLVE = "liouvillian-solve"

TRACE_TOL = 1e-7  # time stepping stops once tr rho < TRACE_TOL
RTOL = 1e-8
ATOL = 1e-10
FALLBACK_HORIZON = 1e4  # integration horizon when recomb_rate == 0
# step cap of the compiled DOP853, which scipy requires; no run reaches it
MAX_STEPS = 2**31 - 1
# largest backward error a direct solve may return (see efficiency_liouvillian)
BACKWARD_ERROR_TOL = 1e-10
# SuperLU settings of every factorization. Pivots stay on the diagonal while
# they are at least PIVOT_THRESHOLD of the largest entry in their column
# (see efficiency_liouvillian). scipy's default supernodes (panel 20, relax
# 10) pad small supernodes with explicit zeros, which on tree g=7 takes the
# real factors from 1.03 M to 1.45 M nonzeros and the solve from 70 to
# 135 ms; relax 2 keeps the tree factors lean, and panels of 8 columns keep
# most of the BLAS-3 speed on hypercube d=6 (600 ms, against 950 ms at 1).
PIVOT_THRESHOLD = 0.01
PANEL_SIZE = 8
RELAX = 2


class IntegrationError(RuntimeError):
    """Adaptive integration failed; ``time_reached`` is the last accepted time."""

    def __init__(self, message: str, time_reached: float):
        super().__init__(message)
        self.time_reached = time_reached


class SolverError(RuntimeError):
    """The direct solve's linear system is singular or ill-conditioned."""


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


def _pack(rho: np.ndarray) -> np.ndarray:
    """Real coordinates Z = Re rho + Im rho of a Hermitian rho, row-major."""
    return (rho.real + rho.imag).ravel()


def _unpack(z: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian matrices of real coordinates z, whose last axis holds
    one row-major Z each: rho = (Z + Z^T) / 2 + i (Z - Z^T) / 2."""
    z = z.reshape(*z.shape[:-1], n, n)
    zt = np.swapaxes(z, -1, -2)
    return 0.5 * (z + zt) + 0.5j * (z - zt)


def _read_only(**arrays) -> SimpleNamespace:
    for arr in arrays.values():
        arr.flags.writeable = False
    return SimpleNamespace(**arrays)


@functools.lru_cache(maxsize=8)
def _entries(n: int, edges: tuple[tuple[int, int], ...]) -> SimpleNamespace:
    """The entries of the real map on an n-site graph, which every model on
    it shares, in natural CSR order (``indptr``): entry e sits at
    (``rows[e]``, ``cols[e]``) and takes value ``source[e]`` of the table
    that ``_values`` gathers from.

    With ij the row-major index i n + j, the map has -D_ij at (ij, ij);
    eps_j - eps_i at (ij, ji) for i != j; and, for every directed edge
    (s, d) and every k, h_sd at (kd, sk) and -h_sd at (sk, kd). No two
    fall on the same position. The diagonal is listed whatever the rates:
    the direct solve needs Gamma > 0, which makes every D_ij positive.
    """
    e = np.array(edges, dtype=np.intp).reshape(-1, 2)
    src, dst = np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])
    nn = n * n
    diag = np.arange(nn)
    i, j = diag // n, diag % n
    off = diag[i != j]
    k = np.arange(n)[:, None]
    kd, sk = (k * n + dst).ravel(), (src * n + k).ravel()
    hop = np.tile(2 * nn + src * n + dst, n)
    rows = np.concatenate([diag, off, kd, sk])
    cols = np.concatenate([diag, j[off] * n + i[off], sk, kd])
    order = np.argsort(rows * nn + cols)
    rows = rows[order]
    return _read_only(
        rows=rows, cols=cols[order].astype(np.int32),
        indptr=np.searchsorted(rows, np.arange(nn + 1)).astype(np.int32),
        source=np.concatenate([diag, nn + off, hop, hop + nn])[order])


def _values(model: TransportModel) -> np.ndarray:
    """The values of the real map's entries for model, in ``_entries``'s
    order, gathered from the row-major table of -D, eps_j - eps_i, H_sys
    and -H_sys. H = H_sys - i diag(k), with H_sys real symmetric and
    k = Gamma + kappa e_trap, so on the real coordinates Z of ``_pack``
    dZ/dt = Z^T H_sys - H_sys Z^T - D o Z, with D_ij = k_i + k_j plus the
    coherence damping rate for i != j."""
    h = assemble_effective_hamiltonian(model)
    n = model.n_sites
    eps, k = h.real.diagonal(), -h.imag.diagonal()
    decay = k[:, None] + k + model.coherence_damping_rate * (1.0 - np.eye(n))
    table = np.concatenate([-decay, eps - eps[:, None], h.real, -h.real]).ravel()
    return table[_entries(n, model.topology.edges).source]


def _real_map(model: TransportModel, integrals: bool = False) -> sp.csr_matrix:
    """The real map A in natural order, as CSR: dz/dt = A z on the
    row-major z = _pack(rho). With ``integrals``, two more rows give the
    derivatives of the running integrals of the trap population
    z[trap (n + 1)] and of the trace sum_i z[i (n + 1)], carried as the
    last two components of a state two longer."""
    n = model.n_sites
    entries = _entries(n, model.topology.edges)
    values, cols, indptr = _values(model), entries.cols, entries.indptr
    size = n * n
    if integrals:
        diag = np.arange(0, size, n + 1, dtype=np.int32)
        values = np.concatenate([values, np.ones(n + 1)])
        cols = np.concatenate([cols, diag[[model.trap_site]], diag])
        indptr = np.concatenate([indptr, indptr[-1] + [1, n + 1]])
        size += 2
    return sp.csr_matrix((values, cols, indptr), shape=(size, size))


def master_equation_rhs(rho: np.ndarray, model: TransportModel) -> np.ndarray:
    """Right-hand side of the master equation at state rho.

    rho must be Hermitian to 1e-12, as ``check_density_matrix`` asks, or
    ValueError is raised: the right-hand side works on real coordinates
    that describe Hermitian states only.
    """
    rho = np.asarray(rho, dtype=complex)
    n = model.n_sites
    if rho.shape != (n, n):
        raise ValueError(f"rho shape {rho.shape} does not match {n} sites")
    check_hermitian(rho)
    return _unpack(_real_map(model) @ _pack(rho), n)


def _check_horizon(t_final: float) -> None:
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")


def _integrate(rhs, t_final: float, y0: np.ndarray, n_points: int | None = None,
               times: np.ndarray | None = None):
    """DOP853 at RTOL/ATOL from 0 to t_final; IntegrationError if it fails.

    The solution is sampled on ``times``, on n_points even steps from 0 to
    t_final, or, with neither, at t_final alone. The horizon is checked
    before the grid is built, so a bad one never reaches numpy. An event
    that never fires records the last accepted time for IntegrationError,
    as ``sol.t`` holds only the grid points reached.
    """
    _check_horizon(t_final)
    if times is None:
        times = [t_final] if n_points is None else np.linspace(0.0, t_final, n_points)
    from scipy.integrate import solve_ivp  # only time stepping needs it
    t_reached = 0.0

    def clock(t, y):
        nonlocal t_reached
        t_reached = float(t)
        return 1.0

    sol = solve_ivp(rhs, (0.0, t_final), y0, method="DOP853", rtol=RTOL,
                    atol=ATOL, t_eval=np.asarray(times, dtype=float),
                    events=clock)
    if sol.status < 0:
        raise IntegrationError(f"integration failed: {sol.message}", t_reached)
    return sol


def propagate(rho0: np.ndarray, model: TransportModel, t_final: float,
              n_points: int = 2000, times: np.ndarray | None = None) -> Trajectory:
    """Integrate the master equation and record states on an output grid.

    Adaptive Dormand-Prince pair of order 8(5,3) (DOP853) on the N^2 real
    coordinates of ``_pack``; the states unpacked from them are exactly
    Hermitian.
    """
    check_density_matrix(rho0)
    a = _real_map(model)
    sol = _integrate(lambda t, z: a @ z, t_final,
                     _pack(np.asarray(rho0, dtype=complex)), n_points, times)
    return Trajectory(times=sol.t.copy(), states=_unpack(sol.y.T, model.n_sites))


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
    sol = _integrate(lambda t, y: -1j * (h @ y), t_final, psi0, n_points, times)
    return Trajectory(times=sol.t.copy(), states=sol.y.T.copy())


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
    """Run the body with OpenBLAS on one thread; restore the counts after.

    The direct solve runs under it, so pool workers, one per core, do not
    oversubscribe the cores: on 2 threads one direct tree g=7 solve used
    2 s of CPU per second of wall time. It also fixes the bits of eta: on
    36 models (trees g=5-7, hypercubes d=4-6) the direct solve gave the
    same bits on 1 and 2 threads.
    """
    controls = _openblas_thread_controls()
    before = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), n in zip(controls, before):
            set_threads(n)


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

    Hairer's compiled DOP853 (scipy's ``ode``) runs the step loop and calls
    back for the sparse product and once per accepted step. After the first
    accepted step that ends below TRACE_TOL, the crossing is found on the
    cubic Hermite interpolant of that step, whose end derivatives are the
    exact A y; its weights sum to 1, so the interpolated state keeps the
    budget eta + eta_loss + residual_trace == 1 that A conserves.
    """
    check_density_matrix(rho0)
    n = model.n_sites
    if t_max is None:
        if model.recomb_rate > 0:
            t_max = math.log(1.0 / TRACE_TOL) / (2.0 * model.recomb_rate)
        else:
            t_max = FALLBACK_HORIZON
    _check_horizon(t_max)
    from scipy.integrate import ode  # only time stepping needs it
    from scipy.optimize import brentq

    a = _real_map(model, integrals=True)
    nn = n * n
    diag = slice(0, nn, n + 1)  # the diagonal of Z is rho's
    run = SimpleNamespace(a=a, steps=[])  # all that the callbacks reach

    def solout(t, y):
        # keep the last two accepted (t, y), from t = 0 on, and stop where
        # the trace falls through TRACE_TOL, as a state below it never does
        steps = run.steps = run.steps[-1:] + [(t, y.copy())]
        return -1 if y[diag].sum() < TRACE_TOL <= steps[0][1][diag].sum() else 0

    solver = ode(lambda t, y: run.a @ y).set_integrator(
        "dop853", rtol=RTOL, atol=ATOL, nsteps=MAX_STEPS)
    solver.set_solout(solout)
    solver.set_initial_value(
        np.concatenate([_pack(np.asarray(rho0, dtype=complex)), np.zeros(2)]))
    # IWORK(4) = -1 turns off Hairer's stiffness test, which gives up on
    # the Zeno regime (gamma_phi = 1e4 on the dimer and tree g=3) that the
    # stepper resolves; scipy exposes it only through the work array that
    # set_initial_value allocates
    solver._integrator.iwork[3] = -1
    try:
        with warnings.catch_warnings():
            # scipy warns of a failure that the IntegrationError below reports
            warnings.simplefilter("ignore", UserWarning)
            y_end = solver.integrate(t_max)
        t_end, code, steps = float(solver.t), solver.get_return_code(), run.steps
    finally:
        # the compiled driver keeps a reference to both callbacks after a
        # run, and through solout to the integrator and its work arrays
        # (scipy 1.17.1: 0.17 MB per tree g=5 solve); leave them holding
        # nothing of size N^2
        run.__dict__.clear()
        solver.set_initial_value(np.zeros(1))
    if code < 0:
        raise IntegrationError(f"integration failed: DOP853 return code {code}", t_end)
    if code == 2:  # solout stopped it at the crossing
        (t0, y0), (t1, y1) = steps
        h = t1 - t0
        f0, f1 = a @ y0, a @ y1

        def hermite(s):
            s2, s3 = s * s, s * s * s
            return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
                    + (3 * s2 - 2 * s3) * y1 + (s3 - s2) * h * f1)

        s = brentq(lambda s: hermite(s)[diag].sum() - TRACE_TOL, 0.0, 1.0)
        t_end, y_end = t0 + s * h, hermite(s)
    eta = 2.0 * model.trap_rate * y_end[nn]
    eta_loss = 2.0 * model.recomb_rate * y_end[nn + 1]
    residual = y_end[diag].sum()
    return EfficiencyResult(eta=eta, eta_loss=eta_loss, residual_trace=residual,
                            method=TIME_STEPPING, horizon=float(t_end))


def _factor(matrix: sp.csc_matrix, order: str):
    """SuperLU in symmetric mode, in column order ``order``, at the fixed
    pivot threshold and supernode sizes."""
    return spla.splu(matrix, permc_spec=order, diag_pivot_thresh=PIVOT_THRESHOLD,
                     relax=RELAX, panel_size=PANEL_SIZE,
                     options={"SymmetricMode": True})


@functools.lru_cache(maxsize=8)
def _plan(n: int, edges: tuple[tuple[int, int], ...]) -> SimpleNamespace:
    """The direct solve's order of the real map on an n-site graph: unknown
    z[c] sits at position ``perm[c]`` on both sides, and position p of the
    permuted CSC structure (``indptr``, ``indices``) stores entry
    ``order[p]`` of ``_entries``. Time stepping never builds it.

    The order is SuperLU's minimum degree on the pair graph, which has one
    node per pair {i, j} and an edge wherever the map couples two pairs,
    taken from a factorization of that pattern with unit entries under a
    dominant diagonal and expanded so that each pair's two unknowns Z_ij
    and Z_ji are adjacent. It depends on the pattern alone, so every model
    on the graph shares it.
    """
    entries = _entries(n, edges)
    rows, cols = entries.rows, entries.cols
    nn = n * n
    i, j = np.arange(nn) // n, np.arange(nn) % n
    n_pairs = n * (n + 1) // 2
    pair = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_inverse=True)[1]
    pattern = sp.csc_matrix(
        (np.where(pair[rows] == pair[cols], 4.0 * n, 1.0), (pair[rows], pair[cols])),
        shape=(n_pairs, n_pairs))
    by_position = np.argsort(_factor(pattern, "MMD_AT_PLUS_A").perm_c)
    size = np.bincount(pair)
    start = np.empty(n_pairs, dtype=np.intp)
    start[by_position] = np.cumsum(size[by_position]) - size[by_position]
    perm = start[pair] + (i < j)
    keys = perm[cols] * nn + perm[rows]
    order = np.argsort(keys)
    keys = keys[order]
    return _read_only(
        perm=perm, order=order, indices=(keys % nn).astype(np.int32),
        indptr=np.searchsorted(keys // nn, np.arange(nn + 1)).astype(np.int32))


def build_liouvillian(model: TransportModel) -> sp.csc_matrix:
    """Sparse matrix A of the real master equation dz/dt = A z, permuted by
    the graph's plan: A[r, c] sits at (perm[r], perm[c]). Its values are
    the ``_values`` that time stepping applies, in the plan's CSC order."""
    n = model.n_sites
    plan = _plan(n, model.topology.edges)
    return sp.csc_matrix((_values(model)[plan.order], plan.indices.copy(),
                          plan.indptr.copy()), shape=(n * n, n * n))


@_blas_on_one_thread()
def efficiency_liouvillian(rho0: np.ndarray, model: TransportModel) -> EfficiencyResult:
    """Transport efficiency from one sparse linear solve.

    All eigenvalues of the real map A of ``build_liouvillian`` have real
    part <= -2 Gamma, so for Gamma > 0 the time integral z of the packed
    state solves A z = -_pack(rho0) exactly. Z's diagonal is rho's, so
    eta = 2 kappa z[trap (n + 1)] and eta_loss = 2 Gamma sum_i z[i (n + 1)].
    No truncation error and fixed cost, which makes this the default for
    sweep production. Z_ij and Z_ji are sqrt 2 times an orthogonal
    rotation of Re rho_ij and Im rho_ij, and Z_ii = rho_ii, so A is as well
    conditioned as the complex generator to within a factor sqrt 2.

    Each solve factors A in the graph's order from ``_plan`` with SuperLU
    in symmetric mode, taking pivots from the diagonal while they are at
    least PIVOT_THRESHOLD of the largest entry in their column.

    The threshold is 0.01, not 0. Strong disorder (delta_eps = 10), no
    dephasing and Gamma = 1e-9 put D_ij below 0.01 of the eps_j - eps_i
    that couples Z_ij and Z_ji, and with pure diagonal pivots the backward
    error reached 3e-3. At 0.01 the pivot moves inside the pair, whose
    unknowns are adjacent in the order, and the backward error stayed
    below 3e-14 on trees g=4/5 and hypercube d=4 over delta_eps <= 10,
    gamma_phi from 0 to 1e3, Gamma down to 1e-9 and kappa in {1, 2, 50};
    the hypercube d=6 factors keep the 3.46 M nonzeros they have at 0. At
    0.1 and 1.0 they grow to 10.7 M and 10.6 M, and the factorization
    takes 12 to 16 times as long. A solve whose backward error
    ||A z - b||_1 / (||A||_1 ||z||_1 + ||b||_1) exceeds BACKWARD_ERROR_TOL
    raises SolverError instead of returning eta.
    """
    if model.recomb_rate <= 0:
        raise ValueError("direct solve requires recomb_rate > 0 "
                         "(guarantees an invertible generator)")
    check_density_matrix(rho0)
    n = model.n_sites
    plan = _plan(n, model.topology.edges)
    a = build_liouvillian(model)
    b = np.empty(n * n)
    b[plan.perm] = -_pack(np.asarray(rho0, dtype=complex))
    try:
        y = _factor(a, "NATURAL").solve(b)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"generator factorization failed: {exc}") from exc
    if not np.all(np.isfinite(y)):
        raise SolverError("generator solve produced non-finite values")
    # ||A||_1 is the largest column sum; no column of A is empty, as each
    # holds -D_ij <= -2 Gamma < 0
    norm_a = np.add.reduceat(np.abs(a.data), a.indptr[:-1]).max()
    backward = (np.abs(a @ y - b).sum()
                / (norm_a * np.abs(y).sum() + np.abs(b).sum()))
    if backward > BACKWARD_ERROR_TOL:
        raise SolverError(f"generator solve has backward error {backward:.2e} "
                          f"> {BACKWARD_ERROR_TOL:g}")
    z = y[plan.perm]
    # + 0.0 turns a -0.0 from a trap the excitation never reaches into 0.0
    eta = 2.0 * model.trap_rate * z[model.trap_site * (n + 1)] + 0.0
    eta_loss = 2.0 * model.recomb_rate * z[::n + 1].sum()
    return EfficiencyResult(eta=eta, eta_loss=eta_loss, residual_trace=0.0,
                            method=LIOUVILLIAN_SOLVE, horizon=math.inf)


def compute_efficiency(rho0: np.ndarray, model: TransportModel,
                       solver: str = "liouvillian") -> EfficiencyResult:
    """Dispatch to one of the two efficiency solvers by name, looked up at
    call time, so a solver replaced on this module is the one called."""
    solvers = {"liouvillian": efficiency_liouvillian,
               "timestepping": efficiency_timestepping}
    if solver not in solvers:
        raise ValueError(f"unknown solver {solver!r}")
    return solvers[solver](rho0, model)
