"""Master-equation propagation and transport-efficiency evaluation.

The equation of motion is

    drho/dt = -i (H rho - rho H^dag) + D(rho)

with the non-Hermitian H from ``assemble_effective_hamiltonian`` and the
pure-dephasing increment D, which damps every coherence at
``model.coherence_damping_rate``. The transport efficiency

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

from .model import (TransportModel, apply_dephasing,
                    assemble_effective_hamiltonian, check_density_matrix,
                    check_hermitian)

TIME_STEPPING = "time-stepping"
LIOUVILLIAN_SOLVE = "liouvillian-solve"

TRACE_TOL = 1e-7  # time stepping stops once tr rho < TRACE_TOL
RTOL = 1e-8
ATOL = 1e-10
FALLBACK_HORIZON = 1e4  # integration horizon when recomb_rate == 0
# largest ||G x - b||_1 / (||G||_1 ||x||_1 + ||b||_1) a direct solve may
# return; good solves stay below 2e-13, and with pure diagonal pivots the
# real system's solves reached 1e-10 to 5e-9
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


def _pack(rho: np.ndarray) -> np.ndarray:
    """Real coordinates Z = Re rho + Im rho of a Hermitian rho, row-major."""
    return (rho.real + rho.imag).ravel()


def _unpack(z: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian matrices of real coordinates z, whose last axis holds
    one row-major Z each: rho = (Z + Z^T) / 2 + i (Z - Z^T) / 2."""
    z = z.reshape(*z.shape[:-1], n, n)
    zt = np.swapaxes(z, -1, -2)
    return 0.5 * (z + zt) + 0.5j * (z - zt)


def _rhs_closure(model: TransportModel):
    """Master-equation RHS on the real coordinates Z of ``_pack``.

    H = H_sys - i diag(k), with H_sys real symmetric and k = Gamma +
    kappa e_trap, so dZ/dt = Z^T H_sys - H_sys Z^T - D o Z with
    D_ij = k_i + k_j plus the coherence damping rate for i != j: two real
    products and one elementwise one.
    """
    h = assemble_effective_hamiltonian(model)
    h_sys = np.ascontiguousarray(h.real)
    k = -np.diag(h).imag
    n = model.n_sites
    decay = k[:, None] + k + model.coherence_damping_rate * (1.0 - np.eye(n))

    def rhs(t, y):
        z = y.reshape(n, n)
        return (z.T @ h_sys - h_sys @ z.T - decay * z).ravel()

    return rhs


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
    return _unpack(_rhs_closure(model)(0.0, _pack(rho)), n)


def _integrate(rhs, t_final: float, y0: np.ndarray, n_points: int | None = None,
               times: np.ndarray | None = None, events: tuple = ()):
    """DOP853 at RTOL/ATOL from 0 to t_final; IntegrationError if it fails.

    The solution is sampled on ``times``, on n_points even steps from 0 to
    t_final, or, with neither, at t_final alone. The horizon is checked
    before the grid is built, so a bad one never reaches numpy. ``events``
    keep their indices in ``sol.t_events``; one more, which never fires,
    records the last accepted time for IntegrationError, as ``sol.t``
    holds only the grid points reached.
    """
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
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
                    events=[*events, clock])
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
    sol = _integrate(_rhs_closure(model), t_final,
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

    def rhs(t, y):
        return -1j * (h @ y)

    sol = _integrate(rhs, t_final, psi0, n_points, times)
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

    Both efficiency solvers run under it, so pool workers, one per core,
    do not oversubscribe the cores: on 2 threads one tree g=7 solve used
    2 s of CPU per second of wall time. It also fixes the bits of eta:
    on 36 models (trees g=5-7, hypercubes d=4-6) the direct solve gave
    the same bits on 1 and 2 threads, but time stepping on tree g=5
    moved eta by up to 1e-10.
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


@_blas_on_one_thread()
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
    rhs_core = _rhs_closure(model)
    trap = model.trap_site * (n + 1)
    diag = slice(0, n * n, n + 1)  # the diagonal of Z is rho's

    def rhs(t, y):
        return np.concatenate([rhs_core(t, y[:n * n]), [y[trap], y[diag].sum()]])

    def trace_event(t, y):
        return y[diag].sum() - TRACE_TOL

    trace_event.terminal = True
    trace_event.direction = -1

    y0 = np.concatenate([_pack(np.asarray(rho0, dtype=complex)), np.zeros(2)])
    sol = _integrate(rhs, t_max, y0, events=(trace_event,))
    if sol.status == 1:  # the trace event stopped the integration
        t_end, y_end = sol.t_events[0][-1], sol.y_events[0][-1]
    else:
        t_end, y_end = sol.t[-1], sol.y[:, -1]
    eta = 2.0 * model.trap_rate * y_end[n * n]
    eta_loss = 2.0 * model.recomb_rate * y_end[n * n + 1]
    residual = y_end[diag].sum()
    return EfficiencyResult(eta=eta, eta_loss=eta_loss, residual_trace=residual,
                            method=TIME_STEPPING, horizon=float(t_end))


def _factor(matrix: sp.csc_matrix, order: str):
    """SuperLU in symmetric mode, in column order ``order``, at the fixed
    pivot threshold and supernode sizes."""
    return spla.splu(matrix, permc_spec=order, diag_pivot_thresh=PIVOT_THRESHOLD,
                     relax=RELAX, panel_size=PANEL_SIZE,
                     options={"SymmetricMode": True})


@dataclass(frozen=True, eq=False)
class _Plan:
    """What every generator on one graph shares.

    ``src``/``dst`` are the directed edges, both ways round. Generator
    entries are listed as: -i h_ij at (i + n k, j + n k) for every edge and
    k, then +i conj(h_ij) at (k + n i, k + n j), then the n^2 diagonal
    entries; position p of the CSC structure (``indptr``, ``indices``)
    stores entry ``entries[p]``.

    The direct solve factors the real system of ``efficiency_liouvillian``,
    permuted on both sides so that its unknown c sits at position perm[c].
    The permuted matrix has structure (``ordered_indptr``,
    ``ordered_indices``); each of its entries sums one or two terms, and
    term t is ``sign[t]`` times float ``gather[t]`` of the generator's data
    (the real part of position p is float 2p, the imaginary part 2p + 1),
    stored at position ``to_ordered[t]``.
    """

    src: np.ndarray
    dst: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    entries: np.ndarray
    perm: np.ndarray
    ordered_indptr: np.ndarray
    ordered_indices: np.ndarray
    gather: np.ndarray
    sign: np.ndarray
    to_ordered: np.ndarray

    def real_system(self, gen: sp.csc_matrix) -> sp.csc_matrix:
        """The permuted real matrix of the generator ``gen``."""
        data = np.bincount(self.to_ordered,
                           self.sign * gen.data.view(np.float64)[self.gather],
                           minlength=len(self.ordered_indices))
        return sp.csc_matrix((data, self.ordered_indices, self.ordered_indptr),
                             shape=gen.shape)


@functools.lru_cache(maxsize=8)
def _plan(n: int, edges: tuple[tuple[int, int], ...]) -> _Plan:
    """The generator pattern of an n-site graph, its real system and order.

    The diagonal is in the pattern whatever the rates: the direct solve
    needs Gamma > 0, which makes every diagonal entry nonzero. The order is
    SuperLU's minimum degree on the pair graph, which has one node per pair
    {i, j} and an edge wherever the real system couples two pairs. It is
    taken from a factorization of that pattern with unit entries under a
    dominant diagonal and expanded so that each pair's two unknowns are
    adjacent. It depends on the pattern alone, so every model on the graph
    shares it.
    """
    e = np.array(edges, dtype=np.intp).reshape(-1, 2)
    src, dst = np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])
    nn = n * n
    k = np.arange(n)[:, None]
    diag = np.arange(nn)
    rows = np.concatenate([(src + n * k).ravel(), (k + n * src).ravel(), diag])
    cols = np.concatenate([(dst + n * k).ravel(), (k + n * dst).ravel(), diag])
    # copied, as scipy may return views of its conversion buffers
    numbered = sp.csc_matrix((np.arange(len(rows)), (rows, cols)), shape=(nn, nn))
    indptr, indices = numbered.indptr.copy(), numbered.indices.copy()
    entries = numbered.data.copy()

    # unknown i + n j is Re X_ij for i >= j and Im X_ij for i < j, so
    # x_ij = y[re] + i s y[im] over the pair's two unknowns, with s = +1
    # above the diagonal, -1 below it and no second term on it
    i, j = diag % n, diag // n
    re = np.maximum(i, j) + n * np.minimum(i, j)
    im = np.minimum(i, j) + n * np.maximum(i, j)
    col = np.repeat(diag, np.diff(indptr))
    off = i[col] != j[col]
    s = np.where(i[col] < j[col], 1.0, -1.0)[off]
    # row i + n j keeps the real part for i >= j and the imaginary part
    # for i < j: Re(g) and Im(g), or Re(i s g) = -s Im(g) and
    # Im(i s g) = s Re(g)
    re_row = i[indices] >= j[indices]
    p = np.arange(len(indices))
    real_rows = np.concatenate([indices, indices[off]])
    real_cols = np.concatenate([re[col], im[col][off]])
    gather = np.concatenate([2 * p + ~re_row, 2 * p[off] + re_row[off]])
    sign = np.concatenate([np.ones(len(p)), np.where(re_row[off], -s, s)])

    n_pairs = n * (n + 1) // 2
    pair = np.unique(re, return_inverse=True)[1]
    pattern = sp.csc_matrix(
        (np.where(pair[real_rows] == pair[real_cols], 4.0 * n, 1.0),
         (pair[real_rows], pair[real_cols])), shape=(n_pairs, n_pairs))
    by_position = np.argsort(_factor(pattern, "MMD_AT_PLUS_A").perm_c)
    size = np.bincount(pair)
    start = np.empty(n_pairs, dtype=np.intp)
    start[by_position] = np.cumsum(size[by_position]) - size[by_position]
    perm = start[pair] + (i < j)
    keys, to_ordered = np.unique(perm[real_cols] * nn + perm[real_rows],
                                 return_inverse=True)
    plan = _Plan(src, dst, indptr, indices, entries, perm,
                 np.searchsorted(keys // nn, np.arange(nn + 1)).astype(np.int32),
                 (keys % nn).astype(np.int32), gather, sign, to_ordered.copy())
    for arr in vars(plan).values():
        arr.flags.writeable = False
    return plan


def build_liouvillian(model: TransportModel) -> sp.csc_matrix:
    """Vectorized generator of the master equation (column-stacking).

    -i(H rho - rho H^dag) becomes -i [I (x) H - conj(H) (x) I]: each
    off-diagonal h_ij puts -i h_ij at (i + n k, j + n k) and +i conj(h_ij)
    at (k + n i, k + n j) for every k. The diagonal entry of rho_ik is
    -i h_ii + i conj(h_kk), less the dephasing rate when i != k. The values
    are written into the graph's cached CSC structure.
    """
    h = assemble_effective_hamiltonian(model)
    n = model.n_sites
    plan = _plan(n, model.topology.edges)
    hij = h[plan.src, plan.dst]
    d = np.diag(h)
    diag = -1j * d[:, None] + 1j * d.conj()
    rate = model.coherence_damping_rate
    if rate:
        diag += apply_dephasing(np.ones((n, n)), rate)
    data = np.concatenate([np.tile(-1j * hij, n), np.tile(1j * hij.conj(), n),
                           _vec(diag)])[plan.entries]
    return sp.csc_matrix((data, plan.indices.copy(), plan.indptr.copy()),
                         shape=(n * n, n * n))


@_blas_on_one_thread()
def efficiency_liouvillian(rho0: np.ndarray, model: TransportModel) -> EfficiencyResult:
    """Transport efficiency from one sparse linear solve.

    All generator eigenvalues have real part <= -2 Gamma, so for Gamma > 0
    the time integral X of rho solves generator @ X = -rho0 exactly;
    eta = 2 kappa X[trap, trap]. No truncation error and fixed cost, which
    makes this the default for sweep production.

    X is Hermitian, and the generator G maps Hermitian matrices to
    Hermitian ones, so the solve runs on n^2 real unknowns instead of n^2
    complex ones: y[i + n j] is Re X_ij for i >= j and Im X_ij for i < j,
    and row i + n j of the real system is the real part of
    (G x + vec rho0) at (i, j) for i >= j and its imaginary part for
    i < j. These n^2 numbers fix G x, so the system is exact for every
    model, and it is as well conditioned as G; eliminating its Re or Im
    half instead would square the condition number. All models on one
    graph share its pattern, so ``_plan`` finds a minimum-degree order once
    per graph, on the pair graph, and keeps the gather that writes a
    model's real entries from its generator. Each solve factors the
    permuted real system with SuperLU in symmetric mode, in natural order,
    taking pivots from the diagonal while they are at least
    PIVOT_THRESHOLD of the largest entry in their column. On hypercube d=6
    the factors hold 3.48 M real nonzeros; minimum degree on the real
    pattern itself gave 3.53 M, and on tree g=7 1.09 M against the pair
    graph's 1.03 M.

    The threshold is 0.01, not 0. Strong disorder (delta_eps = 10), no
    dephasing and Gamma = 1e-9 put the diagonal of a pair {i, j} below
    0.01 of the eps_i - eps_j that couples its two unknowns, and with pure
    diagonal pivots the backward error reached 5e-9. At 0.01 the pivot
    moves inside the pair, whose unknowns are adjacent in the order, and
    the backward error stayed below 1e-14 on trees g=4/5 and hypercube
    d=4 over delta_eps <= 10, gamma_phi from 0 to 1e3, Gamma down to 1e-9
    and kappa in {1, 2, 50}; the hypercube d=6 factors keep the fill they
    have at 0. At 0.1 and 1.0 they grow to 10.8 M and 10.7 M nonzeros, and
    the factorization takes 10x as long. x is rebuilt from y, and a solve
    whose backward error ||G x - b||_1 / (||G||_1 ||x||_1 + ||b||_1)
    exceeds BACKWARD_ERROR_TOL raises SolverError instead of returning
    eta.
    """
    if model.recomb_rate <= 0:
        raise ValueError("direct solve requires recomb_rate > 0 "
                         "(guarantees an invertible generator)")
    check_density_matrix(rho0)
    n = model.n_sites
    plan = _plan(n, model.topology.edges)
    gen = build_liouvillian(model)
    b = -_vec(np.asarray(rho0, dtype=complex))
    ordered_b = np.empty(n * n)
    ordered_b[plan.perm] = np.where(_vec(np.tri(n, dtype=bool)), b.real, b.imag)
    try:
        y = _factor(plan.real_system(gen), "NATURAL").solve(ordered_b)[plan.perm]
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"generator factorization failed: {exc}") from exc
    if not np.all(np.isfinite(y)):
        raise SolverError("generator solve produced non-finite values")
    big_y = _unvec(y, n)
    upper = np.triu(big_y, 1)  # Im X above the diagonal
    x = _vec(np.tril(big_y) + np.tril(big_y, -1).T + 1j * (upper - upper.T))
    # ||G||_1 is the largest column sum; no column of G is empty, as
    # Re G[d, d] <= -2 Gamma < 0
    norm_gen = np.add.reduceat(np.abs(gen.data), gen.indptr[:-1]).max()
    backward = (np.abs(gen @ x - b).sum()
                / (norm_gen * np.abs(x).sum() + np.abs(b).sum()))
    if backward > BACKWARD_ERROR_TOL:
        raise SolverError(f"generator solve has backward error {backward:.2e} "
                          f"> {BACKWARD_ERROR_TOL:g}")
    # + 0.0 turns a -0.0 from a trap the excitation never reaches into 0.0
    eta = 2.0 * model.trap_rate * big_y[model.trap_site, model.trap_site] + 0.0
    eta_loss = 2.0 * model.recomb_rate * np.trace(big_y)
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
