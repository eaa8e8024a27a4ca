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
as one natural-order sparse matrix, one product per stage by scipy's
compiled CSR kernel, and the direct solve factors it, permuted, in a
single sparse linear solve. Both report the loss bookkeeping
eta_loss = 2 * Gamma * integral tr rho dt so that
eta + eta_loss + residual_trace == 1 up to solver tolerance.

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
from scipy.sparse._sparsetools import csr_matvec

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
# A graph whose pair-pattern factor (see _plan) has more nonzeros than this
# is factored in float32 and refined in float64 (see efficiency_liouvillian).
# The pattern factor has 4,650 nonzeros on hypercube d=4, 7,808 on tree g=5,
# 58,352 on hypercube d=5, 59,288 on tree g=6, 369,712 on tree g=7 and
# 871,960 on hypercube d=6. Median ms per warm solve, float64 -> float32
# (delta_eps = 1, gamma_phi = 0.1, Gamma = 0.01, one BLAS thread): hypercube
# d=6 510 -> 276, tree g=8 480 -> 347, tree g=7 47 -> 41, hypercube d=5
# 11.7 -> 8.9, tree g=6 8.0 -> 7.7 (8.5 -> 9-10 on other draws); forced
# below it, hypercube d=4 0.83 -> 0.96 and tree g=5 1.50 -> 1.70, where the
# corrections cost more than the cheaper factorization saves.
MIXED_PRECISION_NNZ = 30_000
# The split of a dense tail off the direct solve (see _plan). In columns
# past the last one below DENSE_DENSITY, hypercube d=6 has 1,830 unknowns,
# hypercube d=5 450, tree g=6 230, tree g=7 492 and tree g=8 1,076. Forced
# onto the route, warm solves (delta_eps = 1, gamma_phi = 0.1,
# Gamma = 0.01) took 1.6 times as long as in float32 on hypercube d=5
# (14.7 ms) and 2.7-2.8 times on trees g=6-8 (22.9, 114 and 1,009 ms),
# whose tails are sparser.
TAIL_DENSITY = 0.1
DENSE_DENSITY = 0.5
MIN_DENSE_TAIL = 1500
# A refined solve stops once a correction moves neither eta nor eta_loss by
# more than REFINE_TOL of its value. On trees g=6/7 and hypercubes d=5/6 at
# Gamma = 0.01 (delta_eps in {0, 1, 2.5}, gamma_phi in {0, 0.1, 1, 1e4}) that
# took 3 or 4 corrections and left eta within 1.3e-14 relative of the float64
# solve; at Gamma = 1e-6 and 1e-9 the converged solves took 2 to 7. Without
# dephasing there the residual's rounding can stall them above REFINE_TOL; a
# correction that moves them by at most STALL_TOL, and by more than half of
# the one before, returns the iterate: on 6 such cells of hypercubes d=5/6
# and trees g=6/7, 5e-14 to 3.5e-12 off a long-double refinement, where the
# float64 solve run after MAX_REFINEMENTS was 2e-12 to 3.4e-9 off.
REFINE_TOL = 1e-14
STALL_TOL = 1e-10
MAX_REFINEMENTS = 10
# Largest predicted size of the real factors: the pattern factor's nonzeros
# times 4, as each pair of coordinates Z_ij, Z_ji stands for one node of the
# pair pattern (2.7-4.0 times on trees g=5-7 and hypercubes d=4-6), times the
# bytes of one value and its int32 row index (8 in float32, 12 in float64).
# In float32 that is 28 MB on hypercube d=6, 66 MB on tree g=8 and 460 MB on
# hypercube d=7, whose float64 solve peaked at 763 MB. The dense-tail route
# predicts the same count over the head's columns, which its two bordered
# factors hold about 4 times (131,768 against 130,958 on hypercube d=6),
# plus 8 k^2 bytes of a float64 tail of k unknowns: 32 MB on hypercube d=6
# and 481 MB on hypercube d=7, whose 7,682-unknown tail was never factored.
MAX_FACTOR_MB = 1000.0


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
    coherence damping rate for i != j. So A = -diag(D) + C, where C is
    skew-symmetric and changes sign under the swap T of Z_ij and Z_ji, and
    D does not: T A is symmetric."""
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


def _product(a: sp.csr_matrix):
    """f(t, y) = a @ y for a real vector y of a's width, written by the
    compiled kernel that scipy 1.17.1's ``a @ y`` calls after its Python
    dispatch, into the same fresh zeroed array, so the result keeps its
    bits; fresh, as ``solve_ivp`` keeps the last one. On the tree g=5 map
    a product took 5.6 us, against 9.0 us through ``@`` (best timeit runs)."""
    m, k = a.shape
    indptr, indices, data = a.indptr, a.indices, a.data

    def f(t, y):
        out = np.zeros(m)
        csr_matvec(m, k, indptr, indices, data, y, out)
        return out
    return f


def _check_size(rho: np.ndarray, n: int) -> None:
    """ValueError unless rho is n x n, checked before a state reaches
    ``_product``, whose kernel does not check the length of y."""
    if np.shape(rho) != (n, n):
        raise ValueError(f"rho shape {np.shape(rho)} does not match {n} sites")


def master_equation_rhs(rho: np.ndarray, model: TransportModel) -> np.ndarray:
    """Right-hand side of the master equation at state rho.

    rho must be Hermitian to 1e-12, as ``check_density_matrix`` asks, or
    ValueError is raised: the right-hand side works on real coordinates
    that describe Hermitian states only.
    """
    rho = np.asarray(rho, dtype=complex)
    n = model.n_sites
    _check_size(rho, n)
    check_hermitian(rho)
    return _unpack(_product(_real_map(model))(0.0, _pack(rho)), n)


def _check_horizon(t_final: float) -> None:
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")


def _integrate(rhs, t_final: float, y0: np.ndarray, n_points: int):
    """DOP853 at RTOL/ATOL from 0 to t_final, sampled at n_points even steps
    from 0 to t_final; IntegrationError if it fails. The horizon is checked
    before the grid is built, so a bad one never reaches numpy, and an event
    that never fires records the last accepted time for IntegrationError,
    as ``sol.t`` holds only the grid points reached."""
    _check_horizon(t_final)
    from scipy.integrate import solve_ivp  # only time stepping needs it
    t_reached = 0.0

    def clock(t, y):
        nonlocal t_reached
        t_reached = float(t)
        return 1.0

    sol = solve_ivp(rhs, (0.0, t_final), y0, method="DOP853", rtol=RTOL,
                    atol=ATOL, t_eval=np.linspace(0.0, t_final, n_points),
                    events=clock)
    if sol.status < 0:
        raise IntegrationError(f"integration failed: {sol.message}", t_reached)
    return sol


def propagate(rho0: np.ndarray, model: TransportModel, t_final: float,
              n_points: int = 2000) -> Trajectory:
    """Integrate the master equation and record states on an output grid.

    Adaptive Dormand-Prince pair of order 8(5,3) (DOP853) on the N^2 real
    coordinates of ``_pack``; the states unpacked from them are exactly
    Hermitian.
    """
    check_density_matrix(rho0)
    _check_size(rho0, model.n_sites)
    sol = _integrate(_product(_real_map(model)), t_final,
                     _pack(np.asarray(rho0, dtype=complex)), n_points)
    return Trajectory(times=sol.t.copy(), states=_unpack(sol.y.T, model.n_sites))


def propagate_pure(psi0: np.ndarray, model: TransportModel, t_final: float,
                   n_points: int = 2000) -> Trajectory:
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
    sol = _integrate(lambda t, y: -1j * (h @ y), t_final, psi0, n_points)
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


def efficiency_timestepping(rho0: np.ndarray, model: TransportModel) -> EfficiencyResult:
    """Transport efficiency by adaptive integration of the master equation.

    The running integrals of the trap population and of the trace are
    carried as extra state components, so the quadrature has the same order
    as the integrator and is accumulated on accepted steps rather than on an
    output grid. Integration stops when tr rho < TRACE_TOL or at
    t_max = ln(1/TRACE_TOL) / (2 Gamma), whichever comes first (the trace
    decays at least at rate 2 Gamma). With Gamma == 0 a fallback horizon is
    used and the returned eta is a lower bound whenever residual_trace > 0.

    Hairer's compiled DOP853 (scipy's ``ode``) runs the step loop and calls
    back once per accepted step and once per stage, for the product that
    ``_product`` hands straight to scipy's CSR kernel. After the first
    accepted step that ends below TRACE_TOL, the crossing is found on the
    cubic Hermite interpolant of that step, whose end derivatives are the
    exact A y; its weights sum to 1, so the interpolated state keeps the
    budget eta + eta_loss + residual_trace == 1 that A conserves.
    """
    check_density_matrix(rho0)
    n = model.n_sites
    _check_size(rho0, n)
    t_max = (math.log(1.0 / TRACE_TOL) / (2.0 * model.recomb_rate)
             if model.recomb_rate > 0 else FALLBACK_HORIZON)
    _check_horizon(t_max)  # inf once a tiny Gamma overflows it
    from scipy.integrate import ode  # only time stepping needs it
    from scipy.optimize import brentq

    f = _product(_real_map(model, integrals=True))
    nn = n * n
    diag = slice(0, nn, n + 1)  # the diagonal of Z is rho's
    run = SimpleNamespace(f=f, steps=[])  # all that the callbacks reach

    def solout(t, y):
        # keep the last two accepted (t, y), from t = 0 on, and stop where
        # the trace falls through TRACE_TOL, as a state below it never does
        steps = run.steps = run.steps[-1:] + [(t, y.copy())]
        return -1 if y[diag].sum() < TRACE_TOL <= steps[0][1][diag].sum() else 0

    solver = ode(lambda t, y: run.f(t, y)).set_integrator(
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
        f0, f1 = f(t0, y0), f(t1, y1)

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


def _factor(matrix: sp.csc_matrix, order: str, threshold: float = PIVOT_THRESHOLD):
    """SuperLU in symmetric mode, in column order ``order``, at the pivot
    threshold and the fixed supernode sizes."""
    return spla.splu(matrix, permc_spec=order, diag_pivot_thresh=threshold,
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

    ``pair_factor_nnz``, the nonzeros of that pattern's factors, predicts
    the size of the real factors: 7,808 on tree g=5 and 871,960 on
    hypercube d=6, whose real factors hold 3.5 and 4.0 times as many. It
    picks the precision of the direct solve (above MIXED_PRECISION_NNZ,
    float32 factors refined in float64) and bounds the memory the factors
    may take (MAX_FACTOR_MB).

    ``tail`` is the number of unknowns at the end of the order that the
    dense-tail route of ``efficiency_liouvillian`` factors as one dense
    block, from the first pair whose column of the pattern factor's L is
    TAIL_DENSITY full on and below the diagonal; it is 0 unless the columns
    after the last one below DENSE_DENSITY hold MIN_DENSE_TAIL unknowns.
    Of the graphs measured only hypercube d=6 (1,946) and d=7 (7,682) take
    the route. ``head_factor_nnz`` counts the nonzeros of the pattern
    factor's L and U in the columns and rows before the tail. ``partner[p]``
    is the position of the transpose partner of the unknown at p: Z_ji for
    Z_ij, p itself on the diagonal; as the tail starts on a pair boundary,
    it maps the tail into itself.
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
    factor = _factor(pattern, "MMD_AT_PLUS_A")
    by_position = np.argsort(factor.perm_c)
    size = np.bincount(pair)
    start = np.empty(n_pairs, dtype=np.intp)
    start[by_position] = np.cumsum(size[by_position]) - size[by_position]
    perm = start[pair] + (i < j)
    partner = np.empty(nn, dtype=np.intp)
    partner[perm] = perm[j * n + i]
    keys = perm[cols] * nn + perm[rows]
    order = np.argsort(keys)
    keys = keys[order]
    # unknowns at each position of the pattern's order and after it
    after = np.append(np.cumsum(size[by_position][::-1])[::-1], 0)
    lower = factor.L.indptr  # the unit diagonal included
    density = np.diff(lower) / np.arange(n_pairs, 0, -1)
    first = int(np.argmax(density >= TAIL_DENSITY))  # the last column is full
    sparse = np.flatnonzero(density < DENSE_DENSITY)
    dense = after[sparse[-1] + 1 if sparse.size else 0] >= MIN_DENSE_TAIL
    # the pattern is symmetric and pivots on its diagonal, so U's first rows
    # hold as many nonzeros as L's first columns
    return _read_only(
        perm=perm, partner=partner, order=order, indices=(keys % nn).astype(np.int32),
        indptr=np.searchsorted(keys // nn, np.arange(nn + 1)).astype(np.int32),
        pair_factor_nnz=np.array(factor.nnz),
        tail=np.array(after[first] if dense else 0),
        head_factor_nnz=np.array(2 * lower[first]))


def build_liouvillian(model: TransportModel) -> sp.csc_matrix:
    """Sparse matrix A of the real master equation dz/dt = A z, permuted by
    the graph's plan: A[r, c] sits at (perm[r], perm[c]). Its values are
    the ``_values`` that time stepping applies, in the plan's CSC order."""
    n = model.n_sites
    plan = _plan(n, model.topology.edges)
    return sp.csc_matrix((_values(model)[plan.order], plan.indices.copy(),
                          plan.indptr.copy()), shape=(n * n, n * n))


def _check_factor_size(a: sp.csc_matrix, plan: SimpleNamespace,
                       tail: int = 0) -> None:
    """SolverError if the factors of a, predicted from the plan at a's
    precision, would take more than MAX_FACTOR_MB; with a ``tail`` of k
    unknowns, those of the dense-tail route: the bordered head factors and
    the k x k float64 tail."""
    nnz = plan.head_factor_nnz if tail else plan.pair_factor_nnz
    mb = (4 * nnz * (a.dtype.itemsize + 4) + 8 * tail**2) / 1e6
    if mb > MAX_FACTOR_MB:
        raise SolverError(
            f"the factors of the {math.isqrt(a.shape[0])}-site generator would "
            f"take about {mb:.4g} MB, more than {MAX_FACTOR_MB:g} MB")


def _refined(a: sp.csc_matrix, b: np.ndarray, solve, watched) -> np.ndarray | None:
    """y with a y = b by iterative refinement on a's float64 residual: from
    y = 0, y += solve(b - a y) until a correction moves no sum y[idx], idx
    in ``watched``, by more than REFINE_TOL of its value, or the iteration
    stalls: a correction moves them by at most STALL_TOL, and by more than
    half of what the one before moved them. ``solve`` applies an
    approximate inverse of a. None if a correction is not finite or the
    first solve and MAX_REFINEMENTS corrections do neither."""
    y = np.zeros_like(b)
    last = math.inf
    for _ in range(MAX_REFINEMENTS + 1):
        d = solve(b - a @ y)
        if not np.all(np.isfinite(d)):
            return None
        y = y + d
        sums = [(abs(d[idx].sum()), abs(y[idx].sum())) for idx in watched]
        moved = max(dm / ym if dm else 0.0 for dm, ym in sums)
        if moved <= REFINE_TOL or 0.5 * last < moved <= STALL_TOL:
            return y
        last = moved
    return None


def _float32_inverse(a: sp.csc_matrix, plan: SimpleNamespace):
    """The solve of float32 factors of a, for ``_refined``; None where they
    cannot be had."""
    single = a.astype(np.float32)
    _check_factor_size(single, plan)
    try:
        lu = _factor(single, "NATURAL")
    except RuntimeError:  # singular in float32
        return None
    return lambda r: lu.solve(r.astype(np.float32))


def _schur_complement(a: sp.csc_matrix, plan: SimpleNamespace):
    """(head, schur): the SuperLU factors of the bordered head [[A11, A12],
    [0, I]] of a, split before the plan's tail, and the dense T2 S of the
    tail's Schur complement S = A22 - A21 A11^-1 A12, in Fortran order,
    where T2 swaps each tail unknown with its ``partner``. With P A11 =
    L11 U11 the head's factors hold U12 = L11^-1 P A12; the lower triangular
    [[U11^T, A21^T], [0, I]] factors on its diagonal into a U block
    diag(U11) U11^-T A21^T, which gives L21 = A21 U11^-1, and
    T2 S = T2 A22 - (T2 L21) U12. In symmetric mode SuperLU keeps the
    natural column order, and the border's rows [0, I] never pivot into the
    head, so the factors' blocks are these. T A is symmetric (``_values``)
    and T = diag(T1, T2), so T2 S is too. RuntimeError if a factorization
    fails."""
    k = int(plan.tail)
    s = a.shape[0] - k
    swap = plan.partner[s:]  # T2, on a's positions
    eye = sp.identity(k, format="csc")
    head = _factor(sp.bmat([[a[:s, :s], a[:s, s:]], [None, eye]], format="csc"),
                   "NATURAL")
    u = head.U
    low = _factor(sp.bmat([[u[:s, :s].T, a[s:, :s].T], [None, eye]], format="csc"),
                  "NATURAL", 0.0).U
    l21 = (low[:s, swap].T @ sp.diags(1.0 / low.diagonal()[:s])).tocsc()
    u12 = u[:s, s:].tocsc()
    schur = a[swap][:, s:].toarray(order="F")
    for c in range(0, k, 64):  # bounds the sparse product's size
        schur[:, c:c + 64] -= (l21 @ u12[:, c:c + 64]).toarray(order="F")
    return head, schur


def _dense_tail_inverse(a: sp.csc_matrix, plan: SimpleNamespace):
    """The float64 solve of the plan's dense-tail route, for ``_refined``:
    SuperLU on the head, LAPACK's symmetric indefinite factorization
    (Bunch-Kaufman pivoting) in place on T2 S (``_schur_complement``);
    None where a factorization fails. S x2 = r2 is solved as
    T2 S x2 = T2 r2."""
    # imported here: at module level it made every process start 5-8 ms
    # slower, and 14-57 ms ahead of the scipy.sparse imports
    from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs
    k = int(plan.tail)
    _check_factor_size(a, plan, k)
    s = a.shape[0] - k
    try:
        head, schur = _schur_complement(a, plan)
    except RuntimeError:  # singular head
        return None
    # the default workspace runs the unblocked code, 5 times as slow
    tail, pivots, info = dsytrf(schur, lower=1, overwrite_a=1,
                                lwork=int(dsytrf_lwork(k, lower=1)[0]))
    if info:  # an exactly singular block pivot
        return None
    swap = plan.partner[s:] - s
    a21 = a[s:, :s]

    def solve(r):
        x = head.solve(np.concatenate([r[:s], np.zeros(k)]))  # [A11^-1 r1, 0]
        x[s:] = dsytrs(tail, pivots, (r[s:] - a21 @ x[:s])[swap], lower=1)[0]
        x[:s] = r[:s]
        return head.solve(x)  # [A11^-1 (r1 - A12 x2), x2]
    return solve


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

    Precision. A graph whose pattern factor (``_plan``) has at most
    MIXED_PRECISION_NNZ nonzeros, tree g=5 and hypercube d=4 among them, is
    factored and solved in float64 as above. A larger one, from hypercube
    d=5 and tree g=6 up, is factored in float32 at the same settings, and
    its solution refined on the float64 A (``_refined``): from z = 0, each
    step adds the float32 solve of the residual -_pack(rho0) - A z, until
    a step moves neither eta nor eta_loss by more than REFINE_TOL of its
    value, or they stall below STALL_TOL. At Gamma = 0.01 that took 3 or 4
    steps and moved eta by at most 1.3e-14 relative; a warm hypercube d=6
    solve took 276 ms against 510 ms. If the float32 factorization fails,
    a value is not finite or MAX_REFINEMENTS corrections do neither (on
    4 of the 9 cells of hypercube d=5 and trees g=6/7 without dephasing
    at Gamma = 1e-6), the float32 result is dropped and the float64 solve
    runs, with its own bits. The backward-error guard checks both routes.
    Before either factorization, a solve whose factors are predicted to
    take more than MAX_FACTOR_MB raises SolverError.

    Dense tail. On a graph above MIXED_PRECISION_NNZ whose plan has a
    dense tail (``_plan``: of the graphs measured, only hypercube d=6, with
    the last 1,946 of its 4,096 unknowns), float64 factors take the
    float32 ones' place in the same refinement: SuperLU on the bordered
    head, LAPACK's Bunch-Kaufman sytrf in place on T2 S, the tail's dense
    Schur complement with its rows swapped by transpose partner, which is
    symmetric as T A is (``_schur_complement``); half the flops of getrf,
    95 against 125 ms. A warm hypercube d=6 solve took 140-143 ms against
    172 ms with getrf (delta_eps = 1, gamma_phi = 0.1, Gamma = 0.01, one
    BLAS thread) and 0.14-0.2 s on every cell of delta_eps in {0, 1, 2.5}
    x gamma_phi in {0, 0.1, 1, 1e4} x Gamma in {0.01, 1e-6}, in 2 or 3
    solves of the refinement with dephasing or at Gamma = 0.01. Without
    dephasing at Gamma = 1e-6 disordered models stall 3e-13 to 3.5e-12
    off a long-double refinement and return there (delta_eps = 1: 0.2 s,
    against 5.1 s through the fallback). sytrf runs on the one thread
    that ``_blas_on_one_thread`` sets. PANEL_SIZE and RELAX stay as they
    are: at panel 32 and relax 10 a hypercube d=6 solve aborted the
    interpreter ("munmap_chunk(): invalid pointer").
    """
    if model.recomb_rate <= 0:
        raise ValueError("direct solve requires recomb_rate > 0 "
                         "(guarantees an invertible generator)")
    check_density_matrix(rho0)
    n = model.n_sites
    _check_size(rho0, n)
    plan = _plan(n, model.topology.edges)
    a = build_liouvillian(model)
    b = np.empty(n * n)
    b[plan.perm] = -_pack(np.asarray(rho0, dtype=complex))
    y = None
    if plan.pair_factor_nnz > MIXED_PRECISION_NNZ:
        watched = (plan.perm[[model.trap_site * (n + 1)]], plan.perm[::n + 1])
        solve = (_dense_tail_inverse if plan.tail else _float32_inverse)(a, plan)
        if solve is not None:
            y = _refined(a, b, solve, watched)
        del solve  # frees the factors before a float64 fallback factors a
    if y is None:
        _check_factor_size(a, plan)
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
