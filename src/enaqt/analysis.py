"""Trap-decoupled invariant subspace, exact efficiency bound, disorder gain.

Eigenvectors of the system Hamiltonian with no overlap on the trap site can
never feed population into the trap; the weight of the initial state inside
that subspace is permanently untrappable, which bounds the efficiency from
above. Within a degenerate eigenspace the basis is rotated so that exactly
one vector carries all of the trap overlap and the rest join the subspace
(``model.trap_eigenbasis``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import SweepTable
from .model import trap_eigenbasis


@dataclass(eq=False)
class InvariantSubspace:
    """Orthonormal trap-decoupled eigenvectors, one per column of ``basis``.

    ``clusters`` records (energy, multiplicity, trap_overlap_norm) for each
    degenerate group of the spectrum, in ascending energy order.
    """

    basis: np.ndarray
    clusters: tuple[tuple[float, int, float], ...]

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def invariant_subspace(h_system: np.ndarray, trap_site: int) -> InvariantSubspace:
    """The subspace of eigenvectors decoupled from the trap: the dark
    columns of ``model.trap_eigenbasis``, with its cluster records."""
    _, basis, dark, clusters = trap_eigenbasis(h_system, trap_site)
    return InvariantSubspace(basis=np.ascontiguousarray(basis[:, dark]),
                             clusters=clusters)


def efficiency_upper_bound(subspace: InvariantSubspace, rho0: np.ndarray) -> float:
    """1 minus the weight of rho0 inside the invariant subspace.

    Invariant under basis rotations within the subspace.
    """
    basis = subspace.basis
    rho0 = np.asarray(rho0)
    if rho0.shape[0] != basis.shape[0]:
        raise ValueError("rho0 dimension does not match the subspace")
    weight = np.einsum("ji,jk,ki->", basis.conj(), rho0, basis).real
    return float(1.0 - weight)


@dataclass(frozen=True)
class DisorderGain:
    """Best efficiency improvement available from disorder at one dephasing rate."""

    gamma_phi: float
    gain: float
    best_disorder: float
    stderr: float


def max_disorder_gain(table: SweepTable, gamma_phi: float) -> DisorderGain:
    """Max over the disorder grid of mean efficiency, minus the zero-disorder mean.

    Nonnegative by construction (the max includes the zero-disorder column).
    The reported stderr combines the two cells entering the difference.
    """
    rows = [r for r in table.rows if np.isclose(r.gamma_phi, gamma_phi, rtol=1e-12, atol=0.0)]
    if not rows:
        raise ValueError(f"no sweep rows at dephasing rate {gamma_phi}")
    base = [r for r in rows if r.delta_eps == 0.0]
    if not base:
        raise ValueError("sweep table has no zero-disorder column")
    base = base[0]
    best = max(rows, key=lambda r: r.eta_mean)
    return DisorderGain(
        gamma_phi=gamma_phi,
        gain=best.eta_mean - base.eta_mean,
        best_disorder=best.delta_eps,
        stderr=float(np.hypot(best.eta_stderr, base.eta_stderr)),
    )
