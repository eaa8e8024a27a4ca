"""Open-system transport model assembly.

A model couples the tight-binding Hamiltonian of a Topology to three
incoherent processes: irreversible capture at a trap site (rate kappa),
uniform excitation loss at every site (rate Gamma), and pure dephasing of
inter-site coherences (rate gamma_phi). All rates are quoted in units of
the hopping coupling V (hbar = 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import svd

from .graph import BINARY_TREE, Topology, adjacency_matrix, leaves

LEAF_MIXTURE = "leaves"
UNIFORM_MIXTURE = "uniform"
SINGLE_SITE = "site"

DEGENERACY_TOL = 1e-8   # relative gap below which eigenvalues cluster; at
                        # 1e-12, disorder of 1e-10 splits ordered clusters
OVERLAP_TOL = 1e-9      # trap-overlap norm treated as zero


def sample_site_energies(std_dev: float, master_seed: int,
                         realization_index: int, n_sites: int) -> np.ndarray:
    """Draw one realization of quenched Gaussian site-energy disorder.

    Zero mean, standard deviation ``std_dev``; the energies are held fixed
    during the evolution. Deterministic: the stream is keyed on
    (master_seed, realization_index), so realizations are reproducible and
    independent of evaluation order.
    """
    if std_dev < 0:
        raise ValueError("disorder standard deviation must be >= 0")
    if master_seed < 0:
        raise ValueError("master_seed must be a nonnegative integer")
    if std_dev == 0.0:
        return np.zeros(n_sites)
    seq = np.random.SeedSequence((master_seed, realization_index))
    rng = np.random.default_rng(seq)
    return rng.normal(0.0, std_dev, size=n_sites)


@dataclass(frozen=True)
class TransportModel:
    """Full open-system specification on a fixed topology.

    dephasing_rate follows the convention in which a rate gamma damps each
    inter-site coherence as exp(-gamma t / 2); see
    ``coherence_damping_rate``.
    """

    topology: Topology
    site_energies: tuple[float, ...]
    trap_site: int
    trap_rate: float = 1.0
    recomb_rate: float = 0.01
    dephasing_rate: float = 0.0

    def __post_init__(self):
        if len(self.site_energies) != self.topology.n_sites:
            raise ValueError("site_energies length must equal n_sites")
        if not 0 <= self.trap_site < self.topology.n_sites:
            raise ValueError(f"trap site {self.trap_site} out of range "
                             f"for {self.n_sites} sites")
        for name in ("trap_rate", "recomb_rate", "dephasing_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        energies = tuple(float(e) for e in self.site_energies)
        if not all(map(math.isfinite, energies)):
            raise ValueError("site energies must be finite")
        object.__setattr__(self, "site_energies", energies)

    @property
    def n_sites(self) -> int:
        return self.topology.n_sites

    @property
    def coherence_damping_rate(self) -> float:
        """Rate at which each off-diagonal density-matrix element decays.

        Half the dephasing_rate: the convention under which all bundled
        reference efficiencies are quoted.
        """
        return 0.5 * self.dephasing_rate


def assemble_system_hamiltonian(topology: Topology, site_energies) -> np.ndarray:
    """Tight-binding Hamiltonian: diag(site energies) + adjacency (V = 1)."""
    eps = np.asarray(site_energies, dtype=float)
    n = topology.n_sites
    if eps.shape != (n,):
        raise ValueError(f"expected {n} site energies, got shape {eps.shape}")
    h = adjacency_matrix(topology).astype(complex)
    h[np.diag_indices(n)] = eps
    return h


def assemble_effective_hamiltonian(model: TransportModel) -> np.ndarray:
    """Non-Hermitian total Hamiltonian.

    H = H_sys - i*Gamma*Identity - i*kappa*|trap><trap|: the anti-Hermitian
    part encodes uniform recombination loss plus capture at the trap.
    """
    h = assemble_system_hamiltonian(model.topology, model.site_energies)
    n = model.n_sites
    h[np.diag_indices(n)] -= 1j * model.recomb_rate
    h[model.trap_site, model.trap_site] -= 1j * model.trap_rate
    return h


def initial_state(topology: Topology, kind: str, site: int | None = None) -> np.ndarray:
    """Initial density matrix of the excitation.

    leaves: equal statistical mixture of the tree leaves.
    uniform: Identity/N over all sites.
    site: pure projector onto ``site``.
    """
    n = topology.n_sites
    rho = np.zeros((n, n), dtype=complex)
    if kind == LEAF_MIXTURE:
        if topology.kind != BINARY_TREE:
            raise ValueError(f"initial_kind {kind!r} requires a binary tree")
        ls = leaves(topology)
        for s in ls:
            rho[s, s] = 1.0 / len(ls)
    elif kind == UNIFORM_MIXTURE:
        rho[np.diag_indices(n)] = 1.0 / n
    elif kind == SINGLE_SITE:
        if site is None or not 0 <= site < n:
            raise ValueError(f"initial_kind {kind!r} needs a valid site, got "
                             f"initial_site={site} for {n} sites")
        rho[site, site] = 1.0
    else:
        raise ValueError(f"unknown initial-state kind {kind!r}")
    return rho


def check_hermitian(rho: np.ndarray) -> None:
    """Raise ValueError unless the square matrix rho equals rho^dag to 1e-12."""
    herm_err = np.abs(rho - rho.conj().T).max()
    if herm_err > 1e-12:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_err:.2e}")


def check_density_matrix(rho: np.ndarray) -> None:
    """Validate Hermiticity (to 1e-12), trace in [0, 1] and positive
    semidefiniteness (both to 1e-9).

    Raises ValueError naming the violated property.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    check_hermitian(rho)
    tr = np.trace(rho)
    if abs(tr.imag) > 1e-9 or not -1e-9 <= tr.real <= 1.0 + 1e-9:
        raise ValueError(f"trace {tr} outside [0, 1]")
    d = rho.diagonal()  # a diagonal rho, as every --init state, needs no eigvalsh
    lo = (d.real.min() if np.count_nonzero(rho) == np.count_nonzero(d)
          else np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if lo < -1e-9:
        raise ValueError(f"negative eigenvalue {lo:.2e}")


def trap_eigenbasis(h_system: np.ndarray, trap_site: int):
    """Eigenbasis of the Hermitian h_system adapted to the trap site.

    Returns (energies, basis, dark, clusters): eigh's eigenpairs, with
    each cluster that touches the trap rotated by the right-singular basis
    of its trap row, so that its first column carries the whole overlap and
    the rest, the row's null space, none; the mask of trap-free columns;
    and (energy, multiplicity, trap_overlap_norm) per cluster. Clusters
    split where gaps reach DEGENERACY_TOL * ||H||: exact degeneracies of
    ordered lattices stay together, disordered levels stand alone."""
    h = np.asarray(h_system)
    check_hermitian(h)
    n = h.shape[0]
    if not 0 <= trap_site < n:
        raise ValueError(f"trap site {trap_site} out of range")
    energies, basis = np.linalg.eigh(h)
    scale = max(float(np.abs(energies).max()), 1.0)
    cuts = [0, *np.flatnonzero(np.diff(energies) >= DEGENERACY_TOL * scale) + 1, n]
    clusters = []
    for start, stop in zip(cuts, cuts[1:]):
        row = basis[trap_site, start:stop]
        overlap = float(np.linalg.norm(row))
        clusters.append((float(energies[start:stop].mean()), int(stop - start), overlap))
        if overlap >= OVERLAP_TOL:
            basis[:, start:stop] = basis[:, start:stop] @ svd(row[None, :])[2].conj().T
    return energies, basis, np.abs(basis[trap_site]) < OVERLAP_TOL, tuple(clusters)
