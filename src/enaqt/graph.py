"""Transport graph construction and structural queries.

Sites are indexed 0..N-1; every edge carries the hopping coupling V = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BINARY_TREE = "binary-tree"
HYPERCUBE = "hypercube"
CUSTOM = "custom"


@dataclass(frozen=True)
class Topology:
    """Undirected transport graph; every edge has the coupling V = 1.

    Immutable after construction; safe to share across workers.
    """

    n_sites: int
    edges: tuple[tuple[int, int], ...]
    kind: str = CUSTOM

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("graph needs at least one site")
        canon = []
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at site {i}")
            if not (0 <= i < self.n_sites and 0 <= j < self.n_sites):
                raise ValueError(
                    f"edge ({i}, {j}) out of range for {self.n_sites} sites")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            canon.append(pair)
        object.__setattr__(self, "edges", tuple(sorted(canon)))


def build_binary_tree(generations: int) -> Topology:
    """Full binary tree with the given number of generations.

    Sites follow the heap convention: label m has children 2m and 2m+1
    (labels are 1-based, internal indices are label-1). One generation is a
    single root site.
    """
    if generations < 1:
        raise ValueError("generations must be >= 1")
    n = 2 ** generations - 1
    edges = []
    for m in range(1, 2 ** (generations - 1)):
        edges.append((m - 1, 2 * m - 1))
        edges.append((m - 1, 2 * m))
    return Topology(n_sites=n, edges=tuple(edges), kind=BINARY_TREE)


def build_hypercube(dimension: int) -> Topology:
    """d-dimensional hypercube: 2^d vertices, adjacent iff their indices
    differ in exactly one bit."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    n = 2 ** dimension
    edges = []
    for v in range(n):
        for b in range(dimension):
            w = v ^ (1 << b)
            if v < w:
                edges.append((v, w))
    return Topology(n_sites=n, edges=tuple(edges), kind=HYPERCUBE)


def build_custom(n_sites: int, edge_list) -> Topology:
    """Arbitrary graph from an explicit 0-based edge list."""
    return Topology(n_sites=n_sites, edges=tuple(tuple(e) for e in edge_list))


def leaves(topology: Topology) -> list[int]:
    """Leaf sites of a binary tree: the last (n + 1) / 2 heap labels."""
    n = topology.n_sites
    if topology.kind != BINARY_TREE:
        raise ValueError(f"not a binary tree: kind={topology.kind!r}")
    if n & (n + 1):
        raise ValueError(f"a binary tree has 2^g - 1 sites, not {n}")
    return list(range(n // 2, n))


def neighbors(topology: Topology, site: int) -> tuple[int, ...]:
    if not 0 <= site < topology.n_sites:
        raise ValueError(f"site {site} out of range")
    out = []
    for i, j in topology.edges:
        if i == site:
            out.append(j)
        elif j == site:
            out.append(i)
    return tuple(sorted(out))


def adjacency_matrix(topology: Topology) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""
    a = np.zeros((topology.n_sites, topology.n_sites))
    for i, j in topology.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def load_edge_list(path) -> Topology:
    """Read a custom graph from a plain-text file.

    Format: first non-comment line is the number of sites N, then one
    0-based ``i j`` pair per line. Blank lines and ``#`` comments are
    ignored.
    """
    lines = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            text = raw.split("#", 1)[0].strip()
            if text:
                lines.append(text)
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    n = int(lines[0])
    edges = []
    for text in lines[1:]:
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed edge line {text!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_custom(n, edges)
