import numpy as np
import pytest

from enaqt.graph import (BINARY_TREE, Topology, adjacency_matrix,
                         build_binary_tree, build_custom, build_hypercube,
                         leaves, load_edge_list, neighbors)


def bfs_component(n_sites, edges, start=0):
    adj = {i: set() for i in range(n_sites)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [w for v in frontier for w in adj[v] if w not in seen]
        seen.update(frontier)
    return seen


def test_tree_single_generation():
    t = build_binary_tree(1)
    assert t.n_sites == 1
    assert t.edges == ()
    assert leaves(t) == [0]


def test_tree_five_generations():
    t = build_binary_tree(5)
    assert t.n_sites == 31
    assert len(t.edges) == 30
    # leaves carry heap labels 16..31, i.e. indices 15..30
    assert leaves(t) == list(range(15, 31))


def test_tree_three_generations_edge_set():
    # heap edges (1,2),(1,3),(2,4),(2,5),(3,6),(3,7), shifted to 0-based
    t = build_binary_tree(3)
    expected = {(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)}
    assert set(t.edges) == expected


def test_tree_two_generations_leaves():
    assert leaves(build_binary_tree(2)) == [1, 2]


@pytest.mark.parametrize("g", range(1, 7))
def test_tree_connected_with_n_minus_one_edges(g):
    t = build_binary_tree(g)
    assert len(t.edges) == t.n_sites - 1
    assert len(bfs_component(t.n_sites, t.edges)) == t.n_sites


def test_tree_rejects_zero_generations():
    with pytest.raises(ValueError):
        build_binary_tree(0)


def test_hypercube_single_bond():
    t = build_hypercube(1)
    assert t.n_sites == 2
    assert t.edges == ((0, 1),)


def test_hypercube_dimension_four():
    t = build_hypercube(4)
    assert t.n_sites == 16
    assert len(t.edges) == 32
    for v in range(16):
        assert len(neighbors(t, v)) == 4


def test_hypercube_three_edge_count_brute_force():
    t = build_hypercube(3)
    # oracle: enumerate all label pairs differing in exactly one bit
    expected = {(v, w) for v in range(8) for w in range(v + 1, 8)
                if bin(v ^ w).count("1") == 1}
    assert set(t.edges) == expected
    assert len(expected) == 12


@pytest.mark.parametrize("d", range(1, 5))
def test_hypercube_adjacency_is_sum_of_bit_flips(d):
    n = 2 ** d
    flips = np.zeros((n, n))
    for b in range(d):
        for v in range(n):
            flips[v, v ^ (1 << b)] += 1.0
    assert np.array_equal(adjacency_matrix(build_hypercube(d)), flips)


def test_hypercube_rejects_zero_dimension():
    with pytest.raises(ValueError):
        build_hypercube(0)


def test_custom_graphs():
    dimer = build_custom(2, [(0, 1)])
    assert dimer.n_sites == 2 and dimer.kind == "custom"
    chain = build_custom(3, [(0, 1), (1, 2)])
    assert set(chain.edges) == {(0, 1), (1, 2)}
    star = build_custom(4, [(0, 1), (0, 2), (0, 3)])
    assert neighbors(star, 0) == (1, 2, 3)


@pytest.mark.parametrize("edges", [
    [(0, 3)],            # out of range
    [(0, 1), (1, 0)],    # duplicate after normalization
    [(1, 1)],            # self-loop
])
def test_custom_rejects_bad_edges(edges):
    with pytest.raises(ValueError):
        build_custom(3, edges)


def test_leaves_root_reject_non_trees():
    t = build_hypercube(2)
    with pytest.raises(ValueError):
        leaves(t)


def test_leaves_reject_a_tree_of_the_wrong_size():
    t = Topology(n_sites=5, edges=((0, 1), (0, 2), (1, 3), (1, 4)),
                 kind=BINARY_TREE)
    with pytest.raises(ValueError, match="2\\^g - 1 sites, not 5"):
        leaves(t)


@pytest.mark.parametrize("top", [
    build_binary_tree(4), build_hypercube(3), build_custom(4, [(0, 1), (2, 3)]),
])
def test_adjacency_symmetric_zero_diagonal(top):
    a = adjacency_matrix(top)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)


def test_load_edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# a 3-site chain\n3\n0 1\n1 2\n")
    t = load_edge_list(path)
    assert t.n_sites == 3
    assert set(t.edges) == {(0, 1), (1, 2)}
    assert t.kind == "custom"


def test_load_edge_list_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1 2\n")
    with pytest.raises(ValueError):
        load_edge_list(path)
