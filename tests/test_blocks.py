"""Bridge finder tests.

An edge is a bridge iff deleting it raises the component count: the
brute-force definition, held against the depth-first split on every
edge of small graphs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence import NeighborComplex, betti0, cycle_graph
from topoinfluence.blocks import cycle_split, lowlinks

from oracles import bridged_unions, small_graphs


def brute_force_bridges(g: NeighborComplex) -> set[tuple[int, int]]:
    edges = list(g.edges())
    components = betti0(g)
    return {
        edge for edge in edges
        if betti0(NeighborComplex.from_edges(g.n, [e for e in edges if e != edge]))
        > components
    }


def check_split(g: NeighborComplex) -> None:
    bridges, cyclic, local, cycle_neighbors = g.cycle_split
    want = brute_force_bridges(g)
    got = {(min(u, v), max(u, v)) for u, v in bridges.T.tolist()}
    assert got == want and bridges.shape == (2, len(want))
    cycle_edges = set(g.edges()) - want
    on_cycle = sorted({v for edge in cycle_edges for v in edge})
    assert cyclic.tolist() == on_cycle
    assert local.tolist() == [on_cycle.index(v) if v in on_cycle else -1 for v in range(g.n)]
    for k, v in enumerate(on_cycle):
        assert [on_cycle[j] for j in cycle_neighbors[k]] == sorted(
            w for w in g.neighbors[v] if (min(v, w), max(v, w)) in cycle_edges
        )


@given(st.one_of(small_graphs(max_n=12), bridged_unions(min_n=8, max_piece=6)
                 .filter(lambda g: g.n <= 12)))
@settings(max_examples=150, deadline=None)
def test_bridges_are_the_edges_whose_deletion_splits_a_component(g):
    check_split(g)


def test_split_of_named_shapes():
    # A bowtie: two triangles sharing vertex 0, no bridge.  Then a
    # triangle and a square joined by the bridge (2, 3), with a pendant.
    check_split(NeighborComplex.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]))
    check_split(NeighborComplex.from_edges(
        8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (6, 7)]
    ))
    check_split(NeighborComplex.from_edges(1, []))


def test_long_path_needs_no_recursion():
    # 10^5 vertices, far past the interpreter's recursion limit: every
    # edge is a bridge and no vertex lies on a cycle.
    n = 100_000
    path = tuple(
        tuple(w for w in (v - 1, v + 1) if 0 <= w < n) for v in range(n)
    )
    disc, parent, low = lowlinks(path)
    assert disc == list(range(n)) and parent == list(range(-1, n - 1))
    bridges, cyclic, local, cycle_neighbors = cycle_split(path)
    assert bridges.tolist() == [list(range(n - 1)), list(range(1, n))]
    assert len(cyclic) == 0 and cycle_neighbors == ()
    assert not np.any(local >= 0)


def test_long_cycle_has_no_bridge():
    n = 10_000
    bridges, cyclic, local, cycle_neighbors = cycle_graph(n).cycle_split
    assert bridges.shape == (2, 0)
    assert cyclic.tolist() == list(range(n)) and local.tolist() == list(range(n))
    assert cycle_neighbors == cycle_graph(n).neighbors


def test_split_is_cached_on_the_complex():
    g = cycle_graph(5)
    assert g.cycle_split is g.cycle_split
    # The cache is no field: equality and hashing see only the edges.
    assert g == cycle_graph(5) and hash(g) == hash(cycle_graph(5))
