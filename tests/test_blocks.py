"""Block finder and piece layout tests.

The biconnected blocks are held against a deletion oracle: two edges
share a block iff no single vertex's deletion parts their other ends.
An edge is a bridge iff deleting it raises the component count: the
brute-force definition, held against the blocks of two vertices on
every edge of small graphs.  The pieces of the sampled walk, the
blocks, are held against the deletion oracle too, the cycle blocks'
edges against the graph's, and each looked-up block's table against the
one-mask-at-a-time reference table of its induced subgraph.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence import NeighborComplex, betti0, complete_graph, cycle_graph, wheel_graph
from topoinfluence import blocks
from topoinfluence.blocks import biconnected_blocks, lowlinks, split_pieces

from oracles import (
    block_graphs,
    bridged_unions,
    cactus_graphs,
    joined_by_bridges,
    reference_betti0_table,
    small_graphs,
    two_cliques_sharing_a_vertex,
    two_cycles_sharing_a_vertex,
)


def brute_force_bridges(g: NeighborComplex) -> set[tuple[int, int]]:
    edges = list(g.edges())
    components = betti0(g)
    return {
        edge for edge in edges
        if betti0(NeighborComplex.from_edges(g.n, [e for e in edges if e != edge]))
        > components
    }


def check_split(g: NeighborComplex) -> None:
    """The bridges, the blocks of two vertices, against deleting each
    edge, and the pieces against the blocks of the deletion oracle, with
    every block but the bridges and cycles walked: at limit 0 and
    minimum 0 the walk's neighbour tuples and ``closed`` hold every edge
    between them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "PIECE_LIMIT", 0)
        mp.setattr(blocks, "LOOKUP_MIN", 0)
        g = NeighborComplex(g.n, g.rows)  # pieces not yet read
        check_pieces(g)
    got = {
        (min(vertices), max(vertices))
        for vertices, _ in biconnected_blocks(g.neighbors) if len(vertices) == 2
    }
    assert got == brute_force_bridges(g)


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


def brute_force_blocks(g: NeighborComplex) -> list[tuple[tuple[int, ...], int]]:
    """The blocks as (sorted vertices, edge count), sorted.  Two edges
    share a block iff they lie in one component and, with any one vertex
    x deleted, their ends other than x stay in one component: a cut
    vertex between two blocks parts them, and no vertex parts a block."""
    edges = list(g.edges())
    labels = []
    for x in range(-1, g.n):  # -1: no vertex deleted
        label = list(range(g.n))
        for _ in range(g.n):  # relax until every edge's ends agree
            for u, v in edges:
                if x not in (u, v):
                    label[u] = label[v] = min(label[u], label[v])
        labels.append((x, label))

    def together(e, f):
        return all(
            len({label[v] for v in (*e, *f) if v != x}) <= 1 for x, label in labels
        )

    classes: list[list[tuple[int, int]]] = []
    for e in edges:
        for c in classes:
            if together(c[0], e):
                c.append(e)
                break
        else:
            classes.append([e])
    return sorted((tuple(sorted({v for e in c for v in e})), len(c)) for c in classes)


def check_blocks(g: NeighborComplex) -> None:
    found = biconnected_blocks(g.neighbors)
    assert all(len(set(vertices)) == len(vertices) for vertices, _ in found)
    assert sorted((tuple(sorted(vertices)), m) for vertices, m in found) == (
        brute_force_blocks(g)
    )


@given(st.one_of(small_graphs(max_n=10), bridged_unions(min_n=6, max_piece=5)
                 .filter(lambda g: g.n <= 10),
                 block_graphs(max_n=10).map(lambda drawn: drawn[0])))
@settings(max_examples=150, deadline=None)
def test_blocks_match_the_deletion_oracle(g):
    check_blocks(g)


@given(block_graphs(max_n=16))
@settings(max_examples=60, deadline=None)
def test_blocks_of_a_block_graph_are_its_cliques(drawn):
    g, cliques = drawn
    found = biconnected_blocks(g.neighbors)
    assert sorted((sorted(vertices), m) for vertices, m in found) == sorted(
        (sorted(c), len(c) * (len(c) - 1) // 2) for c in cliques if len(c) > 1
    )


def test_blocks_of_named_shapes():
    # A bowtie: two triangles sharing the cut vertex 0.  A diamond: one
    # block of 4 vertices and 5 edges.  A triangle and a square joined by
    # the bridge (2, 3), with a pendant edge and an isolated vertex 8.
    check_blocks(NeighborComplex.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]))
    check_blocks(NeighborComplex.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    g = NeighborComplex.from_edges(
        9, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (6, 7)]
    )
    check_blocks(g)
    assert sorted((sorted(v), m) for v, m in biconnected_blocks(g.neighbors)) == [
        ([0, 1, 2], 3), ([2, 3], 1), ([3, 4, 5, 6], 4), ([6, 7], 1),
    ]
    assert biconnected_blocks(NeighborComplex.from_edges(3, []).neighbors) == []


def no_table(rows):
    raise AssertionError("a table filled for a piece that is walked")


def test_long_path_needs_no_recursion(monkeypatch):
    # 10^5 vertices, far past the interpreter's recursion limit: every
    # edge is a bridge and no vertex lies on a cycle.
    n = 100_000
    path = tuple(
        tuple(w for w in (v - 1, v + 1) if 0 <= w < n) for v in range(n)
    )
    disc, parent, low = lowlinks(path)
    assert disc == list(range(n)) and parent == list(range(-1, n - 1))
    monkeypatch.setattr(blocks, "_table_of_rows", no_table)
    pieces = split_pieces(path)
    assert pieces.closed.tolist() == [list(range(n - 1)), list(range(1, n))]
    assert biconnected_blocks(path) == [([v - 1, v], 1) for v in range(1, n)]
    assert len(pieces.looked) == len(pieces.walked) == 0 and pieces.walk_neighbors == ()
    assert not np.any(pieces.walk_local >= 0)


def test_long_cycle_has_no_bridge():
    # The cycle is one cycle block; with a chord it is one walked block.
    n = 10_000
    pieces = cycle_graph(n).pieces
    assert len(pieces.looked) == len(pieces.walked) == 0
    assert pieces.cycles.tolist() == list(range(n)) and pieces.cycle_starts.tolist() == [0]
    assert sorted(map(tuple, pieces.closed.T.tolist())) == sorted(cycle_graph(n).edges())
    chorded = NeighborComplex.from_edges(n, [*cycle_graph(n).edges(), (0, n // 2)])
    pieces = chorded.pieces
    assert pieces.closed.shape == (2, 0) and len(pieces.looked) == len(pieces.cycles) == 0
    assert pieces.walked.tolist() == list(range(n))
    assert pieces.walk_local.tolist() == list(range(n))
    assert pieces.walk_neighbors == chorded.neighbors


def test_split_is_cached_on_the_complex():
    g = cycle_graph(5)
    assert g.pieces is g.pieces
    # The cache is no field: equality and hashing see only the edges.
    assert "pieces" not in {f.name for f in dataclasses.fields(g)}
    assert g == cycle_graph(5) and hash(g) == hash(cycle_graph(5))


def induced(g: NeighborComplex, vertices: list[int]) -> NeighborComplex:
    """The subgraph induced on ``vertices``, numbered in their order."""
    number = {v: j for j, v in enumerate(vertices)}
    return NeighborComplex.from_edges(len(vertices), [
        (number[u], number[v]) for u, v in g.edges() if u in number and v in number
    ])


def check_pieces(g: NeighborComplex) -> None:
    pieces = g.pieces
    found = brute_force_blocks(g)
    cycles = [vertices for vertices, m in found if len(vertices) > 2 and m == len(vertices)]
    rest = [vertices for vertices, m in found if m > len(vertices)]
    starts = [*pieces.cycle_starts.tolist(), len(pieces.cycles)]
    laid_out = [pieces.cycles[a:b].tolist() for a, b in zip(starts, starts[1:])]
    assert sorted(tuple(sorted(c)) for c in laid_out) == cycles
    assert all(len(set(c)) == len(c) for c in laid_out)
    # The closed columns: every bridge and every edge of a cycle block.
    assert pieces.closed.dtype == np.int64 and pieces.closed.shape[0] == 2
    closed = [(min(u, v), max(u, v)) for u, v in pieces.closed.T.tolist()]
    assert sorted(closed) == sorted(
        (u, v) for u, v in g.edges()
        if any(u in c and v in c for c in cycles)
        or any(vertices == (u, v) for vertices, _ in found)
    )
    small = [c for c in rest if len(c) <= blocks.PIECE_LIMIT]
    if sum(map(len, small)) < blocks.LOOKUP_MIN:
        small = []
    large = [c for c in rest if c not in small]
    width = max(map(len, small), default=0)
    assert pieces.members.shape == (width, len(small))
    assert pieces.row_bits.ravel().tolist() == [1 << j for j in range(width)]
    # Each column is one block in its local order, padded with n; each
    # block's table starts where the one before it ends.
    columns = [[v for v in column if v != g.n] for column in pieces.members.T.tolist()]
    assert pieces.members.T.tolist() == [c + [g.n] * (width - len(c)) for c in columns]
    assert sorted(tuple(sorted(c)) for c in columns) == small
    starts = np.cumsum([0] + [1 << len(c) for c in columns]).tolist()
    assert len(pieces.tables) == starts[-1]
    for c, start in zip(columns, starts):
        want = reference_betti0_table(induced(g, c))
        assert pieces.tables[start : start + len(want)].tolist() == want.tolist()
    assert pieces.looked.tolist() == [v for c in columns for v in c]
    for v, column, low, high in zip(pieces.looked.tolist(), pieces.piece.tolist(),
                                    *pieces.base.tolist()):
        assert v in columns[column]
        assert low == starts[column] and high == low + (1 << columns[column].index(v))
    # The walked blocks, as the union of their edges.
    walked = sorted({v for c in large for v in c})
    assert pieces.walked.tolist() == walked
    assert pieces.walk_local.tolist() == [
        walked.index(v) if v in walked else -1 for v in range(g.n)
    ]
    for k, v in enumerate(walked):
        assert [walked[j] for j in pieces.walk_neighbors[k]] == [
            w for w in g.neighbors[v] if any(v in c and w in c for c in large)
        ]


@pytest.mark.parametrize("limit, lookup_min", [
    (0, 0), (3, 0), (5, 0), (blocks.PIECE_LIMIT, 0),
    (blocks.PIECE_LIMIT, blocks.LOOKUP_MIN),
])
@given(st.one_of(small_graphs(max_n=12), bridged_unions(min_n=8, max_piece=7)
                 .filter(lambda g: g.n <= 14), block_graphs(max_n=12).map(lambda drawn: drawn[0]),
                 cactus_graphs(max_n=14)))
@settings(max_examples=60, deadline=None)
def test_pieces_are_the_biconnected_blocks(limit, lookup_min, g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "PIECE_LIMIT", limit)
        mp.setattr(blocks, "LOOKUP_MIN", lookup_min)
        check_pieces(g)


def test_pieces_of_named_shapes():
    # The limit falls between the two wheels: the 12-vertex one is looked
    # up, the 13-vertex one walked.  The two 6-cycles share a cut vertex
    # and are two cycle blocks, as the 5-cycle is one; the wheel of 5 is
    # not.  The two K4s share a cut vertex, looked up once in each.
    g = joined_by_bridges([
        wheel_graph(12), wheel_graph(13), two_cycles_sharing_a_vertex(6),
        complete_graph(8), wheel_graph(5), cycle_graph(5), two_cliques_sharing_a_vertex(4),
    ], seed=3)
    check_pieces(g)
    assert len(g.pieces.looked) == 12 + 8 + 5 + 4 + 4 and len(g.pieces.walked) == 13
    assert len(g.pieces.cycles) == 6 + 6 + 5 and len(g.pieces.cycle_starts) == 3
    assert len(g.pieces.tables) == 2**12 + 2**8 + 2**5 + 2**4 + 2**4
    assert len(set(g.pieces.looked.tolist())) == len(g.pieces.looked) - 1


def test_too_few_small_piece_vertices_are_walked_over_the_split(monkeypatch):
    # Small pieces of 7 vertices in all, one below the minimum: no table,
    # and they are walked with the wheel of 13.  The triangle is a cycle
    # piece and counts toward no minimum.  At 8 they are looked up.
    monkeypatch.setattr(blocks, "LOOKUP_MIN", 8)
    g = joined_by_bridges([wheel_graph(7), cycle_graph(3), wheel_graph(13)], seed=1)
    check_pieces(g)
    assert len(g.pieces.tables) == 0
    assert len(g.pieces.looked) == 0 and len(g.pieces.walked) == 20
    assert len(g.pieces.cycles) == 3
    g = joined_by_bridges([complete_graph(4), complete_graph(4), wheel_graph(13)], seed=1)
    check_pieces(g)
    assert len(g.pieces.looked) == 8 and len(g.pieces.walked) == 13


def test_a_piece_above_the_limit_gets_no_table():
    pieces = wheel_graph(blocks.PIECE_LIMIT + 1).pieces
    assert len(pieces.tables) == 0 and len(pieces.looked) == 0
    assert pieces.walked.tolist() == list(range(blocks.PIECE_LIMIT + 1))


def test_pieces_peak_memory_at_scale():
    # 1000 wheels of 12 joined by bridges: 12,000 vertices, each looked
    # up.  The first read of the pieces, depth-first search included,
    # holds 1000 x 4 KiB of tables and under 1 MB of index arrays, and
    # the search's lists are freed before the tables are filled.  It
    # must peak under a fixed 6.2 MB (measured 5.6 MB): no second copy
    # of the tables, and no complex kept per piece.  What stays held
    # after it, the pieces alone, measured 4.95 MB.
    wheel = list(wheel_graph(12).edges())
    edges = [(12 * k + u, 12 * k + v) for k in range(1000) for u, v in wheel]
    edges += [(12 * k, 12 * k + 13) for k in range(999)]
    g = NeighborComplex.from_edges(12_000, edges)
    tracemalloc.start()
    try:
        pieces = g.pieces
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pieces.looked) == 12_000 and len(pieces.walked) == 0
    assert len(pieces.tables) == 1000 * 2**12
    assert peak <= 6_200_000, peak
    assert held <= 5_400_000, held


def test_cycle_pieces_peak_memory_at_scale():
    # One 10^4-cycle and 3000 triangles: 19,000 cycle vertices in 3001
    # cycle blocks, laid out flat with their start offsets.  A matrix padded to
    # the longest cycle would take 3001 x 10^4 x 8 bytes, about 240 MB.
    # The first read must peak under a fixed 3.5 MB (measured 2.9 MB) and
    # hold under 1 MB after it (measured 0.75 MB).
    n = 10_000
    triangle = ((0, 1), (1, 2), (0, 2))
    edges = list(cycle_graph(n).edges()) + [
        (n + 3 * k + u, n + 3 * k + v) for k in range(3000) for u, v in triangle
    ]
    g = NeighborComplex.from_edges(n + 9000, edges)
    tracemalloc.start()
    try:
        pieces = g.pieces
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pieces.cycles) == 19_000 and len(pieces.cycle_starts) == 3001
    assert pieces.closed.shape == (2, 19_000)
    assert len(pieces.looked) == len(pieces.walked) == len(pieces.tables) == 0
    assert peak <= 3_500_000, peak
    assert held <= 1_000_000, held
