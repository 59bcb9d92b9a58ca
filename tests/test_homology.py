import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence import homology
from topoinfluence import (
    InputError,
    NeighborComplex,
    SizeCapError,
    betti0,
    betti0_table,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    mask_nodes,
    path_graph,
    star_graph,
)

from oracles import (
    MULTI_CHUNK_GRAPHS,
    betti0_of_subset,
    betti0_spectral,
    family_unions,
    laplacian,
    multi_chunk_case,
    record_chunks,
    reference_betti0_table,
    relabeled,
    small_graphs,
)


class TestBetti0:
    def test_known_graphs(self):
        assert betti0(complete_graph(5)) == 1
        assert betti0(NeighborComplex.from_edges(5, [])) == 5
        assert betti0(NeighborComplex.from_edges(6, [(0, 1), (2, 3)])) == 4
        assert betti0(NeighborComplex.from_edges(5, [(0, 1), (1, 2), (3, 4)])) == 2

    def test_subset_conventions(self):
        g = path_graph(4)
        assert betti0_of_subset(g, 0) == 0  # empty coalition
        assert betti0_of_subset(g, 0b0001) == 1
        assert betti0_of_subset(g, 0b0101) == 2  # vertices 0 and 2, no edge
        assert betti0_of_subset(g, 0b1111) == 1

    @given(small_graphs(max_n=8))
    def test_spectral_equals_union_find(self, g):
        assert betti0_spectral(g) == betti0(g)

    @given(small_graphs(max_n=7))
    @settings(max_examples=60)
    def test_adding_an_edge_never_splits(self, g):
        base = betti0(g)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if not g.rows[i] >> j & 1:
                    grown = NeighborComplex.from_edges(
                        g.n, list(g.edges()) + [(i, j)]
                    )
                    assert base - 1 <= betti0(grown) <= base


    @given(small_graphs(max_n=7))
    @settings(max_examples=60)
    def test_keep_counts_the_masked_graph(self, g):
        full = (1 << g.n) - 1
        assert betti0(g, 0) == 0
        assert betti0(g, full) == betti0(g)
        for keep in range(1, full + 1):
            removed = {v for v in range(g.n) if not keep >> v & 1}
            want = betti0_of_subset(g, keep)
            assert betti0(g, keep) == want
            assert betti0(mask_nodes(g, removed)) == want

    def test_keep_outside_vertices_rejected(self):
        g = path_graph(3)
        for keep in (-1, 0b1000, 0b1111):
            with pytest.raises(InputError, match="outside 0..2"):
                betti0(g, keep)


class TestComponentChanges:
    @given(st.data())
    @settings(max_examples=60)
    def test_changes_sum_to_betti0_in_any_order(self, data):
        g = data.draw(small_graphs(max_n=8))
        order = data.draw(st.permutations(range(g.n)))
        assert sum(homology.component_changes(g.neighbors, order)) == betti0(g)
        # A walk over a prefix leaves the other vertices at 0 and sums to
        # b0 of the prefix.
        k = data.draw(st.integers(0, g.n))
        changes = homology.component_changes(g.neighbors, order[:k])
        assert all(changes[v] == 0 for v in order[k:])
        assert sum(changes) == betti0_of_subset(g, sum(1 << v for v in order[:k]))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_change_is_the_flood_fill_difference(self, data):
        # Every entry, not just the sum: changes[v] is b0(P + v) - b0(P)
        # for the prefix P before v, on full orders and on prefixes.
        g = data.draw(st.one_of(small_graphs(max_n=8), family_unions()))
        order = data.draw(st.permutations(range(g.n)))
        k = data.draw(st.sampled_from([g.n, data.draw(st.integers(0, g.n))]))
        counts, mask = [0], 0
        for v in order[:k]:
            mask |= 1 << v
            counts.append(betti0_of_subset(g, mask))
        changes = homology.component_changes(g.neighbors, order[:k])
        want = [0] * g.n
        for i, v in enumerate(order[:k]):
            want[v] = counts[i + 1] - counts[i]
        assert changes == want

    def test_long_cycle_in_index_order(self):
        # Vertex 0 starts the one component; each later vertex extends
        # it, and the last closes the cycle onto it.
        changes = homology.component_changes(cycle_graph(10_000).neighbors, range(10_000))
        assert changes == [1] + [0] * 9_999

    @pytest.mark.parametrize("order, message", [
        ([0, 3], "order has vertex 3 outside 0..2"),
        # A list index of -1 would wrap around: the walk checks the range.
        ([2, -1], "order has vertex -1 outside 0..2"),
        ([1, 0, 1], "order repeats vertex 1"),
    ])
    def test_order_errors(self, order, message):
        with pytest.raises(InputError) as err:
            homology.component_changes(path_graph(3).neighbors, order)
        assert str(err.value) == message


class TestLaplacian:
    def test_structure(self):
        L = laplacian(cycle_graph(5))
        assert np.allclose(L, L.T)
        assert np.allclose(L.sum(axis=1), 0.0)
        assert np.all(np.diag(L) == 2.0)

    def test_positive_semidefinite(self):
        L = laplacian(star_graph(6))
        assert np.linalg.eigvalsh(L).min() > -1e-12


# Seven vertices whose table takes every branch of betti0_table's first
# step: a top with no neighbour in the mask, with one, and with two or
# more, and of those, a component that is the whole mask at once (0b111
# among them, in the chunk at 0 that holds blocks 0-2 when CHUNK_BITS is
# 3), one that grows to the whole mask (over three passes for 0b1111110)
# and one that grows and stays short of it.
BRANCH_GRAPH = NeighborComplex.from_edges(
    7, [(0, 2), (1, 2), (1, 3), (0, 4), (3, 4), (4, 6), (5, 6)]
)


def first_step_branch(g: NeighborComplex, mask: int) -> str:
    """The branch betti0_table's first step takes on ``mask``, from the
    top vertex's neighbours in it, and for growing components whether
    the mask is connected (the top's component is then all of it)."""
    top = mask.bit_length() - 1
    around = bin(mask & g.rows[top]).count("1")
    if around < 2:
        return ("no neighbour", "one neighbour")[around]
    if mask & g.rows[top] | 1 << top == mask:
        return "whole at once"
    if betti0_of_subset(g, mask) == 1:
        return "grows to whole"
    return "grows, stays short"


def lower_neighbours(g: NeighborComplex, b: int) -> int:
    """How many neighbours of vertex b are numbered below it."""
    return (g.rows[b] & (1 << b) - 1).bit_count()


@st.composite
def mixed_block_graphs(draw, max_n=10):
    """A graph on 1..max_n vertices in which each vertex b draws whether
    it is tree-like, with at most one neighbour below it, or, from b = 2
    on, one with two or more: tree-like blocks and blocks that must grow
    alternate across the chunk borders of every CHUNK_BITS."""
    n = draw(st.integers(1, max_n))
    edges = []
    for b in range(1, n):
        grows = b >= 2 and draw(st.booleans())
        below = draw(st.sets(st.integers(0, b - 1), min_size=2 * grows,
                             max_size=b if grows else 1))
        edges += [(u, b) for u in below]
    return NeighborComplex.from_edges(n, edges)


class TestBetti0Table:
    @given(small_graphs(max_n=8))
    @settings(max_examples=40)
    def test_matches_per_subset_union_find(self, g):
        table = betti0_table(g.rows)
        assert len(table) == 1 << g.n
        for mask in range(1 << g.n):
            assert int(table[mask]) == betti0_of_subset(g, mask)

    def test_branch_graph_takes_every_branch(self):
        branches = Counter(
            first_step_branch(BRANCH_GRAPH, mask) for mask in range(1, 1 << 7)
        )
        assert set(branches) == {
            "no neighbour", "one neighbour", "whole at once",
            "grows to whole", "grows, stays short",
        }
        assert first_step_branch(BRANCH_GRAPH, 0b111) == "whole at once"
        assert first_step_branch(BRANCH_GRAPH, 0b1111110) == "grows to whole"

    @pytest.mark.parametrize("chunk_bits", [homology.CHUNK_BITS, 1, 3])
    def test_every_branch_matches_reference(self, chunk_bits):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "CHUNK_BITS", chunk_bits)
            table = betti0_table(BRANCH_GRAPH.rows)
        want = reference_betti0_table(BRANCH_GRAPH)
        wrong = Counter(
            first_step_branch(BRANCH_GRAPH, mask)
            for mask in range(1, 1 << 7)
            if table[mask] != want[mask]
        )
        assert not wrong
        assert table.tobytes() == want.tobytes()

    def test_full_mask_is_betti0(self):
        g = NeighborComplex.from_edges(6, [(0, 1), (1, 2), (4, 5)])
        assert int(betti0_table(g.rows)[(1 << g.n) - 1]) == betti0(g) == 3

    @given(small_graphs(max_n=7))
    @settings(max_examples=30)
    def test_single_vertex_delta_is_bounded(self, g):
        # Adding one vertex changes the count by +1 (new isolated piece)
        # or -(c - 1) where c components got merged; never more.
        table = betti0_table(g.rows)
        for mask in range(1 << g.n):
            for i in range(g.n):
                if not mask >> i & 1:
                    delta = int(table[mask | 1 << i]) - int(table[mask])
                    assert -g.n < delta <= 1

    @given(
        st.one_of(small_graphs(max_n=10), mixed_block_graphs()),
        st.sampled_from([homology.CHUNK_BITS, 1, 3]),
    )
    @settings(max_examples=80)
    def test_matches_reference_table(self, g, chunk_bits):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "CHUNK_BITS", chunk_bits)
            table = betti0_table(g.rows)
        assert table.dtype == np.int8
        assert len(table) == 1 << g.n
        assert table.tobytes() == reference_betti0_table(g).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("chunk_bits", [3, 4])
    def test_chunks_at_the_chunk_length(self, monkeypatch, chunk_bits, offset, seed):
        # Only the blocks whose vertex has two or more neighbours below it
        # reach _fill_chunk, in ascending ranges of at most 2^CHUNK_BITS
        # masks; each tree-like block is one broadcast add.
        n = chunk_bits + offset
        g = relabeled(erdos_renyi_graph(n, 0.4, seed), seed)
        monkeypatch.setattr(homology, "CHUNK_BITS", chunk_bits)
        chunks = record_chunks(monkeypatch)
        table = betti0_table(g.rows)
        growing = [b for b in range(n) if lower_neighbours(g, b) >= 2]
        covered = [mask for first, stop in chunks for mask in range(first, stop)]
        assert covered == [mask for b in growing for mask in range(1 << b, 2 << b)]
        assert all(stop - first <= 1 << chunk_bits for first, stop in chunks)
        assert not any(
            first < 2 << b and 1 << b < stop
            for first, stop in chunks
            for b in set(range(n)) - set(growing)
        )
        assert table.tobytes() == reference_betti0_table(g).tobytes()

    @pytest.mark.parametrize("g", [
        path_graph(18),
        NeighborComplex.from_edges(18, [(0, v) for v in range(1, 18)]),
    ], ids=["path18", "star18-centre0"])
    def test_tree_like_blocks_fill_no_chunk(self, monkeypatch, g):
        # Each vertex has at most one neighbour below it, so every block
        # is a broadcast add and none reaches _fill_chunk.
        chunks = record_chunks(monkeypatch)
        table = betti0_table(g.rows)
        assert chunks == []
        assert table.tobytes() == reference_betti0_table(g).tobytes()

    @pytest.mark.parametrize("name", sorted(MULTI_CHUNK_GRAPHS))
    def test_multi_chunk_graphs_match_reference(self, name):
        g, expected = multi_chunk_case(name)
        assert g.n >= homology.CHUNK_BITS + 2
        table = betti0_table(g.rows)
        assert table.dtype == np.int8
        assert len(table) == 1 << g.n
        assert table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("g, arrays", [
        (path_graph(18), 3),
        (complete_graph(18), 3),
        # Most masks here grow past the first step, all at once.
        (erdos_renyi_graph(18, 0.3, 5), 8),
    ], ids=["path18", "K18", "ER18"])
    def test_temporaries_are_a_few_chunk_arrays(self, g, arrays):
        # Beyond its 2^n-byte table, a fill holds at most this many int64
        # arrays of one chunk.  Measured: 2.7 for the path and K18, 7.1
        # for ER18.
        betti0_table(g.rows)
        tracemalloc.start()
        try:
            betti0_table(g.rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - (1 << g.n) <= arrays * 8 << homology.CHUNK_BITS

    def test_size_guard(self):
        g = NeighborComplex.from_edges(27, [])
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError):
                betti0_table(g.rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before the 2^27-byte table
