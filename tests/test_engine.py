"""Engine tests.

The important oracle here is ``definition_shapley``: a from-scratch
evaluation of the defining sum over coalitions, sharing no code with the
engine's subset-table walk.  Agreement between the two is the main
correctness evidence for the exact path; the sampled path is checked for
unbiasedness (full-permutation average) and reproducibility.  The exact
scores are also held against the absolute marginal tallies of the slow
routes in ``oracles``, on graphs that span several chunks, and on
chordal graphs, forests and graphs whose blocks are all complete among
them, which exact mode scores in closed form with no table.  Shapley
efficiency fixes the sum of the exact scores and of each order's
marginals on every route.
"""

import dataclasses
import itertools
import math
import os
import random
import signal
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence import blocks, engine, homology, parallel
from topoinfluence import (
    FAMILIES,
    InfluenceResult,
    InputError,
    NeighborComplex,
    SizeCapError,
    LabeledPointSet,
    betti0_table,
    build_complex,
    complete_bipartite_graph,
    complete_graph,
    complete_scores,
    compute_influence,
    cycle_graph,
    cycle_scores,
    erdos_renyi_graph,
    exact_shapley,
    neighbor_pairs,
    path_graph,
    path_scores,
    permutation_marginals,
    sampled_shapley,
    shannon_entropy,
    star_graph,
    star_scores,
    wheel_graph,
    wheel_scores,
)

from oracles import (
    COLLECTED_CPUS,
    MULTI_CHUNK_GRAPHS,
    betti0_of_subset,
    block_graphs,
    bridged_unions,
    cactus_graphs,
    chordal_graphs,
    efficiency_total,
    flood_marginals,
    interval_graph,
    joined_by_bridges,
    k_tree,
    multi_chunk_case,
    no_child_left,
    reference_betti0_table,
    reference_size_sums,
    record_chunks,
    reference_tallies,
    relabeled,
    small_graphs,
    split_and_serial,
    two_cliques_sharing_a_vertex,
    two_cycles_sharing_a_vertex,
    walk_totals,
    whole_graph_marginals,
    whole_graph_sums,
)

# Every route of the sampled walk, as (PIECE_LIMIT, LOOKUP_MIN): every
# block but the bridges and cycles walked, at limit 0 and at 3 alike,
# since the one block of three vertices is a triangle, a cycle; only
# blocks of at most five vertices looked up (K4s, K5s, diamonds); every
# block up to the default limit looked up; and the defaults.
PIECE_ROUTES = [(0, 0), (3, 0), (5, 0), (blocks.PIECE_LIMIT, 0),
                (blocks.PIECE_LIMIT, blocks.LOOKUP_MIN)]


def named_pieces(seed: int) -> NeighborComplex:
    """Blocks at, above and below the table limit of 12, joined by bridges
    with a tree and a path: a wheel of 12, a wheel of 13, two 6-cycles
    sharing a cut vertex, K_{4,6}, K8, two K4s sharing a cut vertex and a
    20-cycle."""
    return joined_by_bridges([
        wheel_graph(12), wheel_graph(13), two_cycles_sharing_a_vertex(6),
        complete_bipartite_graph(4, 6), complete_graph(8), two_cliques_sharing_a_vertex(4),
        cycle_graph(20), star_graph(5), path_graph(4),
    ], seed)


def definition_shapley(g: NeighborComplex) -> tuple[Fraction, ...]:
    """The defining sum, evaluated literally: for every vertex, every
    coalition of the others, weighted absolute component-count change."""
    n = g.n
    n_fact = math.factorial(n)
    scores = []
    for i in range(n):
        others = [v for v in range(n) if v != i]
        total = Fraction(0)
        for k in range(n):
            weight = Fraction(
                math.factorial(k) * math.factorial(n - 1 - k), n_fact
            )
            for coalition in itertools.combinations(others, k):
                mask = 0
                for v in coalition:
                    mask |= 1 << v
                gain = abs(
                    betti0_of_subset(g, mask | 1 << i)
                    - betti0_of_subset(g, mask)
                )
                total += weight * gain
        scores.append(total)
    return tuple(scores)


@st.composite
def results(draw):
    """An exact or sampled result on a small graph, or the closed-form
    result of a family member."""
    method = draw(st.sampled_from(["exact", "sampled", "closed_form"]))
    if method == "closed_form":
        family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
        params = [draw(st.integers(low, low + 8)) for low in family.min_params]
        return InfluenceResult(
            labels=family.roles(*params),
            shapley=family.scores(*params),
            method="closed_form",
        )
    g = draw(small_graphs())
    if method == "exact":
        return exact_shapley(g)
    return sampled_shapley(g, draw(st.integers(1, 40)), draw(st.integers(0, 2**32)))


class TestDerivedValues:
    @given(results())
    @settings(max_examples=60, deadline=None)
    def test_mu_and_entropy_come_from_the_scores(self, res):
        total = res.total
        assert res.mu == tuple(s / total for s in res.shapley)
        if res.method != "sampled":
            assert sum(res.mu) == 1  # exact rational normalization
        assert res.entropy == shannon_entropy(res.mu)

    @given(results())
    @settings(max_examples=30, deadline=None)
    def test_relabeled_result_derives_the_same_values(self, res):
        labels = tuple(f"v{i}" for i in range(res.n))
        relabeled = dataclasses.replace(res, labels=labels)
        assert relabeled.mu == res.mu
        assert relabeled.entropy == res.entropy

    def test_derived_values_are_not_fields(self):
        names = [f.name for f in dataclasses.fields(InfluenceResult)]
        assert names == [
            "labels", "shapley", "method", "permutations", "seed", "std_error"
        ]


class TestExact:
    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_matches_definition(self, g):
        assert exact_shapley(g).shapley == definition_shapley(g)

    def test_singleton(self):
        res = exact_shapley(NeighborComplex.from_edges(1, []))
        assert res.shapley == (Fraction(1),)
        assert res.mu == (Fraction(1),)
        assert res.entropy == 0.0

    def test_two_isolated_points(self):
        res = exact_shapley(NeighborComplex.from_edges(2, []))
        assert res.shapley == (Fraction(1), Fraction(1))
        assert res.entropy == pytest.approx(math.log(2), abs=1e-15)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_measure_properties(self, g):
        res = exact_shapley(g)
        assert sum(res.mu) == 1  # exact rational normalization
        assert all(m > 0 for m in res.mu)
        # every vertex earns at least the first-arrival term
        assert all(s >= Fraction(1, g.n) for s in res.shapley)
        assert -1e-12 <= res.entropy <= math.log(g.n) + 1e-12

    def test_cap_enforced(self):
        g = NeighborComplex.from_edges(8, [])
        with pytest.raises(SizeCapError):
            exact_shapley(g, cap=7)

    def test_cap_above_default_warns(self):
        g = erdos_renyi_graph(21, 0.4, seed=9)
        with pytest.warns(RuntimeWarning, match="2\\^21"):
            exact_shapley(g, cap=26)

    @pytest.mark.parametrize(
        "build,scores,n",
        [(complete_graph, complete_scores, 21), (cycle_graph, cycle_scores, 22),
         (wheel_graph, wheel_scores, 21)],
    )
    def test_past_default_cap_matches_closed_form(self, build, scores, n):
        # Past 2^CHUNK_BITS masks: bits above the chunk, and a second
        # 8-bit group inside it.  The warning comes only with a table:
        # K21 is one complete block, scored in closed form.
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            res = exact_shapley(build(n), cap=26)
        tabled = build is not complete_graph
        assert [w.category for w in record] == [RuntimeWarning] * tabled
        assert res.shapley == scores(n)

    def test_disconnected_graph_attribution(self):
        # Two far triangles: symmetry within each triangle, and the two
        # triangles share the total evenly.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        res = exact_shapley(NeighborComplex.from_edges(6, edges))
        assert len(set(res.shapley)) == 1


def tally_scores(table: np.ndarray, n: int) -> tuple[Fraction, ...]:
    """Scores from ``oracles.reference_tallies``: each vertex's absolute
    marginals per coalition size, weighted by k! (n-1-k)! / n!."""
    weights = [math.factorial(k) * math.factorial(n - 1 - k) for k in range(n)]
    return tuple(
        Fraction(sum(w * t for w, t in zip(weights, row)), math.factorial(n))
        for row in reference_tallies(table, n).tolist()
    )


class TestMarginalTallies:
    """The degree term minus the signed Shapley value of b0 equals the
    Shapley-weighted absolute tallies."""

    @given(small_graphs(max_n=10), st.sampled_from([homology.CHUNK_BITS, 1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, g, chunk_bits):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "CHUNK_BITS", chunk_bits)
            scores = exact_shapley(g).shapley
        assert scores == tally_scores(reference_betti0_table(g), g.n)

    @pytest.mark.parametrize("name", sorted(MULTI_CHUNK_GRAPHS))
    def test_multi_chunk_graphs_match_reference(self, name):
        g, table = multi_chunk_case(name)
        assert exact_shapley(g).shapley == tally_scores(table, g.n)


@st.composite
def forests(draw, max_n=16):
    """Trees on 1..max_n vertices, isolated vertices among them, under a
    random relabeling: each vertex after the first hangs from an earlier
    one or starts a tree of its own, which may stay a single vertex."""
    n = draw(st.integers(1, max_n))
    edges = []
    for v in range(1, n):
        parent = draw(st.none() | st.integers(0, v - 1))
        if parent is not None:
            edges.append((parent, v))
    label = draw(st.permutations(range(n)))
    return NeighborComplex.from_edges(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def cyclic_graphs(draw, max_n=7):
    """A graph on 3..max_n vertices with a triangle on 0, 1, 2 and any
    other edges: it has a cycle, so exact mode fills its table unless
    it is chordal."""
    g = draw(small_graphs(min_n=3, max_n=max_n))
    return NeighborComplex.from_edges(g.n, [*g.edges(), (0, 1), (1, 2), (0, 2)])


@st.composite
def chordless_cycle_graphs(draw, max_n=8):
    """A graph on 4..max_n vertices whose first k >= 4 vertices induce a
    chordless cycle, with any other edges that touch a later vertex: it
    is not chordal, so exact mode fills its table."""
    n = draw(st.integers(4, max_n))
    k = draw(st.integers(4, n))
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if v >= k]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return NeighborComplex.from_edges(n, [*cycle_graph(k).edges(), *sorted(chosen)])


def degree_scores(g: NeighborComplex) -> tuple[Fraction, ...]:
    """c(deg i) = 2 / (deg i + 1) + deg i / 2 - 1 for every vertex: the
    scores of a forest, spelled as in the Euler-characteristic identity."""
    return tuple(
        Fraction(2, d + 1) + Fraction(d, 2) - 1 for d in map(g.degree, range(g.n))
    )


class TestForests:
    """A forest, whose blocks are its edges, is scored in closed form with
    no subset table; a graph with a chordless cycle of four or more
    vertices still fills its whole table."""

    @given(forests())
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_tallies_and_degree_form(self, g):
        scores = exact_shapley(g).shapley
        assert scores == tally_scores(reference_betti0_table(g), g.n)
        assert scores == degree_scores(g)

    @pytest.mark.parametrize("g, want", [
        (path_graph(20), path_scores(20)),
        (star_graph(15), star_scores(15)),
        (NeighborComplex.from_edges(20, []), (Fraction(1),) * 20),
    ], ids=["path20", "star15", "edgeless20"])
    def test_fills_no_table(self, monkeypatch, g, want):
        def refuse(rows):
            raise AssertionError("a forest filled a subset table")

        monkeypatch.setattr(engine, "betti0_table", refuse)
        res = exact_shapley(g)
        assert res.method == "exact"
        assert res.shapley == want

    @pytest.mark.parametrize("g", [
        NeighborComplex.from_edges(12, [*path_graph(12).edges(), (2, 9)]),
        # Fewer edges than vertices, yet a cycle: 4 + 2 components is not 6.
        NeighborComplex.from_edges(6, list(cycle_graph(4).edges())),
        # The bench's traced job: its 6-cycle block keeps the 2^13 table.
        NeighborComplex.from_edges(13, [
            *star_graph(7).edges(), *((u + 7, v + 7) for u, v in cycle_graph(6).edges())
        ]),
    ], ids=["path12+chord", "C4+2", "star7+cycle6"])
    def test_a_cycle_fills_one_whole_table(self, monkeypatch, g):
        lengths = []

        def counted(rows):
            table = betti0_table(rows)
            lengths.append(len(table))
            return table

        monkeypatch.setattr(engine, "betti0_table", counted)
        scores = exact_shapley(g).shapley
        assert lengths == [2**g.n]
        assert scores == tally_scores(reference_betti0_table(g), g.n)

    def test_cap_and_warning_unchanged(self):
        # The cap refuses a forest as before, but past the default cap a
        # forest fills no table and so gives no warning; a cycle still does.
        g = path_graph(21)
        with pytest.raises(SizeCapError, match="n=21 exceeds cap 20"):
            exact_shapley(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = exact_shapley(g, cap=21)
        assert res.shapley == path_scores(21)
        with pytest.warns(RuntimeWarning) as record:
            res = exact_shapley(cycle_graph(21), cap=21)
        assert [str(w.message) for w in record] == [
            "exact enumeration at n=21 fills a 2^21-entry subset table; time and "
            "memory roughly double with each vertex past the default cap"
        ]
        assert res.shapley == cycle_scores(21)


def clique_scores(g: NeighborComplex, cliques) -> tuple[Fraction, ...]:
    """2 / (deg i + 1) - 1 plus 1 - 1/|B| for each clique B holding i."""
    scores = [Fraction(2, d + 1) - 1 for d in map(g.degree, range(g.n))]
    for clique in cliques:
        for v in clique:
            scores[v] += 1 - Fraction(1, len(clique))
    return tuple(scores)


class TestBlockGraphs:
    """A graph whose blocks are all complete is scored in closed form,
    with no subset table, as is any other chordal graph."""

    @given(block_graphs())
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_tallies_and_block_form(self, drawn):
        g, cliques = drawn
        scores = exact_shapley(g).shapley
        assert scores == tally_scores(reference_betti0_table(g), g.n)
        assert scores == clique_scores(g, cliques)

    @pytest.mark.parametrize("g, want", [
        (complete_graph(20), complete_scores(20)),
        # Two triangles sharing vertex 0: 2/5 - 1 + 2 (2/3) there, 1/3 elsewhere.
        (NeighborComplex.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]),
         (Fraction(11, 15),) + (Fraction(1, 3),) * 4),
        (NeighborComplex.from_edges(10, [
            *complete_graph(5).edges(), *((u + 5, v + 5) for u, v in complete_graph(4).edges())
        ]), (Fraction(1, 5),) * 5 + (Fraction(1, 4),) * 4 + (Fraction(1),)),
        # K4 less one edge: one block of 4 vertices with 5 edges, not 6,
        # but chordal, with the scores its table gives.
        (NeighborComplex.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
         (Fraction(1, 3),) * 4),
    ], ids=["K20", "bowtie", "K5+K4+K1", "diamond"])
    def test_fills_no_table(self, monkeypatch, g, want):
        def refuse(rows):
            raise AssertionError("a chordal graph filled a subset table")

        monkeypatch.setattr(engine, "betti0_table", refuse)
        res = exact_shapley(g)
        assert res.method == "exact"
        assert res.shapley == want


def table_scores(g: NeighborComplex, cap: int = engine.DEFAULT_EXACT_CAP) -> tuple:
    """The exact scores by the subset table, with the closed form refused."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_chordal_scores", lambda complex_: None)
        return exact_shapley(g, cap=cap).shapley


class TestChordal:
    """The chordal closed form equals the table route Fraction for
    Fraction, and refuses every graph with a chordless cycle of four or
    more vertices."""

    @given(chordal_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_table(self, g):
        scores = engine._chordal_scores(g)
        assert scores is not None
        assert scores == table_scores(g)

    @pytest.mark.parametrize("g", [
        k_tree(24, 3, random.Random(1)),
        # Blocks of 2, 3, 4, 6 and 9 vertices, the last two not complete.
        interval_graph(24, random.Random(2)),
    ], ids=["3-tree24", "interval24"])
    def test_matches_the_table_at_24_vertices(self, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = exact_shapley(g, cap=24).shapley
        with pytest.warns(RuntimeWarning):
            assert scores == table_scores(g, cap=24)

    @pytest.mark.parametrize("g", [
        *(cycle_graph(k) for k in range(4, 9)),
        # A square with a triangle on one side.
        NeighborComplex.from_edges(5, [*cycle_graph(4).edges(), (0, 4), (1, 4)]),
        NeighborComplex.from_edges(12, [*path_graph(12).edges(), (2, 9)]),
    ], ids=["C4", "C5", "C6", "C7", "C8", "house", "path12+chord"])
    def test_refuses_a_chordless_cycle(self, g):
        assert engine._chordal_scores(g) is None

    @given(chordless_cycle_graphs())
    @settings(max_examples=40, deadline=None)
    def test_refuses_any_graph_with_a_chordless_cycle(self, g):
        assert engine._chordal_scores(g) is None


def degeneracy(g: NeighborComplex) -> int:
    """The largest least degree of an induced subgraph, by brute force
    over every nonempty vertex subset."""
    return max(
        min((g.rows[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1)
        for mask in range(1, 1 << g.n)
    )


@st.composite
def cores_with_trees(draw, max_n=12):
    """A 2-core on vertices 0..k-1 (a cycle of 4-6 vertices with any of
    its chords, K_{a,b} with 2 <= a <= 3 <= b <= 4, or a wheel of 4-7),
    trees hung from it and from one another, and isolated vertices,
    under a random relabeling: a core that fills a table, many vertices
    outside it, and many ties of degree."""
    kind = draw(st.sampled_from(["cycle", "bipartite", "wheel"]))
    if kind == "cycle":
        k = draw(st.integers(4, 6))
        chords = [(u, v) for u, v in itertools.combinations(range(k), 2) if 1 < v - u < k - 1]
        edges = [*cycle_graph(k).edges(), *draw(st.sets(st.sampled_from(chords)))]
    else:
        core = (complete_bipartite_graph(draw(st.integers(2, 3)), draw(st.integers(3, 4)))
                if kind == "bipartite" else wheel_graph(draw(st.integers(4, 7))))
        k, edges = core.n, list(core.edges())
    n = draw(st.integers(k, max_n))
    for v in range(k, n):
        parent = draw(st.none() | st.integers(0, v - 1))
        if parent is not None:
            edges.append((parent, v))
    label = draw(st.permutations(range(n)))
    return NeighborComplex.from_edges(n, [(label[u], label[v]) for u, v in edges])


def two_core(g: NeighborComplex) -> set[int]:
    """The vertices left once those of degree at most 1 are stripped,
    again and again, until none is."""
    left = set(range(g.n))
    while strip := {v for v in left if len(left.intersection(g.neighbors[v])) <= 1}:
        left -= strip
    return left


def record_size_sums(monkeypatch) -> list[tuple[int, int]]:
    """(table length, n) of every later ``engine._size_sums`` call."""
    calls = []
    size_sums = engine._size_sums

    def recording(table, n):
        calls.append((len(table), n))
        return size_sums(table, n)

    monkeypatch.setattr(engine, "_size_sums", recording)
    return calls


class TestSmallestLast:
    """The table route numbers the vertices smallest-last, and the scores
    it gives back under the original labels stay exact."""

    @given(small_graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_numbering_against_brute_force_degeneracy(self, g):
        number = engine._smallest_last(g.neighbors)
        assert sorted(number) == list(range(g.n))
        lower = [sum(number[u] < number[v] for u in g.neighbors[v]) for v in range(g.n)]
        assert max(lower) <= degeneracy(g)
        # Replayed from the top number down: each vertex is the lowest
        # index of least degree among those not yet taken.
        left = (1 << g.n) - 1
        for v in sorted(range(g.n), key=number.__getitem__, reverse=True):
            degrees = {u: (g.rows[u] & left).bit_count() for u in range(g.n) if left >> u & 1}
            assert v == min(degrees, key=degrees.__getitem__)
            left ^= 1 << v

    @pytest.mark.parametrize("g, want", [
        (NeighborComplex.from_edges(4, []), [3, 2, 1, 0]),
        (star_graph(4), [3, 2, 1, 0]),
        # A 4-cycle with a pendant vertex 4 on vertex 2.
        (NeighborComplex.from_edges(5, [*cycle_graph(4).edges(), (2, 4)]), [3, 2, 1, 0, 4]),
    ], ids=["edgeless4", "star4", "C4+pendant"])
    def test_ties_go_to_the_lowest_index(self, g, want):
        assert engine._smallest_last(g.neighbors) == want

    @given(cores_with_trees())
    @settings(max_examples=40, deadline=None)
    def test_table_scores_match_reference_tallies(self, g):
        assert table_scores(g) == tally_scores(reference_betti0_table(g), g.n)

    @given(small_graphs(max_n=9) | cores_with_trees())
    @settings(max_examples=60, deadline=None)
    def test_the_2_core_takes_the_lowest_numbers(self, g):
        number = engine._smallest_last(g.neighbors)
        core = two_core(g)
        assert {v for v in range(g.n) if number[v] < len(core)} == core
        # c, one more than the highest number with two neighbours below
        # it, is the core's size, or 1 when the core is empty.
        lower = [sum(number[u] < number[v] for u in g.neighbors[v]) for v in range(g.n)]
        highest = max((number[v] for v in range(g.n) if lower[v] > 1), default=0)
        assert highest + 1 == max(len(core), 1)

    def test_only_the_core_grows(self, monkeypatch):
        # A 6-cycle, paths of 3 and 2 hung from it, and two isolated
        # vertices: the cycle takes numbers 0-5, and of its vertices only
        # the one numbered 5 has two neighbours below it.
        edges = [*cycle_graph(6).edges(), (0, 6), (6, 7), (7, 8), (3, 9), (9, 10)]
        g = relabeled(NeighborComplex.from_edges(13, edges), 4)
        lengths = []

        def counted(rows):
            lengths.append(len(rows))
            return betti0_table(rows)

        chunks = record_chunks(monkeypatch)
        sums = record_size_sums(monkeypatch)
        monkeypatch.setattr(engine, "betti0_table", counted)
        scores = exact_shapley(g).shapley
        # The table still takes all 13 rows, since the benchmark's traced
        # run counts the whole fill (2^13 entries in its first job); only
        # the core's 2^6 entries are summed.
        assert lengths == [13]
        assert chunks == [(32, 64)]
        assert sums == [(1 << 6, 6)]
        assert scores == tally_scores(reference_betti0_table(g), g.n)

    @pytest.mark.parametrize("g, c", [
        (wheel_graph(7), 7),
        (complete_bipartite_graph(3, 3), 6),
        (NeighborComplex.from_edges(8, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6)]), 1),
        # A tree hung on core vertex 0 of K2,3: its root's one lower
        # neighbour is in the core.
        (relabeled(NeighborComplex.from_edges(
            9, [*complete_bipartite_graph(2, 3).edges(), (0, 5), (5, 6), (5, 7)]), 3), 5),
    ], ids=["wheel7", "K3,3", "forest8", "K2,3+tree"])
    def test_scores_from_the_core_sums_and_the_trees(self, monkeypatch, g, c):
        sums = record_size_sums(monkeypatch)
        assert table_scores(g) == tally_scores(reference_betti0_table(g), g.n)
        assert sums == [(1 << c, c)]


def draw_clique(data, g: NeighborComplex, size: int) -> list[int]:
    """A clique of 1..size vertices of g: a drawn vertex, then drawn
    common neighbours of those so far while there are any."""
    clique = [data.draw(st.integers(0, g.n - 1))]
    common = g.rows[clique[0]]
    while len(clique) < size and common:
        v = data.draw(st.sampled_from([w for w in range(g.n) if common >> w & 1]))
        clique.append(v)
        common &= g.rows[v]
    return clique


def phi(g: NeighborComplex) -> list[Fraction]:
    """The signed Shapley value of b0, 2 / (deg i + 1) - s(i)."""
    return [Fraction(2, g.degree(i) + 1) - s for i, s in enumerate(exact_shapley(g).shapley)]


def block_graph(max_n):
    """A graph drawn by ``block_graphs``, without its cliques."""
    return block_graphs(max_n=max_n).map(lambda drawn: drawn[0])


class TestMetamorphic:
    """Relations between the exact scores of related graphs, on the
    closed-form route and the table route alike."""

    @given(st.one_of(forests(max_n=9), block_graph(9), cyclic_graphs()), st.data())
    @settings(max_examples=40, deadline=None)
    def test_relabeling_permutes_the_scores(self, g, data):
        label = data.draw(st.permutations(range(g.n)))
        moved = NeighborComplex.from_edges(
            g.n, [(label[u], label[v]) for u, v in g.edges()]
        )
        scores, moved_scores = exact_shapley(g).shapley, exact_shapley(moved).shapley
        assert all(moved_scores[label[i]] == s for i, s in enumerate(scores))

    @given(st.one_of(forests(max_n=8), block_graph(8)), cyclic_graphs())
    @settings(max_examples=30, deadline=None)
    def test_disjoint_union_concatenates_the_raw_scores(self, closed, cyclic):
        union = NeighborComplex.from_edges(closed.n + cyclic.n, [
            *closed.edges(), *((u + closed.n, v + closed.n) for u, v in cyclic.edges())
        ])
        assert exact_shapley(union).shapley == (
            exact_shapley(closed).shapley + exact_shapley(cyclic).shapley
        )


    @pytest.mark.parametrize("chordal", [True, False], ids=["closed-form", "table"])
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_gluing_along_a_clique_adds_phi(self, chordal, data):
        # G glued from G1 and G2 along a clique K, with no edge between
        # G1 - K and G2 - K, has b0_G(S) = b0_G1(S & V1) + b0_G2(S & V2)
        # - [S meets K], so phi_G = phi_G1 + phi_G2 - [i in K] / |K|.  G
        # is chordal iff G1 and G2 are.
        first = data.draw(chordal_graphs(max_n=8))
        second = data.draw(chordal_graphs(max_n=8) if chordal else chordless_cycle_graphs())
        size = data.draw(st.integers(1, 4))
        k1, k2 = draw_clique(data, first, size), draw_clique(data, second, size)
        size = min(len(k1), len(k2))
        k1, k2 = k1[:size], k2[:size]
        rest = [v for v in range(second.n) if v not in k2]
        place = dict(zip(k2, k1)) | {v: first.n + j for j, v in enumerate(rest)}
        glued = NeighborComplex.from_edges(first.n + len(rest), [
            *first.edges(), *((place[u], place[v]) for u, v in second.edges())
        ])
        assert (engine._chordal_scores(glued) is not None) == chordal
        want = phi(first) + [Fraction(0)] * len(rest)
        for v, p in enumerate(phi(second)):
            want[place[v]] += p
        for v in k1:
            want[v] -= Fraction(1, size)
        assert phi(glued) == want


class TestSizeSums:
    @given(st.data(), st.sampled_from([homology.CHUNK_BITS, 1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, data, chunk_bits):
        # n = 8 and 9 are the edges of the first 8-bit group.
        n = data.draw(st.sampled_from([1, 8, 9]) | st.integers(1, 12))
        g = data.draw(small_graphs(min_n=n, max_n=n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "CHUNK_BITS", chunk_bits)
            sums, totals = homology._size_sums(betti0_table(g.rows), n)
        want_sums, want_totals = reference_size_sums(reference_betti0_table(g), n)
        assert sums.dtype == totals.dtype == np.int64
        assert sums.tobytes() == want_sums.tobytes()
        assert totals.tobytes() == want_totals.tobytes()

    def test_width_cache_is_read_only(self):
        groups, keys, has_bits = homology._width_keys(15)
        assert groups == ((0, 8), (8, 7))
        for array in keys + has_bits:
            with pytest.raises(ValueError):
                array[0] = 1

    def test_width_cache_follows_the_chunk_width(self):
        # The keys depend on min(CHUNK_BITS, n), not on n: a width met again
        # reads its cached keys, n = 15 reads the width-14 keys that n = 14
        # cached, and n = 14 at CHUNK_BITS = 3 must not read them.
        def check(n):
            g = erdos_renyi_graph(n, 0.25, seed=n)
            sums, totals = homology._size_sums(betti0_table(g.rows), n)
            want_sums, want_totals = reference_size_sums(reference_betti0_table(g), n)
            assert sums.tobytes() == want_sums.tobytes()
            assert totals.tobytes() == want_totals.tobytes()

        assert homology.CHUNK_BITS == 14
        assert not hasattr(engine, "CHUNK_BITS")
        for n in (13, 9, 13, 3, 14, 15):
            check(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "CHUNK_BITS", 3)
            check(14)


def test_degree_term_is_the_star_identity():
    # sum_k k! (n-1-k)! C(n-1-d, k) = n! / (d + 1): a vertex precedes all
    # d of its neighbours in a uniform order with probability 1 / (d + 1).
    for n in range(1, homology.TABLE_HARD_MAX + 1):
        for d in range(n):
            total = sum(
                math.factorial(k) * math.factorial(n - 1 - k) * math.comb(n - 1 - d, k)
                for k in range(n - d)
            )
            assert total * (d + 1) == math.factorial(n)


def test_subset_weights_total_probability():
    # Summed over all coalitions of the other n-1 vertices, the Shapley
    # weights form a probability distribution.  With no edges every
    # marginal is 1, so each exact score is that sum.
    for n in range(1, 12):
        res = exact_shapley(NeighborComplex.from_edges(n, []))
        assert res.shapley == (Fraction(1),) * n


class TestPermutationWalk:
    @given(small_graphs(max_n=6))
    @settings(max_examples=20, deadline=None)
    def test_average_over_all_orders_is_exact(self, g):
        n = g.n
        sums = [0] * n
        for order in itertools.permutations(range(n)):
            marginals = permutation_marginals(g, list(order))
            for i in range(n):
                sums[i] += marginals[i]
        averages = tuple(Fraction(s, math.factorial(n)) for s in sums)
        assert averages == exact_shapley(g).shapley

    def test_rejects_non_permutation(self):
        g = path_graph(3)
        with pytest.raises(InputError):
            permutation_marginals(g, [0, 0, 2])

    @pytest.mark.parametrize("kind", [list, tuple])
    @pytest.mark.parametrize(
        "order",
        [[0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1], [2, 1, 2]],
        ids=["short", "long", "above", "negative", "repeat"],
    )
    def test_rejects_bad_orders(self, order, kind):
        with pytest.raises(InputError, match="order"):
            permutation_marginals(path_graph(3), kind(order))

    @pytest.mark.parametrize("order", [
        [0.0, 1.0, 2.0], [0, 1.5, 2], ["0", "1", "2"], [True, False, True],
        [[0], [1], [2]], [0, [1], 2], [0, 1, 2**70],
    ], ids=["floats", "a-float", "strings", "bools", "nested", "ragged", "huge"])
    def test_rejects_orders_that_are_not_integer_vertices(self, order):
        with pytest.raises(InputError, match="order"):
            permutation_marginals(path_graph(3), order)

    @pytest.mark.parametrize("order, message", [
        ([0, 3, 1], "order has vertex 3 outside 0..2"),
        ([2, -1, 0], "order has vertex -1 outside 0..2"),
        ([1, 0, 1], "order repeats vertex 1"),
        # The first bad entry is named, whichever kind it is.
        ([1, 1, 5], "order repeats vertex 1"),
        ([5, 1, 1], "order has vertex 5 outside 0..2"),
    ])
    def test_names_the_first_bad_entry(self, order, message):
        for kind in (list, np.array):
            with pytest.raises(InputError) as err:
                permutation_marginals(path_graph(3), kind(order))
            assert str(err.value) == message

    def test_a_huge_entry_allocates_nothing_for_it(self):
        # The range is checked before any count of the entries is taken.
        order = np.array([0, 1, 2**62])
        with pytest.raises(InputError, match=f"vertex {2**62} outside"):
            permutation_marginals(path_graph(3), order)

    def test_first_vertex_always_scores_one(self):
        g = wheel_graph(5)
        marginals = permutation_marginals(g, [3, 0, 1, 2, 4])
        assert marginals[3] == 1

    def test_returns_int64_for_lists_and_arrays_of_any_integer_type(self):
        g = wheel_graph(5)
        want = whole_graph_marginals(g, [3, 0, 1, 2, 4])
        for order in ([3, 0, 1, 2, 4], (3, 0, 1, 2, 4),
                      np.array([3, 0, 1, 2, 4], dtype=np.int32),
                      np.array([3, 0, 1, 2, 4], dtype=np.uint64)):
            marginals = permutation_marginals(g, order)
            assert marginals.dtype == np.int64
            assert marginals.tolist() == want

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_flood_fill_definition(self, data):
        unions = st.integers(1, 10).flatmap(lambda n: bridged_unions(min_n=n, max_piece=5))
        g = data.draw(st.one_of(small_graphs(max_n=10), unions.filter(lambda g: g.n <= 10)))
        order = data.draw(st.permutations(range(g.n)))
        assert permutation_marginals(g, order).tolist() == flood_marginals(g, order)

    @pytest.mark.parametrize("kind", [
        "tree", "cycle", "bowtie", "clique_with_pendants", "edgeless", "complete",
    ])
    @given(st.data())
    @settings(max_examples=8, deadline=None)
    def test_equals_the_whole_graph_walk_on_hundreds_of_vertices(self, kind, data):
        # One kind of piece at a time, some joined by bridges, so every
        # shape meets the split on its own; then mixed unions.
        kinds = data.draw(st.sampled_from([(kind,), (kind, "tree", "cycle", "bowtie")]))
        g = data.draw(bridged_unions(min_n=200, max_piece=40, kinds=kinds))
        order = np.random.default_rng(data.draw(st.integers(0, 2**32))).permutation(g.n)
        want = whole_graph_marginals(g, order.tolist())
        assert permutation_marginals(g, order).tolist() == want
        assert permutation_marginals(g, order.tolist()).tolist() == want

    def test_whole_graph_walk_on_the_families(self):
        for g in (path_graph(300), cycle_graph(300), star_graph(300), complete_graph(40),
                  wheel_graph(100), NeighborComplex.from_edges(300, [])):
            order = np.random.default_rng(g.n).permutation(g.n)
            assert (permutation_marginals(g, order).tolist()
                    == whole_graph_marginals(g, order.tolist()))


class TestPieceRoutes:
    """The looked-up and walked pieces of the sampled walk, with the table
    limit and the lookup minimum patched so that each shape meets both
    routes."""

    @pytest.mark.parametrize("limit, lookup_min", PIECE_ROUTES)
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_flood_fill_definition(self, limit, lookup_min, data):
        unions = st.integers(1, 10).flatmap(lambda n: bridged_unions(min_n=n, max_piece=6))
        g = data.draw(st.one_of(small_graphs(max_n=10), unions.filter(lambda g: g.n <= 10)))
        order = data.draw(st.permutations(range(g.n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "PIECE_LIMIT", limit)
            mp.setattr(blocks, "LOOKUP_MIN", lookup_min)
            assert permutation_marginals(g, order).tolist() == flood_marginals(g, order)

    @pytest.mark.parametrize("limit, lookup_min", PIECE_ROUTES)
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_equals_the_whole_graph_walk_across_the_limit(self, limit, lookup_min, data):
        # Pieces of 3 to 20 vertices, on both sides of every limit.
        g = data.draw(bridged_unions(min_n=120, max_piece=20))
        order = np.random.default_rng(data.draw(st.integers(0, 2**32))).permutation(g.n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "PIECE_LIMIT", limit)
            mp.setattr(blocks, "LOOKUP_MIN", lookup_min)
            assert (permutation_marginals(g, order).tolist()
                    == whole_graph_marginals(g, order.tolist()))

    @pytest.mark.parametrize("limit, lookup_min", PIECE_ROUTES)
    def test_named_shapes_joined_by_bridges(self, limit, lookup_min):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "PIECE_LIMIT", limit)
            mp.setattr(blocks, "LOOKUP_MIN", lookup_min)
            for seed in range(3):
                g, rng = named_pieces(seed), np.random.default_rng(seed)
                for order in (rng.permutation(g.n) for _ in range(20)):
                    assert (permutation_marginals(g, order).tolist()
                            == whole_graph_marginals(g, order.tolist()))

    @pytest.mark.parametrize("limit, lookup_min", PIECE_ROUTES)
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_cycle_pieces_of_any_length(self, limit, lookup_min, data):
        # Cycles of 3 to 40 vertices among pieces that are not cycles:
        # against the flood fill up to 10 vertices, the whole-graph walk
        # on hundreds.
        kinds = ("cycle", "cycle", "tree", "bowtie", "clique_with_pendants", "complete")
        small = data.draw(st.integers(1, 10).flatmap(
            lambda n: bridged_unions(min_n=n, max_piece=7, kinds=kinds)
        ).filter(lambda g: g.n <= 10))
        large = data.draw(bridged_unions(min_n=150, max_piece=40, kinds=kinds))
        small_order = data.draw(st.permutations(range(small.n)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        order = rng.permutation(large.n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "PIECE_LIMIT", limit)
            mp.setattr(blocks, "LOOKUP_MIN", lookup_min)
            got = permutation_marginals(small, small_order).tolist()
            assert got == flood_marginals(small, small_order)
            assert got == whole_graph_marginals(small, small_order)
            assert (permutation_marginals(large, order).tolist()
                    == whole_graph_marginals(large, order.tolist()))

    @pytest.mark.parametrize("limit, lookup_min", PIECE_ROUTES)
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_blocks_sharing_cut_vertices(self, limit, lookup_min, data):
        # Block graphs and cacti, whose cut vertices lie in several
        # complete or cycle blocks, against the whole-graph walk.
        g = data.draw(st.one_of(block_graphs(max_n=24).map(lambda drawn: drawn[0]),
                                cactus_graphs(max_n=40)))
        order = np.random.default_rng(data.draw(st.integers(0, 2**32))).permutation(g.n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "PIECE_LIMIT", limit)
            mp.setattr(blocks, "LOOKUP_MIN", lookup_min)
            assert (permutation_marginals(g, order).tolist()
                    == whole_graph_marginals(g, order.tolist()))

    @pytest.mark.parametrize("limit, lookup_min", PIECE_ROUTES)
    @pytest.mark.parametrize("shape", [
        two_cycles_sharing_a_vertex(3), two_cycles_sharing_a_vertex(6),
        two_cliques_sharing_a_vertex(4),
    ], ids=["bowtie", "two-6-cycles", "two-K4s"])
    def test_a_cut_vertex_last_in_two_blocks(self, shape, limit, lookup_min):
        # Vertex 0, last, has two components among its earlier neighbours,
        # one per block, and scores |1 - 2| = 1; each block adds its own
        # term to it, so none may be dropped as a repeated index.
        order = list(range(1, shape.n)) + [0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "PIECE_LIMIT", limit)
            mp.setattr(blocks, "LOOKUP_MIN", lookup_min)
            g = NeighborComplex(shape.n, shape.rows)  # pieces not yet read
            marginals = permutation_marginals(g, order).tolist()
        # Each of its blocks lists it: the cycles of the first two shapes,
        # and the K4s where the limit reaches 4 and the minimum 8.
        cycles, looked = g.pieces.cycles.tolist(), g.pieces.looked.tolist()
        assert cycles.count(0) == (0 if shape.n == 7 else 2)
        assert looked.count(0) == (2 if shape.n == 7 and limit >= 4 and lookup_min <= 8 else 0)
        assert marginals[0] == 1
        assert marginals == whole_graph_marginals(g, order)

    def test_cactus_needs_no_table_and_no_walk(self, monkeypatch):
        # Cycles of 3 to 120 vertices joined by trees, which hang pendant
        # paths and stars off cycle vertices, and cycles sharing cut
        # vertices: every block is a bridge or a cycle.
        def refuse(*args):
            raise AssertionError("a table or a walk on a cactus of cycles and trees")

        g = joined_by_bridges([
            cycle_graph(3), path_graph(5), cycle_graph(40), star_graph(6),
            cycle_graph(4), cycle_graph(3), cycle_graph(17), path_graph(2),
            cycle_graph(120), star_graph(3), two_cycles_sharing_a_vertex(3),
            two_cycles_sharing_a_vertex(7),
        ], seed=6)
        monkeypatch.setattr(blocks, "component_changes", refuse)
        monkeypatch.setattr(blocks, "betti0_table", refuse)
        est = sampled_shapley(g, 100, 8)
        monkeypatch.undo()
        assert len(g.pieces.cycles) == 3 + 40 + 4 + 3 + 17 + 120 + 2 * 3 + 2 * 7
        sums, _ = whole_graph_sums(g, 100, 8)
        assert est.shapley == tuple(s / 100 for s in sums)

    @pytest.mark.parametrize("limit, lookup_min", PIECE_ROUTES)
    @pytest.mark.parametrize("shape, cycles", [
        (NeighborComplex.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]), 6),
        (two_cycles_sharing_a_vertex(6), 12),
        (complete_graph(5), 0),
    ], ids=["bowtie", "two-6-cycles", "K5"])
    def test_even_degrees_alone_make_no_cycle(self, shape, cycles, limit, lookup_min):
        # Every degree is even.  In K5 each vertex has four neighbours in
        # its block, so it is looked up or walked; the cut vertex of the
        # bowtie and of the two 6-cycles has four neighbours too, but two
        # in each of its two blocks, which are cycles.  The 6-cycle beside
        # the shape is one more.
        g = joined_by_bridges([shape, cycle_graph(6)], seed=4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "PIECE_LIMIT", limit)
            mp.setattr(blocks, "LOOKUP_MIN", lookup_min)
            pieces = g.pieces
            assert len(pieces.cycles) == 6 + cycles
            assert len(pieces.looked) + len(pieces.walked) == (0 if cycles else shape.n)
            rng = np.random.default_rng(5)
            for order in (rng.permutation(g.n) for _ in range(20)):
                assert (permutation_marginals(g, order).tolist()
                        == whole_graph_marginals(g, order.tolist()))

    def test_sampled_scores_with_both_kinds_of_piece(self):
        g = named_pieces(4)
        pieces = g.pieces
        assert len(pieces.looked) == 12 + 10 + 8 + 4 + 4 and len(pieces.walked) == 13
        assert len(pieces.cycles) == 6 + 6 + 20
        est = sampled_shapley(g, 60, 3)
        sums, _ = whole_graph_sums(g, 60, 3)
        assert est.shapley == tuple(s / 60 for s in sums)

    def test_no_walk_when_every_piece_fits(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the union-find walk ran with no piece above the limit")

        g = joined_by_bridges([
            wheel_graph(12), complete_bipartite_graph(4, 6), two_cycles_sharing_a_vertex(3),
            complete_graph(8), path_graph(6), wheel_graph(12),
        ], seed=2)
        monkeypatch.setattr(blocks, "component_changes", walk)
        est = sampled_shapley(g, 100, 5)
        monkeypatch.undo()
        sums, _ = whole_graph_sums(g, 100, 5)
        assert est.shapley == tuple(s / 100 for s in sums)

    def test_tables_are_filled_once_per_complex(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return fill(rows)

        fill = blocks.betti0_table
        monkeypatch.setattr(blocks, "betti0_table", counted)
        g = named_pieces(5)
        first = sampled_shapley(g, 20, 1)
        # One table per block of at most 12 vertices that is neither a
        # bridge nor a cycle, a K4 each for the two that share a vertex,
        # and none for the wheel of 13.
        assert sorted(calls) == [4, 4, 8, 10, 12]
        calls.clear()
        assert sampled_shapley(g, 20, 1) == first and calls == []

    def test_pieces_build_no_complex_per_block(self, monkeypatch):
        # Each looked-up block's table is filled from its k-bit rows, with
        # no NeighborComplex built or validated for it.
        built = []
        check = NeighborComplex.__post_init__

        def counted(self):
            built.append(self.n)
            check(self)

        g = named_pieces(5)
        monkeypatch.setattr(NeighborComplex, "__post_init__", counted)
        assert len(g.pieces.tables) == 2**12 + 2**10 + 2**8 + 2**4 + 2**4
        assert built == []


class TestEfficiency:
    """Shapley efficiency fixes the totals with no oracle walk or table:
    the exact scores sum to the sum of 2 / (deg i + 1) less b0(G), and one
    order's absolute marginals to 2L - b0(G), with L the vertices placed
    before all of their neighbours."""

    @given(st.one_of(forests(), block_graph(16), chordal_graphs()))
    @settings(max_examples=40, deadline=None)
    def test_exact_total_in_closed_form(self, g):
        def refuse(rows):
            raise AssertionError("a chordal graph filled a table")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "betti0_table", refuse)
            assert sum(exact_shapley(g).shapley) == efficiency_total(g)

    @given(st.one_of(small_graphs(max_n=10), block_graph(12), cactus_graphs(max_n=12)))
    @settings(max_examples=40, deadline=None)
    def test_exact_total_by_table(self, g):
        # With the closed form refused, every graph fills its table.
        assert sum(table_scores(g)) == efficiency_total(g)

    @pytest.mark.parametrize("limit, lookup_min", PIECE_ROUTES)
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_walk_total(self, limit, lookup_min, data):
        g = data.draw(st.one_of(
            small_graphs(max_n=10), bridged_unions(min_n=60, max_piece=20),
            block_graph(24), cactus_graphs(max_n=40), st.builds(named_pieces, st.integers(0, 2)),
        ))
        orders = np.random.default_rng(data.draw(st.integers(0, 2**32))).permuted(
            np.tile(np.arange(g.n), (5, 1)), axis=1
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "PIECE_LIMIT", limit)
            mp.setattr(blocks, "LOOKUP_MIN", lookup_min)
            totals = [int(permutation_marginals(g, order).sum()) for order in orders]
        assert totals == walk_totals(g, orders.tolist())


class TestSampled:
    def test_deterministic_per_seed(self):
        g = cycle_graph(6)
        a = sampled_shapley(g, 500, seed=42)
        b = sampled_shapley(g, 500, seed=42)
        assert a.shapley == b.shapley
        assert a.std_error == b.std_error
        c = sampled_shapley(g, 500, seed=43)
        assert a.shapley != c.shapley

    def test_prefix_reproducibility(self):
        # Permutation j depends only on (seed, j): a longer run replays
        # the shorter run's draws exactly.
        g = star_graph(5)
        short = sampled_shapley(g, 100, seed=7)
        long = sampled_shapley(g, 200, seed=7)
        # reconstruct the short-run sums from the walk directly
        import numpy as np

        sums = np.zeros(g.n)
        for j in range(100):
            rng = np.random.Generator(np.random.Philox(key=7, counter=j << 64))
            order = rng.permutation(g.n).tolist()
            for i, m in enumerate(permutation_marginals(g, order)):
                sums[i] += m
        assert tuple(sums / 100) == short.shapley
        assert long.permutations == 200

    def test_std_error_from_walk_marginals(self):
        # The star's center merges up to four leaves at once, so its
        # marginals reach 3 and the second moment is not the first.
        g = star_graph(5)
        est = sampled_shapley(g, 100, seed=7)
        walks = []
        for j in range(100):
            rng = np.random.Generator(np.random.Philox(key=7, counter=j << 64))
            walks.append(permutation_marginals(g, rng.permutation(g.n).tolist()))
        walks = np.array(walks)
        assert walks.max() > 1
        expected = walks.std(axis=0, ddof=1) / math.sqrt(100)
        assert est.std_error == pytest.approx(tuple(expected), rel=1e-9)

    def test_estimates_near_exact(self):
        g = wheel_graph(6)
        exact = exact_shapley(g)
        est = sampled_shapley(g, 4000, seed=1)
        for i in range(6):
            se = max(est.std_error[i], 1e-9)
            assert abs(est.shapley[i] - float(exact.shapley[i])) < 4 * se

    @pytest.mark.parametrize("permutations, seed", [(1, 0), (2, 9), (60, 3)])
    def test_equals_the_whole_graph_walk_on_the_same_orders(self, permutations, seed):
        # The same floats, bit for bit, as summing the whole-graph walk
        # over orders from a new Philox bit generator each.
        g = NeighborComplex.from_edges(
            240, list(erdos_renyi_graph(240, 0.008, 5).edges()) + [(0, 1), (1, 2), (2, 0)]
        )
        est = sampled_shapley(g, permutations, seed)
        sums, squares = whole_graph_sums(g, permutations, seed)
        assert est.shapley == tuple(s / permutations for s in sums)
        scores = np.array(sums) / permutations
        if permutations > 1:
            variance = (np.array(squares) - permutations * scores**2) / (permutations - 1)
            want = np.sqrt(np.maximum(variance, 0.0) / permutations)
        else:
            want = np.zeros(g.n)
        assert est.std_error == tuple(want.tolist())

    def test_forest_runs_no_walk(self, monkeypatch):
        # Every edge of a forest is a bridge: each marginal is |1 - e|,
        # e the bridge neighbours before the vertex, with no union-find.
        def walk(*args):
            raise AssertionError("the union-find walk ran on a forest")

        monkeypatch.setattr(blocks, "component_changes", walk)
        forest = NeighborComplex.from_edges(
            30, [(0, 1), (1, 2), (1, 3), (3, 4), (10, 11), (11, 12), (20, 29)]
        )
        est = sampled_shapley(forest, 200, 4)
        monkeypatch.undo()
        assert est == sampled_shapley(forest, 200, 4)
        sums, _ = whole_graph_sums(forest, 200, 4)
        assert est.shapley == tuple(s / 200 for s in sums)

    def test_needs_positive_permutations(self):
        with pytest.raises(InputError):
            sampled_shapley(path_graph(3), 0, seed=0)

    def test_total_is_the_divisor_of_mu(self):
        # Python's left-to-right sum of these scores is 12.028000000000004;
        # mu divides by numpy's sum, 12.028, and the total must be that float.
        est = sampled_shapley(erdos_renyi_graph(60, 0.15, 0), 500, 3)
        assert est.total == float(np.sum(est.shapley))
        assert all(m == s / est.total for s, m in zip(est.shapley, est.mu))


def disjoint_union(parts) -> NeighborComplex:
    """The graphs of ``parts`` side by side, numbered part after part."""
    edges, n = [], 0
    for g in parts:
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += g.n
    return NeighborComplex.from_edges(n, edges)


def string_corpus(seed: int) -> NeighborComplex:
    """Binary strings of lengths 8-16, 36 drawn per length, at edit radius 2."""
    rng = random.Random(seed)
    strings = ["".join(rng.choice("01") for _ in range(length))
               for length in range(8, 17) for _ in range(36)]
    points = LabeledPointSet.from_strings(strings)
    return build_complex(neighbor_pairs(points, "edit", 2), 2)


def split_run(monkeypatch, complex_, permutations, seed):
    """``split_and_serial`` of a sampled run.  A run splits first after
    three orders, into as many ranges as there are usable CPUs and orders
    left."""
    return split_and_serial(
        monkeypatch, lambda: sampled_shapley(complex_, permutations, seed)
    )


class TestSplitRuns:
    """A run split over forked processes by Philox block range gives the
    same result as one that never splits, whatever the split."""

    @pytest.mark.parametrize("name", ["union of families", "string corpus", "named pieces"])
    def test_split_equals_serial(self, monkeypatch, name):
        complex_ = {
            "union of families": lambda: disjoint_union([
                wheel_graph(12), complete_bipartite_graph(4, 6), star_graph(15),
                cycle_graph(20), path_graph(25), complete_graph(8)] * 3),
            "string corpus": lambda: string_corpus(5),
            "named pieces": lambda: named_pieces(2),
        }[name]()
        if name == "string corpus":  # it holds a block the union-find walk scores
            assert len(complex_.pieces.walked) > blocks.PIECE_LIMIT
        split, forks, serial = split_run(monkeypatch, complex_, 200, 11)
        assert split == serial
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert forks == parallel.usable_cpus() - 1
        assert no_child_left()

    @pytest.mark.parametrize("permutations", [1, 2, 3, 4, 5, 6, 7, 9, 12])
    def test_any_number_of_orders(self, monkeypatch, permutations):
        # From 4 orders on, a split leaves one to nine blocks, fewer than
        # the CPUs or more; no more processes start than CPUs are usable.
        complex_ = disjoint_union([star_graph(4), cycle_graph(3), path_graph(2)])
        split, forks, serial = split_run(monkeypatch, complex_, permutations, 3)
        assert split == serial
        assert forks == max(0, min(parallel.usable_cpus(), permutations - 3) - 1)
        sums, _ = whole_graph_sums(complex_, permutations, 3)
        assert split.shapley == tuple(s / permutations for s in sums)
        assert no_child_left()

    def test_pieces_are_built_before_the_first_fork(self, monkeypatch):
        # Order 0 is sum_blocks' first chunk, walked here, so every child
        # inherits the complex's pieces instead of building them again.
        if parallel.usable_cpus() < 2:
            pytest.skip("one usable CPU: no run splits")
        complex_ = named_pieces(4)
        fork = os.fork
        forks = []

        def checking():
            assert "pieces" in vars(complex_)
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", checking)
        monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
        assert "pieces" not in vars(complex_)
        split = sampled_shapley(complex_, 40, 6)
        monkeypatch.undo()
        assert forks
        assert split == sampled_shapley(named_pieces(4), 40, 6)
        assert no_child_left()

    def test_short_run_never_forks(self, monkeypatch):
        # The bench's traced job: 50 orders on star(7) + cycle(6), which
        # walk for about a millisecond, stay in one process.
        def refuse():
            raise AssertionError("a 50-order run forked")

        monkeypatch.setattr(os, "fork", refuse)
        complex_ = disjoint_union([star_graph(7), cycle_graph(6)])
        est = sampled_shapley(complex_, 50, 1)
        sums, _ = whole_graph_sums(complex_, 50, 1)
        assert est.shapley == tuple(s / 50 for s in sums)

    @pytest.mark.parametrize("failure", ["exit before sending", "raise", "killed"])
    def test_failed_child_range_is_walked_here(self, monkeypatch, failure):
        if parallel.usable_cpus() < 2:
            pytest.skip("one usable CPU: no run splits")
        parent = os.getpid()
        walk = engine._walk

        def failing(*args):
            if os.getpid() != parent:
                if failure == "exit before sending":
                    os._exit(0)
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("child failed")
            return walk(*args)

        complex_ = named_pieces(4)
        monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
        monkeypatch.setattr(engine, "_walk", failing)
        split = sampled_shapley(complex_, 40, 6)
        monkeypatch.undo()
        assert split == sampled_shapley(complex_, 40, 6)
        assert no_child_left()

    def test_unstartable_child_range_is_walked_here(self, monkeypatch):
        def no_process():
            raise BlockingIOError("fork refused")

        complex_ = named_pieces(4)
        monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
        monkeypatch.setattr(os, "fork", no_process)
        split = sampled_shapley(complex_, 40, 6)
        monkeypatch.undo()
        assert split == sampled_shapley(complex_, 40, 6)

    def test_interrupted_parent_kills_and_reaps_children(self, monkeypatch):
        if parallel.usable_cpus() < 2:
            pytest.skip("one usable CPU: no run splits")
        parent = os.getpid()
        walk = engine._walk

        def hanging(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return walk(*args)

        def interrupted(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
        monkeypatch.setattr(engine, "_walk", hanging)
        monkeypatch.setattr(parallel, "_read_to_end", interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            sampled_shapley(named_pieces(4), 40, 6)
        assert time.perf_counter() - start < 30
        assert no_child_left()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5000),
           st.floats(0, 10, allow_nan=False), st.integers(1, 64))
    def test_ranges_cover_the_blocks_left_in_order(self, start, left, estimate, cpus):
        # Pure arithmetic: no process starts, whatever the CPU count.
        ranges = parallel.split_ranges(start, start + left, estimate, cpus)
        assert ranges[0].start == start and ranges[-1].stop == start + left
        assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
        assert max(map(len, ranges)) - min(map(len, ranges)) <= 1
        assert min(map(len, ranges)) >= 1
        # As many as there are CPUs and blocks, each with SPLIT_MIN_S of walking.
        assert len(ranges) == max(
            p for p in range(1, min(cpus, left) + 1)
            if p == 1 or p * parallel.SPLIT_MIN_S <= estimate
        )

    def test_no_split_where_a_fork_is_unsafe(self, monkeypatch):
        assert parallel.usable_cpus() == len(os.sched_getaffinity(0))
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert parallel.usable_cpus() == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert parallel.usable_cpus() == 1
        monkeypatch.undo()
        monkeypatch.delattr(os, "fork")
        assert parallel.usable_cpus() == 1


class TestComputeInfluence:
    def test_dispatch_and_labels(self):
        g = path_graph(3)
        res = compute_influence(g, labels=("a", "b", "c"))
        assert res.labels == ("a", "b", "c")
        assert res.method == "exact"

    def test_labels_keep_every_other_field(self):
        g = complete_graph(4)
        res = compute_influence(g, labels="wxyz", permutations=50, seed=3)
        unlabeled = sampled_shapley(g, permutations=50, seed=3)
        assert res == dataclasses.replace(unlabeled, labels=tuple("wxyz"))

    def test_label_length_checked(self):
        with pytest.raises(InputError):
            compute_influence(path_graph(3), labels=("a",))

    def test_sampled_dispatch(self):
        res = compute_influence(complete_graph(4), permutations=50, seed=3)
        assert res.method == "sampled"
        assert res.permutations == 50
        assert res.seed == 3
        assert len(res.std_error) == 4

    def test_permutations_alone_select_the_sampler(self):
        # Past the exact cap, so an exact run would refuse this graph.
        res = compute_influence(erdos_renyi_graph(30, 0.1, 1), permutations=500, seed=1)
        assert res.method == "sampled"
        assert res.permutations == 500
        with pytest.raises(InputError, match="need at least one permutation, got 0"):
            compute_influence(path_graph(3), permutations=0)


class TestEntropy:
    def test_uniform(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4))

    def test_zero_terms_ignored(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            shannon_entropy([-0.1, 1.1])

    def test_accepts_fractions(self):
        h = shannon_entropy([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        assert h == pytest.approx(1.5 * math.log(2), abs=1e-15)
