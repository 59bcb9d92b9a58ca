"""Slow reference routes and test helpers.

None of them is on a pipeline's path.  The table and tallies share no code
with the package's chunked numpy kernels, so tests can hold those kernels
to them bit for bit; the flood fill and the spectral count share no code
with the package's union-find walk; the grammar membership and count
oracles share no code with the lazy enumeration; the scalar edit-distance
dynamic program shares no code with the package's vectorized kernel, nor
do the one-pair hamming and euclidean distances with its numpy tiles; the
pair-list Erdos-Renyi edges share no code with the package's hit walk.
"""

import functools
import math
import random

import numpy as np
from hypothesis import strategies as st

from topoinfluence import (
    FAMILIES,
    Grammar,
    InputError,
    LabeledPointSet,
    NeighborComplex,
    build_complex,
    build_distance_matrix,
    builtin_grammar,
    complete_bipartite_graph,
    complete_graph,
    compute_influence,
    cycle_graph,
    enumerate_strings,
    path_graph,
    star_graph,
)

# Eigenvalues of L within this of zero count as zero.  L is PSD with
# integer entries and its smallest nonzero eigenvalue for graphs this
# size is far above the bound, so the gap is unambiguous.
ZERO_TOLERANCE = 1e-8


def _flood(rows, start: int, mask: int) -> int:
    """The component containing vertex bit ``start`` of the subgraph
    induced on ``mask``, by a bitmask flood fill over ``rows``."""
    component = frontier = start
    while frontier:
        neighbors = 0
        f = frontier
        while f:
            b = f & -f
            neighbors |= rows[b.bit_length() - 1]
            f ^= b
        frontier = neighbors & mask & ~component
        component |= frontier
    return component


def betti0_of_subset(complex_: NeighborComplex, mask: int) -> int:
    """Component count of the induced subgraph on the vertices in ``mask``,
    flooding and removing one component at a time.

    The empty subset has zero components by convention; that choice makes
    the first vertex added to an empty coalition worth exactly one
    component, which the closed-form results downstream assume.
    """
    count = 0
    while mask:
        mask ^= _flood(complex_.rows, mask & -mask, mask)
        count += 1
    return count


def edit_distance_dp(a: str, b: str) -> int:
    """Levenshtein distance by the scalar dynamic program, one cell at a
    time, keeping one row of the shorter string's length."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def hamming_distance(u, v) -> int:
    """The number of coordinates where two equal-length vectors differ."""
    if len(u) != len(v):
        raise InputError("hamming distance requires equal-length vectors")
    return sum(1 for a, b in zip(u, v) if a != b)


def euclidean_distance(u, v) -> float:
    """``math.dist`` of two equal-length vectors."""
    if len(u) != len(v):
        raise InputError("euclidean distance requires equal-length vectors")
    return math.dist(u, v)


def er_edges_pair_list(rng: np.random.Generator, n: int, p: float) -> list:
    """The Erdos-Renyi edges from a list of all C(n, 2) pairs in row-major
    order, zipped with one uniform draw each: an edge where the draw is
    below p."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    draws = rng.random(len(pairs))
    return [pair for pair, u in zip(pairs, draws) if u < p]


def laplacian(complex_: NeighborComplex) -> np.ndarray:
    n = complex_.n
    a = np.zeros((n, n), dtype=np.float64)
    for u, v in complex_.edges():
        a[u, v] = a[v, u] = 1.0
    return np.diag(a.sum(axis=1)) - a


def betti0_spectral(complex_: NeighborComplex) -> int:
    """Component count as the multiplicity of the zero Laplacian eigenvalue.

    O(n^3) dense symmetric eigensolve, an independent check on
    :func:`topoinfluence.betti0`.  A ``np.linalg.LinAlgError`` propagates:
    in a test, a solver breakdown is a failure to see, not to recover from.
    """
    eigenvalues = np.linalg.eigvalsh(laplacian(complex_))
    return int(np.count_nonzero(np.abs(eigenvalues) <= ZERO_TOLERANCE))


def reference_betti0_table(complex_: NeighborComplex) -> np.ndarray:
    """The subset table one mask at a time.  Peeling recurrence on the
    lowest vertex: t[mask] = t[mask ^ c] + 1, where c, the component of
    mask's lowest set bit, is found by a bitmask flood fill."""
    n = complex_.n
    rows = complex_.rows
    table = np.zeros(1 << n, dtype=np.int8)
    for mask in range(1, 1 << n):
        component = _flood(rows, mask & -mask, mask)
        table[mask] = table[mask ^ component] + 1
    return table


def reference_tallies(table: np.ndarray, n: int) -> np.ndarray:
    """tallies[i][k] = sum of |t[m | 2^i] - t[m]| over the masks m of
    popcount k with bit i clear, gathered with a boolean mask and summed
    with ``np.add.at``."""
    masks = np.arange(1 << n)
    sizes = np.bitwise_count(masks)
    tallies = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m = masks[(masks >> i & 1) == 0]
        diff = np.abs(table[m | 1 << i].astype(np.int64) - table[m])
        np.add.at(tallies[i], sizes[m], diff)
    return tallies


def reference_size_sums(table: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, T): A[i][k] = sum of t[m] over the masks m of popcount k with
    bit i set, T[k] = the sum over all masks of popcount k, for k = 0..n,
    gathered per bit with a boolean mask and summed with ``np.add.at``."""
    masks = np.arange(1 << n)
    sizes = np.bitwise_count(masks)
    values = table.astype(np.int64)
    sums = np.zeros((n, n + 1), dtype=np.int64)
    for i in range(n):
        has_i = (masks >> i & 1) == 1
        np.add.at(sums[i], sizes[has_i], values[has_i])
    totals = np.zeros(n + 1, dtype=np.int64)
    np.add.at(totals, sizes, values)
    return sums, totals


def _star_plus_cycle() -> NeighborComplex:
    cycle, star = cycle_graph(9), star_graph(9)
    edges = list(cycle.edges()) + [(u + 9, v + 9) for u, v in star.edges()]
    return NeighborComplex.from_edges(18, edges)


def relabeled(complex_: NeighborComplex, seed: int) -> NeighborComplex:
    """``complex_`` with its vertices renumbered by a seeded permutation."""
    label = list(range(complex_.n))
    random.Random(seed).shuffle(label)
    return NeighborComplex.from_edges(
        complex_.n, [(label[u], label[v]) for u, v in complex_.edges()]
    )


# Graphs of 17-18 vertices: with CHUNK_BITS = 15 their tables span several
# chunks, and their components reach across chunk boundaries.  In K17
# almost every component is its whole mask at the first step; in the
# relabeled path a top vertex's neighbours lie anywhere below it, where
# in path18 the one below it is always the next lower vertex.
MULTI_CHUNK_GRAPHS = {
    "path18": path_graph(18),
    "path18-relabeled": relabeled(path_graph(18), 7),
    "star9+cycle9": _star_plus_cycle(),
    "K8,9": complete_bipartite_graph(8, 9),
    "K17": complete_graph(17),
}


@functools.cache
def multi_chunk_case(name: str) -> tuple[NeighborComplex, np.ndarray]:
    """A multi-chunk graph and its reference table, built once per test run."""
    g = MULTI_CHUNK_GRAPHS[name]
    return g, reference_betti0_table(g)


@st.composite
def small_graphs(draw, max_n=7, min_n=1):
    """A graph on min_n..max_n vertices with any subset of the possible edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return NeighborComplex.from_edges(n, sorted(chosen))


@st.composite
def family_unions(draw, min_n=65):
    """A disjoint union of family graphs (cycles, wheels, complete
    bipartite graphs, ...) with at least ``min_n`` vertices in all, under
    a random relabeling: past 64 vertices the adjacency rows span several
    machine digits, and each part's vertices are spread across them."""
    parts, n = [], 0
    while n < min_n:
        family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
        params = [draw(st.integers(low, low + 12)) for low in family.min_params]
        part = family.build(*params)
        parts.append((n, part))
        n += part.n
    label = draw(st.permutations(range(n)))
    edges = [
        (label[offset + u], label[offset + v])
        for offset, part in parts
        for u, v in part.edges()
    ]
    return NeighborComplex.from_edges(n, edges)


def accepts(grammar: Grammar, string: str) -> bool:
    """Membership by running the DFA over the whole string."""
    state = grammar.start
    for symbol in string:
        state = grammar.transitions[(state, symbol)]
    return state in grammar.accepting


def count_strings(grammar: Grammar, length: int) -> int:
    """|L ∩ Σ^length| by dynamic programming, without enumeration."""
    if length < 0:
        raise InputError(f"length must be nonnegative, got {length}")
    counts = {s: int(s in grammar.accepting) for s in grammar.states}
    for _ in range(length):
        counts = {
            s: sum(
                counts[grammar.transitions[(s, a)]] for a in grammar.alphabet
            )
            for s in grammar.states
        }
    return counts[grammar.start]


def grammar_influence(
    index: int,
    length: int,
    radius: float,
    mode: str = "exact",
    permutations: int = 0,
    seed: int = 0,
):
    """Influence profile of a built-in grammar's length-N strings, through
    the README's library calls: enumerate, edit distances, threshold at
    ``radius``, attribute.  An empty language is an empty point set, which
    ``LabeledPointSet`` refuses with InputError."""
    strings = enumerate_strings(builtin_grammar(index), length)
    points = LabeledPointSet.from_strings(strings)
    complex_ = build_complex(build_distance_matrix(points, "edit"), radius)
    return compute_influence(
        complex_,
        labels=points.labels,
        mode=mode,
        permutations=permutations,
        seed=seed,
    )
