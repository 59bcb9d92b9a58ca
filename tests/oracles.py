"""Slow reference routes and test helpers.

None of them is on a pipeline's path.  The table and tallies share no code
with the package's chunked numpy kernels, so tests can hold those kernels
to them bit for bit; the flood fill and the spectral count share no code
with the package's union-find walk; the grammar membership and count
oracles share no code with the lazy enumeration; the scalar edit-distance
dynamic program shares no code with the package's vectorized kernel, nor
do the one-pair hamming and euclidean distances with its numpy tiles; the
pair-list Erdos-Renyi edges share no code with the package's hit walk.
The Erdos-Renyi dataset is the package's before each draw was labeled
on its edges: it builds every draw's complex and labels it with
``betti0``.  The walk-every-draw dataset refuses no draw on its edge
count: it labels every draw by flood fill over the draw's rows, sharing
no code with the union-find walk.
The JSON writer is the package's before it wrote each container in one
pass: it recurses once per value and spells every string and key through
``json.dumps``.  The whole-graph walk is the sampled estimator's route
before bridges were scored in closed form: one union-find walk over every
edge per order, each order drawn from a new Philox bit generator.  The
efficiency totals need neither a table nor a walk: by Shapley efficiency
they come from degrees, the order and the component count alone.
"""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from topoinfluence import homology, masking
from topoinfluence.families import _er_edges
from topoinfluence.homology import component_changes
from topoinfluence.report import fmt_float
from topoinfluence.streams import philox_block
from topoinfluence import (
    FAMILIES,
    GenerationBudgetError,
    Grammar,
    InputError,
    LabeledGraph,
    LabeledPointSet,
    NeighborComplex,
    betti0,
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
    return _flood_count(complex_.rows, mask)


def _flood_count(rows, mask: int) -> int:
    count = 0
    while mask:
        mask ^= _flood(rows, mask & -mask, mask)
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


def reference_er_dataset(count, n_range=(8, 14), p_range=(0.02, 0.21), seed=0):
    """``generate_er_dataset``'s draws by its route before each label was
    counted on the drawn edges: every draw builds its complex, and
    ``betti0`` labels it."""
    return _er_rejection(
        count, n_range, p_range, seed,
        lambda n, edges: betti0(NeighborComplex.from_edges(n, edges)),
    )


def walk_every_draw_dataset(count, n_range=(8, 14), p_range=(0.02, 0.21), seed=0):
    """``generate_er_dataset``'s draws with no draw refused on its edge
    count: every draw is labeled by flood fill over its adjacency rows."""

    def flood_label(n, edges):
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return _flood_count(rows, (1 << n) - 1)

    return _er_rejection(count, n_range, p_range, seed, flood_label)


def _er_rejection(count, n_range, p_range, seed, label):
    """Rejection sampling as ``generate_er_dataset`` does it, with
    ``label(n, edges)`` counting the components of every draw.  Same
    Philox blocks, quotas, budget and error text; the ranges are taken as
    valid."""
    base, extra = divmod(count, 3)
    quota = {c: base + (1 if c <= extra else 0) for c in (1, 2, 3)}
    filled = {1: 0, 2: 0, 3: 0}
    dataset = []
    budget = count * masking.ATTEMPTS_PER_GRAPH
    attempt, rng = 0, None
    while len(dataset) < count and attempt < budget:
        rng = philox_block(seed, attempt, rng)
        attempt += 1
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        p = float(rng.uniform(*p_range))
        edges = _er_edges(rng, n, p)
        components = label(n, edges)
        if components in quota and filled[components] < quota[components]:
            filled[components] += 1
            graph = NeighborComplex.from_edges(n, edges)
            dataset.append(LabeledGraph(graph=graph, label=components))
    if len(dataset) < count:
        raise GenerationBudgetError(
            f"after {budget} attempts classes filled {filled} of {quota}; "
            f"widen n_range={n_range} or p_range={p_range}"
        )
    return dataset


def flood_marginals(complex_: NeighborComplex, order) -> list[int]:
    """The sampled walk's marginals by definition: entry v is
    |b0(P + v) - b0(P)| for the vertices P before v in ``order``, each b0
    by the flood fill."""
    marginals = [0] * complex_.n
    mask = before = 0
    for v in order:
        mask |= 1 << v
        after = betti0_of_subset(complex_, mask)
        marginals[v] = abs(after - before)
        before = after
    return marginals


def whole_graph_marginals(complex_: NeighborComplex, order) -> list[int]:
    """The sampled walk's marginals from one union-find walk over every
    edge, bridges included."""
    return [abs(c) for c in component_changes(complex_.neighbors, order)]


def philox_orders(n: int, permutations: int, seed: int):
    """The orders of a sampled run, as lists: order j is the permutation
    drawn by a new ``Philox(key=seed, counter=j << 64)``."""
    for j in range(permutations):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=j << 64))
        yield rng.permutation(n).tolist()


def whole_graph_sums(complex_: NeighborComplex, permutations: int, seed: int):
    """(sums, sums of squares) of :func:`whole_graph_marginals` over the
    :func:`philox_orders` of a sampled run."""
    sums, squares = [0] * complex_.n, [0] * complex_.n
    for order in philox_orders(complex_.n, permutations, seed):
        for v, m in enumerate(whole_graph_marginals(complex_, order)):
            sums[v] += m
            squares[v] += m * m
    return sums, squares


def efficiency_total(complex_: NeighborComplex) -> Fraction:
    """The sum of the exact scores by Shapley efficiency, with no table:
    the signed Shapley values of b0 sum to b0(G), and s(i) is
    2 / (deg i + 1) less i's, so the scores sum to the sum of
    2 / (deg i + 1) less b0(G), here counted by the flood fill."""
    n = complex_.n
    degree_terms = sum(Fraction(2, complex_.degree(i) + 1) for i in range(n))
    return degree_terms - betti0_of_subset(complex_, (1 << n) - 1)


def walk_totals(complex_: NeighborComplex, orders) -> list[int]:
    """The sum of each order's absolute marginals, with no walk: 2L - b0(G),
    with L the vertices placed before all of their neighbours.  A vertex
    with c earlier components among its neighbours changes b0 by 1 - c,
    so its absolute change is 2 [c = 0] less its signed one, and the
    signed changes of one order add up to b0(G)."""
    b0 = betti0_of_subset(complex_, (1 << complex_.n) - 1)
    totals = []
    for order in orders:
        placed = leading = 0
        for v in order:
            leading += not complex_.rows[v] & placed
            placed |= 1 << v
        totals.append(2 * leading - b0)
    return totals


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


def _write_json(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(fmt_float(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise InputError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}  {json.dumps(key, ensure_ascii=False)}: ")
            _write_json(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _write_json(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise InputError(f"cannot serialize {type(value).__name__} to JSON")


def reference_to_json(envelope: dict) -> str:
    """The JSON writer that recursed once per value and spelled every
    string and key through ``json.dumps(..., ensure_ascii=False)``."""
    out: list[str] = []
    _write_json(envelope, out, 0)
    out.append("\n")
    return "".join(out)


def _star_plus_cycle() -> NeighborComplex:
    cycle, star = cycle_graph(9), star_graph(9)
    edges = list(cycle.edges()) + [(u + 9, v + 9) for u, v in star.edges()]
    return NeighborComplex.from_edges(18, edges)


def record_chunks(monkeypatch) -> list[tuple[int, int]]:
    """The (first, stop) range of every later ``homology._fill_chunk``
    call, in call order: the list the patched fill appends to."""
    chunks = []
    fill = homology._fill_chunk

    def recording(table, rows, low, high, first, stop):
        chunks.append((first, stop))
        fill(table, rows, low, high, first, stop)

    monkeypatch.setattr(homology, "_fill_chunk", recording)
    return chunks


def relabeled(complex_: NeighborComplex, seed: int) -> NeighborComplex:
    """``complex_`` with its vertices renumbered by a seeded permutation."""
    label = list(range(complex_.n))
    random.Random(seed).shuffle(label)
    return NeighborComplex.from_edges(
        complex_.n, [(label[u], label[v]) for u, v in complex_.edges()]
    )


# Graphs of 17-18 vertices: with CHUNK_BITS = 14 their tables span 8-16
# chunks, and their components reach across chunk boundaries.  In K17
# almost every component is its whole mask at the first step; in the
# relabeled path a top vertex's neighbours lie anywhere below it, where
# in path18 the one below it is always the next lower vertex.  The paths
# and K17 have only complete blocks, which exact mode scores with no
# table, so against their reference tables they check that closed form
# at n = 17-18 in the engine tests; there K8,9 and star9+cycle9, the
# sparse one, still fill a multi-chunk table.
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


def _tree(draw, k):
    return [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]


def _cycle(draw, k):
    return [(i, (i + 1) % k) for i in range(k)]


def _bowtie(draw, k):
    """Two cycles of at least three vertices that share vertex 0."""
    a = draw(st.integers(3, k - 2))
    second = [0, *range(a, k)]
    return _cycle(draw, a) + [
        (second[i], second[(i + 1) % len(second)]) for i in range(len(second))
    ]


def _clique_with_pendants(draw, k):
    """K_m, 3 <= m <= 6, with paths of the other vertices hanging off it."""
    m = min(k, draw(st.integers(3, 6)))
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for v in range(m, k):
        # Continue the last path, or start a new one at a clique vertex.
        if v > m and draw(st.booleans()):
            edges.append((v - 1, v))
        else:
            edges.append((draw(st.integers(0, m - 1)), v))
    return edges


def _edgeless(draw, k):
    return []


def _complete(draw, k):
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


# Piece name -> (smallest size, builder of its edges on 0..size-1).
PIECES = {
    "tree": (1, _tree),
    "cycle": (3, _cycle),
    "bowtie": (5, _bowtie),
    "clique_with_pendants": (3, _clique_with_pendants),
    "edgeless": (1, _edgeless),
    "complete": (1, _complete),
}


@st.composite
def bridged_unions(draw, min_n=1, max_piece=12, kinds=tuple(PIECES)):
    """Trees, cycles, bowties, cliques with pendant paths, edgeless pieces
    and complete graphs, at least ``min_n`` vertices in all, under a
    random relabeling.  Each piece after the first is joined to an earlier
    vertex by one edge, a bridge, or left apart."""
    edges, n = [], 0
    while n < min_n:
        low, build = PIECES[draw(st.sampled_from(kinds))]
        k = draw(st.integers(low, max(low, max_piece)))
        if n and draw(st.booleans()):
            edges.append((draw(st.integers(0, n - 1)), n + draw(st.integers(0, k - 1))))
        edges += [(u + n, v + n) for u, v in build(draw, k)]
        n += k
    label = draw(st.permutations(range(n)))
    return NeighborComplex.from_edges(n, [(label[u], label[v]) for u, v in edges])


def _glued(draw, max_n, count, size):
    """(n, parts): up to ``count`` parts of ``size`` vertices each, under
    a random relabeling of the n vertices, as tuples of their vertices.
    Each part after the first is glued at one vertex to the graph so far
    or set apart, and the parts stop before they would pass ``max_n``."""
    n, parts = 0, []
    for _ in range(draw(count)):
        k = draw(size)
        at = [draw(st.integers(0, n - 1))] if n and k > 1 and draw(st.booleans()) else []
        if n + k - len(at) > max_n:
            break
        parts.append((*at, *range(n, n + k - len(at))))
        n += k - len(at)
    label = draw(st.permutations(range(n)))
    return n, [tuple(label[v] for v in part) for part in parts]


@st.composite
def block_graphs(draw, max_n=16):
    """(graph, cliques): a graph whose biconnected blocks are all
    complete, under a random relabeling, and its cliques as tuples of
    their relabeled vertices.  Each clique of 1-6 vertices after the
    first is glued at one vertex to the graph so far or set apart, so
    every clique of two or more vertices is a block; a clique of one is
    an isolated vertex."""
    n, cliques = _glued(draw, max_n, st.integers(1, 8), st.integers(1, min(6, max_n)))
    return NeighborComplex.from_edges(n, [
        (u, v) for clique in cliques for u, v in itertools.combinations(clique, 2)
    ]), cliques


@st.composite
def cactus_graphs(draw, max_n=16):
    """A cactus under a random relabeling: cycles of 3-8 vertices, edges
    and isolated vertices, each part after the first glued at one vertex
    to the graph so far or set apart, so that cycles share cut vertices
    and every block is a cycle or a bridge."""
    n, rings = _glued(draw, max_n, st.integers(1, 10), st.sampled_from([1, 2, 3, 3, 4, 5, 6, 8]))
    return NeighborComplex.from_edges(n, [
        (ring[i], ring[(i + 1) % len(ring)])
        for ring in rings for i in range(len(ring) if len(ring) > 2 else len(ring) - 1)
    ])


def k_tree(n: int, k: int, rng: random.Random) -> NeighborComplex:
    """A random k-tree on n vertices: K_(k+1), or K_n when n <= k + 1,
    and then each further vertex joined to all of a k-clique drawn from
    those so far.  Every k-tree is chordal."""
    edges = list(itertools.combinations(range(min(n, k + 1)), 2))
    cliques = list(itertools.combinations(range(k + 1), k))
    for v in range(k + 1, n):
        clique = rng.choice(cliques)
        edges += [(u, v) for u in clique]
        cliques += [(*(u for u in clique if u != x), v) for x in clique]
    return NeighborComplex.from_edges(n, edges)


def interval_graph(n: int, rng: random.Random) -> NeighborComplex:
    """The complex of n random integer points in [0, 2n] at an integer
    radius of 0-4: a unit interval graph, so chordal."""
    points = [rng.randint(0, 2 * n) for _ in range(n)]
    radius = rng.randint(0, 4)
    return NeighborComplex.from_edges(n, [
        (u, v) for u, v in itertools.combinations(range(n), 2)
        if abs(points[u] - points[v]) <= radius
    ])


@st.composite
def chordal_graphs(draw, max_n=16):
    """A chordal graph on 1..max_n vertices under a random relabeling:
    the disjoint union of one to three random k-trees (k = 1-4) and
    interval graphs."""
    rng = draw(st.randoms(use_true_random=False))
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if n == max_n:
            break
        k = draw(st.integers(1, max_n - n))
        if draw(st.booleans()):
            part = k_tree(k, draw(st.integers(1, 4)), rng)
        else:
            part = interval_graph(k, rng)
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += k
    label = draw(st.permutations(range(n)))
    return NeighborComplex.from_edges(n, [(label[u], label[v]) for u, v in edges])


def joined_by_bridges(parts, seed: int | random.Random) -> NeighborComplex:
    """The disjoint union of the complexes ``parts`` under a seeded
    relabeling, each part after the first joined by one edge, a bridge,
    from a random vertex of it to a random earlier vertex.  ``seed`` may
    be the generator itself, which ``parts`` may also draw from as it is
    iterated."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    edges, n = [], 0
    for part in parts:
        if n:
            edges.append((rng.randrange(n), n + rng.randrange(part.n)))
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += part.n
    label = list(range(n))
    rng.shuffle(label)
    return NeighborComplex.from_edges(n, [(label[u], label[v]) for u, v in edges])


def two_cycles_sharing_a_vertex(k: int) -> NeighborComplex:
    """Two k-cycles through vertex 0, 2k - 1 vertices: two cycle blocks
    whose one common vertex 0 is a cut vertex."""
    second = [0, *range(k, 2 * k - 1)]
    return NeighborComplex.from_edges(
        2 * k - 1,
        [(i, (i + 1) % k) for i in range(k)]
        + [(second[i], second[(i + 1) % k]) for i in range(k)],
    )


def two_cliques_sharing_a_vertex(k: int) -> NeighborComplex:
    """Two copies of K_k through vertex 0, 2k - 1 vertices: two blocks
    whose one common vertex 0 is a cut vertex."""
    second = [0, *range(k, 2 * k - 1)]
    return NeighborComplex.from_edges(2 * k - 1, [
        *itertools.combinations(range(k), 2), *itertools.combinations(second, 2)
    ])


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
    permutations: int | None = None,
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
        permutations=permutations,
        seed=seed,
    )
