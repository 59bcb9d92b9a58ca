"""Slow reference routes for component counts, the subset table and the
marginal tallies.

None of them is on a pipeline's path.  The table and tallies share no code
with the package's chunked numpy kernels, so tests can hold those kernels
to them bit for bit; the spectral count shares no code with union-find.
"""

import functools

import numpy as np

from topoinfluence import (
    NeighborComplex,
    UnionFind,
    complete_bipartite_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

# Eigenvalues of L within this of zero count as zero.  L is PSD with
# integer entries and its smallest nonzero eigenvalue for graphs this
# size is far above the bound, so the gap is unambiguous.
ZERO_TOLERANCE = 1e-8


def betti0_of_subset(complex_: NeighborComplex, mask: int) -> int:
    """Component count of the induced subgraph on the vertices in ``mask``.

    The empty subset has zero components by convention; that choice makes
    the first vertex added to an empty coalition worth exactly one
    component, which the closed-form results downstream assume.
    """
    if mask == 0:
        return 0
    members = []
    m = mask
    while m:
        low = m & -m
        members.append(low.bit_length() - 1)
        m ^= low
    index = {v: k for k, v in enumerate(members)}
    uf = UnionFind(len(members))
    for k, v in enumerate(members):
        row = complex_.rows[v] & mask
        while row:
            low = row & -row
            w = low.bit_length() - 1
            if w > v:
                uf.union(k, index[w])
            row ^= low
    return uf.count


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
        low = mask & -mask
        component = low
        frontier = low
        while frontier:
            neighbors = 0
            f = frontier
            while f:
                b = f & -f
                neighbors |= rows[b.bit_length() - 1]
                f ^= b
            frontier = neighbors & mask & ~component
            component |= frontier
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


def _star_plus_cycle() -> NeighborComplex:
    cycle, star = cycle_graph(9), star_graph(9)
    edges = list(cycle.edges()) + [(u + 9, v + 9) for u, v in star.edges()]
    return NeighborComplex.from_edges(18, edges)


# Graphs of 17-18 vertices: with CHUNK_BITS = 15 their tables span several
# chunks, and their components reach across chunk boundaries.
MULTI_CHUNK_GRAPHS = {
    "path18": path_graph(18),
    "star9+cycle9": _star_plus_cycle(),
    "K8,9": complete_bipartite_graph(8, 9),
}


@functools.cache
def multi_chunk_case(name: str) -> tuple[NeighborComplex, np.ndarray]:
    """A multi-chunk graph and its reference table, built once per test run."""
    g = MULTI_CHUNK_GRAPHS[name]
    return g, reference_betti0_table(g)
