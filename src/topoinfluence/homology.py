"""Connected-component counting, two independent ways.

The production route is a union-find pass over the edges.  The reference
route counts zero eigenvalues of the graph Laplacian L = D - A; for an
undirected graph the multiplicity of eigenvalue 0 equals the number of
components, so the two must agree exactly.  Tests hold them to that.
Keeping both alive is the point: a bug in one is caught by the other.

Also here: the subset table.  Influence attribution needs the component
count of the induced subgraph on every subset S of vertices, all 2^n of
them.  ``betti0_table`` fills that table with a peeling recurrence
instead of 2^n independent traversals: the count for S is one more than
the count for S minus the component containing S's highest vertex, and
that smaller subset was already solved.  The fill runs as numpy passes
over chunks of subsets, never as a Python loop over all 2^n of them.
"""

from __future__ import annotations

import numpy as np

from .errors import EigensolverError, SizeCapError
from .metric_complex import NeighborComplex

# Eigenvalues of L within this of zero count as zero.  L is PSD with
# integer entries and its smallest nonzero eigenvalue for graphs this
# size is far above the bound, so the gap is unambiguous.
ZERO_TOLERANCE = 1e-8

# betti0_table allocates 2^n bytes and touches every subset once.
# Above this the table will not fit in reasonable memory or time.
TABLE_HARD_MAX = 26

# Passes over the table work on 2^CHUNK_BITS subsets at a time, so their
# numpy temporaries stay near a megabyte whatever n is.
CHUNK_BITS = 15


class UnionFind:
    """Disjoint sets over 0..n-1 with union by size and path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


def betti0(complex_: NeighborComplex) -> int:
    """Number of connected components, by union-find.  b0 of n isolated
    vertices is n; every edge merges at most one pair."""
    uf = UnionFind(complex_.n)
    for u, v in complex_.edges():
        uf.union(u, v)
    return uf.count


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

    Reference implementation: O(n^3) dense symmetric eigensolve, used in
    tests as an independent check on :func:`betti0`, never on the hot path.
    """
    try:
        eigenvalues = np.linalg.eigvalsh(laplacian(complex_))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigvalsh failed: {exc}") from exc
    return int(np.count_nonzero(np.abs(eigenvalues) <= ZERO_TOLERANCE))


def _union_table(rows) -> np.ndarray:
    """u[S] = the union of ``rows[v]`` over the set bits v of S, for all S."""
    union = np.zeros(1 << len(rows), dtype=np.int64)
    for k, row in enumerate(rows):
        union[1 << k : 2 << k] = union[: 1 << k] | row
    return union


def betti0_table(complex_: NeighborComplex) -> np.ndarray:
    """Component counts for the induced subgraph on every vertex subset.

    Returns an array t of dtype int8 and length 2^n with t[mask] the
    component count of the subgraph induced on the set bits of ``mask``,
    t[0] = 0.  Peeling recurrence: let c be the component of the highest
    set bit 2^b of ``mask``; then t[mask] = t[mask ^ c] + 1, and
    ``mask ^ c`` is below 2^b.  So the block of masks [2^b, 2^(b+1))
    reads only earlier blocks, and blocks fill in order, in chunks of
    2^CHUNK_BITS masks.  Within a chunk every c starts as 2^b and grows
    by c = (N[c] & mask) | c, each pass over only the masks whose c still
    grew.  N[c], the union of the adjacency rows over c, is looked up in
    two tables of 2^(n/2) entries by the low and high halves of c.

    Component counts fit in int8 because n <= TABLE_HARD_MAX.
    """
    n = complex_.n
    if n > TABLE_HARD_MAX:
        raise SizeCapError(
            f"subset table for n={n} needs 2^{n} entries; hard max is "
            f"n={TABLE_HARD_MAX}"
        )
    table = np.zeros(1 << n, dtype=np.int8)
    half = n // 2
    low_bits = (1 << half) - 1
    low = _union_table(complex_.rows[:half])
    high = _union_table(complex_.rows[half:])
    chunk = 1 << CHUNK_BITS
    for b in range(n):
        top = 1 << b
        for start in range(top, 2 * top, chunk):
            masks = np.arange(start, min(start + chunk, 2 * top), dtype=np.int64)
            comp = np.full(len(masks), top, dtype=np.int64)
            # Positions, masks and components of the chunk still growing.
            live, m, c = np.arange(len(masks)), masks, comp
            while len(live):
                grown = ((low[c & low_bits] | high[c >> half]) & m) | c
                # On the first pass c is comp itself: compare before writing.
                moving = grown != c
                comp[live] = grown
                live, m, c = live[moving], m[moving], grown[moving]
            table[start : start + len(masks)] = table[masks ^ comp] + 1
    return table


def component_masks(complex_: NeighborComplex, mask: int | None = None) -> list[int]:
    """Bitmasks of the connected components of the induced subgraph,
    ordered by their lowest vertex."""
    if mask is None:
        mask = complex_.full_mask
    rows = complex_.rows
    out = []
    remaining = mask
    while remaining:
        low = remaining & -remaining
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
        out.append(component)
        remaining &= ~component
    return out
