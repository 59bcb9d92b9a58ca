"""Connected-component counting, as the pipelines run it.

Single graphs, the masked subgraphs the masking harness labels, and the
sampled walk all count components with one union-find walk,
``component_changes``: the signed change in b0 as each vertex joins the
vertices before it in an order.  It reads each vertex's neighbours from
the complex's ``neighbors`` tuples, so a step costs the vertex's degree,
not a scan of an n-bit row.  Exact mode needs more: the component
count of the induced subgraph on every subset S of vertices, all 2^n of
them.  ``betti0_table`` fills that table with a peeling recurrence
instead of 2^n independent traversals: the count for S is one more than
the count for S minus the component containing S's highest vertex, and
that smaller subset was already solved.  The fill runs as numpy passes
over chunks of subsets, never as a Python loop over all 2^n of them.

The slower, independent counters these are tested against (a bitmask
flood fill per subset, and the zero eigenvalues of the graph Laplacian)
live in ``tests/oracles.py``, outside the package.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InputError, SizeCapError
from .metric_complex import NeighborComplex

# betti0_table allocates 2^n bytes and touches every subset once.
# Above this the table will not fit in reasonable memory or time.
TABLE_HARD_MAX = 26

# Passes over the table work on 2^CHUNK_BITS subsets at a time, so their
# numpy temporaries stay near a megabyte whatever n is.
CHUNK_BITS = 15


def component_changes(complex_: NeighborComplex, order: Iterable[int]) -> list[int]:
    """Signed change in b0 as each vertex of ``order`` joins those before it.

    Entry v is 1 minus the number of distinct components that v's
    already-present neighbours lie in; vertices not in ``order`` get 0.
    The entries therefore sum to b0 of the subgraph induced on ``order``.
    One union-find walk over ``complex_.neighbors``: ``parent`` with path
    halving, each distinct root found linked under v, and a ``present``
    list of the vertices walked so far.  A vertex outside 0..n-1 or a
    repeated one raises InputError.  Each step costs O(deg v) list reads
    plus the finds, with no n-bit integer work.
    """
    n = complex_.n
    neighbors = complex_.neighbors
    parent = list(range(n))
    changes = [0] * n
    present = [False] * n
    for v in order:
        # Explicit: a list index of -1 would wrap around without an error.
        if not 0 <= v < n:
            raise InputError(f"order has vertex {v} outside 0..{n - 1}")
        if present[v]:
            raise InputError(f"order repeats vertex {v}")
        change = 1
        for root in neighbors[v]:
            if not present[root]:
                continue
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            if root != v:
                parent[root] = v
                change -= 1
        present[v] = True
        changes[v] = change
    return changes


def betti0(complex_: NeighborComplex, keep: int | None = None) -> int:
    """Number of connected components of the subgraph induced on the set
    bits of ``keep`` (default: every vertex): the sum of
    :func:`component_changes` over those vertices in index order, so b0
    of the empty set is 0."""
    n = complex_.n
    keep = (1 << n) - 1 if keep is None else keep
    if not 0 <= keep < 1 << n:
        raise InputError(f"keep mask has bits outside 0..{n - 1}")
    kept = [v for v in range(n) if keep >> v & 1]
    return sum(component_changes(complex_, kept))


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
    reads only earlier blocks.  The masks go in chunks of 2^CHUNK_BITS,
    or of the top block when it is shorter, and the chunk at 0 holds
    every block below the chunk length.  In a chunk every c starts as
    the top bit of its mask, set block by block, and all of them grow
    together by c = (N[c] & mask) | c, each pass over only the masks
    whose c still grew; growth reads no table entry, so only the fill
    that follows goes block by block.  N[c], the union of the adjacency
    rows over c, is looked up in two tables of 2^(n/2) entries by the
    low and high halves of c.

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
    # A chunk no longer than the top block keeps the temporaries of a
    # block-by-block fill.
    chunk = 1 << min(CHUNK_BITS, n - 1)
    for start in range(0, 1 << n, chunk):
        first, stop = max(start, 1), min(start + chunk, 1 << n)
        masks = np.arange(first, stop, dtype=np.int64)
        # Block b, the masks with top bit 2^b, as (lo, hi, 2^b) offsets
        # into the chunk; only the chunk at 0 spans more than one block.
        blocks = [
            (max(first, 1 << b) - first, min(stop, 2 << b) - first, 1 << b)
            for b in range(first.bit_length() - 1, (stop - 1).bit_length())
        ]
        comp = np.empty_like(masks)
        for lo, hi, top in blocks:
            comp[lo:hi] = top
        # Positions, masks and components of the chunk still growing.
        live, m, c = np.arange(len(masks)), masks, comp
        while len(live):
            grown = ((low[c & low_bits] | high[c >> half]) & m) | c
            # On the first pass c is comp itself: compare before writing.
            moving = grown != c
            comp[live] = grown
            live, m, c = live[moving], m[moving], grown[moving]
        # Growth reads no table entry, but block b reads blocks below it.
        for lo, hi, _ in blocks:
            table[first + lo : first + hi] = table[masks[lo:hi] ^ comp[lo:hi]] + 1
    return table
