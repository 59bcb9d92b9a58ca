"""Connected-component counting, as the pipelines run it.

Single graphs, the masked subgraphs the masking harness labels, and the
sampled walk all count components with one union-find walk,
``component_changes``: the signed change in b0 as each vertex joins the
vertices before it in an order.  It reads each vertex's neighbours from
neighbour tuples, so a step costs the vertex's degree, not a scan of an
n-bit row: ``betti0`` walks the complex's ``neighbors``, and the sampled
walk only the edges of the biconnected blocks that are neither bridges,
cycles nor small enough for a table.  Exact mode on a graph with a block
that is not complete needs more: the component count of the induced
subgraph on every subset S of vertices, all 2^n of them, and the sampled
walk the same table for each small block.  (A graph whose blocks are all complete, forests included,
takes a closed form in ``engine.exact_shapley`` and fills no table.)
``betti0_table`` fills that table with a peeling recurrence instead of
2^n independent traversals: the count for S is one more than the count
for S minus the component containing S's highest vertex, and that
smaller subset was already solved.  Most subsets are settled by the highest vertex's own
neighbours in S: with none, it is a component of its own; with exactly
one, it joins that neighbour's component and the count is that of S
without it; with two or more, the component starts as the vertex and
those neighbours, and grows only while it still changes and is not yet
all of S.  The fill runs as numpy passes over chunks of subsets, never
as a Python loop over all 2^n of them.

The slower, independent counters these are tested against (a bitmask
flood fill per subset, and the zero eigenvalues of the graph Laplacian)
live in ``tests/oracles.py``, outside the package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import InputError, SizeCapError

if TYPE_CHECKING:  # the complex fills its walk's block tables through this module
    from .metric_complex import NeighborComplex

# betti0_table allocates 2^n bytes and touches every subset once.
# Above this the table will not fit in reasonable memory or time.
TABLE_HARD_MAX = 26

# Passes over the table work on 2^CHUNK_BITS subsets at a time, so their
# numpy temporaries stay near half a megabyte whatever n is: under 512 KB
# where most masks settle at the first step, under 1 MB where most must
# grow.  Each int64 temporary then holds 128 KiB.  At 2^15 masks, glibc
# mapped every 256 KiB one afresh, page faults and all, unless a larger
# freed block had already raised its mmap threshold in the process: on
# a 2-vCPU Xeon VM a 19-vertex K8,11 table and its size sums took
# 29.7 ms and 6,677 minor faults cold, 10.4 ms and 192 faults after a
# 2^20-entry table.  At 2^14 they take 14.3 ms and 144 faults cold.
CHUNK_BITS = 14

# numpy keeps up to seven freed buffers of each size under 1 KiB for
# reuse.  Growth indexes shorter than this many int64 entries (1 KiB)
# are padded to it, so the loop's arrays do not leave buffers of a
# hundred odd sizes in that cache on runs of many small tables.
INDEX_FLOOR = 128


def component_changes(neighbors: Sequence[Sequence[int]], order: Iterable[int]) -> list[int]:
    """Signed change in b0 as each vertex of ``order`` joins those before it,
    in the graph on 0..n-1, n = len(neighbors), in which v's neighbours
    are ``neighbors[v]``, such as a complex's ``neighbors``.

    Entry v is 1 minus the number of distinct components that v's
    already-present neighbours lie in; vertices not in ``order`` get 0.
    The entries therefore sum to b0 of the subgraph induced on ``order``.
    One union-find walk: ``parent`` with path halving, each distinct root
    found linked under v, and a ``present`` list of the vertices walked
    so far.  A vertex outside 0..n-1 or a repeated one raises InputError.
    Each step costs O(deg v) list reads plus the finds, with no n-bit
    integer work.
    """
    n = len(neighbors)
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
    return sum(component_changes(complex_.neighbors, kept))


def _union_table(rows) -> np.ndarray:
    """u[S] = the union of ``rows[v]`` over the set bits v of S, for all S."""
    union = np.zeros(1 << len(rows), dtype=np.int64)
    for k, row in enumerate(rows):
        union[1 << k : 2 << k] = union[: 1 << k] | row
    return union


def _padded(index: np.ndarray) -> np.ndarray:
    """``index`` repeated up to INDEX_FLOOR entries when it is shorter and
    not empty.  A repeated mask grows and is written exactly as its
    first copy, so the repeats change no result."""
    return np.resize(index, INDEX_FLOOR) if 0 < len(index) < INDEX_FLOOR else index


def betti0_table(complex_: NeighborComplex) -> np.ndarray:
    """Component counts for the induced subgraph on every vertex subset.

    Returns an array t of dtype int8 and length 2^n with t[mask] the
    component count of the subgraph induced on the set bits of ``mask``,
    t[0] = 0.  Peeling recurrence: let c be the component of the highest
    set bit 2^b of ``mask``; then t[mask] = t[mask ^ c] + 1, and
    ``mask ^ c`` is below 2^b.  So the block of masks [2^b, 2^(b+1))
    reads only earlier blocks.  The masks go in chunks of 2^CHUNK_BITS,
    or of the top block when it is shorter, and the chunk at 0 holds
    every block below the chunk length.

    The first step is closed-form: every mask of block b shares row b,
    so c starts as (mask & row b) | 2^b, the top and its neighbours in
    the mask, with no table lookup.  With no neighbour, c is the top
    alone.  With exactly one, the top joins that neighbour's component,
    so t[mask] = t[mask ^ 2^b]: the peel is the top bit, adding 0.
    With two or more, c grows by c = (N[c] & mask) | c, all of a
    chunk's growing masks together, each pass over only those whose c
    changed and is not yet the whole mask: a component equal to its
    mask cannot grow.  Growth reads no table entry, so only the fill
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
    low = _union_table(complex_.rows[: n // 2])
    high = _union_table(complex_.rows[n // 2 :])
    # A chunk no longer than the top block keeps the temporaries of a
    # block-by-block fill.
    chunk = 1 << min(CHUNK_BITS, n - 1)
    for start in range(0, 1 << n, chunk):
        first, stop = max(start, 1), min(start + chunk, 1 << n)
        _fill_chunk(table, complex_.rows, low, high, first, stop)
    return table


def _fill_chunk(table, rows, low, high, first: int, stop: int) -> None:
    """Fill table[first:stop] as betti0_table describes, with N[c] =
    low[c & low_bits] | high[c >> half].  Its arrays die on return, so
    one chunk's temporaries never overlap the next chunk's."""
    half = len(low).bit_length() - 1
    low_bits = len(low) - 1
    masks = np.arange(first, stop, dtype=np.int64)
    # Block b, the masks with top bit 2^b, as (lo, hi, b) offsets into the
    # chunk; only the chunk at 0 spans more than one block.
    blocks = [
        (max(first, 1 << b) - first, min(stop, 2 << b) - first, b)
        for b in range(first.bit_length() - 1, (stop - 1).bit_length())
    ]
    comp = np.empty_like(masks)
    for lo, hi, b in blocks:
        np.bitwise_and(masks[lo:hi], rows[b] | 1 << b, out=comp[lo:hi])
    size = np.bitwise_count(comp)
    # One neighbour: the top joins its component and adds nothing.  The
    # int8 view keeps the fill's sum on numpy's int8 loop: every other
    # inner loop a run touches maps 64 KiB more of numpy's library.
    add = (size != 2).view(np.int8)
    live = _padded(np.flatnonzero((size > 2) & (comp != masks)))
    c = comp[live]
    # With at most one neighbour the peel is the top bit alone.
    for lo, hi, b in blocks:
        np.copyto(comp[lo:hi], 1 << b, where=size[lo:hi] < 3)
    # From here on comp[i] is the mask minus its component so far, the
    # entry the fill reads.
    comp ^= masks
    del size, masks
    while len(live):
        m = live + first
        grown = low[c & low_bits]
        grown |= high[c >> half]
        grown &= m
        grown |= c
        m ^= grown
        comp[live] = m
        c ^= grown
        # Still growing: it gained bits (c) and is short of its mask (m).
        # Both are below 2^26, so their product is exact.
        moving = _padded(np.flatnonzero(c * m))
        live, c = live[moving], grown[moving]
    # Growth reads no table entry, but block b reads blocks below it.
    for lo, hi, _ in blocks:
        table[first + lo : first + hi] = table[comp[lo:hi]] + add[lo:hi]
