"""Connected-component counting, as the pipelines run it.

Single graphs, the masking harness's draws and the masked subgraphs it
labels, and the sampled walk all count components with one union-find
walk, ``component_changes``: the signed change in b0 as each vertex
joins the vertices before it in an order.  It reads each vertex's
neighbours from neighbour sequences, so a step costs the vertex's
degree, not a scan of an n-bit row.  ``betti0`` walks the complex's
``neighbors``; the harness walks each draw's lists built from its edges
before any complex is, and each ranked graph's ``neighbors`` in its
ranking's order and in reverse; the sampled walk covers only the edges
of the biconnected blocks that are neither bridges, cycles nor small
enough for a table.  Exact mode on a graph that is not chordal needs
more: the component count of the induced subgraph on every subset S of
vertices, all 2^n of them, and the sampled walk the same table for each
small block.  ``betti0_table`` fills it from adjacency rows, with no
complex built: exact mode's renumbered rows, and each block's own k-bit
rows in ``blocks.split_pieces``.  (A chordal graph, forests included,
takes the closed form of ``engine._chordal_scores`` and fills no
table.)  The fill is a peeling recurrence instead of 2^n independent
traversals: the count for S is one more than the count
for S minus the component containing S's highest vertex, and that
smaller subset was already solved.  Most subsets are settled by the highest vertex's own
neighbours in S: with none, it is a component of its own; with exactly
one, it joins that neighbour's component and the count is that of S
without it; with two or more, the component starts as the vertex and
those neighbours, and grows only while it still changes and is not yet
all of S.  A block of subsets that share a highest vertex with at most
one neighbour below it settles at that first step, and fills as one
broadcast add over the blocks below it; the other blocks run as numpy
passes over ranges of subsets, never as a Python loop over all 2^n of
them.  Exact mode numbers the vertices smallest-last first, so that
every vertex outside the graph's 2-core takes such a block.
``_size_sums`` then reads the core's part of the table, its first 2^c
entries, once per chunk into the size-graded sums that exact mode weights.

The slower, independent counters these are tested against (a bitmask
flood fill per subset, and the zero eigenvalues of the graph Laplacian)
live in ``tests/oracles.py``, outside the package.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import InputError, SizeCapError

if TYPE_CHECKING:  # a cycle at run time: metric_complex -> blocks -> here
    from .metric_complex import NeighborComplex

# betti0_table allocates 2^n bytes and touches every subset once.
# Above this the table will not fit in reasonable memory or time.
TABLE_HARD_MAX = 26

# Passes over the blocks that must grow work on at most 2^CHUNK_BITS
# subsets at a time, so their numpy temporaries stay near half a
# megabyte whatever n is: under 512 KB where most masks settle at the
# first step, under 1 MB where most must grow.  Each int64 temporary
# then holds 128 KiB.  At 2^15 masks, glibc mapped every 256 KiB one
# afresh, page faults and all, unless a larger freed block had already
# raised its mmap threshold in the process: on a 2-vCPU Xeon VM a
# 19-vertex K8,11 table and its size sums took 29.7 ms and 6,677 minor
# faults cold, 10.4 ms and 192 faults after a 2^20-entry table.  At 2^14
# they take 14.3 ms and 144 faults cold.  A range of a 14-vertex table
# is no longer than its top block, 2^13: filled as one, its int64
# temporaries reach 128 KiB, and four 200-graph ``mask`` runs (seeds
# 4-7, 8-14 vertices) took 6,456 minor faults a pass on the same VM,
# against 1,514 with two.
CHUNK_BITS = 14


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


def betti0_table(rows: Sequence[int]) -> np.ndarray:
    """Component counts for the induced subgraph on every vertex subset
    of the graph on 0..n-1, n = len(rows), in which v's neighbours are
    the set bits of ``rows[v]``, such as a complex's ``rows``.  The rows
    are taken as given: no complex is built and their symmetry is not
    checked.

    Returns an array t of dtype int8 and length 2^n with t[mask] the
    component count of the subgraph induced on the set bits of ``mask``,
    t[0] = 0.  Peeling recurrence: let c be the component of the highest
    set bit 2^b of ``mask``; then t[mask] = t[mask ^ c] + 1, and
    ``mask ^ c`` is below 2^b.  So the block of masks [2^b, 2^(b+1))
    reads only earlier blocks, and the blocks fill in ascending order.

    The first step is closed-form: every mask of block b shares row b,
    so c starts as (mask & row b) | 2^b, the top and its neighbours in
    the mask, with no table lookup.  With no neighbour, c is the top
    alone.  With exactly one, the top joins that neighbour's component,
    so t[mask] = t[mask ^ 2^b]: the peel is the top bit, adding 0.
    When vertex b has at most one neighbour below it at all, every mask
    of its block settles so, and the block is one broadcast add over
    the blocks below (:func:`_fill_tree_block`).  Maximal runs of the
    other blocks go to :func:`_fill_chunk`, each whole in a table of
    fewer than 2^CHUNK_BITS masks, else in ranges no longer than the
    top block nor than 2^CHUNK_BITS masks.  With two or more
    neighbours in the mask, c grows by c = (N[c] & mask) | c, all of a
    range's growing masks together, each pass over only those whose c
    changed and is not yet the whole mask: a component equal to its
    mask cannot grow.  Growth reads no table entry, so only the fill
    that follows goes block by block.  N[c], the union of the adjacency
    rows over c, is looked up in two tables of 2^(n/2) entries by the
    low and high halves of c.

    Component counts fit in int8 because n <= TABLE_HARD_MAX, and a
    longer ``rows`` raises SizeCapError.
    """
    n = len(rows)
    if n > TABLE_HARD_MAX:
        raise SizeCapError(
            f"subset table for n={n} needs 2^{n} entries; hard max is "
            f"n={TABLE_HARD_MAX}"
        )
    table = np.zeros(1 << n, dtype=np.int8)
    low = _union_table(rows[: n // 2])
    high = _union_table(rows[n // 2 :])
    # A table shorter than 2^CHUNK_BITS takes each run as one range.  A
    # longer one takes ranges no longer than its top block, which keep
    # the temporaries of a block-by-block fill.
    chunk = 1 << (n if n < CHUNK_BITS else min(CHUNK_BITS, n - 1))
    run = 1  # the first mask of the run of blocks that must grow
    for b in range(n + 1):
        # Block n, past the table, ends the last run.
        below = rows[b] & (1 << b) - 1 if b < n else 0
        if below.bit_count() > 1:
            continue
        for first in range(run, 1 << b, chunk):
            _fill_chunk(table, rows, low, high, first, min(first + chunk, 1 << b))
        if b < n:
            _fill_tree_block(table, b, below)
        run = 2 << b
    return table


# What a mask of a tree-like block adds to its entry, by whether it
# holds the top's one lower neighbour.
_ADD_BY_NEIGHBOUR = np.array([[1], [0]], dtype=np.int8)


def _fill_tree_block(table, b: int, below: int) -> None:
    """Fill block b, whose vertex has at most one neighbour below it,
    ``below`` as a bit set: each mask settles at the peel's first step.
    With none, t[mask] = t[mask ^ 2^b] + 1; with one, u, the top joins
    u's component wherever bit u is set and adds 0 there.  One add into
    the block, broadcast over a (-1, 2, 2^u) view, with no temporaries."""
    lower, block = table[: 1 << b], table[1 << b : 2 << b]
    if not below:
        np.add(lower, 1, out=block)
        return
    shape = (-1, 2, below)  # below is 2^u
    np.add(lower.reshape(shape), _ADD_BY_NEIGHBOUR, out=block.reshape(shape))


def _fill_chunk(table, rows, low, high, first: int, stop: int) -> None:
    """Fill table[first:stop] as betti0_table describes, with N[c] =
    low[c & low_bits] | high[c >> half].  Its arrays die on return, so
    one chunk's temporaries never overlap the next chunk's."""
    half = len(low).bit_length() - 1
    low_bits = len(low) - 1
    masks = np.arange(first, stop, dtype=np.int64)
    # Block b, the masks with top bit 2^b, as (lo, hi, b) offsets into the
    # range, which may span several blocks.
    blocks = [
        (max(first, 1 << b) - first, min(stop, 2 << b) - first, b)
        for b in range(first.bit_length() - 1, (stop - 1).bit_length())
    ]
    comp = np.empty_like(masks)
    for lo, hi, b in blocks:
        np.bitwise_and(masks[lo:hi], rows[b] | 1 << b, out=comp[lo:hi])
    size = np.bitwise_count(comp)
    # One neighbour: the top joins its component and adds nothing.
    add = size != 2
    live = np.flatnonzero((size > 2) & (comp != masks))
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
        moving = np.flatnonzero(c * m)
        live, c = live[moving], grown[moving]
    # Growth reads no table entry, but block b reads blocks below it.
    for lo, hi, _ in blocks:
        table[first + lo : first + hi] = table[comp[lo:hi]] + add[lo:hi]


@cache
def _width_keys(bits: int) -> tuple[tuple, tuple, tuple]:
    """The groups (lo, w) of up to 8 bits below ``bits``, each group's
    int16 key (popcount r, the group's bits of r) for every r < 2^bits,
    and each group's 0/1 matrix of bit j of column v.  They depend on the
    width alone, so each width builds them once; every array is read-only
    since all callers share it."""
    r = np.arange(1 << bits, dtype=np.int32)
    sizes = np.bitwise_count(r).astype(np.int32)
    groups = tuple((lo, min(8, bits - lo)) for lo in range(0, bits, 8))
    # The largest key is below (bits + 1) 2^8, so int16 holds every key.
    keys = tuple(
        (sizes << w | r >> lo & (1 << w) - 1).astype(np.int16) for lo, w in groups
    )
    has_bit = tuple(np.arange(1 << w)[:, None] >> np.arange(w) & 1 for _, w in groups)
    for array in keys + has_bit:
        array.flags.writeable = False
    return groups, keys, has_bit


def _size_sums(table: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Size-graded sums of the subset table t, as int64.

    A[i, k] is the sum of t[S] over the subsets S of size k that contain
    i, and T[k] the sum over all subsets of size k, for k = 0..n.  Over
    the size-k coalitions C that avoid i, b0(C + i) then sums to
    A[i, k + 1] and b0(C) to T[k] - A[i, k].

    The table is read once, in chunks of 2^CHUNK_BITS masks p0 + r with
    p0 a multiple of the chunk length, so |S| = popcount(p0) + popcount(r).
    Each group of up to 8 low bits takes one bincount per chunk, weighted
    by t and keyed by (popcount r, the group's bits of r), and adds it
    popcount(p0) rows down into the group's sums; bit i of the group reads
    A[i] off the columns whose key has bit i set.  Bits above the chunk
    are constant inside it, so each set bit of p0 >> CHUNK_BITS gains the
    chunk's per-size totals.  The float64 weights are exact: every
    partial sum is at most 26 2^26 < 2^53.

    The keys and bit matrices depend only on the chunk width
    min(CHUNK_BITS, n), not on n, so :func:`_width_keys` caches them per
    width: at most CHUNK_BITS widths, 64 KB of keys at width 14.
    """
    bits = min(CHUNK_BITS, n)
    groups, keys, has_bits = _width_keys(bits)
    chunk = 1 << bits
    group_sums = [np.zeros((n + 1, 1 << w)) for _, w in groups]
    sums = np.zeros((n, n + 1))
    for p0 in range(0, 1 << n, chunk):
        weights = table[p0 : p0 + chunk].astype(np.float64)
        rows = slice(p0.bit_count(), p0.bit_count() + bits + 1)
        for key, group in zip(keys, group_sums):
            part = np.bincount(key, weights).reshape(bits + 1, -1)
            group[rows] += part
        totals = part.sum(axis=1)  # any group's rows sum to the size totals
        for i in range(bits, n):
            if p0 >> i & 1:
                sums[i, rows] += totals
    sums = sums.astype(np.int64)
    for (lo, w), group, has_bit in zip(groups, group_sums, has_bits):
        # Integer matmul, exact and with no BLAS call: column v times bit j of v.
        sums[lo : lo + w] = (group.astype(np.int64) @ has_bit).T
    return sums, group_sums[0].sum(axis=1).astype(np.int64)
