"""Biconnected blocks from one depth-first search, laid out for the walk.

A block is a maximal connected subgraph that no single vertex deletion
disconnects.  Every edge lies in exactly one block, two blocks share at
most one vertex, a cut vertex, and a block of two vertices is a bridge,
an edge that no cycle uses.  ``lowlinks`` runs the search of Hopcroft &
Tarjan (1973) once, iteratively, over neighbour tuples in ascending
order, as ``NeighborComplex.neighbors`` holds them, and
``biconnected_blocks`` reads the blocks off its three lists.  Exact mode
scores a graph whose blocks are all complete in closed form.

b1 adds up over blocks, so the sampled walk scores each order block by
block, a piece being a block: ``split_pieces`` lays the blocks out once
per graph, filling each small block's subset table from its own k-bit
adjacency rows, and ``block_changes`` scores one order over them, each
kind of block its own way.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .homology import _table_of_rows, component_changes

# The largest block scored by table lookups: its table holds 2^12 int8
# entries, 4 KiB, under 342 bytes per vertex.  Larger blocks are walked.
PIECE_LIMIT = 12

# Fewer vertices than this in all the small blocks that are neither
# bridges nor cycles are walked instead: the lookup costs about ten
# numpy calls per order whatever its size.  On K4s joined by bridges the
# walk costs as much at 16-24 vertices, and half as much again at 32.
# The bench walks ``strings_sweep``'s 12 and 4 such vertices at r = 1
# and 2 and looks up ``sampled_union``'s 300; a minimum of 0 raised the
# former's median wall from 0.1189 to 0.1228 s (5 of 5 pairs, 2 vCPUs).
LOOKUP_MIN = 32


def lowlinks(neighbors: Sequence[Sequence[int]]) -> tuple[list[int], list[int], list[int]]:
    """Discovery numbers, parents and lowlinks of one depth-first search.

    The search runs from each vertex not yet reached, in ascending order,
    with an explicit stack rather than recursion, in O(n + m).  disc[v]
    numbers the vertices in preorder, so each subtree holds a contiguous
    run of numbers starting at its root's.  parent[v] is v's parent in
    the search forest, -1 at a root.  low[v] is the smallest disc reached
    from v's subtree by tree edges down and then one non-tree edge, or
    disc[v] when that is smaller.
    """
    n = len(neighbors)
    disc = [-1] * n
    parent = [-1] * n
    low = [0] * n
    count = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = count
        count += 1
        stack = [(root, iter(neighbors[root]))]
        while stack:
            v, pending = stack[-1]
            for w in pending:
                if disc[w] < 0:
                    parent[w] = v
                    disc[w] = low[w] = count
                    count += 1
                    stack.append((w, iter(neighbors[w])))
                    break
                # Simple graph: the edge back to the parent is the tree edge.
                if w != parent[v] and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                p = parent[v]
                if p >= 0 and low[v] < low[p]:
                    low[p] = low[v]
    return disc, parent, low


def biconnected_blocks(neighbors: Sequence[Sequence[int]]) -> list[tuple[list[int], int]]:
    """Each biconnected block of the graph as (its vertices, its edge count).

    A tree edge (p, v) of :func:`lowlinks` lies on a cycle with p's own
    tree edge iff something in v's subtree reaches above p, low[v] <
    disc[p].  So in preorder each vertex but a root joins its parent's
    block then, and otherwise opens a new block of p and itself, named
    by v, that the vertices joining v's block extend.  An edge (v, w)
    with disc[w] < disc[v] is v's tree edge or a back edge to an
    ancestor, which closes a cycle through v's tree edge: it belongs to
    v's block.  One O(n + m) pass; an isolated vertex lies in no block.
    """
    n = len(neighbors)
    disc, parent, low = lowlinks(neighbors)
    head = list(range(n))
    members: dict[int, list[int]] = {}
    edges: dict[int, int] = {}
    for v in sorted(range(n), key=disc.__getitem__):
        if (p := parent[v]) < 0:
            continue
        if low[v] < disc[p]:
            head[v] = head[p]
            members[head[v]].append(v)
        else:
            members[v] = [p, v]
            edges[v] = 0
        edges[head[v]] += sum(disc[w] < disc[v] for w in neighbors[v])
    return [(vertices, edges[h]) for h, vertices in members.items()]


class Pieces(NamedTuple):
    """The blocks of a graph as the sampled walk reads them, a piece
    being a block.

    Scored in closed form, the bridges and the cycle blocks:

    - ``closed``, a (2, c) int64 array with one column per edge of a
      bridge or a cycle block, block by block;
    - ``cycles``, the cycle blocks' vertices, int64, block by block;
    - ``cycle_starts``, where each cycle block starts in ``cycles``.

    Looked up, the other blocks of at most PIECE_LIMIT vertices when they
    hold at least LOOKUP_MIN vertices in all, each numbered locally in
    the order :func:`biconnected_blocks` lists it, and their vertices:

    - ``members``, an int64 array with one column per block: row j holds
      its local vertex j, and the rows past its size hold n, a place
      after every vertex;
    - ``row_bits``, 2^j in row j, as an int64 column;
    - ``tables``, the blocks' int8 subset tables, end to end;
    - ``looked``, the blocks' vertices, int64, block by block, so a cut
      vertex appears once per block;
    - ``piece``, the column of each entry of ``looked``;
    - ``base``, two int64 rows: where the entry's table starts in
      ``tables``, and that plus 2^(its local index).

    Walked, the blocks left, as one graph, the union of their edges:

    - ``walked``, its vertices, ascending, int64;
    - ``walk_local``, an int64 array holding v's index in ``walked``, or -1;
    - ``walk_neighbors``, for each vertex of ``walked`` its neighbours in
      those blocks as indices into ``walked``, ascending.
    """

    closed: np.ndarray
    cycles: np.ndarray
    cycle_starts: np.ndarray
    members: np.ndarray
    row_bits: np.ndarray
    tables: np.ndarray
    looked: np.ndarray
    piece: np.ndarray
    base: np.ndarray
    walked: np.ndarray
    walk_local: np.ndarray
    walk_neighbors: tuple[tuple[int, ...], ...]


def _block_neighbors(
    neighbors: Sequence[Sequence[int]], block: list[int]
) -> Iterator[tuple[int, list[int]]]:
    """Each vertex of ``block`` with its neighbours in the block,
    ascending.  Two blocks share at most one vertex, so an edge lies in
    the block iff both its ends do; the block's vertex set lives only as
    long as the iterator."""
    inside = set(block)
    for v in block:
        yield v, [w for w in neighbors[v] if w in inside]


def split_pieces(neighbors: Sequence[Sequence[int]]) -> Pieces:
    """The :class:`Pieces` of the graph with these neighbour tuples.

    A block of :func:`biconnected_blocks` with k vertices and m edges is
    a bridge when k = 2.  Otherwise no vertex of it has fewer than two
    neighbours in it, so m >= k, with equality iff each has exactly two:
    then it is a simple cycle of any length, a cycle block, and gets
    neither a table nor the walk.

    Each other block of at most PIECE_LIMIT vertices gets the subset
    table of :func:`~topoinfluence.homology.betti0_table`, filled from
    its k-bit adjacency rows with no complex built, after the search's
    lists are freed.  It is copied into ``tables`` at once, so no more
    than one block's table is alive beside them.  When those blocks hold
    fewer than LOOKUP_MIN vertices in all, they are walked with the others.
    """
    n = len(neighbors)
    firsts, seconds, cycles, rest = [], [], [], []
    for block, m in biconnected_blocks(neighbors):
        if len(block) == 2:
            firsts.append(block[0])
            seconds.append(block[1])
        elif m == len(block):
            cycles.append(block)
            for u, inner in _block_neighbors(neighbors, block):
                for w in inner:
                    if u < w:
                        firsts.append(u)
                        seconds.append(w)
        else:
            rest.append(block)
    closed = np.array([firsts, seconds], dtype=np.int64)
    del firsts, seconds
    small = [block for block in rest if len(block) <= PIECE_LIMIT]
    if sum(map(len, small)) < LOOKUP_MIN:
        small = []
    large = [block for block in rest if not small or len(block) > PIECE_LIMIT]
    width = max(map(len, small), default=0)
    members = np.full((width, len(small)), n, dtype=np.int64)
    tables = np.empty(sum(1 << len(block) for block in small), dtype=np.int8)
    looked = np.array([v for block in small for v in block], dtype=np.int64)
    piece_of = np.empty_like(looked)
    base = np.empty((2, len(looked)), dtype=np.int64)
    start = stop = 0
    for column, block in enumerate(small):
        k = len(block)
        number = {v: j for j, v in enumerate(block)}
        tables[start : start + (1 << k)] = _table_of_rows([
            sum(1 << number[w] for w in neighbors[v] if w in number) for v in block
        ])
        members[:k, column] = looked[stop : stop + k]
        piece_of[stop : stop + k] = column
        base[:, stop : stop + k] = start + [[0], [1]] * (1 << np.arange(k))
        start += 1 << k
        stop += k
    walk: dict[int, list[int]] = {}
    for block in large:
        for v, inner in _block_neighbors(neighbors, block):
            walk.setdefault(v, []).extend(inner)
    kept = sorted(walk)
    index = {v: j for j, v in enumerate(kept)}
    walk_local = np.full(n, -1, dtype=np.int64)
    walk_local[kept] = np.arange(len(kept))
    return Pieces(
        closed=closed,
        cycles=np.array([v for block in cycles for v in block], dtype=np.int64),
        cycle_starts=np.cumsum([0, *map(len, cycles)][:-1], dtype=np.int64),
        members=members,
        row_bits=1 << np.arange(width, dtype=np.int64)[:, None],
        tables=tables,
        looked=looked,
        piece=piece_of,
        base=base,
        walked=np.array(kept, dtype=np.int64),
        walk_local=walk_local,
        walk_neighbors=tuple(tuple(sorted(index[w] for w in walk[v])) for v in kept),
    )


def block_changes(pieces: Pieces, order: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Signed change in b0 as each vertex i joins the vertices P before
    it in ``order``, an integer array, as an int64 array indexed by
    vertex.  ``position[v]`` is v's place in ``order``, and position[n]
    = n, after every vertex, the place of the lookups' padding.  Then

        b0(P + i) - b0(P)  =  1 + sum over i's blocks B of [d_B(i) - 1],

    with d_B(i) the same change in B alone, on the vertices of B in P,
    which each kind of block in :class:`Pieces` gives its own way:

    - a bridge or a cycle block, with c(i) the number of i's neighbours
      in B before i: d_B(i) = 1 - c(i) + [B is a cycle and i the last of
      it to come].  i's earlier neighbours in B lie in c(i) components
      unless both of a cycle's do; then the one path between them that
      avoids i joins them iff all the rest of the cycle came first.  So
      each of these edges counts against its later end in one bincount,
      and the vertex at each cycle's latest position, one
      ``np.maximum.reduceat``, gains 1 in another;
    - a looked-up block: d_B(i) = t_B[P_B + i] - t_B[P_B], with t_B its
      subset table and P_B the mask of its local vertices in P, formed
      in numpy from their positions;
    - the walked blocks: 1 plus the sum of [d_B(i) - 1] over them is i's
      marginal in their union, which the union-find walk of
      :func:`~topoinfluence.homology.component_changes` runs over.

    A cut vertex lies in several blocks, so each kind's terms are summed
    by a bincount, which adds up repeated indices.
    """
    n = len(order)
    # Signs come from shifts, here and in permutation_marginals' absolute
    # values, not from comparisons or np.abs: every numpy inner loop a run
    # touches for the first time maps 64 KiB more of numpy's library, and
    # shifts, sums and products are mapped already.
    first, second = pieces.closed
    # Each edge of a bridge or a cycle block counts against its later end:
    # the position gap shifted by 63 is -1 where ``first`` is earlier, else 0.
    later = first + (first - second) * ((position[first] - position[second]) >> 63)
    changes = np.ones(n, dtype=np.int64)
    if len(pieces.walked):
        walked = pieces.walk_local[order]
        # walk_local is -1 off the walked blocks, so walked + 1 is 0 exactly there.
        walked = walked[np.flatnonzero(walked + 1)]
        changes[pieces.walked] = component_changes(pieces.walk_neighbors, walked.tolist())
    if len(pieces.looked):
        # Row j, column i: where local vertex j of i's block came, less
        # where i came, shifted to -1 if j came first and to 0 if not
        # (i itself and padding).  Masked by the rows' bits, column i sums
        # to the mask of the vertices of i's block placed before it.
        earlier = position.take(pieces.members).take(pieces.piece, axis=1)
        earlier -= position.take(pieces.looked)
        earlier >>= 63
        earlier &= pieces.row_bits
        before, after = pieces.tables.take(earlier.sum(axis=0) + pieces.base)
        # The weights become float64, exact for counts this small.
        changes += np.bincount(pieces.looked, after - before - 1, minlength=n).astype(np.int64)
    if len(pieces.cycle_starts):
        # The last of each cycle to arrive, at the cycle's latest position,
        # gains 1: the rest of the cycle already joins its two neighbours.
        changes += np.bincount(order.take(np.maximum.reduceat(
            position.take(pieces.cycles), pieces.cycle_starts
        )), minlength=n)
    changes -= np.bincount(later, minlength=n)
    return changes
