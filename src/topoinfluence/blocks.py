"""Bridges and the pieces they leave, from one depth-first search.

An edge is a bridge when no cycle uses it: deleting it splits a
component in two.  ``lowlinks`` runs the search of Hopcroft & Tarjan
(1973) once, iteratively, over neighbour tuples in ascending order, as
``NeighborComplex.neighbors`` holds them; bridges, cut vertices and
biconnected blocks all follow from its three lists.  Exact mode reads
the blocks off them with ``biconnected_blocks``, and scores a graph
whose blocks are all complete in closed form.

``split_pieces`` reads the bridges and the pieces off the search forest
in one preorder pass, a piece being a component, of at least three
vertices, of the graph minus its bridges.  It lays them out for the
sampled walk: a cycle piece is scored in closed form, another piece of
at most ``PIECE_LIMIT`` vertices by lookups in its own subset table,
filled once, and a larger one by the union-find walk over its own
compact neighbour tuples.  Small pieces with fewer than ``LOOKUP_MIN``
vertices in all are walked too, since the lookup's fixed cost per order
would outweigh it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

# The largest piece scored by table lookups: its table holds 2^12 int8
# entries, 4 KiB, under 342 bytes per vertex.  Larger pieces are walked.
PIECE_LIMIT = 12

# Fewer vertices than this in all the small pieces that are not cycles
# are walked instead: the lookup costs about ten numpy calls per order
# whatever its size.  On K4s joined by bridges the walk costs as much at
# 16-24 vertices, and half as much again at 32.
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
    """The bridges and pieces of a graph as the sampled walk reads them.

    Scored in closed form, the bridges and the cycle pieces:

    - ``closed``, a (2, b + c) int64 array with one column per edge: the
      b bridges, parent then child in the search forest, the children
      ascending, then the c edges of the cycle pieces;
    - ``bridges``, its first b columns;
    - ``cycles``, the cycle pieces' vertices, int64, piece by piece;
    - ``cycle_starts``, where each cycle piece starts in ``cycles``.

    Looked up, the other pieces of at most PIECE_LIMIT vertices when they
    hold at least LOOKUP_MIN vertices in all, each numbered locally in
    ascending order, and their vertices:

    - ``members``, an int64 array with one column per piece: row j holds
      its local vertex j, and the rows past its size hold n, a place
      after every vertex;
    - ``row_bits``, 2^j in row j, as an int64 column;
    - ``tables``, the pieces' int8 subset tables, end to end;
    - ``looked``, the pieces' vertices, int64;
    - ``piece``, the column of each looked-up vertex's piece;
    - ``base``, two int64 rows: where its piece's table starts in
      ``tables``, and that plus 2^(its local index).

    Walked, the vertices of the pieces left:

    - ``walked``, those vertices, ascending, int64;
    - ``walk_local``, an int64 array holding v's index in ``walked``, or -1;
    - ``walk_neighbors``, for each vertex of ``walked`` its cycle-edge
      neighbours as indices into ``walked``, ascending.
    """

    bridges: np.ndarray
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


def split_pieces(
    neighbors: Sequence[Sequence[int]],
    table: Callable[[tuple[int, ...]], np.ndarray],
) -> Pieces:
    """The :class:`Pieces` of the graph with these neighbour tuples.

    A tree edge (p, v) of :func:`lowlinks` is a bridge iff nothing in
    v's subtree reaches back to p or above, low[v] > disc[p]; no other
    edge is one.  So in preorder each vertex takes its parent's head, or
    heads itself at a root or below a bridge (Tarjan 1974): a piece is
    the vertices sharing a head, if two or more, and a cycle edge is an
    edge whose ends share one.

    A piece is connected, so when each of its vertices has two
    neighbours in it, it is a simple cycle of any length, a cycle piece:
    it gets neither a table nor the walk.

    ``table(rows)`` returns the int8 subset table of the graph on 0..k-1
    whose adjacency sets are the k-bit ``rows``.  It runs once per other
    piece of at most PIECE_LIMIT vertices, after the search's lists are
    freed, and its result is copied into ``tables`` at once, so no more
    than one piece's table is alive beside them.  When those pieces hold
    fewer than LOOKUP_MIN vertices in all, they are walked with the others.
    """
    n = len(neighbors)
    disc, parent, low = lowlinks(neighbors)
    head = list(range(n))
    for v in sorted(range(n), key=disc.__getitem__):
        if (p := parent[v]) >= 0 and low[v] <= disc[p]:
            head[v] = head[p]
    children = [v for v, p in enumerate(parent) if p >= 0 and head[v] == v]
    firsts, seconds = [parent[v] for v in children], list(children)
    del disc, parent, low

    def inner(v: int) -> list[int]:
        """v's neighbours sharing its head, ascending."""
        return [w for w in neighbors[v] if head[w] == head[v]]

    grouped: dict[int, list[int]] = {}
    for v, h in enumerate(head):
        grouped.setdefault(h, []).append(v)
    cycles, rest = [], []
    for piece in grouped.values():
        if len(piece) > 1:
            (cycles if all(len(inner(v)) == 2 for v in piece) else rest).append(piece)
    for u, w in ((u, w) for piece in cycles for u in piece for w in inner(u) if u < w):
        firsts.append(u)
        seconds.append(w)
    closed = np.array([firsts, seconds], dtype=np.int64)
    del firsts, seconds
    small = [piece for piece in rest if len(piece) <= PIECE_LIMIT]
    if sum(map(len, small)) < LOOKUP_MIN:
        small = []
    large = [piece for piece in rest if not small or len(piece) > PIECE_LIMIT]
    width = max(map(len, small), default=0)
    members = np.full((width, len(small)), n, dtype=np.int64)
    tables = np.empty(sum(1 << len(piece) for piece in small), dtype=np.int8)
    looked = np.array([v for piece in small for v in piece], dtype=np.int64)
    piece_of = np.empty_like(looked)
    base = np.empty((2, len(looked)), dtype=np.int64)
    start = stop = 0
    for column, piece in enumerate(small):
        k = len(piece)
        number = {v: j for j, v in enumerate(piece)}
        tables[start : start + (1 << k)] = table(tuple(
            sum(1 << number[w] for w in inner(v)) for v in piece
        ))
        members[:k, column] = looked[stop : stop + k]
        piece_of[stop : stop + k] = column
        base[:, stop : stop + k] = start + [[0], [1]] * (1 << np.arange(k))
        start += 1 << k
        stop += k
    kept = sorted(v for piece in large for v in piece)
    index = {v: j for j, v in enumerate(kept)}
    walk_local = np.full(n, -1, dtype=np.int64)
    walk_local[kept] = np.arange(len(kept))
    return Pieces(
        bridges=closed[:, : len(children)],
        closed=closed,
        cycles=np.array([v for piece in cycles for v in piece], dtype=np.int64),
        cycle_starts=np.cumsum([0, *map(len, cycles)][:-1], dtype=np.int64),
        members=members,
        row_bits=1 << np.arange(width, dtype=np.int64)[:, None],
        tables=tables,
        looked=looked,
        piece=piece_of,
        base=base,
        walked=np.array(kept, dtype=np.int64),
        walk_local=walk_local,
        walk_neighbors=tuple(tuple(index[w] for w in inner(v)) for v in kept),
    )
