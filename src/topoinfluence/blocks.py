"""Bridges, cycle edges and the pieces they form, from one depth-first search.

An edge is a bridge when no cycle uses it: deleting it splits a
component in two.  ``lowlinks`` runs the search of Hopcroft & Tarjan
(1973) once, iteratively, and ``cycle_split`` reads the bridges off it
and lists what remains, the cycle edges.  Cut vertices and biconnected
blocks follow from the same three lists.  Both work on neighbour
tuples, ``neighbors[v]`` holding v's neighbours in ascending order, as
``NeighborComplex.neighbors`` does.

The cycle edges fall into pieces: the components, of at least three
vertices each, of the graph minus its bridges.  ``split_pieces`` finds
them in one pass over the cycle-edge tuples and lays them out for the
sampled walk: a piece of at most ``PIECE_LIMIT`` vertices is scored by
lookups in its own subset table, filled once, and a larger one by the
union-find walk over its own compact neighbour tuples.  Small pieces
with fewer than ``LOOKUP_MIN`` vertices in all are walked too, since
the lookup's fixed cost per order would outweigh it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

# The largest piece scored by table lookups: its table holds 2^12 int8
# entries, 4 KiB, under 342 bytes per vertex.  Larger pieces are walked.
PIECE_LIMIT = 12

# Fewer vertices than this in all the small pieces are walked instead:
# the lookup costs about ten numpy calls per order whatever its size,
# which is what the walk spends on some 24-40 vertices of triangles or
# K4s.
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


def cycle_split(
    neighbors: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """The edges split by whether any cycle uses them, as a tuple of

    - ``bridges``, a (2, b) int64 array with one column per bridge;
    - ``cyclic``, the vertices with at least one cycle edge, ascending,
      as int64;
    - ``local``, an int64 array holding v's index in ``cyclic``, or -1;
    - ``cycle_neighbors``, for each vertex of ``cyclic`` its cycle-edge
      neighbours as indices into ``cyclic``, ascending.

    A tree edge (parent p, child v) of :func:`lowlinks` is a bridge iff
    nothing in v's subtree reaches back to p or above, low[v] > disc[p];
    no other edge is one.
    """
    n = len(neighbors)
    disc, parent, low = lowlinks(neighbors)
    # cut[v]: the tree edge from v up to its parent is a bridge.
    cut = [p >= 0 and low[v] > disc[p] for v, p in enumerate(parent)]
    children = [v for v in range(n) if cut[v]]
    bridged = [0] * n
    for v in children:
        bridged[v] += 1
        bridged[parent[v]] += 1
    cyclic = [v for v in range(n) if len(neighbors[v]) > bridged[v]]
    local = [-1] * n
    for k, v in enumerate(cyclic):
        local[v] = k
    return (
        np.array([[parent[v] for v in children], children], dtype=np.int64),
        np.array(cyclic, dtype=np.int64),
        np.array(local, dtype=np.int64),
        tuple(
            tuple(
                local[w] for w in neighbors[v]
                if not (cut[w] and parent[w] == v or cut[v] and parent[v] == w)
            )
            for v in cyclic
        ),
    )


class Pieces(NamedTuple):
    """The pieces of a graph as the sampled walk reads them.

    Looked up, the pieces of at most PIECE_LIMIT vertices when they hold
    at least LOOKUP_MIN vertices in all, each numbered locally in
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

    Walked, the vertices of the other pieces:

    - ``walked``, those vertices, ascending, int64;
    - ``walk_local``, an int64 array holding v's index in ``walked``, or -1;
    - ``walk_neighbors``, for each vertex of ``walked`` its cycle-edge
      neighbours as indices into ``walked``, ascending.
    """

    members: np.ndarray
    row_bits: np.ndarray
    tables: np.ndarray
    looked: np.ndarray
    piece: np.ndarray
    base: np.ndarray
    walked: np.ndarray
    walk_local: np.ndarray
    walk_neighbors: tuple[tuple[int, ...], ...]


def components(neighbors: Sequence[Sequence[int]]) -> list[list[int]]:
    """The vertex sets of the components of the graph on 0..n-1, each
    ascending, in the order of their smallest vertices."""
    seen = [False] * len(neighbors)
    found = []
    for root, done in enumerate(seen):
        if done:
            continue
        seen[root] = True
        members = [root]
        for v in members:  # grows while it is read: a breadth-first search
            for w in neighbors[v]:
                if not seen[w]:
                    seen[w] = True
                    members.append(w)
        found.append(sorted(members))
    return found


def split_pieces(
    split: tuple[np.ndarray, np.ndarray, np.ndarray, tuple],
    table: Callable[[tuple[int, ...]], np.ndarray],
) -> Pieces:
    """The :class:`Pieces` of the graph with this :func:`cycle_split`.

    ``table(rows)`` returns the int8 subset table of the graph on 0..k-1
    whose adjacency sets are the k-bit ``rows``.  It runs once per piece
    of at most PIECE_LIMIT vertices, and its result is copied into
    ``tables`` at once, so no more than one piece's table is alive
    beside them.  When those pieces hold fewer than LOOKUP_MIN vertices
    in all, every piece is walked, over the split's own cycle edges.
    """
    _, cyclic, local, cycle_neighbors = split
    small, large = [], []
    for piece in components(cycle_neighbors):
        (small if len(piece) <= PIECE_LIMIT else large).append(piece)
    if sum(map(len, small)) < LOOKUP_MIN:
        small = []
    width = max(map(len, small), default=0)
    members = np.full((width, len(small)), len(local), dtype=np.int64)
    tables = np.empty(sum(1 << len(piece) for piece in small), dtype=np.int8)
    looked = np.concatenate([cyclic[piece] for piece in small] or [cyclic[:0]])
    piece_of = np.empty_like(looked)
    base = np.empty((2, len(looked)), dtype=np.int64)
    start = stop = 0
    for column, piece in enumerate(small):
        k = len(piece)
        number = {v: j for j, v in enumerate(piece)}
        rows = tuple(sum(1 << number[w] for w in cycle_neighbors[v]) for v in piece)
        tables[start : start + (1 << k)] = table(rows)
        members[:k, column] = looked[stop : stop + k]
        piece_of[stop : stop + k] = column
        base[:, stop : stop + k] = start
        base[1, stop : stop + k] += 1 << np.arange(k)
        start += 1 << k
        stop += k
    if not small:
        walked, walk_local, walk_neighbors = cyclic, local, cycle_neighbors
    else:
        kept = sorted(v for piece in large for v in piece)
        index = {v: j for j, v in enumerate(kept)}
        walked = cyclic[kept]
        walk_local = np.full_like(local, -1)
        walk_local[walked] = np.arange(len(kept))
        walk_neighbors = tuple(tuple(index[w] for w in cycle_neighbors[v]) for v in kept)
    return Pieces(
        members=members,
        row_bits=1 << np.arange(width, dtype=np.int64)[:, None],
        tables=tables,
        looked=looked,
        piece=piece_of,
        base=base,
        walked=walked,
        walk_local=walk_local,
        walk_neighbors=walk_neighbors,
    )
