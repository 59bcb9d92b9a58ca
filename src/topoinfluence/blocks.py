"""Bridges and cycle edges of a graph, from one depth-first search.

An edge is a bridge when no cycle uses it: deleting it splits a
component in two.  ``lowlinks`` runs the search of Hopcroft & Tarjan
(1973) once, iteratively, and ``cycle_split`` reads the bridges off it
and lists what remains, the cycle edges, in the form the sampled walk
reads.  Cut vertices and biconnected blocks follow from the same three
lists.  Both work on neighbour tuples, ``neighbors[v]`` holding v's
neighbours in ascending order, as ``NeighborComplex.neighbors`` does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


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
