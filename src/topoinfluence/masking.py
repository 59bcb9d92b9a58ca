"""Influence-guided node masking against a component-count oracle.

The experiment: draw random graphs labeled by their component count,
rank each graph's vertices by influence, delete the top-J, bottom-J,
and a random J of them, and ask how often each deletion changes the
label.  If influence scores mean anything, removing the most
influential vertices should disturb the label most and the least
influential ones least, with random deletion in between.

Labels come from exact component counts.  A draw's label is counted on
its edges, and a complex is built only for a draw that is kept; a draw
with too few edges for any class that still has room is not counted at
all.  A masked graph's label is counted on the parent graph restricted
to its surviving vertices, with no reindexed copy built.  Each ranked
graph is walked twice, in its ranking's order and in reverse, and every
top-J and bottom-J label is read off those two walks; only random masks
are walked one by one.  Each graph's labels depend on its own Philox
blocks alone, so a long run splits its graphs, in contiguous index
ranges, over forked processes pinned one to each usable CPU
(``topoinfluence.parallel``), with the same rows for any split.  No
learned classifier stands in the loop, so the measured quantity is
ground-truth label disruption, not model accuracy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .engine import compute_influence
from .errors import GenerationBudgetError, InputError
from .families import _er_edges
from .homology import betti0, component_changes
from .metric_complex import NeighborComplex
from .streams import philox_block

VARIANTS = ("top", "bottom", "random")

# Rejection sampling gives up after this many draws per requested graph.
ATTEMPTS_PER_GRAPH = 2000


@dataclass(frozen=True)
class LabeledGraph:
    """A random graph with its oracle label (component count, 1..3)."""

    graph: NeighborComplex
    label: int


class MaskRow(NamedTuple):
    """One masking outcome: graph index, masked variant, label movement.

    A plain named tuple: it compares equal to the tuple of its fields.
    """

    graph: int
    n: int
    j: int
    variant: str
    label_before: int
    label_after: int

    @property
    def flipped(self) -> bool:
        return self.label_after != self.label_before


@dataclass(frozen=True)
class MaskingReport:
    """Aggregated flip rates plus the per-graph rows they came from.

    Every rate reads one tally of the rows by (J, variant), counted on
    first read and cached; it is not a field, so equality and hashing see
    the fields alone.
    """

    graph_count: int
    j_values: tuple[int, ...]
    rows: tuple[MaskRow, ...] = field(default_factory=tuple)

    @cached_property
    def _tally(self) -> Counter:
        """(J, variant, flipped) -> rows, counted in one pass over the rows."""
        return Counter((r.j, r.variant, r.flipped) for r in self.rows)

    def rate(self, j: int, variant: str) -> float:
        flips = self._tally[j, variant, True]
        rows = flips + self._tally[j, variant, False]
        if not rows:
            raise InputError(f"no rows for J={j} variant={variant!r}")
        return flips / rows


def generate_er_dataset(
    count: int,
    n_range: tuple[int, int] = (8, 14),
    p_range: tuple[float, float] = (0.02, 0.21),
    seed: int = 0,
) -> list[LabeledGraph]:
    """Rejection-sample random graphs into three near-equal label classes.

    Each attempt draws a vertex count uniformly from ``n_range``, an edge
    probability uniformly from ``p_range``, then the graph's edges; it is
    kept only if its component count is 1, 2, or 3 and that class still
    has room.  Each edge joins at most two components, so n vertices and
    m edges have at least n - m: a draw whose n - m exceeds the largest
    class with room is refused on its edge count, unwalked.  Any other
    draw is counted by the union-find walk of
    :func:`~topoinfluence.homology.component_changes` over neighbour
    lists built from the edges, and the graph's complex is built only
    once the draw is kept.  Class quotas differ by at most one when
    count is not a multiple of three.  Deterministic per seed: attempt j
    uses its own counter block of a Philox stream, so accepted graphs do
    not depend on how earlier attempts were rejected.  GenerationBudgetError comes
    when the budget of draws runs out, or before the first draw when the
    ranges rule a class out.
    """
    if count < 3:
        raise InputError(f"need at least 3 graphs for 3 classes, got {count}")
    n_lo, n_hi = n_range
    p_lo, p_hi = p_range
    if not (1 <= n_lo <= n_hi):
        raise InputError(f"bad vertex range {n_range}")
    if not (0.0 <= p_lo <= p_hi <= 1.0):
        raise InputError(f"bad probability range {p_range}")

    # Refuse, before any draw, a class no draw can reach: n vertices have
    # at most n components, exactly 1 at p = 1 and exactly n at p = 0.
    unreachable = [
        c for c in (1, 2, 3)
        if c > n_hi or (p_lo == 1.0 and c > 1) or (p_hi == 0.0 and c < n_lo)
    ]
    if unreachable:
        raise GenerationBudgetError(
            f"no draw can give {unreachable[0]} components; "
            f"widen n_range={n_range} or p_range={p_range}"
        )

    base, extra = divmod(count, 3)
    quota = {c: base + (1 if c <= extra else 0) for c in (1, 2, 3)}
    filled: dict[int, int] = {1: 0, 2: 0, 3: 0}
    dataset: list[LabeledGraph] = []
    budget = count * ATTEMPTS_PER_GRAPH

    room = 3  # the largest class with room: every quota is at least 1
    attempt, rng = 0, None
    while len(dataset) < count and attempt < budget:
        rng = philox_block(seed, attempt, rng)
        attempt += 1
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(p_lo, p_hi))
        edges = _er_edges(rng, n, p)
        if n - len(edges) > room:
            continue
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        label = sum(component_changes(neighbors, range(n)))
        if label in quota and filled[label] < quota[label]:
            filled[label] += 1
            room = max((c for c in quota if filled[c] < quota[c]), default=0)
            graph = NeighborComplex.from_edges(n, edges)
            dataset.append(LabeledGraph(graph=graph, label=label))
    if len(dataset) < count:
        raise GenerationBudgetError(
            f"after {budget} attempts classes filled {filled} of {quota}; "
            f"widen n_range={n_range} or p_range={p_range}"
        )
    return dataset


def rank_nodes(graph: NeighborComplex) -> list[int]:
    """Vertices sorted by exact influence, highest first, ties by index.

    The scores sort in the order of ``mu``, their quotients by a positive
    total, so ``mu`` is never built.  Nor are Fractions compared: each
    score sorts by its numerator over the scores' least common
    denominator, an int.  The sort is stable under ``reverse=True``, so
    tied vertices keep their index order.
    """
    scores = compute_influence(graph).shapley
    common = math.lcm(*(s.denominator for s in scores))
    keys = [s.numerator * (common // s.denominator) for s in scores]
    return sorted(range(graph.n), key=keys.__getitem__, reverse=True)


def mask_nodes(graph: NeighborComplex, vertices: set[int]) -> NeighborComplex:
    """Induced subgraph on the complement of ``vertices``, reindexed.

    Survivors keep their relative order.  Removing every vertex is
    refused: the empty graph has no component count to compare.  The
    experiment itself labels ``betti0(graph, keep)`` on the parent graph
    and never builds this copy.
    """
    for v in vertices:
        if not 0 <= v < graph.n:
            raise InputError(f"vertex {v} outside 0..{graph.n - 1}")
    keep = [v for v in range(graph.n) if v not in vertices]
    if not keep:
        raise InputError("masking every vertex leaves nothing to label")
    position = {v: i for i, v in enumerate(keep)}
    edges = [
        (position[u], position[v])
        for u, v in graph.edges()
        if u in position and v in position
    ]
    return NeighborComplex.from_edges(len(keep), edges)


def run_masking_experiment(
    dataset: list[LabeledGraph],
    j_values: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
) -> MaskingReport:
    """Mask top/bottom/random J vertices of every graph; record label flips.

    The influence ranking is computed once per graph and shared by all J.
    Each masked label is b0 of the parent graph restricted to the
    vertices outside the mask.  b0 of a vertex set does not depend on the
    order in which a walk adds them, and the bottom J come last in the
    ranking, the top J last in its reverse.  So two walks of
    :func:`~topoinfluence.homology.component_changes` per graph, one in
    each order, give every top-J and bottom-J label: b0 of the graph
    minus the summed changes of the masked vertices in the walk where
    they come last.  Only random masks call :func:`betti0`, once per J:
    2 + |J| walks per graph.  Random masks for graph g at level J come
    from a Philox block keyed by the experiment seed and indexed by
    (g, J), so any single cell of the experiment can be replayed alone.

    Graph g's labels are added cell by cell into row g of an int64 array
    of shape (graphs, |J|, 3), so the graphs can be walked in any
    grouping: :func:`~topoinfluence.parallel.sum_blocks` walks them in
    timed chunks and, once it predicts enough walking left, splits the
    graphs left into contiguous ranges over forked processes, one per
    usable CPU, adding their arrays in.  The rows are then built from the
    array in graph, J and variant order, the same for any split.
    """
    # Imported here for the reason ``engine.sampled_shapley`` gives.
    from . import parallel

    if not dataset:
        raise InputError("empty dataset")
    min_n = min(item.graph.n for item in dataset)
    for j in j_values:
        if not 0 <= j < min_n:
            raise InputError(
                f"J={j} outside 0..{min_n - 1}: the smallest graph has {min_n} vertices"
            )
    labels = np.zeros((len(dataset), len(j_values), len(VARIANTS)), dtype=np.int64)
    rng = None

    def walk(graphs: range, totals: np.ndarray) -> None:
        nonlocal rng
        for g_index in graphs:
            graph = dataset[g_index].graph
            ranking = rank_nodes(graph)
            # Changes as each vertex joins: top-ranked last, then bottom-ranked last.
            top_last = component_changes(graph.neighbors, ranking[::-1])
            bottom_last = component_changes(graph.neighbors, ranking)
            b0 = sum(bottom_last)
            full = (1 << graph.n) - 1
            for cell, j in zip(totals[g_index], j_values):
                rng = philox_block(seed, (g_index << 20) | j, rng)
                drawn = rng.choice(graph.n, size=j, replace=False).tolist()
                cell += (
                    b0 - sum(top_last[v] for v in ranking[:j]),
                    b0 - sum(bottom_last[v] for v in ranking[graph.n - j:]),
                    betti0(graph, full & ~sum(1 << v for v in drawn)),
                )

    parallel.sum_blocks(walk, 0, len(dataset), labels)
    rows = tuple(
        MaskRow(g_index, item.graph.n, j, variant, item.label, label)
        for g_index, (item, cells) in enumerate(zip(dataset, labels.tolist()))
        for j, cell in zip(j_values, cells)
        for variant, label in zip(VARIANTS, cell)
    )
    return MaskingReport(
        graph_count=len(dataset),
        j_values=tuple(j_values),
        rows=rows,
    )
