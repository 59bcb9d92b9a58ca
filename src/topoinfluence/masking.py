"""Influence-guided node masking against a component-count oracle.

The experiment: draw random graphs labeled by their component count,
rank each graph's vertices by influence, delete the top-J, bottom-J,
and a random J of them, and ask how often each deletion changes the
label.  If influence scores mean anything, removing the most
influential vertices should disturb the label most and the least
influential ones least, with random deletion in between.

Labels come from the exact component count of each masked graph,
counted on the parent graph restricted to its surviving vertices, with
no reindexed copy built.  No learned classifier stands in the loop, so
the measured quantity is ground-truth label disruption, not model
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import compute_influence
from .errors import GenerationBudgetError, InputError
from .families import _er_edges
from .homology import betti0
from .metric_complex import NeighborComplex

VARIANTS = ("top", "bottom", "random")

# Rejection sampling gives up after this many draws per requested graph.
ATTEMPTS_PER_GRAPH = 2000


@dataclass(frozen=True)
class LabeledGraph:
    """A random graph with its oracle label (component count, 1..3)."""

    graph: NeighborComplex
    label: int


@dataclass(frozen=True)
class MaskRow:
    """One masking outcome: graph index, masked variant, label movement."""

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
    """Aggregated flip rates plus the per-graph rows they came from."""

    graph_count: int
    j_values: tuple[int, ...]
    rows: tuple[MaskRow, ...] = field(default_factory=tuple)

    def rate(self, j: int, variant: str) -> float:
        hits = [r for r in self.rows if r.j == j and r.variant == variant]
        if not hits:
            raise InputError(f"no rows for J={j} variant={variant!r}")
        return sum(r.flipped for r in hits) / len(hits)


def generate_er_dataset(
    count: int,
    n_range: tuple[int, int] = (8, 14),
    p_range: tuple[float, float] = (0.02, 0.21),
    seed: int = 0,
) -> list[LabeledGraph]:
    """Rejection-sample random graphs into three near-equal label classes.

    Each attempt draws a vertex count uniformly from ``n_range``, an edge
    probability uniformly from ``p_range``, then the graph itself; it is
    kept only if its component count is 1, 2, or 3 and that class still
    has room.  Class quotas differ by at most one when count is not a
    multiple of three.  Deterministic per seed: attempt j uses its own
    counter block of a Philox stream, so accepted graphs do not depend
    on how earlier attempts were rejected.
    """
    if count < 3:
        raise InputError(f"need at least 3 graphs for 3 classes, got {count}")
    n_lo, n_hi = n_range
    p_lo, p_hi = p_range
    if not (1 <= n_lo <= n_hi):
        raise InputError(f"bad vertex range {n_range}")
    if not (0.0 <= p_lo <= p_hi <= 1.0):
        raise InputError(f"bad probability range {p_range}")

    base, extra = divmod(count, 3)
    quota = {c: base + (1 if c <= extra else 0) for c in (1, 2, 3)}
    filled: dict[int, int] = {1: 0, 2: 0, 3: 0}
    dataset: list[LabeledGraph] = []
    budget = count * ATTEMPTS_PER_GRAPH

    attempt = 0
    while len(dataset) < count and attempt < budget:
        rng = np.random.Generator(np.random.Philox(key=seed, counter=attempt << 64))
        attempt += 1
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(p_lo, p_hi))
        graph = NeighborComplex.from_edges(n, _er_edges(rng, n, p))
        label = betti0(graph)
        if label in quota and filled[label] < quota[label]:
            filled[label] += 1
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
    total, so ``mu`` is never built.
    """
    scores = compute_influence(graph).shapley
    return sorted(range(graph.n), key=lambda i: (-scores[i], i))


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
    vertices outside the mask.  Random masks for graph g at level J come
    from a Philox block keyed by the experiment seed and indexed by
    (g, J), so any single cell of the experiment can be replayed alone.
    """
    if not dataset:
        raise InputError("empty dataset")
    min_n = min(item.graph.n for item in dataset)
    for j in j_values:
        if not 0 <= j < min_n:
            raise InputError(
                f"J={j} must be smaller than the smallest graph ({min_n})"
            )
    rows: list[MaskRow] = []
    for g_index, item in enumerate(dataset):
        graph, before = item.graph, item.label
        ranking = rank_nodes(graph)
        full = (1 << graph.n) - 1
        for j in j_values:
            rng = np.random.Generator(
                np.random.Philox(key=seed, counter=((g_index << 20) | j) << 64)
            )
            picks = {
                "top": ranking[:j],
                "bottom": ranking[graph.n - j:],
                "random": rng.choice(graph.n, size=j, replace=False).tolist(),
            }
            for variant in VARIANTS:
                removed = sum(1 << v for v in picks[variant])
                label = betti0(graph, full & ~removed)
                rows.append(MaskRow(g_index, graph.n, j, variant, before, label))
    return MaskingReport(
        graph_count=len(dataset),
        j_values=tuple(j_values),
        rows=tuple(rows),
    )
