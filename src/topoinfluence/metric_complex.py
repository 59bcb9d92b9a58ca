"""Point sets, metrics, and the neighbor complex built from them.

A dataset here is an ordered list of samples: symbol strings, numeric
vectors, or opaque ids whose pairwise distances were precomputed.  Fixing
a metric and a resolution ``r`` induces a graph on the samples with an
edge joining ``i`` and ``j`` whenever ``d(i, j) <= r``.  Everything
downstream (component counting, influence attribution) operates on that
graph, so only the 1-skeleton is ever materialized; higher simplices can
never change a component count.

The edge rule is ``d <= r`` with the radius taken verbatim, not ``d <= 2r``
as a ball-intersection nerve would give.  The worked examples that pin the
rest of the pipeline (unit-resolution string sets joined exactly at edit
distance 1) require the verbatim rule, so it is the contract here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError

# Precomputed matrices may be written with small round-trip noise; anything
# asymmetric beyond this is rejected rather than silently symmetrized.
SYMMETRY_TOLERANCE = 1e-9

Vector = tuple[float, ...]


@dataclass(frozen=True)
class LabeledPointSet:
    """Ordered, immutable collection of samples with display labels.

    Indices 0..n-1 are stable for the whole run; every result vector
    downstream is aligned with them.
    """

    items: tuple
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.items) == 0:
            raise InputError("point set must be nonempty")
        if len(self.labels) != len(self.items):
            raise InputError(
                f"{len(self.labels)} labels for {len(self.items)} items"
            )

    def __len__(self) -> int:
        return len(self.items)

    @property
    def kind(self) -> str:
        """'strings' when every item is a str, 'vectors' when numeric."""
        if all(isinstance(x, str) for x in self.items):
            return "strings"
        if all(isinstance(x, tuple) for x in self.items):
            return "vectors"
        return "mixed"

    @classmethod
    def from_strings(
        cls, strings: Sequence[str], labels: Sequence[str] | None = None
    ) -> "LabeledPointSet":
        items = tuple(str(s) for s in strings)
        if labels is None:
            labels = items
        return cls(items=items, labels=tuple(labels))

    @classmethod
    def from_vectors(
        cls, vectors: Sequence[Sequence[float]], labels: Sequence[str] | None = None
    ) -> "LabeledPointSet":
        items = tuple(tuple(float(x) for x in v) for v in vectors)
        if labels is None:
            labels = tuple(str(i) for i in range(len(items)))
        return cls(items=items, labels=tuple(labels))


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs.

    Total function: any pair of strings is accepted, the empty string
    included.  Symmetric, zero exactly when the strings are equal.
    """
    if a == b:
        return 0
    # Keep the shorter string on the row axis: memory is O(min(len)).
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def hamming_distance(u: Vector, v: Vector) -> int:
    if len(u) != len(v):
        raise InputError("hamming distance requires equal-length vectors")
    return sum(1 for a, b in zip(u, v) if a != b)


def euclidean_distance(u: Vector, v: Vector) -> float:
    if len(u) != len(v):
        raise InputError("euclidean distance requires equal-length vectors")
    return math.dist(u, v)


class DistanceMatrix:
    """Symmetric nonnegative pairwise distances over n labeled samples.

    The triangle inequality is deliberately NOT checked: precomputed
    matrices may violate it and nothing downstream relies on it.
    Asymmetry beyond ``SYMMETRY_TOLERANCE`` is an error; within tolerance
    the upper-triangle entry governs both directions.
    """

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError(f"distance matrix must be square, got {arr.shape}")
        if arr.shape[0] == 0:
            raise InputError("distance matrix must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise InputError("distance matrix contains non-finite entries")
        if np.any(arr < 0):
            raise InputError("distance matrix contains negative entries")
        if np.any(np.abs(np.diagonal(arr)) > SYMMETRY_TOLERANCE):
            raise InputError("distance matrix diagonal must be zero")
        skew = np.max(np.abs(arr - arr.T)) if arr.size else 0.0
        if skew > SYMMETRY_TOLERANCE:
            raise InputError(
                f"distance matrix asymmetric by {skew:.3g} "
                f"(tolerance {SYMMETRY_TOLERANCE:g}); refusing to symmetrize"
            )
        # Mirror the upper triangle so boundary comparisons d <= r cannot
        # disagree between (i, j) and (j, i).
        mirrored = np.triu(arr, k=1)
        mirrored = mirrored + mirrored.T
        mirrored.flags.writeable = False
        self._values = mirrored

    @property
    def n(self) -> int:
        return self._values.shape[0]

    @property
    def values(self) -> np.ndarray:
        return self._values


# Metric name -> (distance function, the kind of input it reads).  The
# ``precomputed`` metric has no function: its input is the matrix itself.
METRICS = {
    "edit": (edit_distance, "strings"),
    "hamming": (hamming_distance, "vectors"),
    "euclidean": (euclidean_distance, "vectors"),
    "precomputed": (None, "matrix"),
}


def build_distance_matrix(points: LabeledPointSet, metric: str) -> DistanceMatrix:
    """Evaluate the metric on all O(n^2) pairs.

    Each metric of ``METRICS`` applies to one item kind.  Mixed item
    kinds or a metric/kind mismatch raise InputError.  Precomputed
    matrices do not pass through here: load them with
    :func:`topoinfluence.loaders.load_matrix` instead.
    """
    kind = points.kind
    if kind == "mixed":
        raise InputError("point set mixes strings and vectors")
    if metric not in METRICS:
        raise InputError(f"unknown metric {metric!r}")
    fn, wanted = METRICS[metric]
    if fn is None:
        raise InputError(
            "precomputed distances must be loaded as a matrix, not rebuilt"
        )
    if kind != wanted:
        # "strings" -> "string items", "vectors" -> "vector items"
        raise InputError(f"{metric} metric applies to {wanted[:-1]} items only")

    n = len(points)
    d = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = fn(points.items[i], points.items[j])
    return DistanceMatrix(d)


@dataclass(frozen=True)
class NeighborComplex:
    """Graph realizing the neighbor complex at a fixed resolution.

    ``rows[i]`` is an n-bit adjacency set (bit j set iff i ~ j).  The
    structure is immutable; ``source`` names the generator that made it,
    for the comment line of an emitted edge list.
    """

    n: int
    rows: tuple[int, ...]
    source: str = ""

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise InputError("complex needs at least one vertex")
        if len(self.rows) != self.n:
            raise InputError("one adjacency row per vertex required")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise InputError(f"adjacency row {i} has bits outside 0..n-1")
            if row >> i & 1:
                raise InputError(f"self-loop on vertex {i}")
        # Every set bit j of row i needs bit i of row j: O(n + m) checks.
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                j = low.bit_length() - 1
                if not self.rows[j] >> i & 1:
                    raise InputError(
                        f"adjacency not symmetric at ({min(i, j)}, {max(i, j)})"
                    )
                row ^= low

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            row = self.rows[i] >> (i + 1) << (i + 1)  # only j > i
            while row:
                low = row & -row
                yield i, low.bit_length() - 1
                row ^= low

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Sequence[tuple[int, int]],
        source: str = "edges",
    ) -> "NeighborComplex":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                continue  # self-loops carry no component information
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n=n, rows=tuple(rows), source=source)


def build_complex(dm: DistanceMatrix, r: float) -> NeighborComplex:
    """Threshold the distance matrix: edge (i, j) present iff d(i, j) <= r.

    The comparison is an exact ``<=`` on the stored float, which is exact
    for integer metrics (edit, hamming).  Deterministic for equal inputs.
    """
    if not math.isfinite(r) or r < 0:
        raise InputError(f"resolution must be a finite nonnegative real, got {r}")
    close = dm.values <= r
    np.fill_diagonal(close, False)
    # Byte k of a packed row holds bits 8k..8k+7, lowest first: read
    # little-endian, the row is its adjacency bitset.
    packed = np.packbits(close, axis=1, bitorder="little")
    rows = tuple(int.from_bytes(row, "little") for row in packed)
    return NeighborComplex(n=dm.n, rows=rows)
