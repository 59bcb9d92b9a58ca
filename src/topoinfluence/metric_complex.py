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

Vector coordinates must be finite: ``nan != nan`` would put two equal
vectors apart.  The edit metric has one implementation, a Levenshtein
kernel vectorized across string pairs (see :func:`build_distance_matrix`);
``edit_distance`` is its one-pair call.  The scalar dynamic program it is
tested against lives in ``tests/oracles.py``.
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

# The edit kernel runs its row recurrence over a chunk of string pairs at
# once.  A chunk's lanes times its row length (longest string + 1) stay
# within EDIT_CHUNK_CELLS, so each int32 temporary of a pass stays near a
# quarter megabyte however many strings there are.
EDIT_CHUNK_CELLS = 1 << 16

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
        for i, v in enumerate(items):
            if not all(map(math.isfinite, v)):
                raise InputError(f"vector {i} has a non-finite coordinate")
        if labels is None:
            labels = tuple(str(i) for i in range(len(items)))
        return cls(items=items, labels=tuple(labels))


def _encode(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(code points, start offsets, lengths): the strings' code points
    back to back as int32, with one trailing zero so that padded reads
    past the last string stay in range."""
    joined = "".join(strings) + "\0"
    codes = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype="<i4")
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    return codes, offsets, lengths


def _padded(codes: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """One row of ``width`` code points per start.  Cells past a string's
    end hold whatever follows it; the recurrence never reads them into a
    cell it reports."""
    cells = starts[:, None] + np.arange(width)
    return codes[np.minimum(cells, len(codes) - 1, out=cells)]


def _levenshtein(
    codes: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    shorter: np.ndarray,
    longer: np.ndarray,
) -> np.ndarray:
    """Edit distance of each lane, the strings ``shorter[k]`` and
    ``longer[k]`` of :func:`_encode`'s arrays, as int32.

    Lanes must be sorted by ``lengths[shorter]``, and no shorter string
    may be longer than its partner.  Wagner-Fischer row recurrence, one
    numpy pass per character of the shorter strings across all lanes at
    once.  With cur[j] the distance between a[:i] and b[:j], the pass
    stores u[j] = cur[j] - j, so that
    ``t[0] = i``, ``t[j] = min(u_prev[j] + 1, u_prev[j-1] - [a_i == b_j])``
    and the insertions close with a prefix minimum,
    ``u = minimum.accumulate(t)``.  A lane is read out at its own
    (len a, len b) once row len a is done, and then leaves the pass.
    """
    la, lb = lengths[shorter], lengths[longer]
    rows, width = int(la[-1]), int(lb.max())
    a = _padded(codes, offsets[shorter], rows)
    b = _padded(codes, offsets[longer], width)
    dist = lb.astype(np.int32)  # an empty a: insert all of b
    done = int(np.searchsorted(la, 0, side="right"))
    u = np.zeros((len(la) - done, width + 1), dtype=np.int32)
    a, b = a[done:], b[done:]
    for i in range(1, rows + 1):
        t = np.empty_like(u)
        t[:, 0] = i
        np.subtract(u[:, :-1], b == a[:, i - 1 : i], out=t[:, 1:])
        u += 1  # u_prev is spent after this row: update it in place
        np.minimum(t[:, 1:], u[:, 1:], out=t[:, 1:])
        u = np.minimum.accumulate(t, axis=1, out=t)
        stop = int(np.searchsorted(la, i, side="right"))
        ended = lb[done:stop]
        dist[done:stop] = u[np.arange(stop - done), ended] + ended
        u, a, b = u[stop - done :], a[stop - done :], b[stop - done :]
        done = stop
    return dist


def _pair_pieces(
    lengths: np.ndarray, cells: int
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Every pair p < q of positions into the nondecreasing ``lengths``,
    ordered by (lengths[p], lengths[q]), as pieces (p, q, longest).

    The pairs whose shorter member has length L are the columns q > p0 of
    the group [p0, p1) of positions with that length; column q holds p in
    [p0, min(q, p1)).  Each piece is unranked from the group's cumulative
    column counts, with lanes times (longest + 1) within ``cells`` (one
    lane at least), so pairs are made a piece at a time from O(n) counts,
    never all n(n-1)/2 at once.
    """
    n = len(lengths)
    starts = np.flatnonzero(np.diff(lengths, prepend=-1)).tolist()
    for p0, p1 in zip(starts, starts[1:] + [n]):
        columns = np.arange(p0 + 1, n)
        counts = np.minimum(columns, p1) - p0
        ends = np.cumsum(counts)
        widths = lengths[columns]  # nondecreasing along the pairs
        total = int(counts.sum())
        done = 0
        while done < total:
            # Size the piece by the width at its start, then cut it again
            # by the width at its end: widths only grow, so the cut fits.
            first = int(widths[np.searchsorted(ends, done, side="right")])
            stop = min(total, done + max(1, cells // (first + 1)))
            last = int(widths[np.searchsorted(ends, stop - 1, side="right")])
            stop = min(stop, done + max(1, cells // (last + 1)))
            k = np.arange(done, stop)
            col = np.searchsorted(ends, k, side="right")
            yield p0 + k - (ends[col] - counts[col]), columns[col], int(widths[col[-1]])
            done = stop


def _edit_matrix(strings: Sequence[str]) -> np.ndarray:
    """All pairwise edit distances as an n x n float64 array.

    Strings are sorted by length and their pairs taken in (shorter,
    longer) length order, so the padding inside a chunk stays small.
    Consecutive pieces of :func:`_pair_pieces` join one chunk of the
    kernel while lanes times (longest + 1) stay within EDIT_CHUNK_CELLS.
    """
    n = len(strings)
    order = sorted(range(n), key=lambda k: len(strings[k]))
    codes, offsets, lengths = _encode([strings[k] for k in order])
    index = np.array(order)
    d = np.zeros((n, n), dtype=np.float64)

    def run(chunk):
        shorter = np.concatenate([p for p, _ in chunk])
        longer = np.concatenate([q for _, q in chunk])
        dist = _levenshtein(codes, offsets, lengths, shorter, longer)
        i, j = index[shorter], index[longer]
        d[i, j] = dist
        d[j, i] = dist

    chunk, lanes, width = [], 0, 0
    for p, q, longest in _pair_pieces(lengths, EDIT_CHUNK_CELLS):
        if chunk and (lanes + len(p)) * (max(width, longest) + 1) > EDIT_CHUNK_CELLS:
            run(chunk)
            chunk, lanes, width = [], 0, 0
        chunk.append((p, q))
        lanes, width = lanes + len(p), max(width, longest)
    if chunk:
        run(chunk)
    return d


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs.

    Total function: any pair of strings is accepted, the empty string
    included.  Symmetric, zero exactly when the strings are equal.  This
    is the one-lane call of the kernel that builds edit-distance matrices.
    """
    codes, offsets, lengths = _encode(sorted((a, b), key=len))
    shorter, longer = np.array([0]), np.array([1])
    return int(_levenshtein(codes, offsets, lengths, shorter, longer)[0])


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

    Edit distances come from one vectorized kernel: the Wagner-Fischer
    row recurrence run in numpy across chunks of string pairs, whose
    temporaries stay within EDIT_CHUNK_CELLS cells apart from the n x n
    result.  Hamming and euclidean distances are evaluated pair by pair,
    so euclidean keeps ``math.dist``'s bits at the ``d <= r`` boundary.

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

    if metric == "edit":
        return DistanceMatrix(_edit_matrix(points.items))
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
