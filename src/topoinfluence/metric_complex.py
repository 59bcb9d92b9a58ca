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
kernel vectorized across string pairs taken column by column (see
:func:`build_distance_matrix`); ``edit_distance`` is its one-pair call.
The scalar dynamic program it is tested against is in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError

# Precomputed matrices may be written with small round-trip noise; anything
# asymmetric beyond this is rejected rather than silently symmetrized.
SYMMETRY_TOLERANCE = 1e-9

# The edit kernel runs its row recurrence over a chunk of string pairs at
# once.  A chunk's lanes times its row length (longest string + 1) stay
# within EDIT_CHUNK_CELLS, so each int32 temporary of a pass stays near a
# quarter megabyte however many strings there are.  DistanceMatrix checks
# and mirrors its input in row blocks of the same number of cells.
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


def _edit_matrix(strings: Sequence[str]) -> np.ndarray:
    """All pairwise edit distances as an n x n float64 array.

    Strings are sorted by length and taken column by column: column q
    pairs string q with every shorter-or-equal string p < q, in pieces of
    at most EDIT_CHUNK_CELLS // (len q + 1) lanes (one at least).  Pieces
    join one chunk of the kernel while lanes times (len q + 1) stay within
    EDIT_CHUNK_CELLS; len q only grows, so the last column sets the
    chunk's row length.  A chunk's lanes are stably sorted by the shorter
    string's length, as :func:`_levenshtein` requires.
    """
    n = len(strings)
    order = sorted(range(n), key=lambda k: len(strings[k]))
    codes, offsets, lengths = _encode([strings[k] for k in order])
    index = np.array(order)
    d = np.zeros((n, n), dtype=np.float64)

    def run(chunk):
        shorter = np.concatenate([np.arange(p0, p1) for p0, p1, _ in chunk])
        longer = np.concatenate([np.full(p1 - p0, q) for p0, p1, q in chunk])
        lanes = np.argsort(lengths[shorter], kind="stable")
        shorter, longer = shorter[lanes], longer[lanes]
        dist = _levenshtein(codes, offsets, lengths, shorter, longer)
        i, j = index[shorter], index[longer]
        d[i, j] = d[j, i] = dist

    chunk, lanes = [], 0
    for q in range(1, n):
        row = int(lengths[q]) + 1
        step = max(1, EDIT_CHUNK_CELLS // row)
        for p0 in range(0, q, step):
            p1 = min(q, p0 + step)
            if chunk and (lanes + p1 - p0) * row > EDIT_CHUNK_CELLS:
                run(chunk)
                chunk, lanes = [], 0
            chunk.append((p0, p1, q))
            lanes += p1 - p0
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


def _mirrored(arr: np.ndarray) -> np.ndarray:
    """Validate and mirror the float64 matrix ``arr`` in place, then make
    it read-only: the matrix of :class:`DistanceMatrix`.

    Mirror the upper triangle so boundary comparisons d <= r cannot
    disagree between (i, j) and (j, i).  Row blocks of about
    EDIT_CHUNK_CELLS cells are checked for skew against the columns, then
    rewritten, so the largest temporary is one row block.  Rewriting row
    block [a, b) reads only the upper triangle above it and the rows from
    a on, none of which an earlier block wrote.
    """
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"distance matrix must be square, got {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise InputError("distance matrix must be nonempty")
    # min and max propagate nan and reach any infinity, with no n x n mask.
    lowest, highest = float(arr.min()), float(arr.max())
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise InputError("distance matrix contains non-finite entries")
    if lowest < 0:
        raise InputError("distance matrix contains negative entries")
    if np.any(np.abs(np.diagonal(arr)) > SYMMETRY_TOLERANCE):
        raise InputError("distance matrix diagonal must be zero")
    step = max(1, EDIT_CHUNK_CELLS // n)
    scratch = np.empty((min(step, n), n))
    skew = 0.0
    for a in range(0, n, step):
        b = min(n, a + step)
        diff = scratch[: b - a]
        np.subtract(arr[a:b], arr[:, a:b].T, out=diff)
        skew = max(skew, float(np.abs(diff, out=diff).max()))
        rows = arr[a:b]
        rows[:, :a] = arr[:a, a:b].T
        corner = np.triu(rows[:, a:b], k=1)
        rows[:, a:b] = corner + corner.T
        rows += 0.0  # -0.0 + 0.0 is 0.0: the bytes of triu + triu.T
    if skew > SYMMETRY_TOLERANCE:
        raise InputError(
            f"distance matrix asymmetric by {skew:.3g} "
            f"(tolerance {SYMMETRY_TOLERANCE:g}); refusing to symmetrize"
        )
    arr.flags.writeable = False
    return arr


class DistanceMatrix:
    """Symmetric nonnegative pairwise distances over n labeled samples.

    The triangle inequality is deliberately NOT checked: precomputed
    matrices may violate it and nothing downstream relies on it.
    Asymmetry beyond ``SYMMETRY_TOLERANCE`` is an error; within tolerance
    the upper-triangle entry governs both directions.  The constructor
    mirrors its own float64 copy, so the caller's values stay as they were.
    """

    def __init__(self, values: np.ndarray):
        self._values = _mirrored(np.array(values, dtype=np.float64))

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "DistanceMatrix":
        """Wrap a float64 matrix this package has just computed and holds
        no other reference to, mirrored in its own memory with no copy."""
        dm = cls.__new__(cls)
        dm._values = _mirrored(values)
        return dm

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

    Edit distances come from the Wagner-Fischer row recurrence in numpy,
    run over the length-sorted strings' pairs column by column, in chunks
    whose temporaries stay within EDIT_CHUNK_CELLS cells apart from the
    n x n result.  Hamming and euclidean distances are evaluated pair by
    pair, so euclidean keeps ``math.dist``'s bits at the ``d <= r``
    boundary.  Either way the matrix is checked and mirrored in place, so
    the n x n result is the only n x n array.

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
        return DistanceMatrix._adopt(_edit_matrix(points.items))
    n = len(points)
    d = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = fn(points.items[i], points.items[j])
    return DistanceMatrix._adopt(d)


@dataclass(frozen=True)
class NeighborComplex:
    """Graph realizing the neighbor complex at a fixed resolution.

    ``rows[i]`` is an n-bit adjacency set (bit j set iff i ~ j), and
    ``neighbors[i]`` holds the same vertices j as a tuple in ascending
    order, built with the validation pass; it is derived from ``rows``,
    so it takes no part in equality, hashing or the repr.  The structure
    is immutable, and graphs with the same edges are equal whatever
    built them.
    """

    n: int
    rows: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

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
        # Every set bit j of row i needs bit i of row j: O(n + m) checks,
        # which visit the bits in the ascending order ``neighbors`` keeps.
        neighbors = []
        for i, row in enumerate(self.rows):
            adjacent = []
            while row:
                low = row & -row
                j = low.bit_length() - 1
                if not self.rows[j] >> i & 1:
                    raise InputError(
                        f"adjacency not symmetric at ({min(i, j)}, {max(i, j)})"
                    )
                adjacent.append(j)
                row ^= low
            neighbors.append(tuple(adjacent))
        object.__setattr__(self, "neighbors", tuple(neighbors))

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, adjacent in enumerate(self.neighbors):
            for j in adjacent:
                if j > i:
                    yield i, j

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    @classmethod
    def from_edges(
        cls, n: int, edges: Sequence[tuple[int, int]]
    ) -> "NeighborComplex":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                continue  # self-loops carry no component information
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n=n, rows=tuple(rows))


def check_radius(r: float) -> None:
    """Refuse a resolution that is negative, nan or infinite."""
    if not math.isfinite(r) or r < 0:
        raise InputError(f"resolution must be a finite nonnegative real, got {r}")


def build_complex(dm: DistanceMatrix, r: float) -> NeighborComplex:
    """Threshold the distance matrix: edge (i, j) present iff d(i, j) <= r.

    The comparison is an exact ``<=`` on the stored float, which is exact
    for integer metrics (edit, hamming).  Deterministic for equal inputs.
    """
    check_radius(r)
    close = dm.values <= r
    np.fill_diagonal(close, False)
    # Byte k of a packed row holds bits 8k..8k+7, lowest first: read
    # little-endian, the row is its adjacency bitset.
    packed = np.packbits(close, axis=1, bitorder="little")
    rows = tuple(int.from_bytes(row, "little") for row in packed)
    return NeighborComplex(n=dm.n, rows=rows)
