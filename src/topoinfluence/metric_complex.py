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

Complexes are built threshold-first: :func:`neighbor_pairs` computes
only the pairs at distance at most ``r_max``, straight from the points,
and :func:`build_complex` thresholds them, or a precomputed
:class:`DistanceMatrix`, into edges for :meth:`NeighborComplex.from_edges`,
the one route from edges to adjacency rows.

Vector coordinates must be finite: ``nan != nan`` would put two equal
vectors apart.  The edit metric has one implementation, a banded
Levenshtein kernel vectorized across string pairs taken column by column
(see :func:`_edit_chunks`); ``edit_distance`` is its one-pair call and
``build_distance_matrix`` its call with the band as wide as the longest
string.  Hamming and euclidean run only in numpy tiles.  The scalar
references all three are tested against are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .blocks import Pieces, split_pieces
from .errors import InputError

# Precomputed matrices may be written with small round-trip noise; anything
# asymmetric beyond this is rejected rather than silently symmetrized.
SYMMETRY_TOLERANCE = 1e-9

# The edit kernel runs its row recurrence over a chunk of string pairs at
# once.  A chunk's lanes times its row length (longest string + band + 1)
# stay within EDIT_CHUNK_CELLS, so each int32 temporary of a pass stays
# near a quarter megabyte however many strings there are.  Vector tiles,
# DistanceMatrix's checks and mirroring, and build_complex's reads of a
# matrix work in blocks of the same number of cells.
EDIT_CHUNK_CELLS = 1 << 16


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
    """``width`` code points per start, one column per start: a (width,
    len starts) array.  Cells before a string's start or past its end
    hold whatever is there, clamped into range; the recurrence never
    reads them into a cell it reports."""
    return codes.take(np.arange(width)[:, None] + starts, mode="clip")


# Stands for an infinite cost outside the DP table: adding 2 per row of
# any string stays far from the int32 limit.
_FAR = 1 << 30


def _levenshtein(
    codes: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    shorter: np.ndarray,
    longer: np.ndarray,
    k: int,
) -> np.ndarray:
    """min(d, k + 1) for the edit distance d of each lane, the strings
    a = ``shorter[l]`` and b = ``longer[l]`` of :func:`_encode`'s arrays,
    as int32.

    Lanes must be sorted by len a, with 0 <= len b - len a <= k.  Banded
    Wagner-Fischer (Ukkonen 1985), one numpy pass per character of the
    shorter strings across all lanes at once.  A path through cell (i, j)
    costs at least |t| + |len b - len a - t|, t = j - i, so a lane keeps
    the k + 1 diagonals t = lo .. lo + k, lo = floor((len b - len a - k)
    / 2), which hold every t where that bound is at most k; cells outside
    the band count as infinite.  Rows are stored as (slot, lane), so
    every numpy operation runs along lanes.  With D[i][j] the distance
    between a[:i] and b[:j], slot s of row i stores
    u[s] = D[i][i + s + lo] - s, so that
    ``t[s] = min(u_prev[s] + [a_i != b_j], u_prev[s + 1] + 2)`` and the
    insertions close with a prefix minimum over the slots, u[s] =
    min(t[0..s]).  That minimum is taken by doubling shifts (Hillis &
    Steele 1986), ``u[h:] = minimum(u[h:], u[:-h])`` for h = 1, 2, 4, ...
    up to k: ceil(log2(k + 1)) passes along all lanes, where an
    accumulate along the slot axis would run one short loop per lane.
    A lane is read out at slot len b - len a - lo once row len a is done,
    and then leaves the pass.
    """
    la, lb = lengths[shorter], lengths[longer]
    k = min(k, int(lb.max()))
    rows = int(la[-1])
    lo = (lb - la - k) // 2
    read = lb - la - lo
    dist = np.minimum(lb, k + 1).astype(np.int32)  # an empty a: insert all of b
    done = int(np.searchsorted(la, 0, side="right"))
    a = _padded(codes, offsets[shorter[done:]], rows)
    b = _padded(codes, offsets[longer[done:]] + lo[done:], rows + k)
    # Row 0: D[0][j] = j, so u = lo wherever j = s + lo >= 0.  Slot k + 1,
    # past the band, stays infinite: the vertical move from outside it.
    slots = np.arange(k + 2)[:, None]
    band = (slots >= -lo[done:]) & (slots <= k)
    u = np.where(band, lo[done:], _FAR).astype(np.int32)
    shifts = [1 << e for e in range(k.bit_length())]  # 1, 2, 4, ... <= k
    for i in range(1, rows + 1):
        t = u[:-1]
        np.minimum(u[1:] + 2, t + (b[i - 1 : i + k] != a[i - 1]), out=t)
        for h in shifts:
            # ufuncs buffer overlapping operands, so t[:-h] is read whole
            # before t[h:] is written.
            np.minimum(t[h:], t[:-h], out=t[h:])
        end = int(np.searchsorted(la, i, side="right"))
        if end > done:
            s = read[done:end]
            dist[done:end] = np.minimum(u[s, np.arange(end - done)] + s, k + 1)
            u, a, b = u[:, end - done :], a[:, end - done :], b[:, end - done :]
            done = end
    return dist


def _edit_chunks(strings: Sequence[str], r_max: float) -> Iterator[tuple]:
    """(i, j, d) arrays, chunk by chunk, for every pair of strings at edit
    distance d <= r_max, each pair once, with i < j.

    With k = min(floor(r_max), longest string), a pair whose lengths differ
    by more than k is never scheduled.  Strings are sorted by length and
    taken column by column: column q pairs string q with the strings
    p < q at most k shorter, found with one ``searchsorted``, in pieces of
    at most EDIT_CHUNK_CELLS // row lanes (one at least), where a lane's
    row, len q + min(k, len q) + 1 cells, bounds each of its temporaries
    in :func:`_levenshtein`.  Pieces join one chunk of the kernel while
    lanes times row stay within EDIT_CHUNK_CELLS; len q only grows, so the
    last column sets the chunk's row.  A chunk's two lane lists come from
    its (p0, p1, q) pieces in one ``np.repeat`` each, with no array per
    piece, and its lanes are stably sorted by the shorter string's
    length, as the kernel requires.
    """
    n = len(strings)
    order = sorted(range(n), key=lambda q: len(strings[q]))
    codes, offsets, lengths = _encode([strings[q] for q in order])
    index = np.array(order)
    longest = int(lengths[-1])
    k = longest if r_max >= longest else int(r_max)
    first = np.searchsorted(lengths, lengths - k)

    def run(chunk):
        p0, p1, q = np.array(chunk).T
        counts = p1 - p0
        longer = np.repeat(q, counts)
        # p0 .. p1 - 1 piece by piece: each lane's place in the chunk plus
        # its piece's p0 less the piece's first place.
        starts = np.cumsum(counts) - counts
        shorter = np.arange(len(longer)) + np.repeat(p0 - starts, counts)
        lanes = np.argsort(lengths[shorter], kind="stable")
        shorter, longer = shorter[lanes], longer[lanes]
        dist = _levenshtein(codes, offsets, lengths, shorter, longer, k)
        near = dist <= r_max
        i, j = index[shorter[near]], index[longer[near]]
        return np.minimum(i, j), np.maximum(i, j), dist[near]

    chunk, lanes = [], 0
    for q in range(1, n):
        row = int(lengths[q]) + min(k, int(lengths[q])) + 1
        step = max(1, EDIT_CHUNK_CELLS // row)
        for p0 in range(int(first[q]), q, step):
            p1 = min(q, p0 + step)
            if chunk and (lanes + p1 - p0) * row > EDIT_CHUNK_CELLS:
                yield run(chunk)
                chunk, lanes = [], 0
            chunk.append((p0, p1, q))
            lanes += p1 - p0
    if chunk:
        yield run(chunk)


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs.

    Total function: any pair of strings is accepted, the empty string
    included.  Symmetric, zero exactly when the strings are equal.  This
    is the one-lane call of the banded kernel, with the band as wide as
    the longer string, so the distance is exact.
    """
    codes, offsets, lengths = _encode(sorted((a, b), key=len))
    shorter, longer = np.array([0]), np.array([1])
    k = int(lengths[1])
    return int(_levenshtein(codes, offsets, lengths, shorter, longer, k)[0])


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


# Metric name -> the kind of input it reads.
METRICS = {
    "edit": "strings",
    "hamming": "vectors",
    "euclidean": "vectors",
    "precomputed": "matrix",
}


def _vector_chunks(vectors: tuple, metric: str, r_max: float) -> Iterator[tuple]:
    """(i, j, d) arrays, tile by tile, for every pair of vectors at
    distance d <= r_max, each pair once, with i < j.

    Tiles of rows by columns of the upper triangle keep rows x columns x
    coordinates within EDIT_CHUNK_CELLS.  Hamming counts unequal
    coordinates exactly.  Euclidean keeps a pair as a candidate when its
    squared distance, summed in numpy, is within r_max^2 plus a slack
    that covers numpy's rounding; ``math.dist`` then gives each
    candidate's distance, so ``d <= r`` decides on ``math.dist``'s bits,
    not on numpy's rounded sum.
    """
    if len({len(v) for v in vectors}) > 1:
        raise InputError(f"{metric} distance requires equal-length vectors")
    x = np.array(vectors, dtype=np.float64).reshape(len(vectors), -1)
    n, dim = x.shape
    # Relative error of a sum of dim squared differences, with room for
    # the rounding of r_max^2; tiny covers subnormal sums.
    bound = r_max * r_max * (1 + 4 * (dim + 4) * np.finfo(np.float64).eps)
    bound += np.finfo(np.float64).tiny
    cols = min(n, max(1, EDIT_CHUNK_CELLS // max(dim, 1)))
    rows = max(1, EDIT_CHUNK_CELLS // (cols * max(dim, 1)))
    for a in range(0, n, rows):
        block = x[a : a + rows, None, :]
        for c in range(a, n, cols):
            other = x[None, c : c + cols, :]
            if metric == "hamming":
                counts = np.count_nonzero(block != other, axis=2)
                near = counts <= r_max
            else:
                # A sum that overflows is inf: beyond r_max unless r_max^2
                # overflows too, and then bound is inf as well.
                with np.errstate(over="ignore"):
                    diff = block - other
                    near = np.einsum("ijk,ijk->ij", diff, diff) <= bound
            i, j = np.nonzero(near)
            upper = i + a < j + c
            i, j = i[upper] + a, j[upper] + c
            if metric == "hamming":
                dist = counts[i - a, j - c]
            else:
                dist = np.array([math.dist(vectors[p], vectors[q])
                                 for p, q in zip(i.tolist(), j.tolist())])
            near = dist <= r_max
            yield i[near], j[near], dist[near]


def _pair_chunks(points: LabeledPointSet, metric: str, r_max: float) -> Iterator[tuple]:
    """(i, j, d) arrays for every pair at distance d <= r_max under
    ``metric``, each pair once, with i < j, after checking that the
    metric applies.

    Each metric of ``METRICS`` applies to one item kind.  Mixed item
    kinds or a metric/kind mismatch raise InputError.
    """
    kind = points.kind
    if kind == "mixed":
        raise InputError("point set mixes strings and vectors")
    if metric not in METRICS:
        raise InputError(f"unknown metric {metric!r}")
    wanted = METRICS[metric]
    if wanted == "matrix":
        raise InputError(
            "precomputed distances must be loaded as a matrix, not rebuilt"
        )
    if kind != wanted:
        # "strings" -> "string items", "vectors" -> "vector items"
        raise InputError(f"{metric} metric applies to {wanted[:-1]} items only")
    if metric == "edit":
        return _edit_chunks(points.items, r_max)
    return _vector_chunks(points.items, metric, r_max)


def build_distance_matrix(points: LabeledPointSet, metric: str) -> DistanceMatrix:
    """Evaluate the metric on all O(n^2) pairs, as an n x n matrix.

    The pairs come from the same chunked numpy kernels as
    :func:`neighbor_pairs`, with no threshold: the edit band is as wide
    as the longest string, so every distance is exact.  Their temporaries
    stay within EDIT_CHUNK_CELLS cells apart from the n x n result, which
    is checked and mirrored in place, so it is the only n x n array.
    Euclidean distances are ``math.dist``'s bits.

    Mixed item kinds or a metric/kind mismatch raise InputError.
    Precomputed matrices do not pass through here: load them with
    :func:`topoinfluence.loaders.load_matrix` instead.
    """
    chunks = _pair_chunks(points, metric, math.inf)
    d = np.zeros((len(points), len(points)), dtype=np.float64)
    for i, j, dist in chunks:
        d[i, j] = d[j, i] = dist
    return DistanceMatrix._adopt(d)


class NeighborPairs:
    """The pairs of n samples at distance at most ``r_max``: ``left[k] <
    right[k]`` at distance ``distances[k]`` (float64), in ascending order
    of (left, right).  Built by :func:`neighbor_pairs`; thresholded by
    :func:`build_complex` at any r <= r_max."""

    def __init__(self, n: int, r_max: float, left, right, distances) -> None:
        self.n, self.r_max = n, r_max
        self.left, self.right, self.distances = left, right, distances


def neighbor_pairs(points: LabeledPointSet, metric: str, r_max: float) -> NeighborPairs:
    """Every pair at distance <= r_max, computed straight from the points.

    The threshold-first route to a neighbor complex: no n x n array is
    built, and :func:`build_complex` thresholds the result at every
    radius up to ``r_max``, with the same edges as the full matrix.
    Edit distance skips the pairs whose lengths differ by more than
    ``r_max`` and runs the Levenshtein band of :func:`_levenshtein`.
    Hamming and euclidean run numpy tiles within EDIT_CHUNK_CELLS cells;
    euclidean decides each candidate with ``math.dist``.

    Raises InputError for a negative, nan or infinite ``r_max``, and as
    :func:`build_distance_matrix` does for a metric that does not apply.
    """
    check_radius(r_max)
    empty = (np.zeros(0, dtype=np.int64),) * 3
    left, right, dist = map(np.concatenate, zip(empty, *_pair_chunks(points, metric, r_max)))
    order = np.lexsort((right, left))
    # One array at a time, so a reordered copy replaces its original.
    left = left[order]
    right = right[order]
    dist = dist[order].astype(np.float64, copy=False)
    return NeighborPairs(n=len(points), r_max=float(r_max), left=left, right=right, distances=dist)


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
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "NeighborComplex":
        """The graph on 0..n-1 with these edges: the one route from edges to
        adjacency rows.  Endpoints are taken with ``operator.index`` (numpy
        integers too) and range-checked; self-loops are skipped."""
        rows = [0] * n
        for u, v in edges:
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise InputError(f"edge ({u!r}, {v!r}): non-integer endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                continue  # self-loops carry no component information
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n=n, rows=tuple(rows))

    @cached_property
    def pieces(self) -> Pieces:
        """:func:`~topoinfluence.blocks.split_pieces` of ``neighbors``,
        computed on first read and cached like ``InfluenceResult.mu``: the
        layout of the biconnected blocks that the sampled walk scores
        each order over."""
        return split_pieces(self.neighbors)


def check_radius(r: float) -> None:
    """Refuse a resolution that is negative, nan or infinite."""
    if not math.isfinite(r) or r < 0:
        raise InputError(f"resolution must be a finite nonnegative real, got {r}")


def build_complex(dm: DistanceMatrix | NeighborPairs, r: float) -> NeighborComplex:
    """Threshold the distances: edge (i, j) present iff d(i, j) <= r.

    ``dm`` is a full :class:`DistanceMatrix`, read in row blocks of about
    EDIT_CHUNK_CELLS cells, or the :class:`NeighborPairs` of
    :func:`neighbor_pairs`, which refuses an r past its ``r_max``.  The
    ``<=`` is exact on the stored float, so exact for integer metrics
    (edit, hamming).  The edges go to :meth:`NeighborComplex.from_edges`.
    """
    check_radius(r)
    n = dm.n
    if isinstance(dm, NeighborPairs):
        if r > dm.r_max:
            raise InputError(
                f"pairs were computed up to r_max {dm.r_max}; cannot threshold at {r}"
            )
        near = dm.distances <= r
        return NeighborComplex.from_edges(
            n, zip(dm.left[near].tolist(), dm.right[near].tolist())
        )
    step = max(1, EDIT_CHUNK_CELLS // n)

    def edges():
        for a in range(0, n, step):
            i, j = np.nonzero(np.triu(dm.values[a : a + step] <= r, a + 1))
            yield from zip((i + a).tolist(), j.tolist())
    return NeighborComplex.from_edges(n, edges())
