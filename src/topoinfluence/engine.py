"""Shapley attribution of component structure to individual samples.

The characteristic function of a coalition C of samples is b0 of the
induced subgraph on C, with b0 of the empty set taken as 0.  A sample's
raw score is the Shapley value of the absolute marginal

    s(i) = sum over C not containing i of
           |C|! (n - |C| - 1)! / n! * |b0(C + i) - b0(C)|

The absolute value keeps every marginal nonnegative (adding a vertex can
destroy components as well as create one), so s(i) >= 1/n > 0 always:
the coalition where i arrives first contributes exactly 1.  Normalizing
s to a probability vector mu and taking its Shannon entropy (natural
log) summarizes how evenly component structure is spread over samples.
An engine returns only the scores; ``InfluenceResult`` derives mu and
the entropy from them, the same way for every method.

Two evaluation modes:

exact     closed form when every biconnected block is complete, else a
          subset table over all 2^n coalitions.  The signed marginal
          b0(C + i) - b0(C) is 1 minus the number of components among
          i's neighbours in C, so the absolute one is 2 [i has no
          neighbour in C] minus it.  Averaged with the Shapley weights the
          first term is 2 / (deg i + 1), twice the chance that i precedes
          all its neighbours in a random order, so

              s(i) = 2 / (deg i + 1) - phi(i)

          with phi the plain signed Shapley value of b0, read off
          size-graded sums of the table (once per group of 8 vertices).
          Each n! s(i) is a Python int, so scores are bit-for-bit
          reproducible Fractions.  Since b0 = |V| - |E| + b1 and b1 adds
          up over blocks, s(i) = c(deg i) + sum over i's blocks B of
          [s_B(i) - c(deg_B i)], c(d) = 2 / (d + 1) + d / 2 - 1, with s_B
          the scores of B alone.  K_k scores 1/k everywhere, so a graph
          whose blocks are all complete (a forest, whose blocks are its
          edges; disjoint cliques; the complete complex past the
          diameter) fills no table:

              s(i) = 2 / (deg i + 1) - 1 + sum over i's blocks B of (1 - 1/|B|),

          1 for an isolated sample and (2 + d (d - 1)) / (2 (d + 1)) in a
          forest.  The cap applies to these graphs all the same; the
          past-cap warning only where a table is filled.
sampled   Monte Carlo over uniformly random insertion orders; the
          predecessor set of i in a uniform permutation is exactly a
          coalition drawn with the Shapley weights, so the running mean
          of the walk marginals is unbiased for s(i).  b1 adds up over
          blocks here too: along one order, i's signed marginal is 1
          plus the sum, over i's blocks B, of its marginal in B less 1.
          A bridge or a cycle block of any length gives that term in
          closed form, from the positions of its vertices alone.
          Another block of at most ``blocks.PIECE_LIMIT`` vertices reads
          its marginal as the difference of two entries of the block's
          subset table, in numpy for all such blocks at once, unless
          they hold fewer than ``blocks.LOOKUP_MIN`` vertices in all;
          the union-find walk of ``homology.component_changes`` runs
          only over the union of the blocks left, and not at all on any
          cactus.  The blocks and their tables come once per complex
          from one depth-first search (``NeighborComplex.pieces``).
          Order j is the permutation drawn from counter block j of the
          seed's Philox stream, with one generator repositioned from
          block to block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .blocks import biconnected_blocks
from .errors import InputError, SizeCapError
from .homology import CHUNK_BITS, TABLE_HARD_MAX, betti0_table, component_changes
from .metric_complex import NeighborComplex
from .streams import philox_block

# Exact mode is opt-in above this size because the subset table costs
# O(2^n) space and the accumulation O(n 2^n) time.
DEFAULT_EXACT_CAP = 20


@dataclass(frozen=True)
class InfluenceResult:
    """Per-sample scores, with the distribution and entropy derived from them.

    ``shapley`` holds Fractions for the ``exact`` and ``closed_form``
    methods and floats for ``sampled``.  ``std_error`` is the per-sample
    standard error of the sampled estimate, empty otherwise.  ``mu`` and
    ``entropy`` are not fields: each is computed from the scores on first
    read and cached, so equality, hashing and ``dataclasses.replace`` see
    only what an engine computed.
    """

    labels: tuple[str, ...]
    shapley: tuple
    method: str
    permutations: int = 0
    seed: int | None = None
    std_error: tuple = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return len(self.shapley)

    @property
    def total(self):
        """Sum of the scores and the divisor of ``mu``; numpy's sum in sampled mode."""
        if self.method == "sampled":
            return float(np.sum(self.shapley))
        return sum(self.shapley)

    @cached_property
    def mu(self) -> tuple:
        """Each score divided by ``total``: Fractions sum to exactly 1."""
        total = self.total
        return tuple(s / total for s in self.shapley)

    @cached_property
    def entropy(self) -> float:
        """Shannon entropy of ``mu`` in nats."""
        return shannon_entropy(self.mu)


def shannon_entropy(mu: Sequence) -> float:
    """Entropy in nats with the 0 log 0 = 0 convention."""
    h = 0.0
    for p in mu:
        p = float(p)
        if p < 0:
            raise InputError(f"negative probability {p}")
        if p > 0:
            h -= p * math.log(p)
    return 0.0 if h == 0.0 else h


@cache
def _width_keys(bits: int) -> tuple[tuple, tuple, tuple]:
    """The groups (lo, w) of up to 8 bits below ``bits``, each group's
    int16 key (popcount r, the group's bits of r) for every r < 2^bits,
    and each group's 0/1 matrix of bit j of column v.  They depend on the
    width alone, so each width builds them once; every array is read-only
    since all callers share it."""
    r = np.arange(1 << bits, dtype=np.int32)
    sizes = np.bitwise_count(r).astype(np.int32)
    groups = tuple((lo, min(8, bits - lo)) for lo in range(0, bits, 8))
    # The largest key is below (bits + 1) 2^8, so int16 holds every key.
    keys = tuple(
        (sizes << w | r >> lo & (1 << w) - 1).astype(np.int16) for lo, w in groups
    )
    has_bit = tuple(np.arange(1 << w)[:, None] >> np.arange(w) & 1 for _, w in groups)
    for array in keys + has_bit:
        array.flags.writeable = False
    return groups, keys, has_bit


def _size_sums(table: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Size-graded sums of the subset table t, as int64.

    A[i, k] is the sum of t[S] over the subsets S of size k that contain
    i, and T[k] the sum over all subsets of size k, for k = 0..n.  Over
    the size-k coalitions C that avoid i, b0(C + i) then sums to
    A[i, k + 1] and b0(C) to T[k] - A[i, k].

    The table is read once, in chunks of 2^CHUNK_BITS masks p0 + r with
    p0 a multiple of the chunk length, so |S| = popcount(p0) + popcount(r).
    Each group of up to 8 low bits takes one bincount per chunk, weighted
    by t and keyed by (popcount r, the group's bits of r), and adds it
    popcount(p0) rows down into the group's sums; bit i of the group reads
    A[i] off the columns whose key has bit i set.  Bits above the chunk
    are constant inside it, so each set bit of p0 >> CHUNK_BITS gains the
    chunk's per-size totals.  The float64 weights are exact: every
    partial sum is at most 26 2^26 < 2^53.

    The keys and bit matrices depend only on the chunk width
    min(CHUNK_BITS, n), not on n, so :func:`_width_keys` caches them per
    width: at most CHUNK_BITS widths, 64 KB of keys at width 14.
    """
    bits = min(CHUNK_BITS, n)
    groups, keys, has_bits = _width_keys(bits)
    chunk = 1 << bits
    group_sums = [np.zeros((n + 1, 1 << w)) for _, w in groups]
    sums = np.zeros((n, n + 1))
    for p0 in range(0, 1 << n, chunk):
        weights = table[p0 : p0 + chunk].astype(np.float64)
        rows = slice(p0.bit_count(), p0.bit_count() + bits + 1)
        for key, group in zip(keys, group_sums):
            part = np.bincount(key, weights).reshape(bits + 1, -1)
            group[rows] += part
        totals = part.sum(axis=1)  # any group's rows sum to the size totals
        for i in range(bits, n):
            if p0 >> i & 1:
                sums[i, rows] += totals
    sums = sums.astype(np.int64)
    for (lo, w), group, has_bit in zip(groups, group_sums, has_bits):
        # Integer matmul, exact and with no BLAS call: column v times bit j of v.
        sums[lo : lo + w] = (group.astype(np.int64) @ has_bit).T
    return sums, group_sums[0].sum(axis=1).astype(np.int64)


def check_exact_cap(n: int, cap: int) -> None:
    """Refuse exact enumeration of n vertices above ``cap``, or above the
    table's hard maximum, which no cap raises."""
    if n > min(cap, TABLE_HARD_MAX):
        raise SizeCapError(f"exact enumeration for n={n} exceeds " + (
            f"the hard max {TABLE_HARD_MAX}" if n > TABLE_HARD_MAX
            else f"cap {cap}; raise the cap (hard max {TABLE_HARD_MAX})"
        ))


def check_permutations(permutations: int) -> None:
    """Refuse a sampled run of fewer than one permutation."""
    if permutations <= 0:
        raise InputError(f"need at least one permutation, got {permutations}")


def _complete_block_scores(complex_: NeighborComplex) -> tuple[Fraction, ...] | None:
    """The exact scores of a graph whose biconnected blocks are all
    complete, in closed form, or None when some block is not: a block of
    k vertices is complete iff it holds k (k - 1) / 2 edges.  Each score
    is 2 / (d + 1) - 1 + sum of (1 - 1/k) over i's blocks, built over
    their common denominator and normalized by one Fraction."""
    sizes: list[list[int]] = [[] for _ in range(complex_.n)]
    for vertices, edges in biconnected_blocks(complex_.neighbors):
        k = len(vertices)
        if 2 * edges != k * (k - 1):
            return None
        for v in vertices:
            sizes[v].append(k)
    scores = []
    for i, ks in enumerate(sizes):
        d = complex_.degree(i)
        den = math.lcm(d + 1, *ks)
        num = 2 * den // (d + 1) - den + sum(den - den // k for k in ks)
        scores.append(Fraction(num, den))
    return tuple(scores)


def exact_shapley(
    complex_: NeighborComplex, cap: int = DEFAULT_EXACT_CAP
) -> InfluenceResult:
    """Exact rational Shapley scores by full coalition enumeration.

    Refuses n above ``cap``, on every graph.  A graph whose biconnected
    blocks (:func:`~topoinfluence.blocks.biconnected_blocks`) are all
    complete fills no table: its scores are the closed form of the module
    docstring.  Any other graph fills one; raising the cap past the
    default is allowed for it up to the table's hard maximum but warns,
    since time grows as O(n 2^n) and memory as 2^n bytes.

    With w_k = k! (n-1-k)! and the size sums A, T of :func:`_size_sums`,

        n! s(i) = 2 n! / (deg i + 1) - sum_k w_k (A[i, k+1] + A[i, k] - T[k])

    since sum_k w_k C(n-1-deg i, k) = n! / (deg i + 1).  The numerator is
    built with Python ints (n! overflows int64 past n = 20); each score
    is then one Fraction of two integers.
    """
    n = complex_.n
    check_exact_cap(n, cap)
    scores = _complete_block_scores(complex_)
    if scores is not None:
        return InfluenceResult(labels=_labels_of(complex_), shapley=scores, method="exact")
    if n > DEFAULT_EXACT_CAP:
        warnings.warn(
            f"exact enumeration at n={n} fills a 2^{n}-entry subset table; "
            "time and memory roughly double with each vertex past the default cap",
            RuntimeWarning,
            stacklevel=2,
        )
    sums, totals = _size_sums(betti0_table(complex_), n)
    totals = totals.tolist()
    weights = [math.factorial(k) * math.factorial(n - 1 - k) for k in range(n)]
    n_fact = math.factorial(n)
    numerators = [
        2 * n_fact // (complex_.degree(i) + 1)
        - sum(w * (a1 + a0 - t) for w, a0, a1, t in zip(weights, a, a[1:], totals))
        for i, a in enumerate(sums.tolist())
    ]
    return InfluenceResult(
        labels=_labels_of(complex_),
        shapley=tuple(Fraction(num, n_fact) for num in numerators),
        method="exact",
    )


def permutation_marginals(
    complex_: NeighborComplex, order: Sequence[int]
) -> np.ndarray:
    """Absolute component-count marginals along one insertion order.

    marginals[i] belongs to vertex i (not to position): |b0(P + i) - b0(P)|
    for the vertices P before i, the absolute values of
    :func:`~topoinfluence.homology.component_changes` over the complex's
    ``neighbors``, as an int64 array.  ``order`` must be a permutation of
    0..n-1, as a sequence or an array of integers.

    b0 = |V| - |E| + b1, and b1 adds up over the graph's blocks
    (:attr:`~topoinfluence.metric_complex.NeighborComplex.pieces`), so
    for the vertices P before i,

        b0(P + i) - b0(P)  =  1 + sum over i's blocks B of [d_B(i) - 1],

    with d_B(i) the same marginal in B alone, on the vertices of B in P.
    Each kind of block gives d_B(i) its own way:

    - a bridge or a cycle block, with c(i) the number of i's neighbours
      in B before i: d_B(i) = 1 - c(i) + [B is a cycle and i the last of
      it to come].  i's earlier neighbours in B lie in c(i) components
      unless both of a cycle's do; then the one path between them that
      avoids i joins them iff all the rest of the cycle came first.  So
      each of these edges counts against its later end in one bincount,
      and the vertex at each cycle's latest position, one
      ``np.maximum.reduceat``, gains 1 in another;
    - another block of at most ``blocks.PIECE_LIMIT`` vertices, when
      such blocks hold at least ``blocks.LOOKUP_MIN`` vertices in all:
      d_B(i) = t_B[P_B + i] - t_B[P_B], with t_B the block's subset
      table (:func:`~topoinfluence.homology.betti0_table`) and P_B the
      mask of its local vertices in P, formed in numpy from their
      positions;
    - the blocks left: 1 plus the sum of [d_B(i) - 1] over them is i's
      marginal in their union, which the union-find walk runs over.

    A cut vertex lies in several blocks, so each kind's terms are summed
    by a bincount, which adds up repeated indices.
    """
    n = complex_.n
    try:
        order = np.asarray(order)
    except ValueError:  # ragged
        raise InputError(f"order must be a permutation of 0..{n - 1}") from None
    if order.shape != (n,):
        raise InputError(f"order must be a permutation of 0..{n - 1}")
    if order.dtype.kind not in "iu":
        raise InputError(f"order must hold integer vertices, got {order.dtype}")
    # The put refuses an entry past either end (IndexError), bincount a
    # negative one (ValueError); n entries in 0..n-1 then form a
    # permutation iff they are distinct.  position[n] = n is the place,
    # after every vertex, of the pieces' padding.
    position = np.empty(n + 1, dtype=np.int64)
    position[n] = n
    try:
        position[:n][order] = np.arange(n)
        distinct = np.count_nonzero(np.bincount(order.astype(np.int64, copy=False)))
    except (IndexError, ValueError):
        distinct = -1
    if distinct != n:
        # The walk names the first entry out of range or repeated.
        component_changes(complex_.neighbors, order.tolist())
    # Signs come from shifts, not comparisons or np.abs: every numpy
    # inner loop a run touches for the first time maps 64 KiB more of
    # numpy's library, and shifts, sums and products are mapped already.
    pieces = complex_.pieces
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
    changes *= (changes >> 63) * 2 + 1  # |x| = x (2 (x >> 63) + 1)
    return changes


def sampled_shapley(
    complex_: NeighborComplex, permutations: int, seed: int
) -> InfluenceResult:
    """Monte Carlo Shapley scores from uniform random insertion orders.

    Permutation j is drawn from counter block j of the Philox stream
    keyed by ``seed`` (:func:`~topoinfluence.streams.philox_block`), so
    estimates are reproducible and any prefix of the run can be replayed
    independently of the rest.  One generator is repositioned block by
    block.
    """
    n = complex_.n
    check_permutations(permutations)
    sums = np.zeros(n, dtype=np.int64)
    sumsq = np.zeros(n, dtype=np.int64)
    rng = None
    for j in range(permutations):
        rng = philox_block(seed, j, rng)
        marginals = permutation_marginals(complex_, rng.permutation(n))
        sums += marginals
        marginals *= marginals
        sumsq += marginals
    p = permutations
    scores = sums / p
    if p > 1:
        variance = (sumsq - p * scores**2) / (p - 1)
        variance = np.maximum(variance, 0.0)
        std_error = np.sqrt(variance / p)
    else:
        std_error = np.zeros(n)
    return InfluenceResult(
        labels=_labels_of(complex_),
        shapley=tuple(float(s) for s in scores),
        method="sampled",
        permutations=p,
        seed=seed,
        std_error=tuple(float(e) for e in std_error),
    )


def compute_influence(
    complex_: NeighborComplex,
    labels: Sequence[str] | None = None,
    mode: str = "exact",
    cap: int = DEFAULT_EXACT_CAP,
    permutations: int = 0,
    seed: int = 0,
) -> InfluenceResult:
    """Front door: dispatch to exact or sampled evaluation.

    ``labels`` override the positional defaults; length must match.
    """
    if mode == "exact":
        result = exact_shapley(complex_, cap=cap)
    elif mode == "sampled":
        result = sampled_shapley(complex_, permutations=permutations, seed=seed)
    else:
        raise InputError(f"unknown mode {mode!r}, expected 'exact' or 'sampled'")
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != result.n:
            raise InputError(
                f"{len(labels)} labels for {result.n} samples"
            )
        result = replace(result, labels=labels)
    return result


def _labels_of(complex_: NeighborComplex) -> tuple[str, ...]:
    return tuple(str(i) for i in range(complex_.n))
