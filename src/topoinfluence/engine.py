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

Two evaluation modes:

exact     subset table over all 2^n coalitions, rational arithmetic on
          integer marginal tallies; bit-for-bit reproducible.
sampled   Monte Carlo over uniformly random insertion orders, each
          walked once by the union-find walk of
          ``homology.component_changes`` over the complex's neighbour
          tuples, O(n + m) list reads per order; the predecessor set of i in a
          uniform permutation is exactly a coalition drawn with the
          Shapley weights, so the running mean of the walk marginals is
          unbiased for s(i).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, SizeCapError
from .homology import CHUNK_BITS, TABLE_HARD_MAX, betti0_table, component_changes
from .metric_complex import NeighborComplex

# Exact mode is opt-in above this size because the subset table costs
# O(2^n) space and the accumulation O(n 2^n) time.
DEFAULT_EXACT_CAP = 20


@dataclass(frozen=True)
class InfluenceResult:
    """Per-sample scores with the distribution and entropy derived from them.

    ``shapley`` holds Fractions in exact mode and floats in sampled mode;
    ``mu`` likewise.  ``entropy`` is in nats.  ``std_error`` is the
    per-sample standard error of the sampled estimate, empty for exact.
    """

    labels: tuple[str, ...]
    shapley: tuple
    mu: tuple
    entropy: float
    method: str
    permutations: int = 0
    seed: int | None = None
    std_error: tuple = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return len(self.shapley)

    @property
    def total(self):
        """Sum of the scores; in sampled mode numpy's sum, the divisor of ``mu``."""
        if self.method == "sampled":
            return float(np.sum(self.shapley))
        return sum(self.shapley)


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


def _marginal_tallies(complex_: NeighborComplex) -> np.ndarray:
    """tallies[i][k] = sum of |b0(C + i) - b0(C)| over coalitions C of
    size k avoiding i.  Integer-valued; returned as int64.

    For vertex i the subset table is viewed, without copying, as shape
    (2^(n-1-i), 2, 2^i): entry [a, 0, c] is t[m] for the coalition
    m = a 2^(i+1) + c, which avoids i, and [a, 1, c] is t[m | 2^i].  The
    signed marginal is the difference of the two planes, and |m| is the
    popcount of the pair index p = a 2^i + c.  Each chunk of 2^CHUNK_BITS
    pairs is counted by an integer bincount keyed by (|m|, marginal), and
    the absolute values are applied to the counts at the end, so the sums
    stay exact with no float weights.
    """
    n = complex_.n
    table = betti0_table(complex_)
    width = 2 * n + 1  # a signed marginal lies in -n..n
    bits = min(CHUNK_BITS, n - 1)
    chunk = 1 << bits
    # A chunk starts at a multiple p0 of its length, so the popcount of
    # p0 + r is popcount(p0) + popcount(r): keys are a fixed base shifted
    # by popcount(p0) rows of ``width``.
    base = np.bitwise_count(np.arange(chunk)).astype(np.int16) * width + n
    span = (bits + 1) * width
    counts = np.zeros((n, n * width), dtype=np.int64)
    for i in range(n):
        pairs = table.reshape(-1, 2, 1 << i)
        cols = min(1 << i, chunk)
        rows = chunk // cols
        for p0 in range(0, 1 << (n - 1), chunk):
            a, c = divmod(p0, 1 << i)
            block = pairs[a : a + rows, :, c : c + cols]
            key = base.reshape(rows, cols) + (block[:, 1] - block[:, 0])
            off = p0.bit_count() * width
            counts[i, off : off + span] += np.bincount(key.ravel(), minlength=span)
    return counts.reshape(n, n, width) @ np.abs(np.arange(-n, n + 1))


def check_exact_cap(n: int, cap: int) -> None:
    """Refuse exact enumeration of n vertices above ``cap``, which is
    itself clamped to the table's hard maximum."""
    cap = min(cap, TABLE_HARD_MAX)
    if n > cap:
        raise SizeCapError(
            f"exact enumeration for n={n} exceeds cap {cap}; "
            f"raise the cap (hard max {TABLE_HARD_MAX}) or sample"
        )


def exact_shapley(
    complex_: NeighborComplex, cap: int = DEFAULT_EXACT_CAP
) -> InfluenceResult:
    """Exact rational Shapley scores by full coalition enumeration.

    Refuses n above ``cap``; raising the cap past the default is allowed
    up to the table's hard maximum but warns, since time grows as
    O(n 2^n) and memory as 2^n bytes.

    n! s(i) = sum_k k! (n-1-k)! tallies[i, k] is an integer, built with
    Python ints (n! overflows int64 past n = 20); each score and each mu
    entry is then one Fraction of two integers.
    """
    n = complex_.n
    check_exact_cap(n, cap)
    if n > DEFAULT_EXACT_CAP:
        warnings.warn(
            f"exact enumeration at n={n} fills a 2^{n}-entry subset table; "
            "time and memory roughly double with each vertex past the default cap",
            RuntimeWarning,
            stacklevel=2,
        )
    weights = [math.factorial(k) * math.factorial(n - 1 - k) for k in range(n)]
    numerators = [
        sum(w * t for w, t in zip(weights, row))
        for row in _marginal_tallies(complex_).tolist()
    ]
    n_fact, total = math.factorial(n), sum(numerators)
    mu = tuple(Fraction(num, total) for num in numerators)
    return InfluenceResult(
        labels=_labels_of(complex_),
        shapley=tuple(Fraction(num, n_fact) for num in numerators),
        mu=mu,
        entropy=shannon_entropy(mu),
        method="exact",
    )


def permutation_marginals(
    complex_: NeighborComplex, order: Sequence[int]
) -> list[int]:
    """Absolute component-count marginals along one insertion order.

    marginals[i] belongs to vertex i (not to position): |b0(P + i) - b0(P)|
    for the vertices P before i, the absolute values of
    :func:`~topoinfluence.homology.component_changes`.  ``order`` must be
    a permutation of 0..n-1.
    """
    n = complex_.n
    if len(order) != n:
        raise InputError(f"order must be a permutation of 0..{n - 1}")
    return [abs(c) for c in component_changes(complex_, order)]


def sampled_shapley(
    complex_: NeighborComplex, permutations: int, seed: int
) -> InfluenceResult:
    """Monte Carlo Shapley scores from uniform random insertion orders.

    Permutation j is drawn from a Philox stream keyed by ``seed`` with
    counter block j, so estimates are reproducible and any prefix of the
    run can be replayed independently of the rest.
    """
    n = complex_.n
    if permutations <= 0:
        raise InputError(f"need at least one permutation, got {permutations}")
    sums = np.zeros(n, dtype=np.int64)
    sumsq = np.zeros(n, dtype=np.int64)
    for j in range(permutations):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=j << 64))
        order = rng.permutation(n).tolist()
        marginals = np.array(permutation_marginals(complex_, order), dtype=np.int64)
        sums += marginals
        sumsq += marginals * marginals
    p = permutations
    scores = sums / p
    if p > 1:
        variance = (sumsq - p * scores**2) / (p - 1)
        variance = np.maximum(variance, 0.0)
        std_error = np.sqrt(variance / p)
    else:
        std_error = np.zeros(n)
    total = float(scores.sum())
    mu = scores / total
    return InfluenceResult(
        labels=_labels_of(complex_),
        shapley=tuple(float(s) for s in scores),
        mu=tuple(float(m) for m in mu),
        entropy=shannon_entropy(mu),
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
