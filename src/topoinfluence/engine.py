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

exact     closed form on a chordal graph, else a
          subset table over all 2^n coalitions.  The signed marginal
          b0(C + i) - b0(C) is 1 minus the number of components among
          i's neighbours in C, so the absolute one is 2 [i has no
          neighbour in C] minus it.  Averaged with the Shapley weights the
          first term is 2 / (deg i + 1), twice the chance that i precedes
          all its neighbours in a random order, so

              s(i) = 2 / (deg i + 1) - phi(i)

          with phi the plain signed Shapley value of b0, read off
          size-graded sums of the table, which ``homology`` fills and sums.
          The table numbers the vertices smallest-last: each vertex outside
          the 2-core then has at most one neighbour numbered below it, its
          block of the table fills in one broadcast pass, and its phi
          comes in closed form, so only the core's subsets are summed.
          Twins in the core, vertices with one set of neighbours (the
          sides of a complete bipartite block, duplicate samples), are
          interchangeable, so b0 of a core subset depends only on how
          many members of each twin class it holds; when the count
          vectors are fewer than the subsets, ``_twin_sums`` sums them
          in place of the 2^n table.  Each n! s(i) is a Python int, so
          scores are bit-for-bit reproducible Fractions.  In a chordal
          graph (no chordless cycle of four or more vertices: forests,
          cliques, 1-D point complexes) b0 of every induced subgraph is
          the signed count of its cliques, so ``_chordal_scores`` needs
          no table.  The cap applies to every route, the past-cap warning
          only to the 2^n table.  The engine holds the cap and weights
          and runs every route.
sampled   Monte Carlo over uniformly random insertion orders; the
          predecessor set of i in a uniform permutation is exactly a
          coalition drawn with the Shapley weights, so the running mean
          of the walk marginals is unbiased for s(i).  b1 = b0 - |V| + |E|
          adds up over blocks, so ``blocks.block_changes`` scores each
          order block by block over the layout that
          ``NeighborComplex.pieces`` builds once per complex from one
          depth-first search.  Order j is the permutation drawn from
          counter block j of the seed's Philox stream, with one generator
          repositioned from block to block.  The sums and sums of
          squares are the two int64 rows of one array, so a run that
          predicts enough walking left after its first orders hands the
          blocks left, in contiguous ranges, to forked processes, one
          per usable CPU (``topoinfluence.parallel``), and adds their
          arrays in: the result is the same for any split.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .blocks import block_changes
from .errors import InputError, SizeCapError
from .homology import TABLE_HARD_MAX, _size_sums, betti0_table, component_changes
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


def exact_shapley(
    complex_: NeighborComplex, cap: int = DEFAULT_EXACT_CAP
) -> InfluenceResult:
    """Exact rational Shapley scores by full coalition enumeration.

    Refuses n above ``cap``, on every graph.  A chordal graph is scored by
    :func:`_chordal_scores` with no table.  Any other graph is renumbered
    by :func:`_smallest_last`, which leaves the scores as they are, and
    its tables are filled straight from adjacency rows, with no second
    complex built.

    Let c be one more than the highest renumbered vertex with two or more
    neighbours below it (c = 1 if none has): the 2-core's size.  Each
    b >= c has at most one, u_b, so b0(S) is b0(S & [0, c)) plus
    1 - [u_b in S] for each b >= c in S.  The size sums A, T over the
    core's subsets come from its twin classes by :func:`_twin_sums`: with
    t classes of m_q members, when t prod (m_q + 1) < 2^c, the t
    per-class sums over the count vectors touch fewer entries than the
    core's table has.  Otherwise the 2^n-entry table is filled and
    :func:`~topoinfluence.homology._size_sums` reads its first 2^c
    entries; past the default cap, up to the table's hard maximum, that
    warns, since time grows as O(n 2^n) and memory as 2^n bytes.  With
    w_k = k! (c-1-k)!,

        n! s(i) = 2 n! / (deg i + 1) - n! phi(i),
        n! phi(i) = n!/c! sum_k w_k (A[i, k+1] + A[i, k] - T[k])  for i < c,

    and each b >= c adds n!/2 to n! phi(b) and takes n!/2 from u_b's, or
    adds n! if it has no u_b.  The numerator is built with Python ints
    (n! overflows int64 past n = 20); each score is then one Fraction of
    two integers.
    """
    n = complex_.n
    check_exact_cap(n, cap)
    scores = _chordal_scores(complex_)
    if scores is not None:
        return InfluenceResult(labels=_labels_of(complex_), shapley=scores, method="exact")
    number = _smallest_last(complex_.neighbors)
    rows = [0] * n
    for v, adjacent in enumerate(complex_.neighbors):
        rows[number[v]] = sum(1 << number[u] for u in adjacent)
    below = [row & (1 << b) - 1 for b, row in enumerate(rows)]
    c = 1 + max((b for b, bits in enumerate(below) if bits.bit_count() > 1), default=0)
    counted = _twin_sums([row & (1 << c) - 1 for row in rows[:c]])
    if counted is None:
        if n > DEFAULT_EXACT_CAP:
            warnings.warn(
                f"exact enumeration at n={n} fills a 2^{n}-entry subset table; "
                "time and memory roughly double with each vertex past the default cap",
                RuntimeWarning,
                stacklevel=2,
            )
        counted = _size_sums(betti0_table(rows)[: 1 << c], c)
    sums, totals = counted
    weights = [math.factorial(k) * math.factorial(c - 1 - k) for k in range(c)]
    n_fact = math.factorial(n)
    scale = n_fact // math.factorial(c)
    # Row b, column k: A[b, k+1] + A[b, k] - T[k], b's signed marginals
    # summed over the size-k coalitions of the core that avoid it, exact
    # in int64.  Weighted by w_k, they add up on Python ints.
    marginals = sums[:, 1:] + sums[:, :-1] - totals[:-1]
    phi = [scale * sum(map(operator.mul, weights, row)) for row in marginals.tolist()]
    phi += [0] * (n - c)
    for b in range(c, n):
        if below[b]:
            phi[b] += n_fact // 2
            phi[below[b].bit_length() - 1] -= n_fact // 2
        else:
            phi[b] += n_fact
    # Entry number[i] of the renumbered n! phi is vertex i's.
    numerators = [
        2 * n_fact // (complex_.degree(i) + 1) - phi[number[i]] for i in range(n)
    ]
    return InfluenceResult(
        labels=_labels_of(complex_),
        shapley=tuple(Fraction(num, n_fact) for num in numerators),
        method="exact",
    )


def _twin_sums(core: list[int]) -> tuple[np.ndarray, np.ndarray] | None:
    """The size sums A, T of :func:`~topoinfluence.homology._size_sums`
    over the subset table of the graph on 0..c-1 whose rows are ``core``,
    summed over its twin classes' count vectors; None if it has no twins
    or if the t per-class sums would touch as many entries as that table.

    False twins have one row (an independent set), true twins one row
    plus themselves (a clique); each class meets another wholly or not
    at all, so b0 of a coalition holding kappa_q members of class q is
    the quotient table's entry for the classes it meets, plus
    kappa_q - 1 for each false class it meets with no neighbour class.
    C(m_q, kappa_q) coalitions share each kappa, a share kappa_q / m_q
    of them holding a given member of class q: T[k] and A[i, k] sum
    those products over |kappa| = k.  Each partial sum is an integer
    below 26 C(26, 13) < 2^53, so the float64 bincounts are exact."""
    c = len(core)
    closed = [row | 1 << b for b, row in enumerate(core)]
    if len(set(core)) == c == len(set(closed)):
        return None
    # A false class is named by its members' row, a true class or a lone
    # vertex by the closed row.
    key = [(True, row) if core.count(row) > 1 else (False, closed[b])
           for b, row in enumerate(core)]
    classes = list(dict.fromkeys(key))
    sizes = [key.count(name) for name in classes]
    if len(classes) * math.prod(m + 1 for m in sizes) >= 1 << c:
        return None
    of = [classes.index(name) for name in key]
    quotient = [
        sum({1 << of[u] for u in range(c) if core[key.index(name)] >> u & 1}) & ~(1 << q)
        for q, name in enumerate(classes)
    ]
    kappa = np.ix_(*(np.arange(m + 1) for m in sizes))
    size = sum(kappa).ravel()
    support = sum((k > 0) << q for q, k in enumerate(kappa))
    counts = betti0_table(quotient)[support].astype(np.int64)
    for (false, _), k, meets in zip(classes, kappa, quotient):
        if false:
            counts += ((support & meets) == 0) * np.maximum(k - 1, 0)
    counts *= math.prod(np.array([math.comb(m, j) for j in range(m + 1)])[k]
                        for m, k in zip(sizes, kappa))
    sums = [np.bincount(size, (counts * k // m).ravel(), c + 1) for m, k in zip(sizes, kappa)]
    totals = np.bincount(size, counts.ravel(), c + 1)
    return np.array(sums, dtype=np.int64)[of], totals.astype(np.int64)


def _smallest_last(neighbors: Sequence[Sequence[int]]) -> list[int]:
    """number[v] for each vertex v of the graph in which v's neighbours are
    ``neighbors[v]``, in smallest-last order (Matula & Beck 1983): a
    vertex of least degree among those not yet numbered, the lowest index
    of them, takes the highest free number.  No vertex then has more
    neighbours numbered below it than the graph's degeneracy, and every
    vertex outside the 2-core has at most one."""
    degree = [len(adjacent) for adjacent in neighbors]  # among the unnumbered
    number = [0] * len(neighbors)
    unnumbered = list(range(len(neighbors)))
    for k in reversed(range(len(neighbors))):
        v = min(unnumbered, key=degree.__getitem__)
        unnumbered.remove(v)
        number[v] = k
        for u in neighbors[v]:
            degree[u] -= 1
    return number


def _chordal_scores(complex_: NeighborComplex) -> tuple[Fraction, ...] | None:
    """The exact scores of a chordal graph in closed form, or None as soon
    as a vertex's earlier-numbered neighbours in maximum cardinality search
    are not a clique, the chordality test of Tarjan & Yannakakis (1984).
    Each clique K adds (-1)^(|K|+1) / |K| to each member's phi; with q(v)
    the number of v's earlier-numbered neighbours, s = 2 / (deg + 1) - phi is

        s(i) = 2 / (deg i + 1) - 1 / (q(i) + 1)
               + sum over later-numbered neighbours v of i of 1 / (q(v) (q(v) + 1)),

    over their common denominator, normalized by one Fraction."""
    rows, neighbors = complex_.rows, complex_.neighbors
    weight = [0] * complex_.n
    later: list[list[int]] = [[] for _ in weight]
    unnumbered = list(range(complex_.n))
    numbered = 0
    while unnumbered:
        v = max(unnumbered, key=weight.__getitem__)
        unnumbered.remove(v)
        earlier = rows[v] & numbered
        for u in neighbors[v]:
            if not earlier >> u & 1:
                weight[u] += 1
            elif earlier & ~rows[u] != 1 << u:  # u misses another of them
                return None
            else:
                later[u].append(weight[v])
        numbered |= 1 << v
    scores = []
    for i, qs in enumerate(later):
        d, q = len(neighbors[i]), weight[i]
        den = math.lcm(d + 1, q + 1, *(p * (p + 1) for p in qs))
        num = 2 * den // (d + 1) - den // (q + 1) + sum(den // (p * (p + 1)) for p in qs)
        scores.append(Fraction(num, den))
    return tuple(scores)


def permutation_marginals(
    complex_: NeighborComplex, order: Sequence[int]
) -> np.ndarray:
    """Absolute component-count marginals along one insertion order.

    marginals[i] belongs to vertex i (not to position): |b0(P + i) - b0(P)|
    for the vertices P before i, the absolute values of
    :func:`~topoinfluence.homology.component_changes` over the complex's
    ``neighbors``, as an int64 array.  ``order`` must be a permutation of
    0..n-1, as a sequence or an array of integers.  The signed changes
    come from :func:`~topoinfluence.blocks.block_changes`, block by block
    over the complex's cached ``pieces``.
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
    changes = block_changes(complex_.pieces, order, position)
    return np.abs(changes, out=changes)


def sampled_shapley(
    complex_: NeighborComplex, permutations: int, seed: int
) -> InfluenceResult:
    """Monte Carlo Shapley scores from uniform random insertion orders.

    Permutation j is drawn from counter block j of the Philox stream
    keyed by ``seed`` (:func:`~topoinfluence.streams.philox_block`), so
    estimates are reproducible and any prefix of the run can be replayed
    independently of the rest.  One generator is repositioned block by
    block.

    Every order is walked by :func:`~topoinfluence.parallel.sum_blocks`
    into one int64 array, marginal sums in row 0 and their squares in
    row 1.  It times chunks of 1, 2, 4, ... orders and, once it predicts
    enough walking left, hands the blocks left in contiguous ranges to
    forked processes, one per usable CPU.  Its first chunk, order 0, is
    walked in this process and builds the complex's pieces, so no child
    builds them again.  The sums are integers, so the result is the same
    for any split.
    """
    # Imported here, as only sampled and masking runs use it: at the top
    # it would add about 2 ms, its import of ``signal`` included, to every
    # CLI start.
    from . import parallel

    n = complex_.n
    check_permutations(permutations)
    totals = np.zeros((2, n), dtype=np.int64)
    rng = None

    def walk(blocks: range, totals: np.ndarray) -> None:
        nonlocal rng
        rng = _walk(complex_, seed, blocks, totals, rng)

    parallel.sum_blocks(walk, 0, permutations, totals)
    sums, sumsq = totals
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


def _walk(
    complex_: NeighborComplex,
    seed: int,
    blocks: range,
    totals: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.random.Generator:
    """Add the marginals of the orders of ``blocks`` to ``totals[0]`` and
    their squares to ``totals[1]``; returns the generator, repositioned
    block by block."""
    sums, sumsq = totals
    for j in blocks:
        rng = philox_block(seed, j, rng)
        marginals = permutation_marginals(complex_, rng.permutation(complex_.n))
        sums += marginals
        marginals *= marginals
        sumsq += marginals
    return rng


def compute_influence(
    complex_: NeighborComplex,
    labels: Sequence[str] | None = None,
    cap: int = DEFAULT_EXACT_CAP,
    permutations: int | None = None,
    seed: int = 0,
) -> InfluenceResult:
    """Front door: exact evaluation under ``cap``, or sampled evaluation
    of ``permutations`` orders from ``seed`` when it is given.

    ``labels`` override the positional defaults; length must match.
    """
    if permutations is None:
        result = exact_shapley(complex_, cap=cap)
    else:
        result = sampled_shapley(complex_, permutations=permutations, seed=seed)
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
