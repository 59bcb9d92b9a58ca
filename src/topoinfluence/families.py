"""Graph families with closed-form influence oracles, and related sums.

Each analytic family pairs a constructor with the exact rational Shapley
scores derived by hand for it.  The pairs serve as oracles: the
enumeration engine must reproduce these numbers at every size, and any
drift in either side breaks the agreement.  All closed forms are
Fractions; nothing here rounds.  The module holds scores only: their
distribution and entropy come from ``InfluenceResult`` with method
``closed_form``, as for any engine result.

Index conventions, fixed so score vectors line up with constructors:

complete            vertices 0..n-1, no roles
cycle               vertices 0..n-1 in cyclic order
wheel               vertices 0..n-2 form the rim cycle, n-1 is the hub
star                vertices 0..n-2 are leaves, n-1 is the center
path                vertices 0..n-1 left to right
complete_bipartite  left side 0..m-1, right side m..m+n-1
erdos_renyi         vertices 0..n-1 (random; no closed form)

The module also carries the three combinatorial identities the wheel,
star, and bipartite derivations rest on, checked in exact integer
arithmetic over a parameter range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InputError
from .metric_complex import NeighborComplex


def complete_graph(n: int) -> NeighborComplex:
    if n < 1:
        raise InputError(f"complete graph needs n >= 1, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return NeighborComplex.from_edges(n, edges)


def cycle_graph(n: int) -> NeighborComplex:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return NeighborComplex.from_edges(n, edges)


def wheel_graph(n: int) -> NeighborComplex:
    """Hub joined to every vertex of an (n-1)-cycle; n vertices total,
    hub last."""
    if n < 4:
        raise InputError(f"wheel needs n >= 4, got {n}")
    hub = n - 1
    edges = [(i, (i + 1) % hub) for i in range(hub)]
    edges += [(hub, v) for v in range(hub)]
    return NeighborComplex.from_edges(n, edges)


def star_graph(n: int) -> NeighborComplex:
    """Center joined to n-1 leaves; n vertices total, center last."""
    if n < 2:
        raise InputError(f"star needs n >= 2, got {n}")
    center = n - 1
    edges = [(v, center) for v in range(n - 1)]
    return NeighborComplex.from_edges(n, edges)


def path_graph(n: int) -> NeighborComplex:
    if n < 2:
        raise InputError(f"path needs n >= 2, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return NeighborComplex.from_edges(n, edges)


def complete_bipartite_graph(m: int, n: int) -> NeighborComplex:
    if m < 1 or n < 1:
        raise InputError(f"complete bipartite needs m, n >= 1, got {m}, {n}")
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return NeighborComplex.from_edges(m + n, edges)


def erdos_renyi_graph(n: int, p: float, seed: int) -> NeighborComplex:
    """Each of the C(n, 2) edges present independently with probability p.

    Deterministic per (n, p, seed); isolated vertices are kept, since
    component counts are the whole point downstream.
    """
    if n < 1:
        raise InputError(f"random graph needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return NeighborComplex.from_edges(n, _er_edges(rng, n, p))


# Erdos-Renyi graphs draw their uniforms this many at a time, so memory
# stays flat in n; chunked draws continue one stream, byte for byte.
ER_BLOCK_DRAWS = 1 << 16


def _er_edges(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    """One uniform draw per pair i < j in row-major order; the pair is an
    edge when its draw falls below p.  The draws come in blocks of
    ER_BLOCK_DRAWS, and only the hits are mapped back to their (i, j), by
    a row pointer: draws [end - (n-1-i), end) are row i's, counted from
    the start of the current block."""
    edges, i, end = [], 0, n - 1
    for left in range(n * (n - 1) // 2, 0, -ER_BLOCK_DRAWS):
        draws = rng.random(min(left, ER_BLOCK_DRAWS))
        for k in np.flatnonzero(draws < p).tolist():
            while k >= end:
                i += 1
                end += n - 1 - i
            edges.append((i, k - end + n))
        end -= len(draws)
    return edges


def complete_scores(n: int) -> tuple[Fraction, ...]:
    """Every vertex of K_n scores 1/n: only the first arrival ever
    changes the component count."""
    if n < 1:
        raise InputError(f"complete graph needs n >= 1, got {n}")
    return (Fraction(1, n),) * n


def cycle_scores(n: int) -> tuple[Fraction, ...]:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return (Fraction(2, 3) - Fraction(1, n),) * n


def wheel_scores(n: int) -> tuple[Fraction, ...]:
    if n < 4:
        raise InputError(f"wheel needs n >= 4, got {n}")
    rim = Fraction(1, 3) - Fraction(1, n * (n - 1))
    hub = Fraction(n * n - 7 * n + 18, 6 * n)
    return (rim,) * (n - 1) + (hub,)


def star_scores(n: int) -> tuple[Fraction, ...]:
    if n < 2:
        raise InputError(f"star needs n >= 2, got {n}")
    center = Fraction(n * n - 3 * n + 4, 2 * n)
    return (Fraction(1, 2),) * (n - 1) + (center,)


def path_scores(n: int) -> tuple[Fraction, ...]:
    """Interior vertices score 2/3, endpoints 1/2.  At n = 2 both
    vertices are endpoints and the path is K_2, scoring 1/2 = 1/n."""
    if n < 2:
        raise InputError(f"path needs n >= 2, got {n}")
    if n == 2:
        return (Fraction(1, 2), Fraction(1, 2))
    return (Fraction(1, 2),) + (Fraction(2, 3),) * (n - 2) + (Fraction(1, 2),)


def complete_bipartite_scores(m: int, n: int) -> tuple[Fraction, ...]:
    if m < 1 or n < 1:
        raise InputError(f"complete bipartite needs m, n >= 1, got {m}, {n}")

    def side(a: int, b: int) -> Fraction:
        # Score of a vertex on the a-sized side facing a b-sized side.
        return Fraction(b * (b - 1), a * (a + 1) * (a + b)) + Fraction(1, b + 1)

    return (side(m, n),) * m + (side(n, m),) * n


@dataclass(frozen=True)
class Family:
    """A named analytic family: constructor, exact scores, vertex roles."""

    name: str
    arity: int  # number of size parameters
    min_params: tuple[int, ...]
    build: Callable[..., NeighborComplex]
    scores: Callable[..., tuple[Fraction, ...]]
    roles: Callable[..., tuple[str, ...]]


FAMILIES: dict[str, Family] = {
    "complete": Family(
        "complete", 1, (1,), complete_graph, complete_scores,
        lambda n: ("vertex",) * n,
    ),
    "cycle": Family(
        "cycle", 1, (3,), cycle_graph, cycle_scores,
        lambda n: ("vertex",) * n,
    ),
    "wheel": Family(
        "wheel", 1, (4,), wheel_graph, wheel_scores,
        lambda n: ("rim",) * (n - 1) + ("hub",),
    ),
    "star": Family(
        "star", 1, (2,), star_graph, star_scores,
        lambda n: ("leaf",) * (n - 1) + ("center",),
    ),
    "path": Family(
        "path", 1, (2,), path_graph, path_scores,
        lambda n: ("end",) + ("interior",) * (n - 2) + ("end",),
    ),
    "complete_bipartite": Family(
        "complete_bipartite", 2, (1, 1),
        complete_bipartite_graph, complete_bipartite_scores,
        lambda m, n: ("left",) * m + ("right",) * n,
    ),
}


def get_family(name: str) -> Family:
    key = name.replace("-", "_")
    if key not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise InputError(f"unknown family {name!r}; known: {known}")
    return FAMILIES[key]


# --- combinatorial identities -------------------------------------------
#
# The closed forms above reduce, after grouping coalitions by size, to
# three finite sums.  Those sums must equal simple rational targets for
# the derivations to be sound, so they get checked directly, in integer
# arithmetic, over a whole parameter range.  Each identity below states
# its sum, its target, and its validity range.


def _identity_star(big_n: int, m: int) -> tuple[Fraction, Fraction]:
    """sum over k of C(N-m, k) k! (N-k-1)! / N!  ==  1/m,  1 <= m <= N."""
    total = sum(
        math.comb(big_n - m, k) * math.factorial(k) * math.factorial(big_n - k - 1)
        for k in range(0, big_n - m + 1)
    )
    return Fraction(total, math.factorial(big_n)), Fraction(1, m)


def _identity_bipartite(m: int, n: int) -> tuple[Fraction, Fraction]:
    """sum over k >= 2 of C(m, k)(k-1) k! (m+n-k-1)! / (m+n)!
    ==  m(m-1) / (n(n+1)(m+n)),  m, n >= 1."""
    total = sum(
        math.comb(m, k)
        * (k - 1)
        * math.factorial(k)
        * math.factorial(m + n - k - 1)
        for k in range(2, m + 1)
    )
    lhs = Fraction(total, math.factorial(m + n))
    rhs = Fraction(m * (m - 1), n * (n + 1) * (m + n))
    return lhs, rhs


def _identity_wheel(big_n: int) -> tuple[Fraction, Fraction]:
    """Double sum over rim-arc splits == (N-3)(N-4)/(6N),  N >= 3.

    T(N, k, m) = (N/m) C(m, k) C(N-m-1, k-1) counts the ways to choose k
    disjoint arcs covering m vertices of an N-cycle; the inner sum runs
    k = 2..min(m, N-m-1).  Evaluated over a common denominator m=1..N so
    the arithmetic stays integral.
    """
    if big_n < 3:
        raise InputError(f"wheel identity needs N >= 3, got {big_n}")
    cycle = big_n - 1  # arcs live on the rim of an N-vertex wheel
    total = Fraction(0)
    for m in range(2, big_n - 2):
        inner = 0
        for k in range(2, min(m, big_n - m - 1) + 1):
            t = Fraction(cycle, m) * math.comb(m, k) * math.comb(cycle - m - 1, k - 1)
            inner += t * (k - 1)
        total += (
            inner * math.factorial(m) * math.factorial(big_n - m - 1)
        )
    lhs = total / math.factorial(big_n)
    rhs = Fraction((big_n - 3) * (big_n - 4), 6 * big_n)
    return lhs, rhs


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of sweeping the three identities over a parameter range."""

    n_max: int
    checked: dict[str, int] = field(default_factory=dict)
    mismatches: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_combinatorial_identities(n_max: int = 20) -> IdentityReport:
    """Evaluate all three identities for every valid parameter up to n_max.

    Exact rational arithmetic throughout; a mismatch records the
    parameters and both sides.  n_max is capped at 25 to keep the
    factorial blowup in check.
    """
    if not 1 <= n_max <= 25:
        raise InputError(f"n_max must lie in 1..25, got {n_max}")
    checked = {"star": 0, "bipartite": 0, "wheel": 0}
    mismatches = []

    for big_n in range(1, n_max + 1):
        for m in range(1, big_n + 1):
            lhs, rhs = _identity_star(big_n, m)
            checked["star"] += 1
            if lhs != rhs:
                mismatches.append(("star", (big_n, m), lhs, rhs))

    for m in range(1, n_max):
        for n in range(1, n_max - m + 1):
            lhs, rhs = _identity_bipartite(m, n)
            checked["bipartite"] += 1
            if lhs != rhs:
                mismatches.append(("bipartite", (m, n), lhs, rhs))

    for big_n in range(3, n_max + 1):
        lhs, rhs = _identity_wheel(big_n)
        checked["wheel"] += 1
        if lhs != rhs:
            mismatches.append(("wheel", (big_n,), lhs, rhs))

    return IdentityReport(n_max=n_max, checked=checked, mismatches=mismatches)
