"""Reference routes the benchmark holds the program's payloads against.

Nothing here calls the program's engine, loaders, distance code or
masking harness.  The routes are:

* closed forms (from ``topoinfluence.families``), for graphs built from
  the analytic families;
* a numpy-vectorized Levenshtein, for the edge set of a string sweep;
* an exact Shapley routine with its own subset table (a vectorized
  closure per subset, not the program's bitmask flood fill), for small
  components and masking graphs;
* a re-derivation of the masking experiment from its published seeding
  scheme, with its own component counts.

Every ``check_*`` function reads only the envelope's ``payload``, never
its ``config`` echo, and returns one message per mismatch (empty when
the payload is right).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# A sampled score may sit this many standard errors from the exact one.
# Across 900 vertices the worst |z| is about 3.3, so 6 leaves ample room
# while a score moved by 10 standard errors is still caught.
Z_MAX = 6.0

# Components up to this size get an exact reference in a sampled sweep.
EXACT_COMPONENT_MAX = 20

# The masking generator's rejection budget per requested graph.
ATTEMPTS_PER_GRAPH = 2000

_TOLERANCE = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_TOLERANCE, abs_tol=_TOLERANCE)


def _entropy(mu) -> float:
    return -math.fsum(float(p) * math.log(float(p)) for p in mu if p > 0)


# --- graphs ---------------------------------------------------------------


def adjacency(n: int, edges) -> list[int]:
    """Neighbour bitmask per vertex."""
    rows = [0] * n
    for u, v in edges:
        if u != v:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def components(n: int, rows: list[int], keep: int | None = None) -> list[list[int]]:
    """Vertex lists of the components of the subgraph induced on ``keep``
    (all vertices when None), by breadth-first search."""
    if keep is None:
        keep = (1 << n) - 1
    seen = 0
    out = []
    for v in range(n):
        if not keep >> v & 1 or seen >> v & 1:
            continue
        seen |= 1 << v
        members = [v]
        for u in members:
            for w in range(n):
                if rows[u] >> w & 1 and keep >> w & 1 and not seen >> w & 1:
                    seen |= 1 << w
                    members.append(w)
        out.append(members)
    return out


def _component_counts(n: int, rows: list[int]) -> np.ndarray:
    """b0 of the induced subgraph on every subset, as an int64 array."""
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    # Union of the neighbour sets of the bits in one byte of a mask.
    lookups = []
    for base in range(0, n, 8):
        table = np.zeros(256, dtype=np.int64)
        for byte in range(1, 256):
            low = byte & -byte
            v = base + low.bit_length() - 1
            table[byte] = table[byte ^ low] | (rows[v] if v < n else 0)
        lookups.append(table)
    # Grow every subset's lowest-vertex component to its closure at once.
    component = masks & -masks
    while True:
        grown = component.copy()
        for k, table in enumerate(lookups):
            grown |= table[(component >> (8 * k)) & 255]
        grown &= masks
        if np.array_equal(grown, component):
            break
        component = grown
    rest = masks ^ component
    sizes = np.bitwise_count(masks)
    counts = np.zeros(size, dtype=np.int64)
    # rest has fewer bits than its mask, so fill by subset size.
    for k in range(1, n + 1):
        level = masks[sizes == k]
        counts[level] = counts[rest[level]] + 1
    return counts


def exact_moments(n: int, rows: list[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Exact first and second moments of each vertex's absolute marginal
    |b0(C + i) - b0(C)| under the Shapley coalition weights.  The first
    moment is the vertex's score."""
    counts = _component_counts(n, rows)
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(masks)
    n_fact = math.factorial(n)
    weights = [
        Fraction(math.factorial(k) * math.factorial(n - 1 - k), n_fact)
        for k in range(n)
    ]
    first, second = [], []
    for i in range(n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        diff = np.abs(counts[without | bit] - counts[without]).astype(np.float64)
        by_size = sizes[without]
        # Float sums of small integers are exact well below 2^53.
        t1 = np.bincount(by_size, weights=diff, minlength=n)
        t2 = np.bincount(by_size, weights=diff * diff, minlength=n)
        first.append(sum((w * int(t) for w, t in zip(weights, t1)), Fraction(0)))
        second.append(sum((w * int(t) for w, t in zip(weights, t2)), Fraction(0)))
    return first, second


def exact_scores(n: int, rows: list[int]) -> list[Fraction]:
    return exact_moments(n, rows)[0]


# --- strings --------------------------------------------------------------


def edit_distances(strings: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, d) over all pairs i < j: Levenshtein distance by the
    row-by-row dynamic program, vectorized across pairs."""
    n = len(strings)
    width = max(len(s) for s in strings)
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    codes = np.zeros((n, max(width, 1)), dtype=np.int32)
    for k, s in enumerate(strings):
        codes[k, :len(s)] = [ord(c) for c in s]
    left, right = np.triu_indices(n, 1)
    a, b = codes[left], codes[right]
    la, lb = lengths[left], lengths[right]
    pairs = np.arange(len(left))
    # prev[:, j] is the distance between a[:i] and b[:j].
    prev = np.tile(np.arange(width + 1, dtype=np.int64), (len(left), 1))
    dist = lb.copy()  # a empty: insert all of b
    for i in range(1, width + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        for j in range(1, width + 1):
            cost = (a[:, i - 1] != b[:, j - 1]).astype(np.int64)
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j], cur[:, j - 1]) + 1, prev[:, j - 1] + cost
            )
        prev = cur
        done = la == i
        dist[done] = cur[pairs[done], lb[done]]
    return left, right, dist


def edit_edge_sets(strings: list[str], radii) -> dict:
    """Per radius r, the pairs (i, j), i < j, at edit distance at most r."""
    left, right, dist = edit_distances(strings)
    return {
        r: frozenset(zip(left[dist <= r].tolist(), right[dist <= r].tolist()))
        for r in radii
    }


# --- checks ---------------------------------------------------------------


def check_exact_profile(scores, envelope: dict) -> list[str]:
    """Exact profile against known rational scores, bit for bit."""
    payload = envelope["payload"]
    errors = []
    if payload["method"] != "exact" or payload["n"] != len(scores):
        return [f"method {payload['method']} n {payload['n']}, "
                f"expected exact n {len(scores)}"]
    total = sum(scores)
    mu = [s / total for s in scores]
    for i, sample in enumerate(payload["samples"]):
        want = (str(scores[i]), str(mu[i]), float(scores[i]), float(mu[i]))
        got = (sample["s_exact"], sample["mu_exact"], sample["s"], sample["mu"])
        if got != want:
            errors.append(f"sample {i}: (s_exact, mu_exact, s, mu) {got} != {want}")
    if payload["total_s"] != float(total):
        errors.append(f"total_s {payload['total_s']} != {float(total)}")
    if not _close(payload["entropy_nats"], _entropy(mu)):
        errors.append(f"entropy {payload['entropy_nats']} != {_entropy(mu)}")
    return errors


def _check_sampled_samples(samples, expected) -> list[str]:
    """``expected[i]`` is (exact score, standard error to judge by) or None
    for a vertex with no reference.  The judging error falls back to the
    reported one when None."""
    errors = []
    s = [sample["s"] for sample in samples]
    total = math.fsum(s)
    for i, sample in enumerate(samples):
        if not _close(sample["mu"], s[i] / total):
            errors.append(f"sample {i}: mu {sample['mu']} != s/total {s[i] / total}")
        if expected[i] is None:
            continue
        exact, se = expected[i]
        se = sample["std_error"] if se is None else se
        gap = abs(s[i] - float(exact))
        if (se == 0 and gap != 0) or (se > 0 and gap > Z_MAX * se):
            errors.append(
                f"sample {i}: s {s[i]} is {gap / se if se else math.inf:.1f} "
                f"standard errors from exact {float(exact)}"
            )
    return errors


def check_sampled_profile(scores, permutations: int, envelope: dict) -> list[str]:
    """Sampled profile: every vertex within Z_MAX reported standard errors
    of its known score."""
    payload = envelope["payload"]
    if (payload["method"], payload["n"], payload["permutations"]) != (
        "sampled", len(scores), permutations
    ):
        return [f"method {payload['method']} n {payload['n']} permutations "
                f"{payload['permutations']}, expected sampled n {len(scores)} "
                f"permutations {permutations}"]
    return _check_sampled_samples(payload["samples"], [(s, None) for s in scores])


def sweep_expectations(n: int, permutations: int, edges) -> list:
    """Per vertex (exact score, exact standard error of a P-permutation
    mean) when its component has at most EXACT_COMPONENT_MAX vertices,
    else None.  An isolated vertex always scores exactly 1."""
    rows = adjacency(n, edges)
    expected: list = [None] * n
    for members in components(n, rows):
        if len(members) > EXACT_COMPONENT_MAX:
            continue
        index = {v: k for k, v in enumerate(members)}
        sub = [0] * len(members)
        for v in members:
            for w in members:
                if rows[v] >> w & 1:
                    sub[index[v]] |= 1 << index[w]
        first, second = exact_moments(len(members), sub)
        for v in members:
            mean, square = first[index[v]], second[index[v]]
            expected[v] = (mean, math.sqrt(float(square - mean * mean) / permutations))
    return expected


def check_sweep(n: int, permutations: int, edge_sets: dict, envelope: dict) -> list[str]:
    """Sampled sweep: one profile per radius, each judged against the
    components of the reference edge set at that radius."""
    profiles = envelope["payload"]["profiles"]
    radii = sorted(edge_sets)
    if [p["radius"] for p in profiles] != [float(r) for r in radii]:
        return [f"radii {[p['radius'] for p in profiles]} != {radii}"]
    errors = []
    for radius, profile in zip(radii, profiles):
        if (profile["method"], profile["n"], profile["permutations"]) != (
            "sampled", n, permutations
        ):
            errors.append(f"r={radius}: method {profile['method']} n "
                          f"{profile['n']} permutations {profile['permutations']}")
            continue
        expected = sweep_expectations(n, permutations, edge_sets[radius])
        errors += [
            f"r={radius} {message}"
            for message in _check_sampled_samples(profile["samples"], expected)
        ]
    return errors


def masking_dataset(count, n_range, p_range, seed):
    """The experiment's graphs as (n, rows, label), drawn by its documented
    scheme: attempt a uses Philox(seed) counter block a; draw n, then p,
    then one uniform per vertex pair; keep the graph while its component
    count's class (1, 2 or 3) has quota left."""
    base, extra = divmod(count, 3)
    room = {c: base + (1 if c <= extra else 0) for c in (1, 2, 3)}
    out = []
    attempt = 0
    while len(out) < count and attempt < count * ATTEMPTS_PER_GRAPH:
        rng = np.random.Generator(np.random.Philox(key=seed, counter=attempt << 64))
        attempt += 1
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        p = float(rng.uniform(*p_range))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        draws = rng.random(len(pairs))
        rows = adjacency(n, [pair for pair, u in zip(pairs, draws) if u < p])
        label = len(components(n, rows))
        if room.get(label, 0) > 0:
            room[label] -= 1
            out.append((n, rows, label))
    return out


def masking_rows(count, n_range, p_range, j_values, seed) -> list[dict]:
    """Every row of the masking experiment, re-derived: top and bottom J
    from the exact ranking (highest score first, ties by index), random J
    from Philox(seed) counter block (graph << 20 | J), labels by counting
    the components left."""
    rows_out = []
    for g, (n, rows, label) in enumerate(masking_dataset(count, n_range, p_range, seed)):
        scores = exact_scores(n, rows)
        ranking = sorted(range(n), key=lambda i: (-scores[i], i))
        for j in j_values:
            rng = np.random.Generator(
                np.random.Philox(key=seed, counter=((g << 20) | j) << 64)
            )
            picks = {
                "top": ranking[:j],
                "bottom": ranking[n - j:] if j else [],
                "random": [int(v) for v in rng.choice(n, size=j, replace=False)],
            }
            for variant in ("top", "bottom", "random"):
                keep = ((1 << n) - 1) & ~sum(1 << v for v in set(picks[variant]))
                after = len(components(n, rows, keep))
                rows_out.append({
                    "graph": g, "n": n, "j": j, "variant": variant,
                    "label_before": label, "label_after": after,
                    "flipped": after != label,
                })
    return rows_out


def check_masking(count, n_range, p_range, j_values, seed, envelope: dict) -> list[str]:
    """Masking payload against re-derived rows and rates recomputed from them."""
    payload = envelope["payload"]
    errors = []
    if payload["graph_count"] != count or payload["j_values"] != list(j_values):
        errors.append(f"graph_count {payload['graph_count']} j_values "
                      f"{payload['j_values']}, expected {count} {list(j_values)}")
    want_rows = masking_rows(count, n_range, p_range, j_values, seed)
    got_rows = payload["rows"]
    if len(got_rows) != len(want_rows):
        errors.append(f"{len(got_rows)} rows, expected {len(want_rows)}")
    for k, (got, want) in enumerate(zip(got_rows, want_rows)):
        if got != want:
            errors.append(f"row {k}: {got} != {want}")
    want_rates = []
    for j in j_values:
        for variant in ("top", "bottom", "random"):
            hits = [r for r in want_rows if r["j"] == j and r["variant"] == variant]
            rate = sum(r["flipped"] for r in hits) / len(hits)
            want_rates.append({"j": j, "variant": variant, "rate": rate})
    if payload["rates"] != want_rates:
        errors.append(f"rates {payload['rates']} != {want_rates}")
    return errors
