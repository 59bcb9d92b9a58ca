"""Engine tests.

The important oracle here is ``definition_shapley``: a from-scratch
evaluation of the defining sum over coalitions, sharing no code with the
engine's subset-table walk.  Agreement between the two is the main
correctness evidence for the exact path; the sampled path is checked for
unbiasedness (full-permutation average) and reproducibility.  The
marginal tallies behind the exact path are also held bit for bit against
the slow routes in ``oracles``, on graphs that span several chunks.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence import engine, homology
from topoinfluence import (
    FAMILIES,
    InfluenceResult,
    InputError,
    NeighborComplex,
    SizeCapError,
    complete_graph,
    compute_influence,
    cycle_graph,
    erdos_renyi_graph,
    exact_shapley,
    path_graph,
    permutation_marginals,
    sampled_shapley,
    shannon_entropy,
    star_graph,
    wheel_graph,
)

from oracles import (
    MULTI_CHUNK_GRAPHS,
    betti0_of_subset,
    multi_chunk_case,
    reference_betti0_table,
    reference_tallies,
    small_graphs,
)


def definition_shapley(g: NeighborComplex) -> tuple[Fraction, ...]:
    """The defining sum, evaluated literally: for every vertex, every
    coalition of the others, weighted absolute component-count change."""
    n = g.n
    n_fact = math.factorial(n)
    scores = []
    for i in range(n):
        others = [v for v in range(n) if v != i]
        total = Fraction(0)
        for k in range(n):
            weight = Fraction(
                math.factorial(k) * math.factorial(n - 1 - k), n_fact
            )
            for coalition in itertools.combinations(others, k):
                mask = 0
                for v in coalition:
                    mask |= 1 << v
                gain = abs(
                    betti0_of_subset(g, mask | 1 << i)
                    - betti0_of_subset(g, mask)
                )
                total += weight * gain
        scores.append(total)
    return tuple(scores)


@st.composite
def results(draw):
    """An exact or sampled result on a small graph, or the closed-form
    result of a family member."""
    method = draw(st.sampled_from(["exact", "sampled", "closed_form"]))
    if method == "closed_form":
        family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
        params = [draw(st.integers(low, low + 8)) for low in family.min_params]
        return InfluenceResult(
            labels=family.roles(*params),
            shapley=family.scores(*params),
            method="closed_form",
        )
    g = draw(small_graphs())
    if method == "exact":
        return exact_shapley(g)
    return sampled_shapley(g, draw(st.integers(1, 40)), draw(st.integers(0, 2**32)))


class TestDerivedValues:
    @given(results())
    @settings(max_examples=60, deadline=None)
    def test_mu_and_entropy_come_from_the_scores(self, res):
        total = res.total
        assert res.mu == tuple(s / total for s in res.shapley)
        if res.method != "sampled":
            assert sum(res.mu) == 1  # exact rational normalization
        assert res.entropy == shannon_entropy(res.mu)

    @given(results())
    @settings(max_examples=30, deadline=None)
    def test_relabeled_result_derives_the_same_values(self, res):
        labels = tuple(f"v{i}" for i in range(res.n))
        relabeled = dataclasses.replace(res, labels=labels)
        assert relabeled.mu == res.mu
        assert relabeled.entropy == res.entropy

    def test_derived_values_are_not_fields(self):
        names = [f.name for f in dataclasses.fields(InfluenceResult)]
        assert names == [
            "labels", "shapley", "method", "permutations", "seed", "std_error"
        ]


class TestExact:
    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_matches_definition(self, g):
        assert exact_shapley(g).shapley == definition_shapley(g)

    def test_singleton(self):
        res = exact_shapley(NeighborComplex.from_edges(1, []))
        assert res.shapley == (Fraction(1),)
        assert res.mu == (Fraction(1),)
        assert res.entropy == 0.0

    def test_two_isolated_points(self):
        res = exact_shapley(NeighborComplex.from_edges(2, []))
        assert res.shapley == (Fraction(1), Fraction(1))
        assert res.entropy == pytest.approx(math.log(2), abs=1e-15)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_measure_properties(self, g):
        res = exact_shapley(g)
        assert sum(res.mu) == 1  # exact rational normalization
        assert all(m > 0 for m in res.mu)
        # every vertex earns at least the first-arrival term
        assert all(s >= Fraction(1, g.n) for s in res.shapley)
        assert -1e-12 <= res.entropy <= math.log(g.n) + 1e-12

    def test_cap_enforced(self):
        g = NeighborComplex.from_edges(8, [])
        with pytest.raises(SizeCapError):
            exact_shapley(g, cap=7)

    def test_cap_above_default_warns(self):
        g = erdos_renyi_graph(21, 0.4, seed=9)
        with pytest.warns(RuntimeWarning, match="2\\^21"):
            exact_shapley(g, cap=26)

    def test_disconnected_graph_attribution(self):
        # Two far triangles: symmetry within each triangle, and the two
        # triangles share the total evenly.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        res = exact_shapley(NeighborComplex.from_edges(6, edges))
        assert len(set(res.shapley)) == 1


class TestMarginalTallies:
    @given(small_graphs(max_n=10), st.sampled_from([homology.CHUNK_BITS, 1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, g, chunk_bits):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "CHUNK_BITS", chunk_bits)
            mp.setattr(engine, "CHUNK_BITS", chunk_bits)
            tallies = engine._marginal_tallies(g)
        expected = reference_tallies(reference_betti0_table(g), g.n)
        assert tallies.dtype == np.int64
        assert tallies.shape == (g.n, g.n)
        assert tallies.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(MULTI_CHUNK_GRAPHS))
    def test_multi_chunk_graphs_match_reference(self, name):
        g, table = multi_chunk_case(name)
        tallies = engine._marginal_tallies(g)
        assert tallies.dtype == np.int64
        assert tallies.tobytes() == reference_tallies(table, g.n).tobytes()


def test_subset_weights_total_probability():
    # Summed over all coalitions of the other n-1 vertices, the Shapley
    # weights form a probability distribution.  With no edges every
    # marginal is 1, so each exact score is that sum.
    for n in range(1, 12):
        res = exact_shapley(NeighborComplex.from_edges(n, []))
        assert res.shapley == (Fraction(1),) * n


class TestPermutationWalk:
    @given(small_graphs(max_n=6))
    @settings(max_examples=20, deadline=None)
    def test_average_over_all_orders_is_exact(self, g):
        n = g.n
        sums = [0] * n
        for order in itertools.permutations(range(n)):
            marginals = permutation_marginals(g, list(order))
            for i in range(n):
                sums[i] += marginals[i]
        averages = tuple(Fraction(s, math.factorial(n)) for s in sums)
        assert averages == exact_shapley(g).shapley

    def test_rejects_non_permutation(self):
        g = path_graph(3)
        with pytest.raises(InputError):
            permutation_marginals(g, [0, 0, 2])

    @pytest.mark.parametrize("kind", [list, tuple])
    @pytest.mark.parametrize(
        "order",
        [[0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1], [2, 1, 2]],
        ids=["short", "long", "above", "negative", "repeat"],
    )
    def test_rejects_bad_orders(self, order, kind):
        with pytest.raises(InputError, match="order"):
            permutation_marginals(path_graph(3), kind(order))

    def test_first_vertex_always_scores_one(self):
        g = wheel_graph(5)
        marginals = permutation_marginals(g, [3, 0, 1, 2, 4])
        assert marginals[3] == 1


class TestSampled:
    def test_deterministic_per_seed(self):
        g = cycle_graph(6)
        a = sampled_shapley(g, 500, seed=42)
        b = sampled_shapley(g, 500, seed=42)
        assert a.shapley == b.shapley
        assert a.std_error == b.std_error
        c = sampled_shapley(g, 500, seed=43)
        assert a.shapley != c.shapley

    def test_prefix_reproducibility(self):
        # Permutation j depends only on (seed, j): a longer run replays
        # the shorter run's draws exactly.
        g = star_graph(5)
        short = sampled_shapley(g, 100, seed=7)
        long = sampled_shapley(g, 200, seed=7)
        # reconstruct the short-run sums from the walk directly
        import numpy as np

        sums = np.zeros(g.n)
        for j in range(100):
            rng = np.random.Generator(np.random.Philox(key=7, counter=j << 64))
            order = rng.permutation(g.n).tolist()
            for i, m in enumerate(permutation_marginals(g, order)):
                sums[i] += m
        assert tuple(sums / 100) == short.shapley
        assert long.permutations == 200

    def test_std_error_from_walk_marginals(self):
        # The star's center merges up to four leaves at once, so its
        # marginals reach 3 and the second moment is not the first.
        g = star_graph(5)
        est = sampled_shapley(g, 100, seed=7)
        walks = []
        for j in range(100):
            rng = np.random.Generator(np.random.Philox(key=7, counter=j << 64))
            walks.append(permutation_marginals(g, rng.permutation(g.n).tolist()))
        walks = np.array(walks)
        assert walks.max() > 1
        expected = walks.std(axis=0, ddof=1) / math.sqrt(100)
        assert est.std_error == pytest.approx(tuple(expected), rel=1e-9)

    def test_estimates_near_exact(self):
        g = wheel_graph(6)
        exact = exact_shapley(g)
        est = sampled_shapley(g, 4000, seed=1)
        for i in range(6):
            se = max(est.std_error[i], 1e-9)
            assert abs(est.shapley[i] - float(exact.shapley[i])) < 4 * se

    def test_needs_positive_permutations(self):
        with pytest.raises(InputError):
            sampled_shapley(path_graph(3), 0, seed=0)

    def test_total_is_the_divisor_of_mu(self):
        # Python's left-to-right sum of these scores is 12.028000000000004;
        # mu divides by numpy's sum, 12.028, and the total must be that float.
        est = sampled_shapley(erdos_renyi_graph(60, 0.15, 0), 500, 3)
        assert est.total == float(np.sum(est.shapley))
        assert all(m == s / est.total for s, m in zip(est.shapley, est.mu))


class TestComputeInfluence:
    def test_dispatch_and_labels(self):
        g = path_graph(3)
        res = compute_influence(g, labels=("a", "b", "c"))
        assert res.labels == ("a", "b", "c")
        assert res.method == "exact"

    def test_labels_keep_every_other_field(self):
        g = complete_graph(4)
        res = compute_influence(
            g, labels="wxyz", mode="sampled", permutations=50, seed=3
        )
        unlabeled = sampled_shapley(g, permutations=50, seed=3)
        assert res == dataclasses.replace(unlabeled, labels=tuple("wxyz"))

    def test_label_length_checked(self):
        with pytest.raises(InputError):
            compute_influence(path_graph(3), labels=("a",))

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            compute_influence(path_graph(3), mode="guess")

    def test_sampled_dispatch(self):
        res = compute_influence(
            complete_graph(4), mode="sampled", permutations=50, seed=3
        )
        assert res.method == "sampled"
        assert res.permutations == 50
        assert res.seed == 3
        assert len(res.std_error) == 4


class TestEntropy:
    def test_uniform(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4))

    def test_zero_terms_ignored(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            shannon_entropy([-0.1, 1.1])

    def test_accepts_fractions(self):
        h = shannon_entropy([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        assert h == pytest.approx(1.5 * math.log(2), abs=1e-15)
