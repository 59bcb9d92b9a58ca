"""Family oracle tests.

Three independent routes have to agree: the constructors fed through the
enumeration engine, the closed-form Shapley scores, and the printed
influence expressions (re-derived here as literal rationals).  The
combinatorial identities behind the closed forms are checked separately
in exact arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence import (
    FAMILIES,
    InfluenceResult,
    InputError,
    betti0,
    complete_bipartite_graph,
    complete_bipartite_scores,
    complete_graph,
    complete_scores,
    cycle_graph,
    cycle_scores,
    erdos_renyi_graph,
    exact_shapley,
    get_family,
    path_graph,
    path_scores,
    star_graph,
    star_scores,
    verify_combinatorial_identities,
    wheel_graph,
    wheel_scores,
)
from topoinfluence import families
from topoinfluence.families import (
    _er_edges,
    _identity_bipartite,
    _identity_star,
    _identity_wheel,
)

from oracles import er_edges_pair_list


def closed_form(scores) -> InfluenceResult:
    """The result ``family`` reports for a closed-form score vector."""
    labels = tuple(str(i) for i in range(len(scores)))
    return InfluenceResult(labels=labels, shapley=scores, method="closed_form")


class TestConstructors:
    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges() == 10
        assert all(g.degree(i) == 4 for i in range(5))

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges() == 6
        assert all(g.degree(i) == 2 for i in range(6))
        assert betti0(g) == 1

    def test_wheel_hub_last(self):
        g = wheel_graph(7)
        assert g.degree(6) == 6  # hub adjacent to the whole rim
        assert all(g.degree(i) == 3 for i in range(6))
        assert wheel_graph(4).num_edges() == 6  # W4 is K4

    def test_star_center_last(self):
        g = star_graph(6)
        assert g.degree(5) == 5
        assert all(g.degree(i) == 1 for i in range(5))

    def test_path_endpoint_to_endpoint(self):
        g = path_graph(5)
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_bipartite_left_side_first(self):
        g = complete_bipartite_graph(2, 3)
        assert g.num_edges() == 6
        assert g.degree(0) == g.degree(1) == 3
        assert g.degree(2) == g.degree(3) == g.degree(4) == 2
        assert not g.rows[0] >> 1 & 1 and not g.rows[2] >> 3 & 1

    @pytest.mark.parametrize(
        "build,bad",
        [
            (complete_graph, 0),
            (cycle_graph, 2),
            (wheel_graph, 3),
            (star_graph, 1),
            (path_graph, 1),
        ],
    )
    def test_parameter_floors(self, build, bad):
        with pytest.raises(InputError):
            build(bad)

    def test_bipartite_parameter_floor(self):
        with pytest.raises(InputError):
            complete_bipartite_graph(0, 3)


class TestErdosRenyi:
    def test_extremes(self):
        assert erdos_renyi_graph(10, 0.0, seed=1).num_edges() == 0
        assert erdos_renyi_graph(10, 1.0, seed=1).num_edges() == 45

    def test_deterministic_per_seed(self):
        a = erdos_renyi_graph(12, 0.3, seed=77)
        b = erdos_renyi_graph(12, 0.3, seed=77)
        c = erdos_renyi_graph(12, 0.3, seed=78)
        assert a.rows == b.rows
        assert a.rows != c.rows

    def test_invalid_probability(self):
        with pytest.raises(InputError):
            erdos_renyi_graph(5, 1.5, seed=0)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(1, 60),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.integers(0, 2**32),
        st.sampled_from([1, 2, 7, 58, 59, families.ER_BLOCK_DRAWS]),
    )
    def test_edges_equal_the_pair_list(self, n, p, seed, block):
        # Same edges in the same order, and the same stream left behind,
        # whatever the draw blocks: one draw each, blocks that end mid-row,
        # and one that ends with row 0 of n = 60 (59 draws).
        rng = np.random.Generator(np.random.Philox(key=seed))
        reference = np.random.Generator(np.random.Philox(key=seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(families, "ER_BLOCK_DRAWS", block)
            edges = _er_edges(rng, n, p)
        assert edges == er_edges_pair_list(reference, n, p)
        assert rng.random() == reference.random()


class TestClosedFormsAgainstEngine:
    # Acceptance covers every size 3..12; here a spot check per family
    # keeps unit runs fast while pinning the vertex-order conventions.
    @pytest.mark.parametrize(
        "build,scores,params",
        [
            (complete_graph, complete_scores, (6,)),
            (cycle_graph, cycle_scores, (7,)),
            (wheel_graph, wheel_scores, (6,)),
            (star_graph, star_scores, (5,)),
            (path_graph, path_scores, (6,)),
            (complete_bipartite_graph, complete_bipartite_scores, (2, 3)),
            (complete_bipartite_graph, complete_bipartite_scores, (4, 4)),
        ],
    )
    def test_engine_reproduces_closed_form(self, build, scores, params):
        assert exact_shapley(build(*params)).shapley == scores(*params)


class TestPrintedInfluenceExpressions:
    """The influence column, written out as literal rationals and checked
    against normalization of the Shapley column."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle_and_complete_influence(self, n):
        assert closed_form(complete_scores(n)).mu == (Fraction(1, n),) * n
        assert closed_form(cycle_scores(n)).mu == (Fraction(1, n),) * n

    @pytest.mark.parametrize("n", range(4, 13))
    def test_wheel_influence(self, n):
        mu = closed_form(wheel_scores(n)).mu
        rim = Fraction(2 * (n * n - n - 3), 3 * (n - 1) * (n * n - 3 * n + 4))
        hub = Fraction(n * n - 7 * n + 18, 3 * (n * n - 3 * n + 4))
        assert mu == (rim,) * (n - 1) + (hub,)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_star_influence(self, n):
        mu = closed_form(star_scores(n)).mu
        leaf = Fraction(n, 2 * (n * n - 2 * n + 2))
        center = Fraction(n * n - 3 * n + 4, 2 * (n * n - 2 * n + 2))
        assert mu == (leaf,) * (n - 1) + (center,)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_path_influence(self, n):
        mu = closed_form(path_scores(n)).mu
        end = Fraction(3, 2 * (2 * n - 1))
        mid = Fraction(2, 2 * n - 1)
        assert mu[0] == mu[-1] == end
        assert mu[1:-1] == (mid,) * (n - 2)

    def test_wheel_six_values(self):
        mu = closed_form(wheel_scores(6)).mu
        assert mu[0] == Fraction(9, 55)
        assert mu[-1] == Fraction(2, 11)

    def test_bipartite_two_two_uniform(self):
        assert closed_form(complete_bipartite_scores(2, 2)).mu == (
            Fraction(1, 4),
        ) * 4

    @pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 3), (4, 2), (5, 7)])
    def test_bipartite_sides_consistent(self, m, n):
        scores = complete_bipartite_scores(m, n)
        # swapping the sides permutes the score vector accordingly
        swapped = complete_bipartite_scores(n, m)
        assert scores[:m] == swapped[n:]
        assert scores[m:] == swapped[:n]

    def test_star_is_bipartite_one_k(self):
        for k in range(1, 8):
            assert complete_bipartite_scores(1, k) == star_scores(k + 1)[::-1]


@given(st.integers(min_value=2, max_value=50))
@settings(max_examples=25)
def test_role_weighted_influence_sums_to_one(n):
    for scores in (
        complete_scores(n),
        star_scores(n),
        path_scores(n),
        cycle_scores(max(n, 3)),
        wheel_scores(max(n, 4)),
        complete_bipartite_scores(n // 2 + 1, n - n // 2),
    ):
        assert sum(closed_form(scores).mu) == 1


class TestEntropies:
    def test_uniform_families(self):
        for n in range(3, 10):
            assert closed_form(complete_scores(n)).entropy == pytest.approx(
                math.log(n), abs=1e-12
            )
            assert closed_form(cycle_scores(n)).entropy == pytest.approx(
                math.log(n), abs=1e-12
            )

    def test_balanced_bipartite_uniform(self):
        for m in range(1, 7):
            assert closed_form(
                complete_bipartite_scores(m, m)
            ).entropy == pytest.approx(math.log(2 * m), abs=1e-12)

    def test_ordering_at_six(self):
        h_complete = closed_form(complete_scores(6)).entropy
        h_wheel = closed_form(wheel_scores(6)).entropy
        h_star = closed_form(star_scores(6)).entropy
        assert h_complete > h_wheel > h_star


class TestRegistry:
    def test_lookup_and_aliases(self):
        assert get_family("complete-bipartite").name == "complete_bipartite"
        with pytest.raises(InputError):
            get_family("hypercube")

    def test_roles_align_with_scores(self):
        for fam in FAMILIES.values():
            params = tuple(max(p, 2) for p in fam.min_params)
            if len(fam.min_params) == 1:
                params = (max(params[0], fam.min_params[0] + 1),)
            roles = fam.roles(*params)
            scores = fam.scores(*params)
            assert len(roles) == len(scores) == fam.build(*params).n
            # same role, same score
            by_role = {}
            for role, s in zip(roles, scores):
                by_role.setdefault(role, set()).add(s)
            assert all(len(v) == 1 for v in by_role.values())


class TestIdentities:
    def test_star_identity_spot_value(self):
        lhs, rhs = _identity_star(5, 2)
        assert lhs == rhs == Fraction(1, 2)

    def test_bipartite_identity_empty_sum(self):
        lhs, rhs = _identity_bipartite(1, 4)
        assert lhs == rhs == 0

    def test_wheel_identity_spot_value(self):
        lhs, rhs = _identity_wheel(5)
        assert lhs == rhs == Fraction(1, 15)

    def test_wheel_identity_degenerate_sizes(self):
        for big_n in (3, 4):
            lhs, rhs = _identity_wheel(big_n)
            assert lhs == rhs == 0

    def test_sweep_is_clean(self):
        report = verify_combinatorial_identities(12)
        assert report.ok
        assert report.checked["star"] == sum(range(1, 13))
        assert report.checked["wheel"] == 10
        assert report.mismatches == []

    def test_range_validation(self):
        with pytest.raises(InputError):
            verify_combinatorial_identities(0)
        with pytest.raises(InputError):
            verify_combinatorial_identities(26)
