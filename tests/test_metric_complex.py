import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence import (
    DistanceMatrix,
    InputError,
    LabeledPointSet,
    NeighborComplex,
    build_complex,
    build_distance_matrix,
    edit_distance,
    neighbor_pairs,
    path_graph,
)
from topoinfluence import metric_complex

from oracles import (
    edit_distance_dp,
    euclidean_distance,
    family_unions,
    hamming_distance,
    small_graphs,
)

bitstrings = st.text(alphabet="01", max_size=12)

# Binary, three letters, non-ASCII with a symbol outside the BMP, and one
# symbol: the kernel compares code points, whatever the alphabet.
ALPHABETS = ("01", "abc", "é€😀x", "z")


@st.composite
def string_sets(draw, max_n=30, max_len=40):
    """1..max_n strings of lengths 0..max_len over one of ALPHABETS;
    small alphabets make empty strings and duplicates common."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    text = st.text(alphabet=alphabet, max_size=max_len)
    return draw(st.lists(text, min_size=1, max_size=max_n))


def oracle_matrix(strings) -> np.ndarray:
    return np.array(
        [[edit_distance_dp(a, b) for b in strings] for a in strings],
        dtype=np.float64,
    )


class TestEditDistance:
    # Reference values worked by hand.
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ("", "", 0),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("0000", "0001", 1),
            ("0000", "1111", 4),
            ("0001", "1111", 3),
            ("0101", "1010", 2),
        ],
    )
    def test_known_pairs(self, a, b, d):
        assert edit_distance(a, b) == d
        assert edit_distance_dp(a, b) == d

    @given(st.sampled_from(ALPHABETS).flatmap(
        lambda alphabet: st.tuples(*[st.text(alphabet=alphabet, max_size=40)] * 2)
    ))
    def test_one_pair_call_equals_scalar_dp(self, pair):
        assert edit_distance(*pair) == edit_distance_dp(*pair)

    @given(bitstrings, bitstrings)
    def test_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(bitstrings, bitstrings)
    def test_bounds(self, a, b):
        d = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
        assert (d == 0) == (a == b)

    @settings(max_examples=40)
    @given(bitstrings, bitstrings, bitstrings)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_equal_length_distance_one_is_hamming_one(self):
        # A single edit between equal-length strings must be a substitution.
        for a in ("0110", "1001", "0000"):
            for b in ("0110", "1010", "0111", "1111"):
                if len(a) == len(b) and edit_distance(a, b) == 1:
                    assert sum(x != y for x, y in zip(a, b)) == 1


def test_hamming_and_euclidean():
    assert hamming_distance((0, 1, 1), (1, 1, 0)) == 2
    assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
    with pytest.raises(InputError):
        hamming_distance((0, 1), (0, 1, 1))
    with pytest.raises(InputError):
        euclidean_distance((0.0,), (0.0, 1.0))


class TestLabeledPointSet:
    def test_from_strings_defaults_labels(self):
        ps = LabeledPointSet.from_strings(["ab", "cd"])
        assert ps.labels == ("ab", "cd")
        assert ps.kind == "strings"

    def test_from_vectors(self):
        ps = LabeledPointSet.from_vectors([[1, 2], [3, 4]])
        assert ps.items == ((1.0, 2.0), (3.0, 4.0))
        assert ps.kind == "vectors"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_vectors_refuses_non_finite(self, bad):
        # nan != nan would put two equal vectors at hamming distance 1.
        with pytest.raises(InputError) as info:
            LabeledPointSet.from_vectors([[0.0, 1.0], [bad, 0.0]])
        assert str(info.value) == "vector 1 has a non-finite coordinate"

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            LabeledPointSet(items=(), labels=())

    def test_label_count_mismatch(self):
        with pytest.raises(InputError):
            LabeledPointSet(items=("a",), labels=("x", "y"))


class TestDistanceMatrix:
    def test_validation(self):
        with pytest.raises(InputError, match="square"):
            DistanceMatrix(np.zeros((2, 3)))
        with pytest.raises(InputError, match="negative"):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(InputError, match="diagonal"):
            DistanceMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(InputError, match="non-finite"):
            DistanceMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
        with pytest.raises(InputError, match="asymmetric"):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_asymmetry_within_tolerance_mirrors_upper_triangle(self):
        eps = 1e-10
        dm = DistanceMatrix(np.array([[0.0, 1.0], [1.0 + eps, 0.0]]))
        assert dm.values[0, 1] == dm.values[1, 0] == 1.0

    def test_values_read_only(self):
        dm = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dm.values[0, 1] = 5.0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_values_are_the_mirrored_upper_triangle(self, data):
        # Sizes past one row block; -0.0 entries, a diagonal and a skew
        # within tolerance.  The bytes equal triu + triu.T of the input,
        # and the caller's input is left as it was.
        n = data.draw(st.integers(1, 2 * metric_complex.EDIT_CHUNK_CELLS // 150))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 3, size=(n, n)).astype(np.float64), 1)
        values = upper + upper.T
        values += rng.choice([0.0, 4e-10], size=(n, n))
        values[(values == 0) & (rng.random((n, n)) < 0.5)] = -0.0
        np.fill_diagonal(values, rng.choice([0.0, -0.0, 1e-9], size=n))
        before = values.tobytes()
        want = np.triu(values, 1) + np.triu(values, 1).T
        assert DistanceMatrix(values).values.tobytes() == want.tobytes()
        assert values.tobytes() == before

    def test_skew_is_the_largest_over_all_row_blocks(self):
        n = 300  # several row blocks of EDIT_CHUNK_CELLS cells
        values = np.zeros((n, n))
        values[250, 3] = 0.5
        values[40, 290] = 0.25
        with pytest.raises(InputError) as err:
            DistanceMatrix(values)
        assert str(err.value) == (
            "distance matrix asymmetric by 0.5 (tolerance 1e-09); "
            "refusing to symmetrize"
        )

    def test_peak_memory_is_the_result_plus_a_row_block(self):
        rng = np.random.default_rng(0)
        upper = np.triu(rng.uniform(0.0, 5.0, size=(1000, 1000)), 1)
        values = upper + upper.T
        del upper
        tracemalloc.start()
        try:
            dm = DistanceMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dm.values.nbytes + (1 << 20)


    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_adopted_matrix_is_mirrored_in_place(self, data):
        # The package's own matrices are checked and mirrored in their own
        # memory, over several row blocks: the constructor's bytes, or its
        # error, from the same values.
        n = data.draw(st.integers(1, 2 * metric_complex.EDIT_CHUNK_CELLS // 150))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        upper = np.triu(rng.integers(0, 3, size=(n, n)).astype(np.float64), 1)
        values = upper + upper.T
        values += rng.choice([0.0, 4e-10], size=(n, n))
        values[(values == 0) & (rng.random((n, n)) < 0.5)] = -0.0
        np.fill_diagonal(values, rng.choice([0.0, -0.0, 1e-9], size=n))
        i, j = rng.integers(0, n, size=2)
        values[i, j] += data.draw(st.sampled_from([0.0, 0.5, -9.0, np.nan, np.inf]))
        own = values.copy()
        try:
            want = DistanceMatrix(values).values.tobytes()
        except InputError as err:
            with pytest.raises(InputError, match=re.escape(str(err))):
                DistanceMatrix._adopt(own)
        else:
            dm = DistanceMatrix._adopt(own)
            assert dm.values is own
            assert own.tobytes() == want


def test_build_distance_matrix_holds_one_n_by_n_array():
    # 1000 strings: the 8 MB matrix, the edit kernel's chunk temporaries,
    # and no copy of the matrix on top of them.
    rng = np.random.default_rng(0)
    strings = [
        "".join(rng.choice(["0", "1"], size=rng.integers(8, 17)))
        for _ in range(1000)
    ]
    points = LabeledPointSet.from_strings(strings)
    def chunks_alone():
        for _ in metric_complex._pair_chunks(points, "edit", math.inf):
            pass

    peaks = []
    for build in (chunks_alone, lambda: build_distance_matrix(points, "edit")):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    kernel, built = peaks
    assert built <= kernel + 1000 * 1000 * 8 + (64 << 10)
    assert built <= 10_000_000


def test_build_distance_matrix_metric_kind_mismatch():
    strings = LabeledPointSet.from_strings(["01", "10"])
    vectors = LabeledPointSet.from_vectors([[0.0], [1.0]])
    with pytest.raises(InputError):
        build_distance_matrix(strings, "hamming")
    with pytest.raises(InputError):
        build_distance_matrix(vectors, "edit")
    with pytest.raises(InputError):
        build_distance_matrix(strings, "precomputed")
    with pytest.raises(InputError):
        build_distance_matrix(strings, "chebyshev")


METRIC_ERRORS = [
    ("mixed", "edit", "point set mixes strings and vectors"),
    ("mixed", "chebyshev", "point set mixes strings and vectors"),
    ("strings", "chebyshev", "unknown metric 'chebyshev'"),
    ("strings", "precomputed",
     "precomputed distances must be loaded as a matrix, not rebuilt"),
    ("vectors", "precomputed",
     "precomputed distances must be loaded as a matrix, not rebuilt"),
    ("vectors", "edit", "edit metric applies to string items only"),
    ("strings", "hamming", "hamming metric applies to vector items only"),
    ("strings", "euclidean", "euclidean metric applies to vector items only"),
]


def two_points(kind) -> LabeledPointSet:
    items = {
        "strings": ("01", "10"),
        "vectors": ((0.0,), (1.0,)),
        "mixed": ("01", (1.0,)),
    }[kind]
    return LabeledPointSet(items=items, labels=("a", "b"))


@pytest.mark.parametrize("kind, metric, message", METRIC_ERRORS)
def test_build_distance_matrix_error_messages(kind, metric, message):
    with pytest.raises(InputError) as info:
        build_distance_matrix(two_points(kind), metric)
    assert str(info.value) == message


@pytest.mark.parametrize("kind, metric, message", METRIC_ERRORS)
def test_neighbor_pairs_error_messages(kind, metric, message):
    with pytest.raises(InputError) as info:
        neighbor_pairs(two_points(kind), metric, 1)
    assert str(info.value) == message


def test_build_distance_matrix_edit():
    ps = LabeledPointSet.from_strings(["1111", "0000", "0001"])
    dm = build_distance_matrix(ps, "edit")
    assert dm.values[0, 1] == 4.0
    assert dm.values[0, 2] == 3.0
    assert dm.values[1, 2] == 1.0


class TestEditMatrix:
    @settings(max_examples=60, deadline=None)
    @given(string_sets(), st.sampled_from([metric_complex.EDIT_CHUNK_CELLS, 1, 24, 200]))
    def test_matrix_equals_scalar_dp(self, strings, cells):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric_complex, "EDIT_CHUNK_CELLS", cells)
            dm = build_distance_matrix(LabeledPointSet.from_strings(strings), "edit")
        assert np.array_equal(dm.values, oracle_matrix(strings))

    def test_small_budget_splits_pairs_into_mixed_length_chunks(self, monkeypatch):
        # build_distance_matrix: the band is the longest string, k = 7.
        self.check_schedule(monkeypatch, math.inf)

    def test_threshold_schedule_skips_pairs_far_apart_in_length(self, monkeypatch):
        # neighbor_pairs at r_max 1: k = 1.
        self.check_schedule(monkeypatch, 1)

    @staticmethod
    def check_schedule(monkeypatch, r_max):
        strings = ["abba", "", "a", "ab", "ba", "b", "bbbbbbb", "aab", "ab", "abab"]
        cells = 48
        chunks = []
        kernel = metric_complex._levenshtein

        def recording(codes, offsets, lengths, shorter, longer, k):
            # Positions into the length-sorted strings, their lengths, the band.
            chunks.append((shorter.tolist(), longer.tolist(),
                           lengths[shorter], lengths[longer], k))
            return kernel(codes, offsets, lengths, shorter, longer, k)

        monkeypatch.setattr(metric_complex, "EDIT_CHUNK_CELLS", cells)
        monkeypatch.setattr(metric_complex, "_levenshtein", recording)
        points = LabeledPointSet.from_strings(strings)
        if r_max == math.inf:
            dm = build_distance_matrix(points, "edit")
            assert np.array_equal(dm.values, oracle_matrix(strings))
        else:
            want = build_complex(DistanceMatrix(oracle_matrix(strings)), r_max)
            assert build_complex(neighbor_pairs(points, "edit", r_max), r_max) == want
        k = min(r_max, 7)
        sizes = sorted(map(len, strings))
        n = len(strings)
        # Every unordered pair of positions whose lengths differ by at most
        # k is scheduled exactly once, and no other pair.
        pairs = sorted(pair for p, q, _, _, _ in chunks for pair in zip(p, q))
        assert pairs == [(p, q) for p in range(n) for q in range(p + 1, n)
                         if sizes[q] - sizes[p] <= k]
        assert len(chunks) > 1 and {band for *_, band in chunks} == {k}
        # The longest string's column, 9 lanes of 15 cells, is split.
        longest_column = sum(n - 1 in q for _, q, _, _, _ in chunks)
        assert longest_column > 1 if k == 7 else longest_column == 0
        # Lanes of different lengths share a chunk, within the cell budget.
        assert any(len(set(short.tolist())) > 1 for _, _, short, _, _ in chunks)
        for p, _, short, long, _ in chunks:
            assert len(p) >= 1
            assert np.all(np.diff(short) >= 0) and np.all(short <= long)
            row = long.max() + min(k, long.max()) + 1
            assert len(short) * row <= cells


CHUNK_BUDGETS = st.sampled_from([metric_complex.EDIT_CHUNK_CELLS, 1, 24])


def threshold_first_equals_matrix(points, metric, r, cells):
    """The pairs up to r: thresholded at r and at each smaller integer
    radius (up to 16 of them), the same complexes as the full matrix,
    under a chunk budget of ``cells``.  Returns the pairs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_complex, "EDIT_CHUNK_CELLS", cells)
        pairs = neighbor_pairs(points, metric, r)
        dm = build_distance_matrix(points, metric)
        for radius in {r, *range(min(math.ceil(r), 16))}:
            assert build_complex(pairs, radius) == build_complex(dm, radius)
    left, right = pairs.left.tolist(), pairs.right.tolist()
    assert sorted(zip(left, right)) == list(zip(left, right))
    assert all(i < j for i, j in zip(left, right))
    assert pairs.distances.tolist() == dm.values[pairs.left, pairs.right].tolist()
    return pairs


class TestNeighborPairs:
    @settings(max_examples=80, deadline=None)
    @given(string_sets(max_n=20, max_len=12), st.data(), CHUNK_BUDGETS)
    def test_edit_pairs_equal_matrix_and_scalar_dp(self, strings, data, cells):
        # r = 0, fractional, integer, and at or beyond the longest string.
        longest = max(map(len, strings))
        r = data.draw(st.one_of(
            st.sampled_from([0, 0.5, 1, 1.5, 2, 3.25, longest, longest + 2.5]),
            st.floats(0, longest + 1, allow_nan=False),
        ))
        points = LabeledPointSet.from_strings(strings)
        pairs = threshold_first_equals_matrix(points, "edit", r, cells)
        want = {
            (i, j): d
            for j in range(len(strings)) for i in range(j)
            if (d := edit_distance_dp(strings[i], strings[j])) <= r
        }
        got = zip(pairs.left.tolist(), pairs.right.tolist(), pairs.distances.tolist())
        assert {(i, j): d for i, j, d in got} == want

    @settings(max_examples=60, deadline=None)
    @given(st.data(), CHUNK_BUDGETS)
    def test_hamming_pairs_equal_matrix(self, data, cells):
        dim = data.draw(st.integers(1, 6))
        coordinate = st.sampled_from([0.0, 1.0, -0.0, 2.5])
        vectors = data.draw(st.lists(
            st.lists(coordinate, min_size=dim, max_size=dim), min_size=1, max_size=25,
        ))
        r = data.draw(st.one_of(st.integers(0, dim + 1), st.floats(0, dim + 1)))
        points = LabeledPointSet.from_vectors(vectors)
        pairs = threshold_first_equals_matrix(points, "hamming", r, cells)
        for i, j, d in zip(pairs.left, pairs.right, pairs.distances):
            assert d == hamming_distance(points.items[i], points.items[j]) <= r

    @settings(max_examples=60, deadline=None)
    @given(st.data(), CHUNK_BUDGETS)
    def test_euclidean_pairs_equal_matrix_at_the_boundary(self, data, cells):
        # r is one of the distances itself, or one ulp to either side.
        dim = data.draw(st.integers(1, 4))
        coordinate = st.floats(-1e3, 1e3) | st.sampled_from([0.0, 0.1, 0.3, 3.0, 4.0])
        vectors = data.draw(st.lists(
            st.lists(coordinate, min_size=dim, max_size=dim), min_size=2, max_size=20,
        ))
        points = LabeledPointSet.from_vectors(vectors)
        i, j = data.draw(st.lists(st.integers(0, len(vectors) - 1), min_size=2,
                                  max_size=2, unique=True))
        d = euclidean_distance(points.items[i], points.items[j])
        r = data.draw(
            st.sampled_from([d, math.nextafter(d, 0), math.nextafter(d, math.inf)])
        )
        threshold_first_equals_matrix(points, "euclidean", r, cells)

    @pytest.mark.parametrize("scale", [1.0, 0.1, 1e-300, 1e150, 1e200])
    def test_euclidean_three_four_five_triangle(self, scale):
        # math.dist decides each candidate: an edge at exactly its distance
        # and one ulp above, none one ulp below, at any scale.
        points = LabeledPointSet.from_vectors([[0.0, 0.0], [3 * scale, 4 * scale]])
        d = euclidean_distance(*points.items)
        for r, edges in [(d, 1), (math.nextafter(d, math.inf), 1),
                         (math.nextafter(d, 0), 0)]:
            pairs = neighbor_pairs(points, "euclidean", r)
            assert build_complex(pairs, r).num_edges() == edges
            assert pairs.distances.tolist() == [d] * edges

    def test_euclidean_overflow_is_no_pair(self):
        # The distance from 1e308 to -1e308 overflows to inf: never within
        # r_max, and no numpy warning on the way.  The matrix refuses it.
        points = LabeledPointSet.from_vectors([[1e308], [-1e308], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = neighbor_pairs(points, "euclidean", 1e308)
            with pytest.raises(InputError, match="non-finite"):
                build_distance_matrix(points, "euclidean")
        assert pairs.left.tolist() == [0, 1] and pairs.right.tolist() == [2, 2]
        assert pairs.distances.tolist() == [1e308, 1e308]

    def test_radius_past_r_max_is_refused(self):
        pairs = neighbor_pairs(LabeledPointSet.from_strings(["0", "11"]), "edit", 1)
        assert build_complex(pairs, 1).num_edges() == 0
        with pytest.raises(InputError) as info:
            build_complex(pairs, 1.5)
        assert str(info.value) == (
            "pairs were computed up to r_max 1.0; cannot threshold at 1.5"
        )

    @pytest.mark.parametrize("r_max", [-1.0, math.nan, math.inf])
    def test_bad_r_max_is_refused(self, r_max):
        with pytest.raises(InputError, match="finite nonnegative"):
            neighbor_pairs(LabeledPointSet.from_strings(["0", "1"]), "edit", r_max)

    def test_unequal_vector_lengths_are_refused(self):
        points = LabeledPointSet.from_vectors([[0.0], [0.0, 1.0]])
        for metric in ("hamming", "euclidean"):
            with pytest.raises(InputError) as info:
                neighbor_pairs(points, metric, 1)
            assert str(info.value) == f"{metric} distance requires equal-length vectors"

    def test_edit_route_holds_no_n_by_n_array(self):
        # 2000 strings at r = 2: one n x n float64 array would be 32 MB.
        rng = np.random.default_rng(1)
        strings = [
            "".join(rng.choice(["0", "1"], size=rng.integers(8, 17)))
            for _ in range(2000)
        ]
        points = LabeledPointSet.from_strings(strings)
        tracemalloc.start()
        try:
            pairs = neighbor_pairs(points, "edit", 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs.left) > 0
        assert peak <= 2000 * 2000 * 8 // 4


class TestNeighborComplex:
    def test_edge_rule_is_closed_at_r(self):
        # d == r joins; the comparison is <=, not <.
        dm = DistanceMatrix(
            np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        )
        cx = build_complex(dm, 1.0)
        assert cx.rows[0] >> 1 & 1 and cx.rows[1] >> 2 & 1
        assert not cx.rows[0] >> 2 & 1
        assert build_complex(dm, 0.999).num_edges() == 0
        assert build_complex(dm, 2.0).num_edges() == 3

    def test_nested_in_radius(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0, 3.0, size=(6, 6))
        values = np.triu(values, 1)
        dm = DistanceMatrix(values + values.T)
        small = build_complex(dm, 1.0)
        large = build_complex(dm, 2.5)
        for i in range(6):
            assert small.rows[i] & ~large.rows[i] == 0

    @given(st.data(), CHUNK_BUDGETS)
    @settings(max_examples=60)
    def test_rows_follow_the_definition(self, data, cells):
        # A budget of 1 or 24 cells reads the matrix a row or a few at a time.
        n = data.draw(st.integers(min_value=1, max_value=20))
        pairs = n * (n - 1) // 2
        upper = data.draw(st.lists(st.integers(0, 4), min_size=pairs, max_size=pairs))
        d = np.zeros((n, n))
        d[np.triu_indices(n, 1)] = upper
        d = d + d.T
        r = data.draw(st.integers(0, 4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric_complex, "EDIT_CHUNK_CELLS", cells)
            cx = build_complex(DistanceMatrix(d), r)
        for i in range(n):
            want = sum(1 << j for j in range(n) if d[i, j] <= r and i != j)
            assert cx.rows[i] == want

    def test_invalid_radius(self):
        dm = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(InputError):
            build_complex(dm, -1.0)
        with pytest.raises(InputError):
            build_complex(dm, math.inf)

    def test_from_edges_and_accessors(self):
        cx = NeighborComplex.from_edges(4, [(0, 1), (1, 2), (2, 1)])
        assert cx.num_edges() == 2
        assert sorted(cx.edges()) == [(0, 1), (1, 2)]
        assert cx.degree(1) == 2
        assert cx.degree(3) == 0
        assert cx.rows == (0b0010, 0b0101, 0b0010, 0)

    def test_from_edges_rejects_bad_vertices(self):
        with pytest.raises(InputError):
            NeighborComplex.from_edges(3, [(0, 3)])
        for bad in ((0.0, 1), (0, "1"), (None, 2)):
            with pytest.raises(InputError, match="non-integer endpoint"):
                NeighborComplex.from_edges(3, [bad])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_from_edges_takes_numpy_integer_endpoints(self, dtype):
        # Within one machine word and past it, a self-loop included: the
        # rows are the Python ints that plain int endpoints give.
        for n, edges in ((10, [(0, 5), (5, 7), (7, 7)]), (70, [(0, 68), (69, 3)])):
            cx = NeighborComplex.from_edges(n, [(dtype(u), dtype(v)) for u, v in edges])
            assert cx == NeighborComplex.from_edges(n, edges)
            assert all(type(row) is int for row in cx.rows)

    def test_row_validation(self):
        with pytest.raises(InputError, match="self-loop"):
            NeighborComplex(n=2, rows=(0b01, 0b01))
        with pytest.raises(InputError, match="symmetric"):
            NeighborComplex(n=2, rows=(0b10, 0b00))
        # Past one machine word, one-sided at a single high pair, either side.
        rows = list(path_graph(70).rows)
        for u, v in ((3, 68), (68, 3)):
            bad = rows.copy()
            bad[u] |= 1 << v
            with pytest.raises(InputError, match=r"symmetric at \(3, 68\)"):
                NeighborComplex(n=70, rows=tuple(bad))
        with pytest.raises(InputError, match="outside"):
            NeighborComplex(n=2, rows=(0b100, 0b000))

    @given(st.one_of(small_graphs(max_n=8), family_unions()))
    @settings(max_examples=40, deadline=None)
    def test_neighbors_are_the_row_bits_in_order(self, g):
        assert len(g.neighbors) == g.n
        for i, row in enumerate(g.rows):
            assert g.neighbors[i] == tuple(j for j in range(g.n) if row >> j & 1)

    @given(st.one_of(small_graphs(max_n=8), family_unions()), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_neighbors_take_no_part_in_identity(self, g, rnd):
        # Same edges in another order and orientation: equal complexes,
        # equal hashes and reprs, and neither repr shows the tuples.
        edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges()]
        rnd.shuffle(edges)
        again = NeighborComplex.from_edges(g.n, edges)
        assert again == g and hash(again) == hash(g) and repr(again) == repr(g)
        assert "neighbors" not in repr(g)
        copied = dataclasses.replace(g)
        assert copied == g and copied.neighbors == g.neighbors
        with pytest.raises(TypeError):
            NeighborComplex(n=1, rows=(0,), neighbors=((),))
