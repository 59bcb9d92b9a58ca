import math

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
    euclidean_distance,
    hamming_distance,
    path_graph,
)
from topoinfluence import metric_complex

from oracles import edit_distance_dp

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


@pytest.mark.parametrize(
    "kind, metric, message",
    [
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
    ],
)
def test_build_distance_matrix_error_messages(kind, metric, message):
    items = {
        "strings": ("01", "10"),
        "vectors": ((0.0,), (1.0,)),
        "mixed": ("01", (1.0,)),
    }[kind]
    points = LabeledPointSet(items=items, labels=("a", "b"))
    with pytest.raises(InputError) as info:
        build_distance_matrix(points, metric)
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
        strings = ["abba", "", "a", "ab", "ba", "b", "bbbbbbb", "aab", "ab", "abab"]
        cells = 48
        chunks = []
        kernel = metric_complex._levenshtein

        def recording(codes, offsets, lengths, shorter, longer):
            chunks.append((lengths[shorter], lengths[longer]))
            return kernel(codes, offsets, lengths, shorter, longer)

        monkeypatch.setattr(metric_complex, "EDIT_CHUNK_CELLS", cells)
        monkeypatch.setattr(metric_complex, "_levenshtein", recording)
        dm = build_distance_matrix(LabeledPointSet.from_strings(strings), "edit")
        assert np.array_equal(dm.values, oracle_matrix(strings))
        n = len(strings)
        assert sum(len(short) for short, _ in chunks) == n * (n - 1) // 2
        assert len(chunks) > 1
        # Lanes of different lengths share a chunk, within the cell budget.
        assert any(len(set(short.tolist())) > 1 for short, _ in chunks)
        for short, long in chunks:
            assert np.all(np.diff(short) >= 0) and np.all(short <= long)
            assert len(short) * (long.max() + 1) <= cells


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

    @given(st.data())
    @settings(max_examples=60)
    def test_rows_follow_the_definition(self, data):
        n = data.draw(st.integers(min_value=1, max_value=20))
        pairs = n * (n - 1) // 2
        upper = data.draw(st.lists(st.integers(0, 4), min_size=pairs, max_size=pairs))
        d = np.zeros((n, n))
        d[np.triu_indices(n, 1)] = upper
        d = d + d.T
        r = data.draw(st.integers(0, 4))
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
