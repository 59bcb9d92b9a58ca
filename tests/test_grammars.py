"""Grammar tests.

Each built-in DFA is checked against a prose-level oracle written
directly from the language description (parity counting, run structure),
and the lazy enumeration is checked against brute-force filtering of all
2^N strings.  Neither oracle shares code with the DFA machinery.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence import Grammar, InputError, builtin_grammar, enumerate_strings
from topoinfluence.grammars import count_accepted

from oracles import accepts, count_strings, grammar_influence

bitstrings = st.text(alphabet="01", max_size=14)


def g1_oracle(s: str) -> bool:
    return set(s) <= {"1"}


def g2_oracle(s: str) -> bool:
    return s.count("0") % 2 == 0 and s.count("1") % 2 == 0


def g3_oracle(s: str) -> bool:
    if set(s) <= {"1"}:
        return True
    if set(s) == {"0"}:
        return True
    return len(s) >= 2 and set(s[:-1]) == {"0"} and s[-1] == "1"


def g4_oracle(s: str) -> bool:
    # Group into maximal runs; every odd 1-run must be followed by an
    # even 0-run, except a trailing odd 1-run which nothing follows.
    runs = [(symbol, len(list(group))) for symbol, group in itertools.groupby(s)]
    for idx, (symbol, length) in enumerate(runs):
        if symbol == "1" and length % 2 == 1:
            if idx + 1 == len(runs):
                continue
            follow_symbol, follow_length = runs[idx + 1]
            assert follow_symbol == "0"  # runs alternate by construction
            if follow_length % 2 == 1:
                return False
    return True


ORACLES = {1: g1_oracle, 2: g2_oracle, 3: g3_oracle, 4: g4_oracle}


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_dfa_agrees_with_language_oracle(index):
    grammar = builtin_grammar(index)
    oracle = ORACLES[index]
    for length in range(0, 11):
        for bits in itertools.product("01", repeat=length):
            s = "".join(bits)
            assert accepts(grammar, s) == oracle(s), (index, s)


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_enumeration_equals_brute_force(index):
    grammar = builtin_grammar(index)
    for length in range(0, 11):
        brute = [
            "".join(bits)
            for bits in itertools.product("01", repeat=length)
            if accepts(grammar, "".join(bits))
        ]
        assert enumerate_strings(grammar, length) == brute


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_count_matches_enumeration(index):
    grammar = builtin_grammar(index)
    for length in range(0, 14):
        assert count_strings(grammar, length) == len(
            enumerate_strings(grammar, length)
        )


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_count_accepted_matches_oracle_count(index):
    grammar = builtin_grammar(index)
    for length in range(0, 25):
        assert count_accepted(grammar, length) == count_strings(grammar, length)
    with pytest.raises(InputError):
        count_accepted(grammar, -1)


def test_spot_memberships():
    g1, g2 = builtin_grammar(1), builtin_grammar(2)
    g3, g4 = builtin_grammar(3), builtin_grammar(4)
    assert accepts(g1, "1111") and not accepts(g1, "1101")
    assert accepts(g2, "") and accepts(g2, "0011") and not accepts(g2, "0001")
    assert accepts(g3, "0001") and not accepts(g3, "0011")
    assert accepts(g4, "0111") and not accepts(g4, "1110")
    assert not accepts(g4, "1000")  # odd 1-run, then odd 0-run


def test_g1_is_singleton_at_every_length():
    grammar = builtin_grammar(1)
    for length in range(0, 40):
        assert count_strings(grammar, length) == 1
    assert enumerate_strings(grammar, 5) == ["11111"]


def test_g3_three_strings_from_length_two():
    grammar = builtin_grammar(3)
    for length in range(2, 12):
        expected = ["0" * length, "0" * (length - 1) + "1", "1" * length]
        assert enumerate_strings(grammar, length) == sorted(expected)
    assert enumerate_strings(grammar, 1) == ["0", "1"]
    assert enumerate_strings(grammar, 0) == [""]
    with pytest.raises(InputError):
        enumerate_strings(grammar, -1)


def test_g4_ten_strings_at_length_four():
    assert enumerate_strings(builtin_grammar(4), 4) == [
        "0000", "0001", "0011", "0100", "0110",
        "0111", "1001", "1100", "1101", "1111",
    ]


def test_g2_empty_at_odd_lengths():
    grammar = builtin_grammar(2)
    for length in (1, 3, 5, 7):
        assert enumerate_strings(grammar, length) == []
        assert count_strings(grammar, length) == 0


@given(bitstrings)
def test_g2_oracle_is_parity(s):
    assert accepts(builtin_grammar(2), s) == (
        s.count("0") % 2 == 0 and s.count("1") % 2 == 0
    )


def test_g2_accepted_strings_pairwise_edit_distance_at_least_two():
    # One edit changes a parity: substitution flips both counts' pairing,
    # insert/delete flips one.  So distinct accepted strings never sit at
    # distance 1 and the radius-1 complex is edgeless.
    from topoinfluence import edit_distance

    strings = enumerate_strings(builtin_grammar(2), 4)
    assert len(strings) == 8
    for a, b in itertools.combinations(strings, 2):
        assert edit_distance(a, b) >= 2


def test_unknown_grammar_index():
    with pytest.raises(InputError):
        builtin_grammar(5)


def test_grammar_validation():
    with pytest.raises(InputError, match="missing transition"):
        Grammar(
            name="partial",
            alphabet=("0", "1"),
            states=("a",),
            start="a",
            accepting=frozenset({"a"}),
            transitions={("a", "0"): "a"},
        )
    with pytest.raises(InputError, match="start state"):
        Grammar(
            name="lost",
            alphabet=("0",),
            states=("a",),
            start="b",
            accepting=frozenset(),
            transitions={("a", "0"): "a"},
        )


class TestGrammarInfluence:
    def test_g1_entropy_zero(self):
        for length in (1, 4, 9):
            res = grammar_influence(1, length, 1.0)
            assert res.entropy == 0.0
            assert res.n == 1

    def test_g2_uniform_at_radius_one(self):
        res = grammar_influence(2, 4, 1.0)
        assert res.n == 8
        assert len(set(res.mu)) == 1
        assert res.entropy == pytest.approx(math.log(8), abs=1e-12)

    def test_g3_worked_values(self):
        res = grammar_influence(3, 4, 1.0)
        by_label = dict(zip(res.labels, res.mu))
        assert float(by_label["1111"]) == 0.5
        assert float(by_label["0000"]) == 0.25
        assert float(by_label["0001"]) == 0.25

    def test_empty_language_raises(self):
        with pytest.raises(InputError, match="point set must be nonempty"):
            grammar_influence(2, 3, 1.0)

    def test_sampled_mode_passes_through(self):
        res = grammar_influence(4, 4, 1.0, permutations=200, seed=5)
        assert res.method == "sampled"
        assert res.permutations == 200
