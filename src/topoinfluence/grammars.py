"""Binary regular languages as DFAs, with fixed-length enumeration.

Four built-in grammars over {0, 1} feed the influence pipeline:

g1  1*
g2  even number of 0s and even number of 1s
g3  1* + 0*(0+1)
g4  every odd-length run of 1s is followed by an even-length run of 0s;
    an odd run of 1s ending the string is accepted, since nothing
    follows it

Enumeration at a given length never materializes all 2^N candidates: a
backward table counts, for each state, the suffixes of each length that
lead from it to acceptance.  Its entry for the start state is the size
of the output, known before any string is built.  The live prefixes are
then extended one symbol at a time, in sorted symbol order, into states
with a nonzero count only, so the last level holds exactly the accepted
strings, lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

BUILTIN_INDICES = (1, 2, 3, 4)


@dataclass(frozen=True)
class Grammar:
    """Deterministic finite automaton over a fixed symbol alphabet.

    Transitions must be total: every (state, symbol) pair maps somewhere.
    States are opaque strings; a conventional absorbing reject state is
    just a state like any other.
    """

    name: str
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    start: str
    accepting: frozenset[str]
    transitions: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        if self.start not in self.states:
            raise InputError(f"start state {self.start!r} not declared")
        if not self.accepting <= set(self.states):
            raise InputError("accepting set contains undeclared states")
        for state in self.states:
            for symbol in self.alphabet:
                target = self.transitions.get((state, symbol))
                if target is None:
                    raise InputError(
                        f"missing transition ({state!r}, {symbol!r})"
                    )
                if target not in self.states:
                    raise InputError(
                        f"transition ({state!r}, {symbol!r}) -> undeclared "
                        f"{target!r}"
                    )


def _suffix_counts(grammar: Grammar, length: int) -> list[dict[str, int]]:
    """counts[k][s] = number of length-k suffixes leading from state s to
    acceptance; s is live with k symbols left iff the count is nonzero."""
    if length < 0:
        raise InputError(f"length must be nonnegative, got {length}")
    counts = [{s: int(s in grammar.accepting) for s in grammar.states}]
    for _ in range(length):
        previous = counts[-1]
        counts.append(
            {
                s: sum(previous[grammar.transitions[(s, a)]] for a in grammar.alphabet)
                for s in grammar.states
            }
        )
    return counts


def count_accepted(grammar: Grammar, length: int) -> int:
    """How many strings of exactly ``length`` the grammar accepts, without
    enumerating them."""
    return _suffix_counts(grammar, length)[length][grammar.start]


def enumerate_strings(grammar: Grammar, length: int) -> list[str]:
    """All accepted strings of exactly ``length``, lexicographic order.

    Every live prefix completes to at least one accepted string, so each
    level holds no more prefixes than the output has strings, and the
    cost is bounded by the output times the length plus the DFA size,
    not by 2^N.
    """
    live = _suffix_counts(grammar, length)
    symbols = tuple(sorted(grammar.alphabet))
    if not live[length][grammar.start]:
        return []
    prefixes = [("", grammar.start)]
    for remaining in range(length - 1, -1, -1):
        extended = []
        for prefix, state in prefixes:
            for symbol in symbols:
                target = grammar.transitions[(state, symbol)]
                if live[remaining][target]:
                    extended.append((prefix + symbol, target))
        prefixes = extended
    return [prefix for prefix, _ in prefixes]


def _g1() -> Grammar:
    return Grammar(
        name="g1",
        alphabet=("0", "1"),
        states=("ones", "dead"),
        start="ones",
        accepting=frozenset({"ones"}),
        transitions={
            ("ones", "1"): "ones",
            ("ones", "0"): "dead",
            ("dead", "0"): "dead",
            ("dead", "1"): "dead",
        },
    )


def _g2() -> Grammar:
    # State tracks (parity of 0s, parity of 1s); accept on (even, even).
    states = ("ee", "eo", "oe", "oo")
    flip0 = {"ee": "oe", "eo": "oo", "oe": "ee", "oo": "eo"}
    flip1 = {"ee": "eo", "eo": "ee", "oe": "oo", "oo": "oe"}
    transitions = {}
    for s in states:
        transitions[(s, "0")] = flip0[s]
        transitions[(s, "1")] = flip1[s]
    return Grammar(
        name="g2",
        alphabet=("0", "1"),
        states=states,
        start="ee",
        accepting=frozenset({"ee"}),
        transitions=transitions,
    )


def _g3() -> Grammar:
    # 1* + 0*(0+1): all-ones strings, all-zeros strings, or zeros then a
    # single one.  "ones"/"zeros" mark which branch the prefix committed to.
    return Grammar(
        name="g3",
        alphabet=("0", "1"),
        states=("empty", "ones", "zeros", "zeros_one", "dead"),
        start="empty",
        accepting=frozenset({"empty", "ones", "zeros", "zeros_one"}),
        transitions={
            ("empty", "1"): "ones",
            ("empty", "0"): "zeros",
            ("ones", "1"): "ones",
            ("ones", "0"): "dead",
            ("zeros", "0"): "zeros",
            ("zeros", "1"): "zeros_one",
            ("zeros_one", "0"): "dead",
            ("zeros_one", "1"): "dead",
            ("dead", "0"): "dead",
            ("dead", "1"): "dead",
        },
    )


def _g4() -> Grammar:
    # Run-tracking states.  even: not inside a constrained region (any
    # 1-run seen so far was even, or its 0-payment completed).
    # odd1/even1: a 1-run of odd/even length is open.  owe_odd/owe_even:
    # an odd 1-run closed and the 0-run after it has odd/even length so
    # far; a 1 arriving while the debt is odd is fatal.
    states = ("even", "odd1", "even1", "owe_odd", "owe_even", "dead")
    return Grammar(
        name="g4",
        alphabet=("0", "1"),
        states=states,
        start="even",
        accepting=frozenset({"even", "odd1", "even1", "owe_even"}),
        transitions={
            ("even", "0"): "even",
            ("even", "1"): "odd1",
            ("odd1", "1"): "even1",
            ("odd1", "0"): "owe_odd",
            ("even1", "1"): "odd1",
            ("even1", "0"): "even",
            ("owe_odd", "0"): "owe_even",
            ("owe_odd", "1"): "dead",
            ("owe_even", "0"): "owe_odd",
            ("owe_even", "1"): "odd1",
            ("dead", "0"): "dead",
            ("dead", "1"): "dead",
        },
    )


_BUILTINS = {1: _g1, 2: _g2, 3: _g3, 4: _g4}


def builtin_grammar(index: int) -> Grammar:
    if index not in _BUILTINS:
        raise InputError(
            f"no built-in grammar {index}; choose from {BUILTIN_INDICES}"
        )
    return _BUILTINS[index]()

