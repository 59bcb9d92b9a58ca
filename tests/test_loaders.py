import numpy as np
import pytest

from topoinfluence import InputError, NeighborComplex
from topoinfluence.loaders import (
    dump_edges,
    load_edges,
    load_matrix,
    load_strings,
    load_vectors,
    read_text,
)


def test_load_strings_skips_comments_and_blanks():
    ps = load_strings("# header\n1111\n\n0000\n  \n0001\n")
    assert ps.items == ("1111", "0000", "0001")
    assert ps.labels == ("1111", "0000", "0001")


def test_load_strings_disambiguates_duplicates():
    ps = load_strings("ab\nab\nab\n")
    assert ps.items == ("ab", "ab", "ab")
    assert ps.labels == ("ab", "ab#2", "ab#3")


def test_load_strings_empty():
    with pytest.raises(InputError):
        load_strings("# only a comment\n")


def test_load_vectors_commas_or_whitespace():
    ps = load_vectors("1,2,3\n4 5 6\n")
    assert ps.items == ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))


def test_load_vectors_ragged():
    with pytest.raises(InputError, match="coordinates"):
        load_vectors("1,2\n3\n")


def test_load_vectors_non_numeric():
    with pytest.raises(InputError, match="expected numbers"):
        load_vectors("1,2\nx,3\n")


def test_load_matrix_round_trip():
    dm = load_matrix("0 1 2\n1 0 1\n2 1 0\n")
    assert dm.n == 3
    assert dm.values[0, 2] == 2.0


def test_load_matrix_rejects_nonsquare():
    with pytest.raises(InputError, match="entries"):
        load_matrix("0 1\n1 0 2\n")


def test_load_edges_basic():
    cx = load_edges("# a triangle plus isolate\n4\n0 1\n1 2\n0 2\n")
    assert cx.n == 4
    assert cx.num_edges() == 3
    assert cx.degree(3) == 0


@pytest.mark.parametrize(
    "text",
    [
        "",  # nothing at all
        "0\n",  # zero vertices
        "3 4\n0 1\n",  # header with extra field
        "x\n0 1\n",  # non-integer count
        "3\n0\n",  # malformed edge line
        "3\n0 0\n",  # self-loop
        "3\n0 9\n",  # endpoint out of range
    ],
)
def test_load_edges_rejects(text):
    with pytest.raises(InputError):
        load_edges(text)


def test_dump_edges_round_trips():
    cx = NeighborComplex.from_edges(5, [(0, 4), (1, 2), (2, 3)])
    text = dump_edges(cx, comment="five vertices\nthree edges")
    again = load_edges(text)
    assert again.n == cx.n
    assert sorted(again.edges()) == sorted(cx.edges())
    assert text.startswith("# five vertices\n# three edges\n5\n")


def test_read_text_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        read_text(str(tmp_path / "nope.txt"))


def test_read_text_reads(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("0101\n", encoding="utf-8")
    assert read_text(str(p)) == "0101\n"
