"""Readers for the four on-disk dataset formats.

All formats are line-oriented UTF-8 text.  Blank lines and lines whose
first nonblank character is ``#`` are skipped everywhere, so generated
files can carry provenance comments without confusing a reader.

strings   one sample per line, the line verbatim (after strip) is the item
vectors   one sample per line, comma or whitespace separated floats
matrix    n lines of n comma or whitespace separated floats, symmetric
edges     first data line is the vertex count n, then one "u v" pair
          per line, 0-based
"""

from __future__ import annotations

from .errors import InputError
from .metric_complex import DistanceMatrix, LabeledPointSet, NeighborComplex

FORMATS = ("strings", "vectors", "matrix", "edges")


def _data_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def _split_numeric(line: str, lineno: int) -> list[float]:
    fields = line.replace(",", " ").split()
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise InputError(f"line {lineno}: expected numbers, got {line!r}") from exc


def load_strings(text: str) -> LabeledPointSet:
    """Each data line is one sample; the string doubles as its label.

    Duplicate strings are legal samples (the indices differ) but make
    labels ambiguous, so duplicates get a ``#k`` occurrence suffix.
    """
    items = _data_lines(text)
    if not items:
        raise InputError("no strings found in input")
    seen: dict[str, int] = {}
    labels = []
    for s in items:
        seen[s] = seen.get(s, 0) + 1
        labels.append(s if seen[s] == 1 else f"{s}#{seen[s]}")
    return LabeledPointSet(items=tuple(items), labels=tuple(labels))


def load_vectors(text: str) -> LabeledPointSet:
    lines = _data_lines(text)
    if not lines:
        raise InputError("no vectors found in input")
    rows = [_split_numeric(line, i + 1) for i, line in enumerate(lines)]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(
                f"vector {i} has {len(row)} coordinates, expected {width}"
            )
        if width == 0:
            raise InputError(f"vector {i} is empty")
    return LabeledPointSet.from_vectors(rows)


def load_matrix(text: str) -> DistanceMatrix:
    lines = _data_lines(text)
    if not lines:
        raise InputError("no matrix rows found in input")
    rows = [_split_numeric(line, i + 1) for i, line in enumerate(lines)]
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InputError(f"matrix row {i} has {len(row)} entries, expected {n}")
    return DistanceMatrix(rows)


def load_edges(text: str) -> NeighborComplex:
    lines = _data_lines(text)
    if not lines:
        raise InputError("no edge-list data found in input")
    head = lines[0].split()
    if len(head) != 1:
        raise InputError(
            f"first data line must be the vertex count alone, got {lines[0]!r}"
        )
    try:
        n = int(head[0])
    except ValueError as exc:
        raise InputError(f"vertex count is not an integer: {head[0]!r}") from exc
    if n <= 0:
        raise InputError(f"vertex count must be positive, got {n}")
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise InputError(f"line {lineno}: non-integer endpoint") from exc
        if u == v:
            raise InputError(f"line {lineno}: self-loop on vertex {u}")
        edges.append((u, v))
    return NeighborComplex.from_edges(n, edges)


def dump_edges(complex_: NeighborComplex, comment: str = "") -> str:
    """Inverse of :func:`load_edges`, used by generators that emit graphs."""
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(str(complex_.n))
    for u, v in complex_.edges():
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
