"""Versioned result envelopes and their three serializations.

Every CLI run wraps its payload in an envelope carrying the schema
version, the tool version, and an echo of the parsed configuration
(seed included), so a result file is replayable on its own.  The same
envelope renders as JSON, CSV, or an aligned text table; the JSON and
CSV forms carry identical numeric values, both printed with 17
significant digits so round-tripping through text loses nothing.

Serialization is hand-rolled rather than delegated to json.dumps for
one reason: identical envelopes must produce identical bytes, with
float formatting pinned to one spelling, independent of interpreter
defaults.  No timestamps, no environment leakage.

The JSON writer makes one pass: each container joins its items once,
separated by a comma and a newline, recursing only into nested
containers, and each scalar is spelled inline by one helper.  Strings
and keys go through ``json.encoder.encode_basestring``, the function
``json.dumps(..., ensure_ascii=False)`` ends up calling: the bytes are
the same, without a new encoder built for every string.
"""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring

from .errors import InputError

SCHEMA_VERSION = 1
TOOL_NAME = "topoinfluence"

LN2 = math.log(2.0)


def fmt_float(x: float) -> str:
    """One canonical spelling per float: 17 significant digits (``.17g``),
    exact on round trip.  Not the shortest round-trip form: 0.1 is
    written ``0.10000000000000001``."""
    if not math.isfinite(x):
        raise InputError(f"refusing to serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def make_envelope(kind: str, version: str, config: dict, payload: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "tool_version": version,
        "kind": kind,
        "config": config,
        "payload": payload,
    }


def _scalar(value) -> str:
    """One JSON scalar: None, bools, strings, ints, then floats."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    raise InputError(f"cannot serialize {type(value).__name__} to JSON")


def _refuse_key(key):
    raise InputError(f"JSON object keys must be strings, got {key!r}")


_CONTAINERS = (dict, list, tuple)


def _json(value, pad: str) -> str:
    """``value`` as JSON, its nested lines indented by ``pad``."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = ",\n".join(
            f"{inner}{encode_basestring(key) if isinstance(key, str) else _refuse_key(key)}"
            f": {_json(item, inner) if isinstance(item, _CONTAINERS) else _scalar(item)}"
            for key, item in value.items()
        )
        return f"{{\n{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        body = ",\n".join(
            inner
            + (_json(item, inner) if isinstance(item, _CONTAINERS) else _scalar(item))
            for item in value
        )
        return f"[\n{body}\n{pad}]"
    return _scalar(value)


def to_json(envelope: dict) -> str:
    return _json(envelope, "") + "\n"


# The payload key of each kind's row list.  A sweep's rows are its
# profiles' samples, each led by the profile's radius.
_CSV_ROWS = {
    "profile": "samples", "family": "samples",
    "identities": "results", "masking": "rows",
}


def _csv_cell(value):
    """Floats in their one spelling, bools as 0 or 1, the rest as they are."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return fmt_float(value)
    return value


def _csv_rows(envelope: dict) -> tuple[list[str], list[list]]:
    """Header and data rows of a payload's row list: one column per key
    of its rows, bar the ``*_exact`` strings that only JSON carries."""
    kind = envelope["kind"]
    payload = envelope["payload"]
    if kind == "sweep":
        rows = [
            {"radius": profile["radius"], **sample}
            for profile in payload["profiles"]
            for sample in profile["samples"]
        ]
    elif kind in _CSV_ROWS:
        rows = payload[_CSV_ROWS[kind]]
    else:
        raise InputError(f"no CSV form for payload kind {kind!r}")
    header = [key for key in rows[0] if not key.endswith("_exact")]
    return header, [[_csv_cell(row[key]) for key in header] for row in rows]


def to_csv(envelope: dict) -> str:
    header, rows = _csv_rows(envelope)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _entropy_lines(payload: dict, bits: bool) -> list[str]:
    h = payload.get("entropy_nats")
    if h is None:
        return []
    if bits:
        return [f"entropy = {h / LN2:.6f} bits"]
    return [f"entropy = {h:.6f} nats"]


def _table_profile(payload: dict, bits: bool) -> list[str]:
    samples = payload["samples"]
    has_err = any("std_error" in s for s in samples)
    label_width = max([5] + [len(str(s["label"])) for s in samples])
    head = f"{'index':>5}  {'label':<{label_width}}  {'s':>12}  {'mu':>12}"
    if has_err:
        head += f"  {'std_error':>12}"
    lines = [head]
    for s in samples:
        line = (
            f"{s['index']:>5}  {str(s['label']):<{label_width}}  "
            f"{s['s']:>12.6f}  {s['mu']:>12.6f}"
        )
        if has_err:
            line += f"  {s.get('std_error', 0.0):>12.6f}"
        lines.append(line)
    lines += _entropy_lines(payload, bits)
    return lines


def _table_body(envelope: dict, bits: bool) -> list[str]:
    kind = envelope["kind"]
    payload = envelope["payload"]
    if kind in ("profile", "family"):
        lines = _table_profile(payload, bits)
        if kind == "family" and "roles" in payload:
            lines.append("roles: " + ", ".join(
                f"{role} x{count}" for role, count in payload["roles"]
            ))
        return lines
    if kind == "sweep":
        lines = []
        for profile in payload["profiles"]:
            lines.append(f"-- radius {fmt_float(profile['radius'])} --")
            lines += _table_profile(profile, bits)
        return lines
    if kind == "identities":
        lines = [f"{'identity':<12}  {'checked':>8}  {'mismatches':>10}"]
        for item in payload["results"]:
            lines.append(
                f"{item['identity']:<12}  {item['checked']:>8}  "
                f"{item['mismatches']:>10}"
            )
        return lines
    if kind == "masking":
        lines = [f"{'J':>3}  {'variant':<8}  {'flip_rate':>9}"]
        for rate in payload["rates"]:
            lines.append(
                f"{rate['j']:>3}  {rate['variant']:<8}  {rate['rate']:>9.4f}"
            )
        lines.append(f"graphs: {payload['graph_count']}")
        return lines
    raise InputError(f"no table form for payload kind {kind!r}")


def to_table(envelope: dict, bits: bool = False) -> str:
    config = envelope["config"]
    header = [
        f"# {TOOL_NAME} {envelope['tool_version']} "
        f"schema {envelope['schema']} kind {envelope['kind']}"
    ]
    echo = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
    if echo:
        header.append(f"# {echo}")
    return "\n".join(header + _table_body(envelope, bits)) + "\n"


def render(envelope: dict, fmt: str, bits: bool = False) -> str:
    if fmt == "json":
        return to_json(envelope)
    if fmt == "csv":
        return to_csv(envelope)
    if fmt == "table":
        return to_table(envelope, bits=bits)
    raise InputError(f"unknown output format {fmt!r}")
