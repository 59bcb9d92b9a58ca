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
"""

from __future__ import annotations

import csv
import io
import json
import math

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


def _write_json(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(fmt_float(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise InputError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}  {json.dumps(key, ensure_ascii=False)}: ")
            _write_json(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _write_json(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise InputError(f"cannot serialize {type(value).__name__} to JSON")


def to_json(envelope: dict) -> str:
    out: list[str] = []
    _write_json(envelope, out, 0)
    out.append("\n")
    return "".join(out)


def _sample_csv(samples: list[dict]) -> tuple[list[str], list[list]]:
    """Header and rows of one profile's samples; ``std_error`` is a
    column when the samples carry it."""
    header = ["index", "label", "s", "mu"]
    if any("std_error" in s for s in samples):
        header.append("std_error")
    rows = [
        [s["index"], s["label"], *(fmt_float(s[key]) for key in header[2:])]
        for s in samples
    ]
    return header, rows


def _csv_rows(envelope: dict) -> tuple[list[str], list[list]]:
    """Header and data rows for the flat form of each payload kind."""
    kind = envelope["kind"]
    payload = envelope["payload"]
    if kind in ("profile", "family"):
        return _sample_csv(payload["samples"])
    if kind == "sweep":
        rows = []
        for profile in payload["profiles"]:
            header, body = _sample_csv(profile["samples"])
            radius = fmt_float(profile["radius"])
            rows += [[radius, *row] for row in body]
        return ["radius", *header], rows
    if kind == "identities":
        header = ["identity", "checked", "mismatches"]
        rows = [
            [item["identity"], item["checked"], item["mismatches"]]
            for item in payload["results"]
        ]
        return header, rows
    if kind == "masking":
        header = [
            "graph", "n", "j", "variant",
            "label_before", "label_after", "flipped",
        ]
        rows = [
            [
                r["graph"], r["n"], r["j"], r["variant"],
                r["label_before"], r["label_after"], int(r["flipped"]),
            ]
            for r in payload["rows"]
        ]
        return header, rows
    raise InputError(f"no CSV form for payload kind {kind!r}")


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
