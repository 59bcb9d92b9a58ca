"""Command-line frontend.

Six subcommands cover the pipelines: ``influence`` (one dataset, one
radius), ``sweep`` (several radii), ``family`` (closed-form oracle rows
or a seeded random graph), ``identities`` (exact verification of the
combinatorial sums), ``grammar`` (string dataset emission), and
``mask`` (the node-masking experiment).

Every report is wrapped in a versioned envelope that echoes the parsed
configuration, seed included, so any output file identifies the run
that made it.  Identical configurations produce byte-identical output.

Exit codes: 0 success, 2 bad input or parameters, 3 exact-enumeration
size cap, 4 identity mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from itertools import product

from . import __version__
from .engine import (
    DEFAULT_EXACT_CAP,
    InfluenceResult,
    check_exact_cap,
    check_permutations,
    compute_influence,
)
from .errors import InputError, SizeCapError, TopoInfluenceError
from .families import (
    FAMILIES,
    erdos_renyi_graph,
    verify_combinatorial_identities,
)
from .grammars import (
    BUILTIN_INDICES,
    builtin_grammar,
    count_accepted,
    enumerate_strings,
)
from .loaders import (
    FORMATS,
    dump_edges,
    load_edges,
    load_matrix,
    load_strings,
    load_vectors,
    read_text,
)
from .masking import VARIANTS, generate_er_dataset, run_masking_experiment
# build_distance_matrix is bound here, though no route calls it, because
# bench/tracing.py rebinds it and build_complex by name in this module
# (ROADMAP item 1 replaces that rebinding with an in-package recorder).
from .metric_complex import (  # noqa: F401
    METRICS,
    build_complex,
    build_distance_matrix,
    check_radius,
    neighbor_pairs,
)
from .report import make_envelope, render

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4

# ``grammar`` emits at most 2^NEG_LENGTH_MAX strings per length: --neg
# labels all 2^N strings of length N, plain emission the accepted ones.
NEG_LENGTH_MAX = 16


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(args, kind: str, config: dict, payload: dict) -> None:
    envelope = make_envelope(kind, __version__, config, payload)
    _write_output(render(envelope, args.format, bits=args.bits), args.output)


def _sample_rows(result: InfluenceResult) -> list[dict]:
    exact = result.method != "sampled"
    rows = []
    for i in range(result.n):
        row = {
            "index": i,
            "label": result.labels[i],
            "s": float(result.shapley[i]),
            "mu": float(result.mu[i]),
        }
        if exact:
            row["s_exact"] = str(result.shapley[i])
            row["mu_exact"] = str(result.mu[i])
        if result.std_error:
            row["std_error"] = result.std_error[i]
        rows.append(row)
    return rows


def _profile_payload(result: InfluenceResult, radius: float | None = None) -> dict:
    payload: dict = {
        "n": result.n,
        "method": result.method,
    }
    if radius is not None:
        payload["radius"] = float(radius)
    if result.method == "sampled":
        payload["permutations"] = result.permutations
    payload["entropy_nats"] = result.entropy
    payload["total_s"] = float(result.total)
    if result.method == "closed_form":
        # Closed-form labels are vertex roles; count each in first-seen order.
        roles = result.labels
        payload["roles"] = [[role, roles.count(role)] for role in dict.fromkeys(roles)]
    payload["samples"] = _sample_rows(result)
    return payload


def _resolve_input_plan(args) -> tuple[str, str]:
    """(input format, metric); validates that the pair is coherent."""
    metric = args.metric
    fmt = args.input_format
    if fmt == "edges":
        if metric is not None:
            raise InputError(
                "edge-list input is already a graph; --metric does not apply"
            )
        return fmt, ""
    if metric is None:
        # Strings, the default input, and matrices are read by one metric each.
        fits = [m for m, kind in METRICS.items() if kind == (fmt or "strings")]
        if len(fits) != 1:
            raise InputError(
                f"{fmt} input needs an explicit --metric ({' or '.join(fits)})"
            )
        (metric,) = fits
    expected = METRICS[metric]
    if fmt is not None and fmt != expected:
        raise InputError(f"--metric {metric} expects {expected} input, not {fmt}")
    return expected, metric


def _run_engine(args, complex_, labels=None) -> InfluenceResult:
    return compute_influence(
        complex_, labels=labels, cap=args.cap, permutations=args.sample, seed=args.seed
    )


def _profile_payloads(args, radii) -> tuple[str, str, list[dict]]:
    """(input format, metric, one profile payload per radius).

    The input is read and its distances computed once for all radii, after
    the cap or the permutation count and every radius are checked.
    Strings and vectors get only the pairs up to the largest radius, so
    only matrix input holds an n x n array.  Edge
    lists are already a graph: they give one payload, and ``radii`` must
    be ``[None]``.
    """
    fmt, metric = _resolve_input_plan(args)
    text = sys.stdin.read() if args.input == "-" else read_text(args.input)
    if fmt == "edges":
        if radii != [None]:
            raise InputError("edge-list input has no distances; drop --radius")
        return fmt, metric, [_profile_payload(_run_engine(args, load_edges(text)))]
    if None in radii:
        raise InputError(f"{fmt} input needs --radius")
    if fmt == "matrix":
        matrix = load_matrix(text)
        n, labels = matrix.n, None
    else:
        points = load_strings(text) if fmt == "strings" else load_vectors(text)
        n, labels = len(points), points.labels
    # Refuse what the engine would refuse before any distances are computed.
    if args.sample is None:
        check_exact_cap(n, args.cap)
    else:
        check_permutations(args.sample)
    for r in radii:
        check_radius(r)
    if fmt == "matrix":
        distances = matrix
    else:
        distances = neighbor_pairs(points, metric, max(radii))
    payloads = [
        _profile_payload(_run_engine(args, build_complex(distances, r), labels), r)
        for r in radii
    ]
    return fmt, metric, payloads


def _profile_config(args, fmt: str, metric: str, **radius) -> dict:
    """Config echo of ``influence`` and ``sweep``; ``radius`` is the one
    key that differs between them."""
    return {
        "subcommand": args.subcommand,
        "input": args.input,
        "input_format": fmt,
        "metric": metric or "none",
        **radius,
        "mode": "exact" if args.sample is None else "sampled",
        "permutations": args.sample or 0,
        "seed": args.seed,
        "cap": args.cap,
        "threads": args.threads,
    }


def _cmd_influence(args) -> int:
    fmt, metric, (payload,) = _profile_payloads(args, [args.radius])
    radius = "none" if args.radius is None else args.radius
    _emit(args, "profile", _profile_config(args, fmt, metric, radius=radius), payload)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    fmt, metric, profiles = _profile_payloads(args, args.radii)
    radii = ",".join(str(r) for r in args.radii)
    _emit(args, "sweep", _profile_config(args, fmt, metric, radii=radii),
          {"profiles": profiles})
    return EXIT_OK


def _cmd_family(args) -> int:
    config = {
        "subcommand": "family",
        "kind": args.kind,
        "n": args.n,
        "seed": args.seed,
    }
    if args.kind == "erdos_renyi":
        if args.p is None:
            raise InputError("erdos_renyi needs --p")
        if args.m is not None:
            raise InputError("erdos_renyi takes --n and --p, not --m")
        config["p"] = args.p
        if not args.emit_edges:
            check_exact_cap(args.n, args.cap)
        params = (args.n, args.p, args.seed)
        graph = erdos_renyi_graph(*params)
    else:
        family = FAMILIES[args.kind]
        if len(family.min_params) == 2:
            if args.m is None:
                raise InputError(f"{args.kind} needs --m for the left side size")
            params = (args.m, args.n)
            config["m"] = args.m
        else:
            if args.m is not None:
                raise InputError(f"{args.kind} takes only --n")
            params = (args.n,)
        graph = family.build(*params)
    if args.emit_edges:
        comment = f"{args.kind}:{','.join(map(str, params))}"
        _write_output(dump_edges(graph, comment=comment), args.output)
        return EXIT_OK
    if args.kind == "erdos_renyi":
        result = compute_influence(graph, cap=args.cap)
    else:
        result = InfluenceResult(
            labels=family.roles(*params),
            shapley=family.scores(*params),
            method="closed_form",
        )
    _emit(args, "family", config, _profile_payload(result))
    return EXIT_OK


def _cmd_identities(args) -> int:
    report = verify_combinatorial_identities(args.n_max)
    results = [
        {
            "identity": name,
            "checked": report.checked[name],
            "mismatches": sum(1 for m in report.mismatches if m[0] == name),
        }
        for name in ("star", "bipartite", "wheel")
    ]
    payload = {
        "n_max": report.n_max,
        "ok": report.ok,
        "results": results,
        "mismatch_detail": [
            {
                "identity": name,
                "params": list(params),
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
            for name, params, lhs, rhs in report.mismatches
        ],
    }
    config = {"subcommand": "identities", "n_max": args.n_max, "seed": 0}
    _emit(args, "identities", config, payload)
    return EXIT_OK if report.ok else EXIT_NUMERIC


def _cmd_grammar(args) -> int:
    grammar = builtin_grammar(args.g)
    if args.len is not None:
        lengths = [args.len]
    else:
        lo, hi = args.range
        lengths = list(range(lo, hi + 1))
    for length in lengths:
        if args.neg:
            if length > NEG_LENGTH_MAX:
                raise InputError(
                    f"--neg labels all 2^{length} strings; max length {NEG_LENGTH_MAX}"
                )
        elif (count := count_accepted(grammar, length)) > 1 << NEG_LENGTH_MAX:
            raise InputError(
                f"{grammar.name} has {count} strings of length {length}; max "
                f"2^{NEG_LENGTH_MAX} per length"
            )
    lines: list[str] = []
    for length in lengths:
        accepted = enumerate_strings(grammar, length)
        if args.neg:
            good = set(accepted)
            lines.append(
                f"# {grammar.name} length {length}: {len(accepted)} of "
                f"{2 ** length} accepted"
            )
            for bits in product("01", repeat=length):
                s = "".join(bits)
                lines.append(f"{s}\t{1 if s in good else 0}")
        else:
            if not accepted:
                lines.append(f"# {grammar.name}: no strings of length {length}")
                continue
            lines.append(f"# {grammar.name} length {length}: {len(accepted)} strings")
            lines.extend(accepted)
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_mask(args) -> int:
    n_lo, n_hi = args.n_range
    p_lo, p_hi = args.p_range
    # Every graph is ranked exactly, so refuse before drawing any.
    if n_hi > DEFAULT_EXACT_CAP:
        raise SizeCapError(
            f"mask ranks every graph exactly, up to n={DEFAULT_EXACT_CAP}; "
            f"--n-range reaches n={n_hi}"
        )
    dataset = generate_er_dataset(
        args.count, n_range=(n_lo, n_hi), p_range=(p_lo, p_hi), seed=args.seed
    )
    report = run_masking_experiment(dataset, j_values=tuple(args.j), seed=args.seed)
    rates = [
        {"j": j, "variant": variant, "rate": report.rate(j, variant)}
        for j in report.j_values
        for variant in VARIANTS
    ]
    payload = {
        "graph_count": report.graph_count,
        "j_values": list(report.j_values),
        "rates": rates,
        # A row's fields in declaration order, then whether its label moved.
        "rows": [{**r._asdict(), "flipped": r.flipped} for r in report.rows],
    }
    config = {
        "subcommand": "mask",
        "count": args.count,
        "n_range": f"{n_lo}:{n_hi}",
        "p_range": f"{p_lo}:{p_hi}",
        "j": ",".join(str(j) for j in args.j),
        "seed": args.seed,
        "threads": args.threads,
    }
    _emit(args, "masking", config, payload)
    return EXIT_OK


def _parse_range(text: str, kind) -> tuple:
    try:
        lo, hi = (kind(x) for x in text.split(":"))
        if lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected LO:HI with LO <= HI, got {text!r}")


def _parse_list(text: str, kind, noun: str) -> list:
    try:
        values = [kind(x) for x in text.split(",") if x]
        if values:
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")


def _int_range(text: str) -> tuple[int, int]:
    return _parse_range(text, int)


def _float_range(text: str) -> tuple[float, float]:
    return _parse_range(text, float)


def _int_list(text: str) -> list[int]:
    return _parse_list(text, int, "ints")


def _float_list(text: str) -> list[float]:
    return _parse_list(text, float, "reals")


def _seed(text: str) -> int:
    """A seed is a Philox key: an integer in 0..2^128-1."""
    try:
        if 0 <= (seed := int(text)) < 1 << 128:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer in 0..2^128-1, got {text!r}")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "csv", "table"), default="table",
        help="report serialization (default: table)",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="write the report here instead of stdout"
    )
    parser.add_argument(
        "--bits", action="store_true",
        help="show entropy in bits in table output (stored values stay in nats)",
    )


def _add_input_flags(parser: argparse.ArgumentParser, formats: tuple) -> None:
    parser.add_argument(
        "--input", required=True, metavar="PATH", help="dataset file, or - for stdin"
    )
    parser.add_argument(
        "--input-format", choices=formats,
        help="override the format inferred from --metric",
    )
    parser.add_argument("--metric", choices=tuple(METRICS))


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--exact", action="store_true",
        help="full coalition enumeration (default)",
    )
    group.add_argument(
        "--sample", type=int, metavar="P",
        help="estimate from P random insertion orders instead",
    )
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_EXACT_CAP,
        help=f"refuse exact enumeration above this size (default {DEFAULT_EXACT_CAP})",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="reserved and unused; long sampled runs may walk in several "
        "processes, and the output never depends on either",
    )


# One parser per process.  An argparse parser holds reference cycles, and
# building one allocates enough to move it into the collector's oldest
# generation, so a parser built per call to ``main`` would leave garbage
# that only a full collection frees: in-process callers that run many
# jobs would grow with every call.  Parsing leaves the parser unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoinfluence",
        description=(
            "Attribute the connected-component structure of a dataset's "
            "neighbor complex to individual samples."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_inf = sub.add_parser(
        "influence", help="influence profile of one dataset at one radius"
    )
    _add_input_flags(p_inf, FORMATS)
    p_inf.add_argument("--radius", type=float, help="neighbor threshold r")
    _add_engine_flags(p_inf)
    _add_output_flags(p_inf)
    p_inf.set_defaults(handler=_cmd_influence)

    p_sweep = sub.add_parser(
        "sweep", help="influence profiles at several radii over one dataset"
    )
    _add_input_flags(p_sweep, ("strings", "vectors", "matrix"))
    p_sweep.add_argument(
        "--radii", type=_float_list, required=True, metavar="R1,R2,...",
    )
    _add_engine_flags(p_sweep)
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_fam = sub.add_parser(
        "family", help="closed-form oracle rows, or a seeded random graph"
    )
    p_fam.add_argument(
        "--kind", required=True,
        choices=tuple(sorted(FAMILIES)) + ("erdos_renyi",),
    )
    p_fam.add_argument("--n", type=int, required=True, help="vertex count (right side for bipartite)")
    p_fam.add_argument("--m", type=int, help="left side size (bipartite only)")
    p_fam.add_argument("--p", type=float, help="edge probability (erdos_renyi only)")
    p_fam.add_argument("--seed", type=_seed, default=0)
    p_fam.add_argument(
        "--cap", type=int, default=DEFAULT_EXACT_CAP,
        help="exact-enumeration cap for erdos_renyi evaluation",
    )
    p_fam.add_argument(
        "--emit-edges", action="store_true",
        help="print the graph as an edge list instead of a report",
    )
    _add_output_flags(p_fam)
    p_fam.set_defaults(handler=_cmd_family)

    p_id = sub.add_parser(
        "identities", help="verify the closed-form combinatorial sums exactly"
    )
    p_id.add_argument("--n-max", type=int, default=20)
    _add_output_flags(p_id)
    p_id.set_defaults(handler=_cmd_identities)

    p_gram = sub.add_parser(
        "grammar", help="emit the length-N strings of a built-in grammar"
    )
    p_gram.add_argument("--g", type=int, required=True, choices=BUILTIN_INDICES)
    group = p_gram.add_mutually_exclusive_group(required=True)
    group.add_argument("--len", type=int, help="single string length")
    group.add_argument(
        "--range", type=_int_range, metavar="A:B", help="inclusive length range"
    )
    p_gram.add_argument(
        "--neg", action="store_true",
        help="label every string of the length 1/0 instead of emitting "
        "accepted strings bare",
    )
    p_gram.add_argument("--output", metavar="PATH")
    p_gram.set_defaults(handler=_cmd_grammar)

    p_mask = sub.add_parser(
        "mask", help="label-flip rates under top/bottom/random node masking"
    )
    p_mask.add_argument("--count", type=int, default=200, help="ensemble size")
    p_mask.add_argument("--n-range", type=_int_range, default=(8, 14), metavar="A:B")
    p_mask.add_argument(
        "--p-range", type=_float_range, default=(0.02, 0.21), metavar="A:B"
    )
    p_mask.add_argument(
        "--j", type=_int_list, default=(1, 2, 3), metavar="J1,J2,...",
        help="how many vertices to mask (default 1,2,3)",
    )
    p_mask.add_argument("--seed", type=_seed, default=0)
    p_mask.add_argument(
        "--threads", type=int, default=1,
        help="reserved and unused; long runs may mask their graphs in several "
        "processes, and the output never depends on either",
    )
    _add_output_flags(p_mask)
    p_mask.set_defaults(handler=_cmd_mask)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown: set[str] = set()

    def show_warning(message, *_) -> None:
        # One stable line per distinct warning, without Python's source path.
        if str(message) not in shown:
            shown.add(str(message))
            print(f"topoinfluence: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            return args.handler(args)
        except SizeCapError as exc:
            print(f"topoinfluence: size cap: {exc}", file=sys.stderr)
            return EXIT_CAP
        except TopoInfluenceError as exc:
            print(f"topoinfluence: error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
