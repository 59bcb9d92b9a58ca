"""In-memory span recorder for the traced benchmark run.

The program has no spans of its own yet, so the recorder wraps the
public functions of each layer from outside: ``instrument`` rebinds
them, in this process only, in the modules that call them, and
``restore`` puts the originals back.  Every call becomes a span with a
name, start, end, parent span and job id; counts taken from the call's
arguments or result ride on the span.  ``layer_metrics`` folds one
pass's spans into the per-layer metrics, and ``write`` dumps every span
as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from importlib import import_module

# Layers whose exceptions are counted as ``<layer>.errors``.
LAYERS = ("loaders", "metric_complex", "homology", "engine", "masking", "report", "cli")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    job: str
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Spans in call order; ``job`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(),
                        self._open[-1] if self._open else None, self.job)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def write(self, fh) -> None:
        """One JSON object per span, in call order."""
        for span in self.spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def _pairs(args, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


# (module, attribute, span name, counter).  The module is the one whose
# global the caller looks up, so rebinding it there reroutes the call.
POINTS = (
    ("topoinfluence.cli", "main", "cli.main", None),
    ("topoinfluence.cli", "read_text", "loaders.read_text", None),
    ("topoinfluence.cli", "load_edges", "loaders.load_edges", None),
    ("topoinfluence.cli", "load_strings", "loaders.load_strings", None),
    ("topoinfluence.cli", "build_distance_matrix",
     "metric_complex.build_distance_matrix", _pairs),
    ("topoinfluence.cli", "build_complex", "metric_complex.build_complex",
     lambda args, result: {"edges": result.num_edges()}),
    ("topoinfluence.cli", "compute_influence", "engine.compute_influence", None),
    ("topoinfluence.masking", "compute_influence", "engine.compute_influence", None),
    ("topoinfluence.engine", "exact_shapley", "engine.exact_shapley", None),
    ("topoinfluence.engine", "sampled_shapley", "engine.sampled_shapley", None),
    ("topoinfluence.engine", "permutation_marginals", "engine.permutation_marginals",
     lambda args, result: {"steps": len(args[1])}),
    ("topoinfluence.engine", "shannon_entropy", "engine.shannon_entropy", None),
    ("topoinfluence.engine", "betti0_table", "homology.betti0_table",
     lambda args, result: {"entries": len(result)}),
    ("topoinfluence.masking", "betti0", "homology.betti0", None),
    ("topoinfluence.cli", "generate_er_dataset", "masking.generate_er_dataset",
     lambda args, result: {"accepted": len(result)}),
    ("topoinfluence.cli", "run_masking_experiment",
     "masking.run_masking_experiment", None),
    ("topoinfluence.masking", "mask_nodes", "masking.mask_nodes", None),
    ("topoinfluence.cli", "render", "report.render",
     lambda args, result: {"bytes": len(result.encode("utf-8"))}),
)


def instrument(recorder: SpanRecorder) -> list:
    """Rebind every traced function; returns what ``restore`` needs."""
    saved = []
    for module_name, attr, name, count in POINTS:
        module = import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, recorder.wrap(name, original, count))
    # from_edges is a classmethod, called through the class by loaders,
    # masking and the generators alike.
    complex_cls = import_module("topoinfluence.metric_complex").NeighborComplex
    original = complex_cls.__dict__["from_edges"]
    saved.append((complex_cls, "from_edges", original))
    complex_cls.from_edges = classmethod(
        recorder.wrap("metric_complex.from_edges", original.__func__)
    )
    return saved


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# Per-layer self-time metrics: name -> the spans whose self times they sum.
SELF_TIMES = {
    "loaders.parse_s": ("loaders.read_text", "loaders.load_edges", "loaders.load_strings"),
    "metric_complex.distance_s": ("metric_complex.build_distance_matrix",),
    "metric_complex.threshold_s": ("metric_complex.build_complex",),
    "metric_complex.from_edges_s": ("metric_complex.from_edges",),
    "homology.table_s": ("homology.betti0_table",),
    "homology.betti0_s": ("homology.betti0",),
    "engine.exact_self_s": ("engine.exact_shapley",),
    "engine.sampled_self_s": ("engine.sampled_shapley",),
    "engine.walk_s": ("engine.permutation_marginals",),
    "engine.entropy_s": ("engine.shannon_entropy",),
    "masking.generate_s": ("masking.generate_er_dataset",),
    "masking.experiment_self_s": ("masking.run_masking_experiment",),
    "masking.mask_nodes_s": ("masking.mask_nodes",),
    "report.render_s": ("report.render",),
    "cli.self_s": ("cli.main",),
}


def _self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    One thread runs the program, so children never overlap."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass, as name -> (value, unit)."""
    own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(k)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key):
        return sum(spans[k].counts.get(key, 0) for k in by_name.get(name, ()))

    out = {
        metric: (sum(own[k] for name in names for k in by_name.get(name, ())), "s")
        for metric, names in SELF_TIMES.items()
    }
    tables = [spans[k].counts["entries"] for k in by_name.get("homology.betti0_table", ())]
    generate = set(by_name.get("masking.generate_er_dataset", ()))
    attempts = sum(1 for k in by_name.get("homology.betti0", ())
                   if spans[k].parent in generate)
    accepted = total("masking.generate_er_dataset", "accepted")
    out.update({
        "loaders.calls": (sum(calls(n) for n in SELF_TIMES["loaders.parse_s"]), "count"),
        "metric_complex.distance_calls": (
            calls("metric_complex.build_distance_matrix"), "count"),
        "metric_complex.distance_pairs": (
            total("metric_complex.build_distance_matrix", "pairs"), "count"),
        "metric_complex.edges": (total("metric_complex.build_complex", "edges"), "count"),
        "metric_complex.from_edges_calls": (calls("metric_complex.from_edges"), "count"),
        "homology.table_entries": (sum(tables), "count"),
        # The table is int8: one byte per entry; the largest one sets the peak.
        "homology.table_bytes": (max(tables, default=0), "B"),
        "homology.betti0_calls": (calls("homology.betti0"), "count"),
        "engine.exact_calls": (calls("engine.exact_shapley"), "count"),
        "engine.influence_calls": (calls("engine.compute_influence"), "count"),
        "engine.permutations": (calls("engine.permutation_marginals"), "count"),
        "engine.walk_steps": (total("engine.permutation_marginals", "steps"), "count"),
        "masking.attempts": (attempts, "count"),
        "masking.accept_ratio": (accepted / attempts if attempts else 0.0, "ratio"),
        "report.output_bytes": (total("report.render", "bytes"), "B"),
    })
    for layer in LAYERS:
        out[f"{layer}.errors"] = (
            sum(1 for s in spans if s.error and s.layer == layer), "count")
    return out


def median_metrics(passes: list[dict], scales: list[float]) -> dict[str, tuple[float, str]]:
    """Median over passes of each time, pass k's times multiplied by
    ``scales[k]``.  Counts come from the first pass; the jobs are
    deterministic, so every pass counts the same."""
    out = {}
    for name, (value, unit) in passes[0].items():
        if unit == "s":
            value = statistics.median(p[name][0] * c for p, c in zip(passes, scales))
        out[name] = (value, unit)
    return out
