"""The benchmark's own checks: reference routes, payload checks, tracing.

Each payload check must accept the program's real report and reject a
corrupted one; the traced run must not change a report's bytes.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from topoinfluence import cli  # noqa: E402
from topoinfluence.engine import exact_shapley  # noqa: E402
from topoinfluence.families import erdos_renyi_graph  # noqa: E402
from topoinfluence.metric_complex import edit_distance  # noqa: E402


def run(tmp_path, *argv) -> dict:
    output = tmp_path / "report.json"
    assert cli.main([*argv, "--format", "json", "--output", str(output)]) == 0
    return json.loads(output.read_text(encoding="utf-8"))


def union_file(tmp_path, parts, seed=3):
    n, edges, scores = workloads._relabeled(parts, random.Random(seed))
    path = tmp_path / "graph.txt"
    workloads._write_edges(path, n, edges)
    return str(path), scores


def test_reference_scores_match_engine_on_random_graphs():
    for seed in range(8):
        graph = erdos_renyi_graph(9, 0.3, seed)
        assert reference.exact_scores(graph.n, list(graph.rows)) == list(
            exact_shapley(graph).shapley
        )


def test_reference_levenshtein_matches_program():
    rng = random.Random(5)
    strings = ["".join(rng.choice("01") for _ in range(rng.randint(0, 7)))
               for _ in range(30)]
    left, right, dist = reference.edit_distances(strings)
    for i, j, d in zip(left, right, dist):
        assert d == edit_distance(strings[i], strings[j])


def test_exact_check_rejects_small_rational_change(tmp_path):
    graph, scores = union_file(
        tmp_path, [("path", (5,)), ("star", (4,)), ("cycle", (5,))]
    )
    envelope = run(tmp_path, "influence", "--input", graph, "--input-format", "edges")
    assert reference.check_exact_profile(scores, envelope) == []
    sample = envelope["payload"]["samples"][2]
    sample["s_exact"] = str(Fraction(sample["s_exact"]) + Fraction(1, 10**9))
    errors = reference.check_exact_profile(scores, envelope)
    assert len(errors) == 1 and errors[0].startswith("sample 2:")


def test_checks_ignore_config_echo(tmp_path):
    graph, scores = union_file(tmp_path, [("wheel", (6,)), ("complete", (4,))])
    envelope = run(tmp_path, "influence", "--input", graph, "--input-format", "edges")
    del envelope["config"]["threads"]
    envelope["config"]["input"] = "elsewhere"
    assert reference.check_exact_profile(scores, envelope) == []


def test_sampled_check_rejects_score_moved_ten_standard_errors(tmp_path):
    parts = [("wheel", (6,)), ("path", (8,)), ("complete_bipartite", (2, 3))] * 2
    graph, scores = union_file(tmp_path, parts)
    envelope = run(tmp_path, "influence", "--input", graph, "--input-format", "edges",
                   "--sample", "2000", "--seed", "4")
    assert reference.check_sampled_profile(scores, 2000, envelope) == []
    sample = envelope["payload"]["samples"][7]
    direction = 1 if sample["s"] >= scores[7] else -1
    sample["s"] += direction * 10 * sample["std_error"]
    errors = reference.check_sampled_profile(scores, 2000, envelope)
    assert any(e.startswith("sample 7: s ") for e in errors)


def test_sweep_check_rejects_dropped_reference_edge(tmp_path):
    rng = random.Random(9)
    strings = ["".join(rng.choice("01") for _ in range(rng.randint(5, 8)))
               for _ in range(40)]
    data = tmp_path / "strings.txt"
    data.write_text("\n".join(strings) + "\n", encoding="utf-8")
    edge_sets = reference.edit_edge_sets(strings, (1, 2))
    envelope = run(tmp_path, "sweep", "--input", str(data), "--metric", "edit",
                   "--radii", "1,2", "--sample", "300", "--seed", "2")
    assert reference.check_sweep(40, 300, edge_sets, envelope) == []
    # Drop the only edge of a degree-one vertex: the reference now calls
    # it isolated, which must score exactly 1.
    degree = [0] * 40
    for u, v in edge_sets[1]:
        degree[u] += 1
        degree[v] += 1
    edge, leaf = next((e, v) for e in sorted(edge_sets[1]) for v in e if degree[v] == 1)
    corrupted = dict(edge_sets)
    corrupted[1] = edge_sets[1] - {edge}
    errors = reference.check_sweep(40, 300, corrupted, envelope)
    assert any(e.startswith(f"r=1 sample {leaf}: s ") for e in errors)


def test_masking_check_rejects_changed_label(tmp_path):
    args = (12, (5, 8), (0.05, 0.3), (1, 2), 6)
    envelope = run(tmp_path, "mask", "--count", "12", "--n-range", "5:8",
                   "--p-range", "0.05:0.3", "--j", "1,2", "--seed", "6")
    assert reference.check_masking(*args, envelope) == []
    row = envelope["payload"]["rows"][4]
    row["label_after"] += 1
    row["flipped"] = row["label_after"] != row["label_before"]
    errors = reference.check_masking(*args, envelope)
    assert any(e.startswith("row 4:") for e in errors)


def test_traced_run_leaves_report_bytes_unchanged(tmp_path):
    graph, _ = union_file(tmp_path, [("star", (7,)), ("cycle", (6,))])
    jobs = [
        ("influence", "--input", graph, "--input-format", "edges"),
        ("influence", "--input", graph, "--input-format", "edges",
         "--sample", "50", "--seed", "1"),
        ("mask", "--count", "6", "--n-range", "5:7", "--j", "1"),
    ]
    plain = []
    for k, argv in enumerate(jobs):
        out = tmp_path / f"plain{k}.json"
        assert cli.main([*argv, "--format", "json", "--output", str(out)]) == 0
        plain.append(out.read_bytes())
    original = cli.main
    recorder = tracing.SpanRecorder()
    saved = tracing.instrument(recorder)
    try:
        for k, argv in enumerate(jobs):
            recorder.job = str(k)
            out = tmp_path / f"traced{k}.json"
            assert cli.main([*argv, "--format", "json", "--output", str(out)]) == 0
            assert out.read_bytes() == plain[k]
    finally:
        tracing.restore(saved)
    assert cli.main is original
    metrics = tracing.layer_metrics(recorder.spans)
    assert metrics["engine.exact_calls"][0] == 1 + 6
    assert metrics["engine.permutations"][0] == 50
    assert metrics["homology.table_entries"][0] == 2**13 + sum(
        s.counts["entries"] for s in recorder.spans
        if s.name == "homology.betti0_table" and s.job == "2"
    )
    assert metrics["engine.influence_calls"][0] == 2 + 6
    assert all(metrics[f"{layer}.errors"][0] == 0 for layer in tracing.LAYERS)
    assert {s.job for s in recorder.spans} == {"0", "1", "2"}


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("cli.main", 0.0, None, "j", end=10.0),
        tracing.Span("engine.exact_shapley", 1.0, 0, "j", end=7.0),
        tracing.Span("homology.betti0_table", 2.0, 1, "j", end=6.0,
                     counts={"entries": 16}),
        tracing.Span("report.render", 8.0, 0, "j", end=9.0, error=True),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"][0] == pytest.approx(3.0)
    assert metrics["engine.exact_self_s"][0] == pytest.approx(2.0)
    assert metrics["homology.table_s"][0] == pytest.approx(4.0)
    assert metrics["homology.table_bytes"][0] == 16
    assert metrics["report.errors"][0] == 1


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert [w["why"] for w in spec["workloads"]] == list(workloads.WHY.values())
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    traced = list(tracing.layer_metrics([])) + ["engine.max_std_error", "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == traced


def test_speed_sampler_subtracts_its_own_samples():
    import signal
    import time

    from worker import SpeedSampler

    previous = signal.getsignal(signal.SIGALRM)
    seconds, calibration = SpeedSampler().measure(lambda: time.sleep(0.3))
    assert 0.29 < seconds < 0.4
    assert calibration > 0
    assert signal.getsignal(signal.SIGALRM) is previous
