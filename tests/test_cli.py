import argparse
import csv
import gc
import hashlib
import io
import json
import math
import random
import re
from pathlib import Path

import pytest

from topoinfluence import cli
from topoinfluence.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

G3_STRINGS = "1111\n0000\n0001\n"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejections and --help/--version
        code = exc.code if isinstance(exc.code, int) else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def g3_file(tmp_path):
    p = tmp_path / "g3.txt"
    p.write_text(G3_STRINGS, encoding="utf-8")
    return str(p)


class TestInfluence:
    def test_worked_example_json(self, capsys, g3_file):
        code, out, err = run_cli(
            capsys, "influence", "--input", g3_file,
            "--metric", "edit", "--radius", "1", "--exact", "--format", "json",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["config"]["seed"] == 0
        mu = {s["label"]: s["mu"] for s in doc["payload"]["samples"]}
        assert mu == {"1111": 0.5, "0000": 0.25, "0001": 0.25}
        assert doc["payload"]["entropy_nats"] == pytest.approx(
            1.5 * math.log(2), abs=1e-12
        )

    def test_byte_identical_reruns(self, capsys, g3_file):
        args = (
            "influence", "--input", g3_file, "--metric", "edit",
            "--radius", "1", "--format", "json",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_and_json_carry_identical_numbers(self, capsys, g3_file):
        base = (
            "influence", "--input", g3_file, "--metric", "edit", "--radius", "1",
        )
        _, json_out, _ = run_cli(capsys, *base, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *base, "--format", "csv")
        payload = json.loads(json_out)["payload"]
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == len(payload["samples"])
        for row, sample in zip(rows, payload["samples"]):
            assert float(row["s"]) == sample["s"]
            assert float(row["mu"]) == sample["mu"]
            assert row["label"] == sample["label"]

    def test_table_with_bits_toggle(self, capsys, g3_file):
        base = (
            "influence", "--input", g3_file, "--metric", "edit", "--radius", "1",
        )
        _, nats_out, _ = run_cli(capsys, *base)
        _, bits_out, _ = run_cli(capsys, *base, "--bits")
        assert "entropy = 1.039721 nats" in nats_out
        assert "entropy = 1.500000 bits" in bits_out

    def test_output_file(self, capsys, g3_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "influence", "--input", g3_file, "--metric", "edit",
            "--radius", "1", "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["kind"] == "profile"

    def test_sampled_mode_reports_errors(self, capsys, g3_file):
        code, out, _ = run_cli(
            capsys, "influence", "--input", g3_file, "--metric", "edit",
            "--radius", "1", "--sample", "300", "--seed", "9",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["method"] == "sampled"
        assert doc["config"]["seed"] == 9
        assert all("std_error" in s for s in doc["payload"]["samples"])

    def test_stdin_dash(self, capsys, g3_file, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(G3_STRINGS))
        code, out, _ = run_cli(
            capsys, "influence", "--input", "-", "--radius", "1",
        )
        assert code == 0
        assert "1111" in out

    def test_edges_input(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("4\n0 1\n1 2\n2 3\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "influence", "--input", str(p),
            "--input-format", "edges", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["s"]) for r in rows] == [0.5, 2 / 3, 2 / 3, 0.5]

    def test_edges_with_metric_rejected(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("2\n0 1\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "influence", "--input", str(p),
            "--input-format", "edges", "--metric", "edit",
        )
        assert code == 2
        assert "edge-list" in err

    def test_missing_radius(self, capsys, g3_file):
        code, _, err = run_cli(
            capsys, "influence", "--input", g3_file, "--metric", "edit"
        )
        assert code == 2
        assert "--radius" in err

    def test_empty_input_file(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "influence", "--input", str(p), "--radius", "1"
        )
        assert code == 2

    def test_vectors_need_explicit_metric(self, capsys, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("0 0\n0 1\n5 5\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "influence", "--input", str(p),
            "--input-format", "vectors", "--radius", "1",
        )
        assert code == 2
        assert "hamming or euclidean" in err
        code, out, _ = run_cli(
            capsys, "influence", "--input", str(p), "--metric", "euclidean",
            "--radius", "1.5", "--format", "csv",
        )
        assert code == 0

    @pytest.mark.parametrize("metric", ["hamming", "euclidean"])
    def test_non_finite_vector_refused(self, capsys, tmp_path, metric):
        p = tmp_path / "v.txt"
        p.write_text("1,2\nnan,0\nnan,0\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "influence", "--input", str(p), "--metric", metric,
            "--radius", "0",
        )
        assert (code, out) == (2, "")
        assert err == "topoinfluence: error: vector 1 has a non-finite coordinate\n"

    def test_precomputed_matrix(self, capsys, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0 1 4\n1 0 3\n4 3 0\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "influence", "--input", str(p), "--metric", "precomputed",
            "--radius", "1", "--format", "json",
        )
        assert code == 0
        mu = [s["mu"] for s in json.loads(out)["payload"]["samples"]]
        assert mu == [0.25, 0.25, 0.5]

    def test_cap_exit_code(self, capsys, tmp_path):
        lines = [str(i) for i in range(25)]  # 25 distinct one-token strings
        p = tmp_path / "many.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "influence", "--input", str(p), "--metric", "edit",
            "--radius", "1", "--cap", "20",
        )
        assert code == 3
        assert err == (
            "topoinfluence: size cap: exact enumeration for n=25 exceeds cap 20; "
            "raise the cap (hard max 26)\n"
        )


    def test_past_cap_warning_is_one_stable_line(self, capsys, tmp_path):
        p = tmp_path / "many.txt"
        p.write_text("\n".join(str(i) for i in range(21)) + "\n", encoding="utf-8")
        warning = (
            "topoinfluence: warning: exact enumeration at n=21 fills a "
            "2^21-entry subset table; time and memory roughly double with "
            "each vertex past the default cap\n"
        )
        code, out, err = run_cli(
            capsys, "influence", "--input", str(p), "--radius", "1", "--cap", "21",
        )
        assert code == 0
        assert out.startswith("# topoinfluence")
        assert err == warning
        code, _, err = run_cli(
            capsys, "sweep", "--input", str(p), "--radii", "1,2", "--cap", "21",
        )
        assert code == 0
        assert err == warning


@pytest.mark.parametrize(
    "argv",
    [("influence", "--radius", "1"), ("sweep", "--radii", "1,2", "--cap", "30")],
)
def test_cap_checked_before_distances(capsys, tmp_path, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("distances computed for an input over the cap")

    monkeypatch.setattr(cli, "build_distance_matrix", refuse)
    monkeypatch.setattr(cli, "neighbor_pairs", refuse)
    p = tmp_path / "many.txt"
    p.write_text("\n".join(str(i) for i in range(27)) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], "--input", str(p), *argv[1:])
    assert code == 3
    assert out == ""
    # Past the hard max no cap helps, whatever --cap says.
    assert err == (
        "topoinfluence: size cap: exact enumeration for n=27 exceeds the hard max 26\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (("influence", "--radius", "-1", "--sample", "5"),
         "resolution must be a finite nonnegative real, got -1.0"),
        (("influence", "--radius", "nan"),
         "resolution must be a finite nonnegative real, got nan"),
        (("sweep", "--radii", "1,inf"),
         "resolution must be a finite nonnegative real, got inf"),
        (("sweep", "--radii", "1,-2", "--metric", "precomputed"),
         "resolution must be a finite nonnegative real, got -2.0"),
        (("influence", "--radius", "1", "--sample", "0"),
         "need at least one permutation, got 0"),
        (("sweep", "--radii", "1,2", "--sample", "-3", "--metric", "precomputed"),
         "need at least one permutation, got -3"),
    ],
)
def test_radius_and_sample_checked_before_distances(
    capsys, tmp_path, monkeypatch, argv, message
):
    def refuse(*args):
        raise AssertionError("distances computed or a radius scored before refusal")

    monkeypatch.setattr(cli, "build_distance_matrix", refuse)
    monkeypatch.setattr(cli, "neighbor_pairs", refuse)
    monkeypatch.setattr(cli, "build_complex", refuse)
    p = tmp_path / "input.txt"
    matrix = "precomputed" in argv
    p.write_text("0 1 4\n1 0 3\n4 3 0\n" if matrix else G3_STRINGS, encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], "--input", str(p), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"topoinfluence: error: {message}\n"


@pytest.mark.parametrize(
    "drawer,argv",
    [
        ("erdos_renyi_graph",
         ("family", "--kind", "erdos_renyi", "--n", "6000", "--p", "0.001")),
        ("generate_er_dataset",
         ("mask", "--count", "30", "--n-range", "600:600", "--p-range", "0.05:0.2")),
    ],
)
def test_cap_checked_before_any_graph_is_drawn(capsys, monkeypatch, drawer, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was drawn for a size over the cap")

    monkeypatch.setattr(cli, drawer, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    # mask has no --cap and no --sample: only its size range can change.
    assert err == "topoinfluence: size cap: " + (
        "exact enumeration for n=6000 exceeds the hard max 26\n" if argv[0] == "family"
        else "mask ranks every graph exactly, up to n=20; --n-range reaches n=600\n"
    )


def test_over_cap_family_keeps_argument_errors_and_edge_emission(capsys):
    family = ("family", "--kind", "erdos_renyi", "--n", "6000")
    assert run_cli(capsys, *family)[0] == 2
    assert run_cli(capsys, *family, "--p", "0.001", "--m", "2")[0] == 2
    code, out, _ = run_cli(
        capsys, "family", "--kind", "erdos_renyi", "--n", "40", "--p", "0.1",
        "--emit-edges",
    )
    assert code == 0
    assert out.splitlines()[1] == "40"


class TestSweep:
    def test_profiles_per_radius(self, capsys, g3_file):
        code, out, _ = run_cli(
            capsys, "sweep", "--input", g3_file, "--metric", "edit",
            "--radii", "1,4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        profiles = doc["payload"]["profiles"]
        assert [p["radius"] for p in profiles] == [1, 4]
        assert profiles[0]["samples"][0]["mu"] == 0.5
        # radius 4 joins everything: uniform measure
        assert {s["mu"] for s in profiles[1]["samples"]} == {1 / 3}

    def test_sweep_csv_one_row_per_radius_sample(self, capsys, g3_file):
        code, out, _ = run_cli(
            capsys, "sweep", "--input", g3_file, "--metric", "edit",
            "--radii", "1,2,4", "--format", "csv",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert {r["radius"] for r in rows} == {"1", "2", "4"}

    def test_sampled_csv_carries_the_json_std_error(self, capsys, g3_file):
        argv = ("sweep", "--input", g3_file, "--radii", "1,4", "--sample", "30",
                "--seed", "2")
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        profiles = json.loads(out)["payload"]["profiles"]
        expected = [
            (p["radius"], s["index"], s["std_error"])
            for p in profiles for s in p["samples"]
        ]
        assert any(e > 0 for _, _, e in expected)
        assert [
            (float(r["radius"]), int(r["index"]), float(r["std_error"]))
            for r in rows
        ] == expected

    def test_exact_csv_has_no_std_error_column(self, capsys, g3_file):
        _, out, _ = run_cli(
            capsys, "sweep", "--input", g3_file, "--radii", "1", "--format", "csv"
        )
        assert out.splitlines()[0] == "radius,index,label,s,mu"

    def test_distances_built_once_per_sweep(self, capsys, g3_file, monkeypatch):
        # One pass over the pairs, up to the largest radius, for all radii.
        calls = []
        original = cli.neighbor_pairs

        def counted(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(cli, "neighbor_pairs", counted)
        code, _, err = run_cli(
            capsys, "sweep", "--input", g3_file, "--metric", "edit",
            "--radii", "1,4,2",
        )
        assert code == 0, err
        assert calls == [("edit", 4.0)]

    def test_sweep_rejects_edges(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("2\n0 1\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "sweep", "--input", str(p),
            "--input-format", "edges", "--radii", "1",
        )
        assert code == 2
        assert "invalid choice" in err


class TestFamily:
    def test_wheel_table_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "--kind", "wheel", "--n", "6", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        samples = doc["payload"]["samples"]
        assert samples[0]["label"] == "rim"
        assert samples[0]["mu_exact"] == "9/55"
        assert samples[-1]["label"] == "hub"
        assert samples[-1]["mu_exact"] == "2/11"
        assert doc["payload"]["roles"] == [["rim", 5], ["hub", 1]]

    def test_bipartite_requires_m(self, capsys):
        code, _, err = run_cli(
            capsys, "family", "--kind", "complete_bipartite", "--n", "3"
        )
        assert code == 2
        assert "--m" in err

    def test_single_parameter_family_rejects_m(self, capsys):
        code, _, err = run_cli(
            capsys, "family", "--kind", "cycle", "--n", "5", "--m", "2"
        )
        assert code == 2

    def test_erdos_renyi_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "--kind", "erdos_renyi", "--n", "8",
            "--p", "0.4", "--seed", "11", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["method"] == "exact"
        assert len(doc["payload"]["samples"]) == 8

    def test_erdos_renyi_needs_p(self, capsys):
        code, _, err = run_cli(
            capsys, "family", "--kind", "erdos_renyi", "--n", "8"
        )
        assert code == 2
        assert "--p" in err

    def test_emit_edges_composes_with_influence(self, capsys, tmp_path):
        target = tmp_path / "star.edges"
        code, _, _ = run_cli(
            capsys, "family", "--kind", "star", "--n", "5",
            "--emit-edges", "--output", str(target),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "influence", "--input", str(target),
            "--input-format", "edges", "--format", "json",
        )
        assert code == 0
        samples = json.loads(out)["payload"]["samples"]
        assert samples[4]["s_exact"] == "7/5"  # star center, n=5

    @pytest.mark.parametrize(
        "argv,comment",
        [
            (["complete", "--n", "4"], "complete:4"),
            (["cycle", "--n", "5"], "cycle:5"),
            (["wheel", "--n", "6"], "wheel:6"),
            (["star", "--n", "5"], "star:5"),
            (["path", "--n", "3"], "path:3"),
            (["complete_bipartite", "--m", "2", "--n", "3"], "complete_bipartite:2,3"),
            (["erdos_renyi", "--n", "10", "--p", "0.3", "--seed", "4"],
             "erdos_renyi:10,0.3,4"),
        ],
    )
    def test_emitted_edges_name_the_generator(self, capsys, argv, comment):
        code, out, _ = run_cli(capsys, "family", "--kind", *argv, "--emit-edges")
        assert code == 0
        assert out.splitlines()[0] == f"# {comment}"

    def test_bad_parameters_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "family", "--kind", "wheel", "--n", "3")
        assert code == 2


class TestIdentities:
    def test_clean_verification(self, capsys):
        code, out, _ = run_cli(
            capsys, "identities", "--n-max", "10", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["ok"] is True
        assert doc["payload"]["mismatch_detail"] == []
        names = [r["identity"] for r in doc["payload"]["results"]]
        assert names == ["star", "bipartite", "wheel"]

    def test_csv_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "identities", "--n-max", "6", "--format", "csv"
        )
        assert out.splitlines()[0] == "identity,checked,mismatches"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["mismatches"] for r in rows] == ["0", "0", "0"]


class TestGrammar:
    def test_bare_strings_consumable_by_influence(self, capsys, tmp_path):
        target = tmp_path / "g3len4.txt"
        code, _, _ = run_cli(
            capsys, "grammar", "--g", "3", "--len", "4", "--output", str(target)
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "influence", "--input", str(target), "--metric", "edit",
            "--radius", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        mu = {s["label"]: s["mu"] for s in doc["payload"]["samples"]}
        assert mu["1111"] == 0.5

    def test_labeled_emission(self, capsys):
        code, out, _ = run_cli(capsys, "grammar", "--g", "1", "--len", "3", "--neg")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 8
        assert "111\t1" in lines
        assert "110\t0" in lines

    def test_empty_language_is_reported_not_fatal(self, capsys):
        code, out, _ = run_cli(capsys, "grammar", "--g", "2", "--len", "5")
        assert code == 0
        assert "no strings of length 5" in out

    def test_range_emission(self, capsys):
        code, out, _ = run_cli(capsys, "grammar", "--g", "3", "--range", "2:3")
        assert code == 0
        strings = [l for l in out.splitlines() if not l.startswith("#")]
        assert strings == ["00", "01", "11", "000", "001", "111"]

    def test_length_past_recursion_limit(self, capsys):
        code, out, err = run_cli(capsys, "grammar", "--g", "1", "--len", "1200")
        assert code == 0, err
        strings = [l for l in out.splitlines() if not l.startswith("#")]
        assert strings == ["1" * 1200]

    def test_neg_length_guard(self, capsys):
        code, _, err = run_cli(capsys, "grammar", "--g", "2", "--len", "17", "--neg")
        assert code == 2
        assert "--neg" in err or "2^17" in err

    def test_neg_length_checked_before_enumeration(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated before the --neg length check")

        monkeypatch.setattr(cli, "enumerate_strings", refuse)
        code, out, err = run_cli(
            capsys, "grammar", "--g", "2", "--range", "15:22", "--neg"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "topoinfluence: error: --neg labels all 2^17 strings; max length 16\n"
        )

    def test_output_budget_checked_before_enumeration(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated before the output budget check")

        monkeypatch.setattr(cli, "enumerate_strings", refuse)
        for g, argv, count, length in (
            ("2", ("--len", "18"), 131072, 18),
            ("4", ("--len", "20"), 93760, 20),
            ("2", ("--range", "10:20"), 131072, 18),
        ):
            code, out, err = run_cli(capsys, "grammar", "--g", g, *argv)
            assert code == 2
            assert out == ""
            assert err == (
                f"topoinfluence: error: g{g} has {count} strings of length "
                f"{length}; max 2^16 per length\n"
            )

    def test_output_budget_admits_lengths_within_it(self, capsys):
        code, out, _ = run_cli(capsys, "grammar", "--g", "4", "--len", "18")
        assert code == 0
        assert out.startswith("# g4 length 18: 29952 strings\n")
        assert out.count("\n") == 29953
        for g in ("1", "3"):
            code, out, _ = run_cli(capsys, "grammar", "--g", g, "--range", "0:40")
            assert code == 0


class TestMask:
    def test_small_run_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "mask", "--count", "12", "--seed", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["graph_count"] == 12
        assert len(doc["payload"]["rows"]) == 12 * 3 * 3
        rates = {
            (r["j"], r["variant"]): r["rate"] for r in doc["payload"]["rates"]
        }
        assert set(j for j, _ in rates) == {1, 2, 3}

    def test_csv_one_row_per_graph_j_variant(self, capsys):
        code, out, _ = run_cli(
            capsys, "mask", "--count", "9", "--seed", "3", "--j", "1,2",
            "--format", "csv",
        )
        assert out.splitlines()[0] == (
            "graph,n,j,variant,label_before,label_after,flipped"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9 * 2 * 3
        assert set(r["variant"] for r in rows) == {"top", "bottom", "random"}

    def test_deterministic_output(self, capsys):
        args = ("mask", "--count", "9", "--seed", "8", "--format", "json")
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "topoinfluence" in out


def test_repeated_calls_leave_no_parser_garbage(capsys):
    # Each call parses with the one cached parser, so no call leaves
    # argparse's reference cycles for a full collection to find.
    argv = ("family", "--kind", "path", "--n", "4", "--format", "json")
    assert run_cli(capsys, *argv)[0] == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert parsers == []
    assert first == second and cli.build_parser() is cli.build_parser()


def test_threads_flag_accepted(capsys, tmp_path):
    p = tmp_path / "s.txt"
    p.write_text(G3_STRINGS, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "influence", "--input", str(p), "--radius", "1",
        "--threads", "4", "--format", "csv",
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("grammar", "--g", "3", "--range", "5:3"), "--range"),
        (("sweep", "--metric", "edit", "--radii", ""), "--radii"),
        (("mask", "--j", ""), "--j"),
    ],
)
def test_empty_list_or_range_exits_2(capsys, g3_file, argv, flag):
    if argv[0] == "sweep":
        argv += ("--input", g3_file)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("influence", "--radius", "1", "--sample", "5", "--seed", "-1"),
        ("influence", "--radius", "1", "--seed", "-1"),
        ("sweep", "--radii", "1,2", "--sample", "5", "--seed", str(1 << 128)),
        ("family", "--kind", "erdos_renyi", "--n", "10", "--p", "0.3", "--seed", "-1"),
        ("family", "--kind", "wheel", "--n", "6", "--seed", "x"),
        ("mask", "--count", "3", "--seed", str(1 << 128)),
    ],
)
def test_seed_outside_the_philox_key_range_exits_2(capsys, g3_file, monkeypatch, argv):
    # Every seed keys a Philox stream, so it is refused before any work,
    # in exact mode too, where it keys nothing.
    def refuse(*args, **kwargs):
        raise AssertionError("work started for a seed out of range")

    for name in ("neighbor_pairs", "erdos_renyi_graph", "generate_er_dataset"):
        monkeypatch.setattr(cli, name, refuse)
    if argv[0] in ("influence", "sweep"):
        argv += ("--input", g3_file)
    code, out, err = run_cli(capsys, *argv)
    seed = argv[argv.index("--seed") + 1]
    assert code == 2
    assert out == ""
    assert err.endswith(
        f"argument --seed: expected an integer in 0..2^128-1, got {seed!r}\n"
    )


def test_seed_range_ends_are_accepted(capsys):
    for seed in ("0", str((1 << 128) - 1)):
        code, out, _ = run_cli(
            capsys, "family", "--kind", "erdos_renyi", "--n", "10", "--p", "0.3",
            "--seed", seed, "--emit-edges",
        )
        assert code == 0 and out.splitlines()[1] == "10"


EXACT_ROW = ["index", "label", "s", "mu", "s_exact", "mu_exact"]


@pytest.mark.parametrize(
    "argv, payload_keys, row_keys",
    [
        (
            ("family", "--kind", "wheel", "--n", "6"),
            ["n", "method", "entropy_nats", "total_s", "roles", "samples"],
            EXACT_ROW,
        ),
        (
            ("influence", "--input", "g3.txt", "--radius", "1"),
            ["n", "method", "radius", "entropy_nats", "total_s", "samples"],
            EXACT_ROW,
        ),
        (
            ("influence", "--input", "g3.txt", "--radius", "1", "--sample", "40"),
            ["n", "method", "radius", "permutations", "entropy_nats", "total_s",
             "samples"],
            ["index", "label", "s", "mu", "std_error"],
        ),
        (
            ("influence", "--input", "g.edges", "--input-format", "edges"),
            ["n", "method", "entropy_nats", "total_s", "samples"],
            EXACT_ROW,
        ),
    ],
)
def test_profile_payload_key_order(
    capsys, tmp_path, monkeypatch, argv, payload_keys, row_keys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g3.txt").write_text(G3_STRINGS, encoding="utf-8")
    (tmp_path / "g.edges").write_text("3\n0 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert list(payload) == payload_keys
    assert list(payload["samples"][0]) == row_keys


# Every ``$ topoinfluence <command>`` block of README.md, as (command,
# the output shown under it).
README_EXAMPLES = re.findall(
    r"```\n\$ topoinfluence (.*?)\n(.*?)```", README.read_text(encoding="utf-8"), re.S
)


def test_readme_shows_one_example_per_command():
    commands = [command.split()[0] for command, _ in README_EXAMPLES]
    assert sorted(commands) == ["family", "grammar", "influence"]


@pytest.mark.parametrize(
    "command, want", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES]
)
def test_readme_examples_match_output(capsys, tmp_path, monkeypatch, command, want):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo.txt").write_text(G3_STRINGS, encoding="utf-8")
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert out == want


# SHA-256 of five JSON reports: any change to their bytes must be a
# stated one.  The sampled runs read numpy's ``Generator.permutation``,
# the masking run and the Erdos-Renyi family its ``integers``,
# ``uniform``, ``choice`` and ``random``, whose algorithms numpy does not
# promise to keep (NEP 19), so every numpy that CI runs is held to them.
# The 18 seeded 1-D points at r = 1.5 form an interval graph, chordal
# with blocks that are not complete, which exact mode scores in closed
# form.
REPORT_DIGESTS = {
    "influence-sampled": "4d9594aa62867f2c9dcceb9e1771b1488fcbc00a3f8c18913260b7675ab995c9",
    "sweep-sampled": "dbfa2634c34c7b826e1fac490ca4227c1dabfaa462fcc1ce7b21f5bd0399054e",
    "mask": "26e5d7d5bfcee49620f07a78c57cb761ef870528eecb2e93ce88ce54b737ebe9",
    "mask-repeated-j": "78ae9be3925b9a6343ee061ee38ed3b98ceae1aaa190812887f9826310ceeeee",
    "family-erdos_renyi": "c9c0b60b9fd9cc0c55a1a0eadf36a19b3c088a30747eb3aabd4b07a9d297b7d9",
    "influence-exact-points": "5ef7214e180920366edfdf3cc6b7064c6b7918801bc52d8a04fd49218ba9b3fb",
}


def test_report_digests_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    strings = [format(i, "06b") for i in range(0, 64, 3)]
    (tmp_path / "strings.txt").write_text("\n".join(strings) + "\n", encoding="utf-8")
    rng = random.Random(1)
    points = [round(rng.uniform(0, 12), 2) for _ in range(18)]
    (tmp_path / "points.txt").write_text("".join(f"{p}\n" for p in points), encoding="utf-8")
    runs = {
        "influence-sampled": ("influence", "--input", "strings.txt", "--metric", "edit",
                              "--radius", "1", "--sample", "200", "--seed", "3"),
        "sweep-sampled": ("sweep", "--input", "strings.txt", "--metric", "edit",
                          "--radii", "1,2", "--sample", "100", "--seed", "5"),
        "mask": ("mask", "--count", "30", "--seed", "2"),
        "mask-repeated-j": ("mask", "--count", "30", "--j", "3,1,3", "--seed", "11"),
        "family-erdos_renyi": ("family", "--kind", "erdos_renyi", "--n", "16",
                               "--p", "0.25", "--seed", "3"),
        "influence-exact-points": ("influence", "--input", "points.txt",
                                   "--metric", "euclidean", "--radius", "1.5", "--exact"),
    }
    digests = {}
    for name, argv in runs.items():
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digests == REPORT_DIGESTS
