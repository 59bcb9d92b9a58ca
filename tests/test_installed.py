"""The CLI run as a process of its own, on inputs up to 10^4 vertices.

Each test starts ``python -m topoinfluence.cli``, the installed console
script's entry point, through :func:`topoinfluence`, in a fresh working
directory, with subprocess timeouts as its time bounds.  A process of its
own is what these checks are about: byte identity across processes,
whose string hashes are seeded apart, and the peak RSS of one command.
"""

import json
import os
import random
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import topoinfluence as package
from topoinfluence import (
    NeighborComplex,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    wheel_graph,
)
from topoinfluence.blocks import biconnected_blocks
from topoinfluence.loaders import load_edges

from oracles import (
    edit_distance_dp,
    joined_by_bridges,
    philox_orders,
    walk_totals,
    whole_graph_sums,
)

# The package under test, first on the path of every process started here.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(package.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)}
CLI = [sys.executable, "-m", "topoinfluence.cli"]

# Runs the command in its arguments and writes the command's own peak RSS,
# in KB, as the last line of stderr.  A child's ru_maxrss starts from the
# high-water mark of the process that spawns it, so the launcher imports
# only os and sys: its own small footprint, not the test process's, is the
# floor of what the command reads.
LAUNCHER = """import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


class Run(NamedTuple):
    out: bytes
    err: bytes
    peak_mb: float | None


def topoinfluence(*argv, timeout=None, peak=False) -> Run:
    """``topoinfluence argv`` in the working directory, which must exit 0
    within ``timeout`` seconds.  With ``peak``, it runs under LAUNCHER,
    and ``peak_mb`` is its own peak RSS."""
    command = [*CLI, *argv]
    if peak:
        command = [sys.executable, "-c", LAUNCHER, *command]
    # A session of its own, so that a timeout kills the launcher's child too.
    with subprocess.Popen(command, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    assert proc.returncode == 0, f"{argv}: {err.decode()}"
    if not peak:
        return Run(out, err, None)
    *lines, last = err.splitlines(keepends=True)
    return Run(out, b"".join(lines), int(last) / 1024)


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def write_lines(path: str, lines) -> None:
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def payload(out: bytes) -> dict:
    return json.loads(out.decode("utf-8"))["payload"]


def scores(out: bytes, key: str) -> dict:
    return {sample["index"]: sample[key] for sample in payload(out)["samples"]}


def write_edges(path: str, graph: NeighborComplex) -> None:
    write_lines(path, [graph.n, *(f"{u} {v}" for u, v in graph.edges())])


def sampled_matches_whole_graph_walk(path: str, n: int, permutations: int, seed: int,
                                     timeout=None):
    """Scores the edge list at ``path``, of n vertices, in sampled mode.
    Every s must equal, as a %.17g string, the score recomputed from the
    whole-graph walk of tests/oracles.py on the same Philox orders, and the
    sum of the marginals, s times the permutations, the sum of the orders'
    walk totals by Shapley efficiency."""
    graph = load_edges(Path(path).read_text(encoding="utf-8"))
    out = topoinfluence("influence", "--input", path, "--input-format", "edges", "--sample",
                        str(permutations), "--seed", str(seed), "--format", "json",
                        timeout=timeout).out
    got = scores(out, "s")
    sums, _ = whole_graph_sums(graph, permutations, seed)
    assert payload(out)["n"] == graph.n == n
    assert {i: format(s, ".17g") for i, s in got.items()} == {
        i: format(s / permutations, ".17g") for i, s in enumerate(sums)
    }
    assert sum(round(s * permutations) for s in got.values()) == sum(
        walk_totals(graph, philox_orders(graph.n, permutations, seed))
    )


def test_launcher_reads_the_command_alone():
    # This process holds 128 MB more: a direct child reads it, the same
    # command under LAUNCHER does not.
    ballast = np.ones(128 << 20, dtype=np.uint8)
    direct = subprocess.Popen([*CLI, "--version"], env=ENV, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(direct.pid, 0)
    direct.returncode = os.waitstatus_to_exitcode(status)
    del ballast
    assert direct.returncode == 0
    assert usage.ru_maxrss / 1024 > 100
    run = topoinfluence("--version", peak=True)
    assert run.out == f"topoinfluence {package.__version__}\n".encode()
    assert run.peak_mb < 64


def test_identical_bytes_on_identical_inputs():
    # Every subcommand runs twice, in each format it has.
    write_lines("demo.txt", ["1111", "0000", "0001", "0110"])
    # demo.txt's edit distances, read as a precomputed matrix.
    write_lines("demo.matrix", ["0 4 3 2", "4 0 1 2", "3 1 0 3", "2 2 3 0"])
    commands = [
        "influence --input demo.txt --radius 1",
        "sweep --input demo.txt --radii 1,2",
        "sweep --input demo.txt --radii 1,2 --sample 50 --seed 3",
        "influence --input demo.matrix --input-format matrix --radius 1",
        "sweep --input demo.matrix --input-format matrix --radii 1,2",
        "family --kind wheel --n 6",
        "family --kind erdos_renyi --n 10 --p 0.3 --seed 4",
        "identities --n-max 8",
        "mask --count 9 --seed 3",
    ]
    commands = [f"{command} --format {fmt}" for fmt in ("json", "csv", "table")
                for command in commands] + [
        "grammar --g 4 --len 6",
        "family --kind complete_bipartite --m 2 --n 3 --emit-edges",
        "family --kind erdos_renyi --n 10 --p 0.3 --seed 4 --emit-edges",
    ]
    # The two runs of a command start together, each a process of its own.
    with ThreadPoolExecutor(2) as pool:
        for command in commands:
            first, second = pool.map(lambda _: topoinfluence(*command.split()).out, range(2))
            assert first == second, command


def test_json_labels_equal_awkward_input_strings():
    # Non-ASCII letters, a quote, a backslash and a tab: json.loads of the
    # output gives back every input line as its sample's label, in order.
    lines = ["café", "naïve", "über", 'say "hi"', "back\\slash", "tab\there", "Ωmega", "日本語"]
    write_lines("awkward.txt", lines)
    out = topoinfluence("influence", "--input", "awkward.txt", "--radius", "1",
                        "--format", "json").out
    samples = sorted(payload(out)["samples"], key=lambda sample: sample["index"])
    assert [sample["label"] for sample in samples] == lines


def test_strings_and_their_edit_distance_matrix_agree():
    # 18 seeded strings scored exactly at r = 1 and r = 2, once as strings
    # (only the pairs up to r are computed) and once as their matrix,
    # written by the scalar dynamic program of tests/oracles.py.
    rng = random.Random(5)
    strings = ["".join(rng.choice("01") for _ in range(rng.randint(3, 7))) for _ in range(18)]
    write_lines("strings.txt", strings)
    write_lines("strings.matrix", [" ".join(str(edit_distance_dp(a, b)) for b in strings)
                                   for a in strings])
    for r in ("1", "2"):
        from_strings = scores(topoinfluence("influence", "--input", "strings.txt", "--radius", r,
                                            "--format", "json").out, "s_exact")
        from_matrix = scores(topoinfluence("influence", "--input", "strings.matrix",
                                           "--input-format", "matrix", "--radius", r,
                                           "--format", "json").out, "s_exact")
        assert len(from_strings) == 18
        assert from_strings == from_matrix, f"r={r}"


def test_sampled_run_at_ten_thousand_vertices():
    # One cycle block, scored in closed form, within the time bound.
    Path("cycle.txt").write_bytes(
        topoinfluence("family", "--kind", "cycle", "--n", "10000", "--emit-edges").out
    )
    sampled_matches_whole_graph_walk("cycle.txt", 10000, 20, 1, timeout=300)


def test_sampled_scores_equal_the_whole_graph_walk():
    # A mix of trees and cycles (558 bridges, 1240 vertices on cycles):
    # the bridges are scored in closed form, only the cycle edges walked.
    Path("er.txt").write_bytes(topoinfluence(
        "family", "--kind", "erdos_renyi", "--n", "2000", "--p", "0.0012", "--seed", "5",
        "--emit-edges",
    ).out)
    sampled_matches_whole_graph_walk("er.txt", 2000, 40, 2)


def test_sampled_scores_equal_the_whole_graph_walk_on_small_pieces():
    # 30 seeded parts, each joined to an earlier one by one bridge: wheels
    # of 12 and 13, K_{4,6}, K8, bowties, pairs of K4s sharing a vertex
    # and 20-cycles.  The bowties' triangles and the 20-cycles are cycle
    # blocks, in closed form; the other blocks of at most 12 vertices are
    # looked up, the shared vertex of each K4 pair in both; only the
    # wheels of 13 are walked.
    bowtie = NeighborComplex.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    k4s = NeighborComplex.from_edges(7, [(u, v) for clique in ((0, 1, 2, 3), (0, 4, 5, 6))
                                         for u in clique for v in clique if u < v])
    shapes = [wheel_graph(12), complete_bipartite_graph(4, 6), complete_graph(8),
              bowtie, k4s, cycle_graph(20), wheel_graph(13)]
    rng = random.Random(7)
    graph = joined_by_bridges((rng.choice(shapes) for _ in range(30)), rng)
    pieces = graph.pieces
    assert len(pieces.looked) and len(pieces.walked) and len(pieces.cycles)
    assert len(set(pieces.looked.tolist())) < len(pieces.looked), "no vertex in two looked-up blocks"
    write_edges("pieces.txt", graph)
    sampled_matches_whole_graph_walk("pieces.txt", graph.n, 40, 2)


def test_sampled_scores_equal_the_whole_graph_walk_when_small_pieces_are_few():
    # At the default piece constants: two triangles, K4, three 20-cycles,
    # a wheel of 13, a path and a star, each joined to an earlier part by
    # one bridge.  K4's 4 vertices are fewer than the lookup minimum of
    # 32, so no block is looked up and K4 is walked with the wheel.
    parts = [complete_graph(3), complete_graph(3), complete_graph(4), cycle_graph(20),
             cycle_graph(20), cycle_graph(20), wheel_graph(13), path_graph(6), star_graph(5)]
    rng = random.Random(11)
    rng.shuffle(parts)
    graph = joined_by_bridges(parts, rng)
    pieces = graph.pieces
    bridges = sum(len(block) == 2 for block, _ in biconnected_blocks(graph.neighbors))
    assert not len(pieces.looked)
    assert len(pieces.walked) and len(pieces.cycles) and bridges
    write_edges("few.txt", graph)
    sampled_matches_whole_graph_walk("few.txt", graph.n, 40, 2)


def test_erdos_renyi_edges_at_n_4000():
    # Two emissions match, each under 64 MB (measured: 38 MB): one float
    # per pair is drawn, in blocks of 2^16, and only the edges become
    # Python tuples.
    first, second = (topoinfluence("family", "--kind", "erdos_renyi", "--n", "4000", "--p",
                                   "0.0005", "--seed", "1", "--emit-edges", peak=True)
                     for _ in range(2))
    assert first.out == second.out
    assert max(first.peak_mb, second.peak_mb) < 64


def test_metric_inputs_at_3000_samples():
    # A sampled edit-distance sweep over 3000 seeded strings and a sampled
    # hamming profile over 3000 seeded 64-coordinate 0/1 vectors, each
    # within the time bound.  Only the pairs up to the largest radius are
    # computed, with no n x n matrix, so each stays under 80 MB
    # (measured: 54 MB; the matrix route peaked at 124 MB).
    rng = random.Random(1)
    write_lines("strings.txt", ["".join(rng.choice("01") for _ in range(rng.randint(8, 16)))
                                for _ in range(3000)])
    write_lines("vectors.txt", [" ".join(rng.choice("01") for _ in range(64))
                                for _ in range(3000)])
    jobs = {
        "sweep.json": ["sweep", "--input", "strings.txt", "--radii", "1,2"],
        "hamming.json": ["influence", "--input", "vectors.txt", "--metric", "hamming",
                         "--radius", "20"],
    }
    for output, argv in jobs.items():
        run = topoinfluence(*argv, "--sample", "20", "--seed", "1", "--format", "json",
                            "--output", output, timeout=120, peak=True)
        assert run.peak_mb < 80, output
    sweep = payload(Path("sweep.json").read_bytes())
    assert [profile["n"] for profile in sweep["profiles"]] == [3000, 3000]
    assert payload(Path("hamming.json").read_bytes())["n"] == 3000


def test_exact_run_near_the_hard_cap():
    # A 24-vertex graph past the default cap of 20 fills a 2^24-entry
    # table within the time bound; the past-cap warning is stderr's one line.
    run = topoinfluence("family", "--kind", "erdos_renyi", "--n", "24", "--p", "0.3", "--seed",
                        "5", "--cap", "24", "--format", "json", timeout=120)
    assert payload(run.out)["n"] == 24 and len(payload(run.out)["samples"]) == 24
    assert run.err.decode("utf-8") == (
        "topoinfluence: warning: exact enumeration at n=24 fills a 2^24-entry subset table; "
        "time and memory roughly double with each vertex past the default cap\n"
    )


@pytest.mark.parametrize("kind, n", [("cycle", 24), ("wheel", 23), ("path", 24),
                                     ("complete", 24)])
def test_exact_table_against_closed_forms_near_the_cap(kind, n):
    # Every s_exact from the emitted edges equals the closed form `family`
    # prints: a sparse graph, whose masks mostly settle at the table's
    # first step, and one dense block, whose masks mostly grow, held
    # against an independent route at n >= 23.  The path and K24 have only
    # complete blocks and fill no table: the engine's block closed form
    # past the cap, on a forest and on one clique.
    family = ["family", "--kind", kind, "--n", str(n)]
    Path("edges.txt").write_bytes(topoinfluence(*family, "--emit-edges").out)
    closed = scores(topoinfluence(*family, "--format", "json").out, "s_exact")
    exact = scores(topoinfluence("influence", "--input", "edges.txt", "--input-format", "edges",
                                 "--cap", "24", "--format", "json", timeout=120).out, "s_exact")
    assert len(exact) == n
    assert exact == closed
