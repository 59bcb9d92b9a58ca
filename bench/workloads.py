"""Seeded inputs and job lists for the four benchmark workloads.

``build(name, seed, workdir)`` writes every input file a workload's jobs
read, before anything is timed, and returns the jobs.  Each job carries
the CLI arguments to run and a check that holds the job's JSON payload
against a reference route computed here, not by the program.

The seed changes the inputs, never their cost class: graph kinds and
sizes are fixed per slot and the seed relabels vertices, splits unions
and draws strings.  That keeps a workload's run time nearly the same on
every seed, so run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from topoinfluence.families import get_family

import reference

# (kind, size parameters) parts; a slot with several parts is their
# disjoint union, numbered part after part.
Part = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class Job:
    """One CLI call: its arguments and the check its JSON payload must pass."""

    name: str
    argv: tuple[str, ...]
    output: str
    check: Callable[[dict], list[str]]


WHY = {
    "exact_table": (
        "exact mode on six graphs of 18-20 vertices: the subset table and "
        "tallies dominate; half sparse with many blocks, half one dense block"
    ),
    "strings_sweep": (
        "edit-distance sweep over 324 binary strings of lengths 8-16 at r=1,2: "
        "the O(n^2) distance matrix, rebuilt per radius, dominates"
    ),
    "sampled_union": (
        "3000 permutations over a 900-vertex union of six families: the "
        "sampled walk dominates, with no table and no distance matrix"
    ),
    "mask_ensemble": (
        "four of the paper's 200-graph masking runs: many tiny exact tables, "
        "masking, component counts and large JSON renders"
    ),
}


def _output_args(output: str) -> tuple[str, ...]:
    return ("--format", "json", "--output", output)


def _relabeled(parts: list[Part], rng: random.Random):
    """(n, edges, scores) of the union of ``parts`` under a seeded relabeling.

    Scores are the closed forms of the parts, concatenated in part order
    and then carried along with their vertices by the relabeling.
    """
    edges: list[tuple[int, int]] = []
    scores: list[Fraction] = []
    for kind, params in parts:
        family = get_family(kind)
        offset = len(scores)
        edges += [(u + offset, v + offset) for u, v in family.build(*params).edges()]
        scores += family.scores(*params)
    n = len(scores)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
                 for u, v in edges]
    rng.shuffle(relabeled)
    moved = [Fraction(0)] * n
    for v, s in enumerate(scores):
        moved[perm[v]] = s
    return n, relabeled, tuple(moved)


def _write_edges(path: Path, n: int, edges) -> None:
    lines = [str(n)] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _exact_slots(rng: random.Random) -> list[list[Part]]:
    """Three sparse graphs with many blocks, then three single dense blocks."""
    star = rng.randint(8, 11)
    path = rng.randint(4, 7)
    path_star = rng.randint(4, 7)
    return [
        [("path", (20,))],
        [("star", (star,)), ("cycle", (19 - star,))],
        [("path", (path,)), ("star", (path_star,)), ("cycle", (18 - path - path_star,))],
        [("wheel", (18,))],
        [("complete_bipartite", (8, 11))],
        [("complete", (20,))],
    ]


def exact_table(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"exact_table:{seed}")
    jobs = []
    for k, parts in enumerate(_exact_slots(rng)):
        n, edges, scores = _relabeled(parts, rng)
        graph = workdir / f"graph{k}.txt"
        _write_edges(graph, n, edges)
        output = str(workdir / f"exact{k}.json")
        jobs.append(Job(
            name=f"exact_table/{k}",
            argv=("influence", "--input", str(graph), "--input-format", "edges",
                  *_output_args(output)),
            output=output,
            check=functools.partial(reference.check_exact_profile, scores),
        ))
    return jobs


# 36 strings of each length 8..16, in seeded order: the lengths, which set
# the distance matrix's cost, are the same multiset on every seed.
SWEEP_PER_LENGTH = 36
SWEEP_LENGTHS = range(8, 17)
SWEEP_RADII = (1, 2)
SWEEP_PERMUTATIONS = 300


def strings_sweep(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"strings_sweep:{seed}")
    lengths = [length for length in SWEEP_LENGTHS for _ in range(SWEEP_PER_LENGTH)]
    rng.shuffle(lengths)
    strings = ["".join(rng.choice("01") for _ in range(length)) for length in lengths]
    data = workdir / "strings.txt"
    data.write_text("\n".join(strings) + "\n", encoding="utf-8")
    edge_sets = reference.edit_edge_sets(strings, SWEEP_RADII)
    output = str(workdir / "sweep.json")
    return [Job(
        name="strings_sweep/0",
        argv=("sweep", "--input", str(data), "--metric", "edit",
              "--radii", ",".join(str(r) for r in SWEEP_RADII),
              "--sample", str(SWEEP_PERMUTATIONS), "--seed", str(seed),
              *_output_args(output)),
        output=output,
        check=functools.partial(
            reference.check_sweep, len(strings), SWEEP_PERMUTATIONS, edge_sets
        ),
    )]


UNION_PARTS: tuple[Part, ...] = (
    ("wheel", (12,)),
    ("complete_bipartite", (4, 6)),
    ("star", (15,)),
    ("cycle", (20,)),
    ("path", (25,)),
    ("complete", (8,)),
)
UNION_COPIES = 10
UNION_PERMUTATIONS = 3000


def sampled_union(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"sampled_union:{seed}")
    parts = list(UNION_PARTS) * UNION_COPIES
    rng.shuffle(parts)
    n, edges, scores = _relabeled(parts, rng)
    graph = workdir / "union.txt"
    _write_edges(graph, n, edges)
    output = str(workdir / "union.json")
    return [Job(
        name="sampled_union/0",
        argv=("influence", "--input", str(graph), "--input-format", "edges",
              "--sample", str(UNION_PERMUTATIONS), "--seed", str(seed),
              *_output_args(output)),
        output=output,
        check=functools.partial(
            reference.check_sampled_profile, scores, UNION_PERMUTATIONS
        ),
    )]


# The paper's pinned masking settings; the CLI defaults, spelled out.
MASK_COUNT = 200
MASK_J = (1, 2, 3)
MASK_N_RANGE = (8, 14)
MASK_P_RANGE = (0.02, 0.21)
# A 200-graph ensemble's table work varies by a quarter from seed to
# seed; four ensembles per run average most of that out of the run time.
MASK_RUNS = 4


def mask_ensemble(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for k in range(MASK_RUNS):
        run_seed = MASK_RUNS * seed + k
        output = str(workdir / f"mask{k}.json")
        jobs.append(Job(
            name=f"mask_ensemble/{k}",
            argv=("mask", "--count", str(MASK_COUNT),
                  "--j", ",".join(str(j) for j in MASK_J),
                  "--n-range", "{}:{}".format(*MASK_N_RANGE),
                  "--p-range", "{}:{}".format(*MASK_P_RANGE),
                  "--seed", str(run_seed), *_output_args(output)),
            output=output,
            check=functools.partial(
                reference.check_masking, MASK_COUNT, MASK_N_RANGE, MASK_P_RANGE,
                MASK_J, run_seed,
            ),
        ))
    return jobs


BUILDERS = {
    "exact_table": exact_table,
    "strings_sweep": strings_sweep,
    "sampled_union": sampled_union,
    "mask_ensemble": mask_ensemble,
}


def build(name: str, seed: int, workdir: Path) -> list[Job]:
    """Write the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir)
