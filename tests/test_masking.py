import math
import os
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topoinfluence import cli, homology, masking, parallel
from topoinfluence.engine import _chordal_scores
from topoinfluence import (
    GenerationBudgetError,
    InputError,
    LabeledGraph,
    NeighborComplex,
    betti0,
    complete_graph,
    compute_influence,
    generate_er_dataset,
    mask_nodes,
    path_graph,
    rank_nodes,
    run_masking_experiment,
    star_graph,
)
from topoinfluence.streams import philox_block

from oracles import (
    COLLECTED_CPUS,
    no_child_left,
    reference_er_dataset,
    small_graphs,
    split_and_serial,
    walk_every_draw_dataset,
)


def dataset_key(dataset):
    return [(item.graph.n, item.graph.rows, item.label) for item in dataset]


def outcome(generate, *args, **kwargs):
    """The dataset's key, or the text of the budget error it raised."""
    try:
        return dataset_key(generate(*args, **kwargs))
    except GenerationBudgetError as exc:
        return str(exc)


def count_walks(monkeypatch) -> list[int]:
    """The vertex count of every later union-find walk, in call order:
    masking walks through its own binding, ``betti0`` through homology's.
    Only this process's walks are counted, so no later run splits."""
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", math.inf)
    walks = []
    walk = homology.component_changes

    def counted(neighbors, order):
        walks.append(len(neighbors))
        return walk(neighbors, order)

    monkeypatch.setattr(homology, "component_changes", counted)
    monkeypatch.setattr(masking, "component_changes", counted)
    return walks


class TestMaskNodes:
    def test_path_cut_middle(self):
        g = path_graph(3)
        masked = mask_nodes(g, {1})
        assert masked.n == 2
        assert betti0(masked) == 2

    def test_path_trim_end(self):
        masked = mask_nodes(path_graph(3), {0})
        assert betti0(masked) == 1
        assert sorted(masked.edges()) == [(0, 1)]

    def test_star_center_shatters(self):
        g = star_graph(6)
        masked = mask_nodes(g, {5})
        assert masked.n == 5
        assert betti0(masked) == 5

    def test_survivors_keep_relative_order(self):
        g = path_graph(5)
        masked = mask_nodes(g, {0, 3})
        # survivors 1,2,4 reindex to 0,1,2; only the 1-2 edge survives
        assert masked.n == 3
        assert sorted(masked.edges()) == [(0, 1)]

    def test_mask_nothing(self):
        g = path_graph(4)
        masked = mask_nodes(g, set())
        assert masked.rows == g.rows

    def test_mask_everything_rejected(self):
        with pytest.raises(InputError):
            mask_nodes(path_graph(3), {0, 1, 2})

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            mask_nodes(path_graph(3), {7})


class TestRankNodes:
    def test_star_center_first(self):
        assert rank_nodes(star_graph(6))[0] == 5

    def test_path_interior_before_ends(self):
        ranking = rank_nodes(path_graph(5))
        assert ranking == [1, 2, 3, 0, 4]

    def test_ties_break_by_index(self):
        assert rank_nodes(complete_graph(5)) == [0, 1, 2, 3, 4]

    def test_integer_keys_sort_as_the_fractions(self):
        # The ensemble holds graphs scored in closed form and graphs that
        # fill a table, and graphs with tied scores.
        routes, ties = set(), 0
        for item in generate_er_dataset(200, seed=4):
            g = item.graph
            scores = compute_influence(g).shapley
            routes.add(_chordal_scores(g) is None)
            ties += len(set(scores)) < g.n
            assert rank_nodes(g) == sorted(range(g.n), key=lambda i: (-scores[i], i))
        assert routes == {False, True}
        assert ties

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_scores_rank_in_the_order_of_mu(self, g):
        mu = compute_influence(g).mu
        assert rank_nodes(g) == sorted(range(g.n), key=lambda i: (-mu[i], i))


class TestGenerateDataset:
    def test_quotas_near_equal(self):
        ds = generate_er_dataset(31, seed=3)
        counts = {c: 0 for c in (1, 2, 3)}
        for item in ds:
            counts[item.label] += 1
        assert counts == {1: 11, 2: 10, 3: 10}

    def test_labels_match_oracle_and_ranges(self):
        ds = generate_er_dataset(24, n_range=(8, 14), seed=5)
        for item in ds:
            assert item.label == betti0(item.graph)
            assert 1 <= item.label <= 3
            assert 8 <= item.graph.n <= 14

    @pytest.mark.parametrize("seed", range(10))
    def test_draws_match_reference_route(self, seed):
        assert dataset_key(generate_er_dataset(200, seed=seed)) == dataset_key(
            reference_er_dataset(200, seed=seed)
        )

    @pytest.mark.parametrize("n_range, p_range", [
        ((1, 3), (0.0, 0.0)),
        ((5, 9), (0.0, 0.3)),
    ])
    def test_draws_match_reference_route_at_other_ranges(self, n_range, p_range):
        for seed in range(3):
            got = generate_er_dataset(30, n_range=n_range, p_range=p_range, seed=seed)
            want = reference_er_dataset(30, n_range=n_range, p_range=p_range, seed=seed)
            assert dataset_key(got) == dataset_key(want)

    def test_budget_error_matches_reference_route(self, monkeypatch):
        monkeypatch.setattr(masking, "ATTEMPTS_PER_GRAPH", 2)
        ranges = dict(n_range=(20, 20), p_range=(0.9, 1.0), seed=0)
        with pytest.raises(GenerationBudgetError) as got:
            generate_er_dataset(3, **ranges)
        with pytest.raises(GenerationBudgetError) as want:
            reference_er_dataset(3, **ranges)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("count, n_range, p_range", [
        (31, (3, 6), (0.0, 0.3)),
        (32, (3, 6), (0.02, 0.21)),
        (31, (3, 6), (0.5, 1.0)),
        (31, (8, 14), (0.0, 0.3)),
        (32, (8, 14), (0.02, 0.21)),
        (31, (8, 14), (0.3, 1.0)),
        # These exhaust the budget.
        (31, (3, 6), (0.0, 0.02)),
        (31, (8, 14), (0.6, 0.95)),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_draws_match_walking_every_draw(self, monkeypatch, count, n_range, p_range, seed):
        # Ranges that cannot fill exhaust a budget kept small: both routes
        # must then give the same error text.
        monkeypatch.setattr(masking, "ATTEMPTS_PER_GRAPH", 200)
        args = dict(n_range=n_range, p_range=p_range, seed=seed)
        assert outcome(generate_er_dataset, count, **args) == outcome(
            walk_every_draw_dataset, count, **args
        )

    @pytest.mark.parametrize("seed", [1, 4])
    def test_draws_with_too_few_edges_are_not_walked(self, monkeypatch, seed):
        draws, walks = [], []
        er_edges, walk = masking._er_edges, masking.component_changes

        def drawn(rng, n, p):
            edges = er_edges(rng, n, p)
            draws.append((n, len(edges)))
            return edges

        def walked(neighbors, order):
            changes = walk(neighbors, order)
            walks.append((len(draws), sum(changes)))
            return changes

        monkeypatch.setattr(masking, "_er_edges", drawn)
        monkeypatch.setattr(masking, "component_changes", walked)
        generate_er_dataset(200, seed=seed)
        assert len(walks) < len(draws)
        # Replay the quotas: draw k is walked exactly when its n - m is at
        # most the largest class that still had room.
        quota, filled = {1: 67, 2: 67, 3: 66}, {1: 0, 2: 0, 3: 0}
        labels = iter(walks)
        for k, (n, m) in enumerate(draws, 1):
            room = max(c for c in quota if filled[c] < quota[c])
            if n - m > room:
                continue
            at, label = next(labels)
            assert at == k
            if label in quota and filled[label] < quota[label]:
                filled[label] += 1
        assert next(labels, None) is None
        assert filled == quota

    def test_complex_built_only_for_kept_draws(self, monkeypatch):
        built = []
        from_edges = NeighborComplex.from_edges.__func__

        def counting(cls, n, edges):
            built.append(n)
            return from_edges(cls, n, edges)

        monkeypatch.setattr(NeighborComplex, "from_edges", classmethod(counting))
        dataset = generate_er_dataset(60, seed=1)
        assert built == [item.graph.n for item in dataset]

    def test_deterministic(self):
        a = generate_er_dataset(15, seed=9)
        b = generate_er_dataset(15, seed=9)
        assert [(x.graph.rows, x.label) for x in a] == [
            (y.graph.rows, y.label) for y in b
        ]

    def test_budget_exhaustion_reports_parameters(self):
        # n=2 at p=1 is always connected: classes 2 and 3 unreachable.
        with pytest.raises(GenerationBudgetError, match="p_range"):
            generate_er_dataset(3, n_range=(2, 2), p_range=(1.0, 1.0), seed=0)

    @pytest.mark.parametrize("n_range, p_range, first", [
        ((1, 2), (0.1, 0.5), 3),  # class 3 needs 3 vertices
        ((5, 9), (1.0, 1.0), 2),  # every graph is complete: class 1 alone
        ((4, 9), (0.0, 0.0), 1),  # the label is n, at least 4
        ((2, 9), (0.0, 0.0), 1),  # class 1 needs n = 1
        ((1, 2), (0.0, 0.0), 3),  # class 3 needs n = 3
    ])
    def test_unreachable_class_refused_before_any_draw(
        self, monkeypatch, n_range, p_range, first
    ):
        def refuse(*args):
            raise AssertionError("a graph was drawn for ranges that cannot fill")

        monkeypatch.setattr(masking, "_er_edges", refuse)
        with pytest.raises(GenerationBudgetError, match=f"give {first} components.*p_range"):
            generate_er_dataset(30, n_range=n_range, p_range=p_range, seed=0)

    def test_edgeless_ranges_that_reach_every_class_fill(self):
        ds = generate_er_dataset(6, n_range=(1, 3), p_range=(0.0, 0.0), seed=1)
        assert sorted(item.label for item in ds) == [1, 1, 2, 2, 3, 3]
        assert all(item.label == item.graph.n for item in ds)

    def test_budget_exhaustion_when_every_class_is_reachable(self, monkeypatch):
        # p just under 1 on 20 vertices can give 2 components, but in
        # practice never does: the budget runs out.
        monkeypatch.setattr(masking, "ATTEMPTS_PER_GRAPH", 2)
        with pytest.raises(GenerationBudgetError, match="after 6 attempts"):
            generate_er_dataset(3, n_range=(20, 20), p_range=(0.9, 1.0), seed=0)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            generate_er_dataset(2, seed=0)
        with pytest.raises(InputError):
            generate_er_dataset(9, n_range=(5, 3), seed=0)
        with pytest.raises(InputError):
            generate_er_dataset(9, p_range=(0.5, 0.1), seed=0)


class TestExperiment:
    def test_j_zero_never_flips(self):
        ds = generate_er_dataset(9, seed=11)
        report = run_masking_experiment(ds, j_values=(0,), seed=11)
        assert report.rate(0, "top") == 0.0
        assert report.rate(0, "bottom") == 0.0
        assert report.rate(0, "random") == 0.0

    def test_row_shape_and_determinism(self):
        ds = generate_er_dataset(6, seed=2)
        a = run_masking_experiment(ds, j_values=(1, 2), seed=4)
        b = run_masking_experiment(ds, j_values=(1, 2), seed=4)
        assert a.rows == b.rows
        assert len(a.rows) == 6 * 2 * 3
        assert {r.variant for r in a.rows} == {"top", "bottom", "random"}

    def test_masks_remove_exactly_j(self):
        ds = generate_er_dataset(6, seed=2)
        report = run_masking_experiment(ds, j_values=(3,), seed=1)
        for row in report.rows:
            assert row.n - 3 > 0

    def test_oracle_label_recomputed(self):
        # A single connected triangle: any 1-vertex mask leaves 2 vertices
        # of a triangle, still connected, so nothing flips.
        triangle = LabeledGraph(graph=complete_graph(3), label=1)
        report = run_masking_experiment([triangle], j_values=(1,), seed=0)
        assert all(not r.flipped for r in report.rows)
        assert all(r.label_after == 1 for r in report.rows)

    def test_j_must_fit_smallest_graph(self):
        ds = [LabeledGraph(graph=complete_graph(3), label=1)]
        with pytest.raises(InputError):
            run_masking_experiment(ds, j_values=(3,), seed=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            run_masking_experiment([], j_values=(1,), seed=0)

    def test_rate_requires_matching_rows(self):
        ds = generate_er_dataset(6, seed=2)
        report = run_masking_experiment(ds, j_values=(1,), seed=0)
        with pytest.raises(InputError):
            report.rate(2, "top")

    def test_rate_is_the_flipped_share_of_matching_rows(self):
        ds = generate_er_dataset(12, seed=3)
        report = run_masking_experiment(ds, j_values=(1, 2, 3), seed=3)
        for j in (1, 2, 3):
            for variant in masking.VARIANTS:
                hits = [r for r in report.rows if r.j == j and r.variant == variant]
                assert report.rate(j, variant) == sum(r.flipped for r in hits) / len(hits)
        with pytest.raises(InputError):
            report.rate(1, "middle")

    def test_two_walks_per_graph_and_one_per_random_mask(self, monkeypatch):
        ds = generate_er_dataset(30, seed=5)
        for j_values in [(1, 2, 3), (0,), (3, 1, 3), (2, 0)]:
            walks = count_walks(monkeypatch)
            run_masking_experiment(ds, j_values=j_values, seed=5)
            assert walks == [
                item.graph.n for item in ds for _ in range(2 + len(j_values))
            ]
            monkeypatch.undo()

    @given(
        graphs=st.lists(small_graphs(min_n=4), min_size=1, max_size=4),
        j_values=st.lists(st.integers(0, 3), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(graphs=[path_graph(5), star_graph(6)], j_values=[0], seed=0)
    @example(graphs=[path_graph(7), star_graph(4)], j_values=[3, 1, 2], seed=3)
    @example(graphs=[complete_graph(4), path_graph(6)], j_values=[2, 0, 2, 2], seed=9)
    @settings(max_examples=60, deadline=None)
    def test_every_label_is_b0_of_the_survivors(self, graphs, j_values, seed):
        ds = [LabeledGraph(graph=g, label=betti0(g)) for g in graphs]
        report = run_masking_experiment(ds, j_values=tuple(j_values), seed=seed)
        rows = iter(report.rows)
        for g_index, g in enumerate(graphs):
            ranking = rank_nodes(g)
            full = (1 << g.n) - 1
            for j in j_values:
                rng = philox_block(seed, (g_index << 20) | j)
                masks = {
                    "top": ranking[:j],
                    "bottom": ranking[g.n - j:],
                    "random": rng.choice(g.n, size=j, replace=False).tolist(),
                }
                for variant in masking.VARIANTS:
                    row = next(rows)
                    removed = sum(1 << v for v in masks[variant])
                    label = betti0(g, full & ~removed)
                    assert row == (g_index, g.n, j, variant, betti0(g), label)
        assert next(rows, None) is None


def split_experiment(monkeypatch, dataset, j_values, seed):
    """``split_and_serial`` of a masking run.  A run splits first after
    three graphs, into as many ranges as there are usable CPUs and graphs
    left."""
    return split_and_serial(
        monkeypatch,
        lambda: run_masking_experiment(dataset, j_values=j_values, seed=seed),
    )


@pytest.fixture(scope="module")
def ensemble():
    """The paper's settings at 200 graphs: 8-14 vertices each."""
    return generate_er_dataset(200, seed=7)


class TestSplitRuns:
    """A masking run split over forked processes by graph range gives the
    same report as one that never splits, whatever the split."""

    def test_split_equals_serial(self, monkeypatch, ensemble):
        split, forks, serial = split_experiment(monkeypatch, ensemble, (1, 2, 3), 7)
        assert split == serial
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert forks == parallel.usable_cpus() - 1
        assert no_child_left()

    @pytest.mark.parametrize(
        "j_values", [(), (0,), (3,), (3, 1, 3), (2, 0), (7, 1, 2, 3, 4, 5, 6)]
    )
    def test_any_j_list(self, monkeypatch, ensemble, j_values):
        split, forks, serial = split_experiment(monkeypatch, ensemble[:40], j_values, 2)
        assert split == serial
        assert len(split.rows) == 40 * len(j_values) * 3
        assert forks == parallel.usable_cpus() - 1
        assert no_child_left()

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 9])
    def test_any_number_of_graphs(self, monkeypatch, ensemble, count):
        # From 4 graphs on, a split leaves one to six, fewer than the CPUs
        # or more; no more processes start than CPUs are usable.
        split, forks, serial = split_experiment(monkeypatch, ensemble[:count], (1, 2), 5)
        assert split == serial
        assert forks == max(0, min(parallel.usable_cpus(), count - 3) - 1)
        assert no_child_left()

    @pytest.mark.parametrize(
        "failure", ["exit before sending", "raise", "killed", "unstartable", "pinning refused"]
    )
    def test_failed_child_range_is_walked_here(self, monkeypatch, ensemble, failure):
        if parallel.usable_cpus() < 2:
            pytest.skip("one usable CPU: no run splits")
        dataset = ensemble[:30]
        parent = os.getpid()
        rank = masking.rank_nodes

        def failing(graph):
            if os.getpid() != parent:
                if failure == "exit before sending":
                    os._exit(0)
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("child failed")
            return rank(graph)

        def no_process():
            raise BlockingIOError("fork refused")

        def refused(pid, cpus):
            raise PermissionError("pinning refused")

        monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
        if failure == "unstartable":
            monkeypatch.setattr(os, "fork", no_process)
        elif failure == "pinning refused":
            monkeypatch.setattr(os, "sched_setaffinity", refused)
        else:
            monkeypatch.setattr(masking, "rank_nodes", failing)
        split = run_masking_experiment(dataset, j_values=(1, 2, 3), seed=3)
        monkeypatch.undo()
        assert split == run_masking_experiment(dataset, j_values=(1, 2, 3), seed=3)
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert no_child_left()

    def test_bench_traced_job_never_forks(self, monkeypatch, tmp_path):
        # The bench's traced run counts 1 + 6 exact rankings, all in the
        # parent: six graphs of 5-7 vertices rank in well under a
        # millisecond, so the run stays in one process.
        def refuse():
            raise AssertionError("a 6-graph masking run forked")

        monkeypatch.setattr(os, "fork", refuse)
        out = tmp_path / "mask.json"
        argv = ["mask", "--count", "6", "--n-range", "5:7", "--j", "1"]
        assert cli.main([*argv, "--format", "json", "--output", str(out)]) == 0
        assert out.stat().st_size > 0
