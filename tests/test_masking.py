import pytest

from topoinfluence import (
    GenerationBudgetError,
    InputError,
    LabeledGraph,
    betti0,
    complete_graph,
    generate_er_dataset,
    mask_nodes,
    path_graph,
    rank_nodes,
    run_masking_experiment,
    star_graph,
)


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
