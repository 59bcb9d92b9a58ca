import re
from pathlib import Path

import topoinfluence

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = (
    "__version__",
    "DEFAULT_EXACT_CAP",
    "DistanceMatrix",
    "FAMILIES",
    "Family",
    "GenerationBudgetError",
    "Grammar",
    "IdentityReport",
    "InfluenceResult",
    "InputError",
    "LabeledGraph",
    "LabeledPointSet",
    "MaskRow",
    "MaskingReport",
    "NeighborComplex",
    "SizeCapError",
    "TopoInfluenceError",
    "betti0",
    "betti0_table",
    "builtin_grammar",
    "build_complex",
    "build_distance_matrix",
    "complete_bipartite_graph",
    "complete_bipartite_scores",
    "complete_graph",
    "complete_scores",
    "compute_influence",
    "cycle_graph",
    "cycle_scores",
    "edit_distance",
    "enumerate_strings",
    "erdos_renyi_graph",
    "exact_shapley",
    "generate_er_dataset",
    "get_family",
    "mask_nodes",
    "neighbor_pairs",
    "path_graph",
    "path_scores",
    "permutation_marginals",
    "rank_nodes",
    "run_masking_experiment",
    "sampled_shapley",
    "shannon_entropy",
    "star_graph",
    "star_scores",
    "verify_combinatorial_identities",
    "wheel_graph",
    "wheel_scores",
)


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 49
    assert tuple(topoinfluence.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(topoinfluence, name), name


def test_readme_library_block_prints_its_comments(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert len(comments) == 2
    # The entropy comment names its unit after the printed value.
    assert printed == [comment.removesuffix(" nats") for comment in comments]
