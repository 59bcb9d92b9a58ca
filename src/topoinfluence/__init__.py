"""Per-sample influence on the component structure of neighbor complexes.

Fix a metric on a dataset and a resolution r; samples closer than r
become adjacent, and the number of connected components of the
resulting graph is a property of the whole set.  This package splits
that property into per-sample Shapley scores, normalizes them into a
probability measure, and reports the measure's entropy.  Alongside the
engine: closed-form oracles for six graph families, DFA-enumerated
string datasets, and a node-masking experiment harness.
"""

__version__ = "0.1.0"

from .engine import (
    DEFAULT_EXACT_CAP,
    InfluenceResult,
    compute_influence,
    exact_shapley,
    permutation_marginals,
    sampled_shapley,
    shannon_entropy,
)
from .errors import (
    GenerationBudgetError,
    InputError,
    SizeCapError,
    TopoInfluenceError,
)
from .families import (
    FAMILIES,
    Family,
    IdentityReport,
    complete_bipartite_graph,
    complete_bipartite_scores,
    complete_graph,
    complete_scores,
    cycle_graph,
    cycle_scores,
    erdos_renyi_graph,
    get_family,
    path_graph,
    path_scores,
    star_graph,
    star_scores,
    verify_combinatorial_identities,
    wheel_graph,
    wheel_scores,
)
from .grammars import Grammar, builtin_grammar, enumerate_strings
from .homology import betti0, betti0_table
from .masking import (
    LabeledGraph,
    MaskingReport,
    MaskRow,
    generate_er_dataset,
    mask_nodes,
    rank_nodes,
    run_masking_experiment,
)
from .metric_complex import (
    DistanceMatrix,
    LabeledPointSet,
    NeighborComplex,
    build_complex,
    build_distance_matrix,
    edit_distance,
    neighbor_pairs,
)

__all__ = [
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
]
