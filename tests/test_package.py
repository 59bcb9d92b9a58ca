import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import topoinfluence

README = Path(__file__).resolve().parents[1] / "README.md"

# The package under test, first on the path of the interpreters started here.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(topoinfluence.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")])
)}

# Imports the module named in its argument before the package's __init__
# runs, so that the module's own imports, not __init__'s order, decide
# which module loads first; then runs __init__ and imports cli.  cli reads
# the package's __version__, so it alone comes after __init__.
IMPORT_FIRST = """import importlib, importlib.util, sys
spec = importlib.util.find_spec("topoinfluence")
package = sys.modules["topoinfluence"] = importlib.util.module_from_spec(spec)
if sys.argv[1] != "cli":
    importlib.import_module("topoinfluence." + sys.argv[1])
spec.loader.exec_module(package)
importlib.import_module("topoinfluence.cli")
"""

MODULES = sorted(module.name for module in pkgutil.iter_modules(topoinfluence.__path__))

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


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(name):
    # An import cycle shows only when a module on it is imported first.
    done = subprocess.run([sys.executable, "-c", IMPORT_FIRST, name], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_the_split_machinery_unloaded():
    # Only sampled and masking runs import topoinfluence.parallel, and
    # with it signal, from inside the function that splits; every CLI
    # start would pay for them if cli pulled them in at import.
    probe = ("import sys, topoinfluence.cli; "
             "print(*sorted({'topoinfluence.parallel', 'signal'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
